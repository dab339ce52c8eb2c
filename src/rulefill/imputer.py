"""Hybrid imputation: fire association rules per missing cell, fall back to
k-nearest-neighbor voting when no rule applies.

All evidence comes from the original dataset; an imputed value is never used
to impute another cell in the same pass, so results are independent of
record order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binning import Bins
from .data import CATEGORICAL, NUMERIC, DataError, Dataset
from .knn import KnnImputer, KnnParams
from .mining import AssociationRule, MiningParams, generate_rules, mine_frequent

SOURCE_RULES = "rules"
SOURCE_KNN = "knn"


@dataclass(frozen=True)
class CellImputation:
    """What one missing cell received and where the value came from."""

    record_id: int
    attribute: int
    value: object
    source: str
    rules: tuple = ()
    neighbor_ids: tuple = ()

    def __post_init__(self):
        if self.source not in (SOURCE_RULES, SOURCE_KNN):
            raise ValueError(f"unknown imputation source: {self.source!r}")
        if self.source == SOURCE_RULES and not self.rules:
            raise ValueError("rule-sourced imputation needs at least one fired rule")


@dataclass
class ImputationReport:
    """Per-cell imputation log plus aggregate counts and a parameter echo."""

    cells: list[CellImputation]
    attribute_names: tuple[str, ...]
    parameters: dict = field(default_factory=dict)

    @property
    def n_imputed(self) -> int:
        return len(self.cells)

    @property
    def n_from_rules(self) -> int:
        return sum(1 for c in self.cells if c.source == SOURCE_RULES)

    @property
    def n_from_knn(self) -> int:
        return sum(1 for c in self.cells if c.source == SOURCE_KNN)

    def rule_coverage(self) -> float:
        """Fraction of imputed cells that came from fired rules."""
        return self.n_from_rules / self.n_imputed if self.cells else 0.0

    def per_attribute(self) -> dict[str, dict[str, int]]:
        stats: dict[str, dict[str, int]] = {}
        for cell in self.cells:
            name = self.attribute_names[cell.attribute]
            entry = stats.setdefault(name, {"imputed": 0, "rules": 0, "knn": 0})
            entry["imputed"] += 1
            entry[cell.source] += 1
        return stats

    def to_dict(self) -> dict:
        from .rules_io import rule_to_dict

        return {
            "parameters": self.parameters,
            "totals": {
                "imputed": self.n_imputed,
                "rules": self.n_from_rules,
                "knn": self.n_from_knn,
                "rule_coverage": self.rule_coverage(),
            },
            "per_attribute": self.per_attribute(),
            "cells": [
                {
                    "row": c.record_id,
                    "column": self.attribute_names[c.attribute],
                    "value": c.value,
                    "source": c.source,
                    "provenance": (
                        [rule_to_dict(r) for r in c.rules]
                        if c.source == SOURCE_RULES
                        else list(c.neighbor_ids)
                    ),
                }
                for c in self.cells
            ],
        }


def _firing_key(rule: AssociationRule):
    return (-rule.confidence, -rule.support, tuple(sorted(rule.antecedent)), rule.consequent[1])


def impute_from_rules(fired, attribute_schema, bins: Bins | None = None):
    """Value for a cell from its fired rules.

    Categorical: mode of the consequent levels; a count tie goes to the
    level whose best backing rule has the highest confidence, then support,
    then the lowest level index.  Numeric: median of the consequent bins'
    representative values (even count: mean of the two middle ones).
    """
    if not fired:
        raise ValueError("no fired rules; the caller must fall back to knn")
    if attribute_schema.kind == NUMERIC:
        if bins is None:
            raise ValueError("numeric rule imputation needs the fitted bins")
        reps = sorted(bins.representatives[r.consequent[1]] for r in fired)
        m = len(reps)
        if m % 2:
            return reps[m // 2]
        return (reps[m // 2 - 1] + reps[m // 2]) / 2.0

    stats: dict[int, tuple[int, tuple[float, float]]] = {}
    for r in fired:
        level = r.consequent[1]
        count, best = stats.get(level, (0, (-1.0, -1.0)))
        stats[level] = (count + 1, max(best, (r.confidence, r.support)))
    winner = min(
        stats,
        key=lambda lvl: (-stats[lvl][0], -stats[lvl][1][0], -stats[lvl][1][1], lvl),
    )
    return attribute_schema.levels[winner]


def mine_rules(dataset: Dataset, params: MiningParams | None = None, bins=None,
               exclude=()) -> list[AssociationRule]:
    """Itemize the known cells and mine the rule set used for imputation."""
    params = params or MiningParams()
    itemized = dataset.itemize_all(bins, exclude)
    frequents = mine_frequent(itemized, params)
    return generate_rules(frequents, params)


def impute_dataset(dataset: Dataset, rules, knn_params: KnnParams | None = None,
                   bins=None, exclude=(), parameters: dict | None = None):
    """Impute every missing cell of the dataset in one pass.

    Returns (completed dataset, report).  Each cell is imputed from the
    record's original known values only: fired rules when any match,
    otherwise the kNN fallback over the original dataset.

    A rule fires on a missing cell when its consequent targets the cell's
    attribute and its antecedent is contained in the record's items
    (``Dataset.itemize``); an empty antecedent fires on anything.  Fired
    rules are ordered confidence descending, support descending, sorted
    antecedent, consequent level, and ``impute_from_rules`` turns them into
    the value.  A record is itemized only when a rule targets one of its
    missing attributes, so rule-less (kNN-only) imputation needs no bins.
    """
    rules = list(rules)
    _check_rules_fit_schema(rules, dataset, bins)
    knn_params = knn_params or KnnParams()

    # Each consequent attribute's rules in firing order, so a plain filtered
    # scan yields the fired rules already ordered.
    rule_index: dict[int, list[AssociationRule]] = {}
    for rule in rules:
        rule_index.setdefault(rule.consequent[0], []).append(rule)
    for bucket in rule_index.values():
        bucket.sort(key=_firing_key)

    # Phase 1 fires rules for every missing cell; the cells no rule covers
    # keep a slot, and phase 2 fills them all in one batched kNN call.
    imputations: list[CellImputation | None] = []
    pending = []  # (record, attribute) of each cell no rule covers
    for record in dataset.records:
        missing = [j for j, cell in enumerate(record.cells) if cell is None]
        targeted = any(j in rule_index for j in missing)
        known = dataset.itemize(record, bins, exclude) if targeted else frozenset()
        for j in missing:
            fired = tuple(r for r in rule_index.get(j, ()) if r.antecedent <= known)
            if fired:
                value = impute_from_rules(fired, dataset.schema[j], (bins or {}).get(j))
                imputations.append(
                    CellImputation(record.id, j, value, SOURCE_RULES, rules=fired)
                )
            else:
                pending.append((record, j))
                imputations.append(None)
    if pending:
        knn = KnnImputer(dataset, knn_params, exclude)
        filled = zip(pending, knn.impute_cells(pending))
        for slot, cell in enumerate(imputations):
            if cell is None:
                (record, j), (value, neighbor_ids) = next(filled)
                imputations[slot] = CellImputation(
                    record.id, j, value, SOURCE_KNN, neighbor_ids=neighbor_ids
                )

    completed = dataset.replace_cells(
        {(c.record_id, c.attribute): c.value for c in imputations}
    )
    report = ImputationReport(
        cells=imputations,
        attribute_names=tuple(a.name for a in dataset.schema),
        parameters=dict(parameters or {}),
    )
    report.parameters.setdefault("k", knn_params.k)
    report.parameters.setdefault("distance", knn_params.distance)
    report.parameters.setdefault("rule_count", len(rules))
    return completed, report


def _check_rules_fit_schema(rules, dataset: Dataset, bins) -> None:
    # Each distinct item once, in sorted order, so the item an error names
    # does not depend on the rule order.
    items = set().union(*[r.antecedent for r in rules], [r.consequent for r in rules])
    for attribute, level in sorted(items):
        if not 0 <= attribute < dataset.n_attributes:
            raise DataError(
                f"rule references attribute index {attribute}, "
                f"dataset has {dataset.n_attributes}"
            )
        attr = dataset.schema[attribute]
        if attr.kind == CATEGORICAL:
            if not 0 <= level < len(attr.levels):
                raise DataError(
                    f"rule references level {level} of {attr.name!r}, "
                    f"which has {len(attr.levels)} levels"
                )
        else:
            fitted = (bins or {}).get(attribute)
            if fitted is None:
                raise DataError(f"rules target numeric {attr.name!r} but no bins given")
            if not 0 <= level < fitted.n_bins:
                raise DataError(
                    f"rule references bin {level} of {attr.name!r}, "
                    f"which has {fitted.n_bins} bins"
                )
