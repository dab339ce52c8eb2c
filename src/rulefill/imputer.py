"""Hybrid imputation: fire association rules per missing cell, fall back to
k-nearest-neighbor voting when no rule applies.

All evidence comes from the original dataset; an imputed value is never used
to impute another cell in the same pass, so results are independent of
record order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .binning import Bins
from .data import CATEGORICAL, NUMERIC, DataError, Dataset, Record
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


@dataclass
class ImputationReport:
    """Imputation results stored once per key, plus a parameter echo.

    ``keys`` holds one ``(value, source, rules, neighbor_ids)`` entry per
    distinct (record cells, attribute) key.  The imputed cells, in record
    order, are the parallel lists ``record_ids``, ``attributes`` and
    ``key_index`` (the cell's entry in ``keys``); ``cells`` views them.
    """

    keys: list[tuple]
    record_ids: list[int]
    attributes: list[int]
    key_index: list[int]
    attribute_names: tuple[str, ...]
    parameters: dict = field(default_factory=dict)

    @property
    def cells(self) -> list[CellImputation]:
        """A new list of one view per imputed cell; a key's cells share its tuples."""
        return [CellImputation(record_id, j, *self.keys[i])
                for record_id, j, i in zip(self.record_ids, self.attributes, self.key_index)]

    @property
    def n_imputed(self) -> int:
        return len(self.key_index)

    @property
    def n_from_rules(self) -> int:
        return sum(self.keys[i][1] == SOURCE_RULES for i in self.key_index)

    @property
    def n_from_knn(self) -> int:
        return self.n_imputed - self.n_from_rules

    def rule_coverage(self) -> float:
        """Fraction of imputed cells that came from fired rules."""
        return self.n_from_rules / self.n_imputed if self.key_index else 0.0

    def per_attribute(self) -> dict[str, dict[str, int]]:
        stats: dict[str, dict[str, int]] = {}
        for attribute, i in zip(self.attributes, self.key_index):
            name = self.attribute_names[attribute]
            entry = stats.setdefault(name, {"imputed": 0, "rules": 0, "knn": 0})
            entry["imputed"] += 1
            entry[self.keys[i][1]] += 1
        return stats

    def to_dict(self) -> dict:
        """The report as JSON-ready data, schema ``rulefill-report-v2``.

        Top-level keys: ``schema``, ``parameters``, ``totals``,
        ``per_attribute``, ``rules`` and ``cells``.  ``rules`` lists each
        distinct fired rule once (``rule_to_dict``), in
        ``AssociationRule.sort_key`` order, so it does not depend on record
        order.  Each cell gives ``row``, ``column``, ``value``, ``source``
        and ``provenance``: a rule cell's fired rules as positions in
        ``rules``, in firing order; a kNN cell's neighbor record ids.  Each
        key's provenance is resolved once and shared by its cells.
        """
        from .rules_io import rule_to_dict

        fired = sorted({r for key in self.keys for r in key[2]}, key=AssociationRule.sort_key)
        rule_ids = {r: i for i, r in enumerate(fired)}
        key_fields = [  # each key's part of its cells' entries
            {"value": value, "source": source, "provenance": (
                [rule_ids[r] for r in rules] if source == SOURCE_RULES else list(neighbor_ids)
            )}
            for value, source, rules, neighbor_ids in self.keys
        ]
        per_attribute = self.per_attribute()
        n_rules = sum(entry["rules"] for entry in per_attribute.values())
        return {
            "schema": "rulefill-report-v2",
            "parameters": self.parameters,
            "totals": {
                "imputed": self.n_imputed,
                "rules": n_rules,
                "knn": self.n_imputed - n_rules,
                "rule_coverage": n_rules / self.n_imputed if self.key_index else 0.0,
            },
            "per_attribute": per_attribute,
            "rules": [rule_to_dict(r) for r in fired],
            "cells": [
                {"row": record_id, "column": self.attribute_names[j], **key_fields[i]}
                for record_id, j, i in zip(self.record_ids, self.attributes, self.key_index)
            ],
        }


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
        low, high = reps[m // 2 - 1], reps[m // 2]
        median = (low + high) / 2.0
        # halve first only when the sum overflows, so finite results keep their bits
        return median if math.isfinite(median) else low / 2.0 + high / 2.0

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
    """Mine the rule set used for imputation from the known cells' tidsets."""
    params = params or MiningParams()
    frequents = mine_frequent(dataset.tidsets(bins, exclude), dataset.n_records, params)
    return generate_rules(frequents, params)


def impute_dataset(dataset: Dataset, rules, knn_params: KnnParams | None = None,
                   bins=None, exclude=(), parameters: dict | None = None):
    """Impute every missing cell of the dataset in one pass.

    Returns (completed dataset, report).  Each cell is imputed from the
    record's original known values only: fired rules when any match,
    otherwise the kNN fallback over the original dataset.

    A rule fires on a missing cell when its consequent targets the cell's
    attribute and the record holds each antecedent item (an AND of
    ``Dataset.tidsets`` bitsets); an empty antecedent fires on anything.
    Rules fire in ``AssociationRule.sort_key`` order (confidence
    descending, support descending, sorted antecedent, consequent level),
    and ``impute_from_rules`` turns a cell's fired rules into the value.
    The tidsets are built only when a rule targets a missing cell, so
    rule-less (kNN-only) imputation needs no bins.

    Work is per key, not per cell.  Each distinct (record cells, attribute)
    key is imputed once, from the first record that has it, and stored once
    in the report, whose cells are views of the keys; records with the same
    cells share one completed cells tuple.  This is exact.  Records with
    identical cells have the same items, and neither holds the attribute, so
    neither is a kNN candidate for the other and both are at the same
    distance from every candidate.
    """
    rules = sorted(rules, key=AssociationRule.sort_key)
    _check_rules_fit_schema(rules, dataset, bins)
    knn_params = knn_params or KnnParams()

    # Each distinct record cells with a missing cell -> (first position, missing
    # attributes); ``need``: per attribute, the bitset of the first positions lacking it.
    distinct, need = {}, {}
    for position, record in enumerate(dataset.records):
        if record.cells in distinct or None not in record.cells:
            continue
        missing = [j for j, cell in enumerate(record.cells) if cell is None]
        distinct[record.cells] = position, missing
        for j in missing:
            need[j] = need.get(j, 0) | 1 << position

    fired_at = {}  # (position, attribute) -> the rules fired there, in firing order
    if any(rule.consequent[0] in need for rule in rules):
        tidsets = dataset.tidsets(bins, exclude)
        for rule in rules:
            hits = need.get(rule.consequent[0], 0)
            for item in rule.antecedent:
                hits &= tidsets.get(item, 0)
            while hits:
                low = hits & -hits
                fired_at.setdefault((low.bit_length() - 1, rule.consequent[0]), []).append(rule)
                hits ^= low

    keys = []  # (value, source, rules, neighbor_ids) per key; None until kNN fills it
    # (record, attribute) for each key no rule covers, and the key's index; a
    # record's pending cells are adjacent, so they share one kNN distance row.
    pending, pending_keys = [], []
    for cells, (position, missing) in distinct.items():
        distinct[cells] = len(keys), missing  # its keys are consecutive in ``keys``
        for j in missing:
            fired = tuple(fired_at.get((position, j), ()))
            if fired:
                value = impute_from_rules(fired, dataset.schema[j], (bins or {}).get(j))
                keys.append((value, SOURCE_RULES, fired, ()))
            else:
                pending.append((dataset.records[position], j))
                pending_keys.append(len(keys))
                keys.append(None)
    if pending:
        knn = KnnImputer(dataset, knn_params, exclude)
        for i, (value, neighbor_ids) in zip(pending_keys, knn.impute_cells(pending)):
            keys[i] = (value, SOURCE_KNN, (), neighbor_ids)

    for cells, (first, missing) in distinct.items():  # one completed tuple per distinct cells
        values = (key[0] for key in keys[first:first + len(missing)])
        distinct[cells] = first, missing, tuple(next(values) if c is None else c for c in cells)
    records, record_ids, attributes, key_index = [], [], [], []
    for record in dataset.records:
        first, missing, filled = distinct.get(record.cells, (0, (), None))
        records.append(record if filled is None else Record(record.id, filled))
        record_ids.extend([record.id] * len(missing))
        attributes.extend(missing)
        key_index.extend(range(first, first + len(missing)))
    completed = Dataset(dataset.schema, records, dataset.class_column)
    report = ImputationReport(
        keys, record_ids, attributes, key_index,
        attribute_names=tuple(a.name for a in dataset.schema),
        parameters={"k": knn_params.k, "distance": knn_params.distance,
                    "rule_count": len(rules), **(parameters or {})},
    )
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
