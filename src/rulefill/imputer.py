"""Hybrid imputation: fire association rules per missing cell, fall back to
k-nearest-neighbor voting when no rule applies.

All evidence comes from the original dataset; an imputed value is never used
to impute another cell in the same pass, so results are independent of
record order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    and a cell's fired rules vote its value: categorical, the level most
    rules name, a count tie going to the level whose best rule has the
    highest confidence, then support, then to the lowest level index;
    numeric, the median of the consequent bins' representatives (the mean
    of the two middle ones for an even count).  The tidsets are built only
    when a rule targets a missing cell, so rule-less (kNN-only) imputation
    needs no bins.

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

    # One pass over the records: each record's group, numbered by first
    # appearance of its cells, or -1 when it misses nothing; per group, its
    # first position and missing attributes.  A group's keys are consecutive
    # in ``keys``, from ``first_key[g]``.
    group_of, groups, firsts, missing = {}, [], [], []
    for position, record in enumerate(dataset.records):
        if None not in record.cells:
            groups.append(-1)
            continue
        g = group_of.setdefault(record.cells, len(firsts))
        if g == len(firsts):
            firsts.append(position)
            missing.append([j for j, cell in enumerate(record.cells) if cell is None])
        groups.append(g)
    first_key = list(itertools.accumulate(map(len, missing), initial=0))

    keys = [None] * first_key[-1]  # (value, source, rules, neighbor_ids) per key
    for i, value, fired in _fire_rules(dataset, rules, bins, exclude, firsts, missing):
        keys[i] = (value, SOURCE_RULES, fired, ())
    # (record, attribute) for each key no rule covers, and the key's index; a
    # record's pending cells are adjacent, so they share one kNN distance row.
    pending = [(dataset.records[first], j, first_key[g] + m)
               for g, (first, lacking) in enumerate(zip(firsts, missing))
               for m, j in enumerate(lacking) if keys[first_key[g] + m] is None]
    if pending:
        knn = KnnImputer(dataset, knn_params, exclude)
        results = knn.impute_cells([(record, j) for record, j, _ in pending])
        for (_, _, i), (value, neighbor_ids) in zip(pending, results):
            keys[i] = (value, SOURCE_KNN, (), neighbor_ids)

    filled = []  # one completed cells tuple per group, in group order
    for cells, lacking, first in zip(group_of, missing, first_key):
        cells = list(cells)
        for m, j in enumerate(lacking):
            cells[j] = keys[first + m][0]
        filled.append(tuple(cells))
    records = [record if g < 0 else Record(record.id, filled[g])
               for record, g in zip(dataset.records, groups)]
    record_ids = [record.id for record, g in zip(dataset.records, groups) if g >= 0
                  for _ in missing[g]]
    attributes = [j for g in groups if g >= 0 for j in missing[g]]
    key_index = [i for g in groups if g >= 0 for i in range(first_key[g], first_key[g + 1])]
    completed = Dataset(dataset.schema, records, dataset.class_column)
    report = ImputationReport(
        keys, record_ids, attributes, key_index,
        attribute_names=tuple(a.name for a in dataset.schema),
        parameters={"k": knn_params.k, "distance": knn_params.distance,
                    "rule_count": len(rules), **(parameters or {})},
    )
    return completed, report


def _fire_rules(dataset: Dataset, rules, bins, exclude, firsts, missing):
    """(key index, value, fired rules) for each key some rule fires on.

    Keys are numbered group by group and, within a group, by attribute, as
    in ``impute_dataset``; ``rules`` are in firing order.  Each rule fires
    on every group at once: ``need[j]``, the bitset of the first positions
    of the groups lacking attribute j, ANDed with the bitsets of the rule's
    antecedent items (``Dataset.tidsets``).  Neither is built unless some
    rule targets a missing attribute.  One ``np.unpackbits`` turns the hits
    into (rule, key) pairs, and each key votes once from the counts of its
    rules' consequent levels or bins:

    * categorical: the rules of one target come sorted by (confidence,
      support) descending, so a level's first rule is its best, and a
      dense rank of (confidence, support) breaks count ties;
    * numeric: bin representatives do not decrease with the bin index, so
      the counts in bin order give the sorted representatives, and with
      them the middle one or two.
    """
    holes = set(itertools.chain.from_iterable(missing))
    if not any(rule.consequent[0] in holes for rule in rules):
        return []
    # Each key's attribute and its group's first position, in key order
    key_attrs = np.fromiter(itertools.chain.from_iterable(missing), np.intp)
    key_firsts = np.repeat(firsts, [len(js) for js in missing])
    need = {}
    for j in holes:
        lacking = np.zeros(dataset.n_records, bool)
        lacking[key_firsts[key_attrs == j]] = True
        need[j] = int.from_bytes(np.packbits(lacking, bitorder="little"), "little")

    tidsets = dataset.tidsets(bins, exclude)
    size = (dataset.n_records + 7) // 8
    hit_rules, hit_bits = [], bytearray()
    for rule in rules:
        hits = need.get(rule.consequent[0], 0)
        for item in rule.antecedent:
            hits &= tidsets.get(item, 0)
        if hits:
            hit_rules.append(rule)
            hit_bits += hits.to_bytes(size, "little")
    if not hit_rules:
        return []

    # (hit rule, position) pairs in firing order, unpacking only non-zero bytes
    packed = np.frombuffer(hit_bits, np.uint8)
    nonzero = np.flatnonzero(packed)
    byte, bit = np.divmod(np.flatnonzero(np.unpackbits(packed[nonzero], bitorder="little")), 8)
    which, positions = np.divmod(nonzero[byte] * 8 + bit, size * 8)
    fields = np.fromiter(itertools.chain.from_iterable(  # attribute, level, confidence, support
        (*r.consequent, r.confidence, r.support) for r in hit_rules), float).reshape(-1, 4)
    attrs, levels = fields[:, :2].T.astype(np.intp)
    # a dense rank of each hit rule's (confidence, support), ascending in firing order
    rank = np.cumsum(np.any(np.diff(fields[:, 2:], axis=0, prepend=np.nan) != 0, axis=1)) - 1
    width = dataset.n_attributes  # (position, attribute) codes ascend in key order
    pair_keys = np.searchsorted(key_firsts * width + key_attrs, positions * width + attrs[which])

    order = np.argsort(pair_keys, kind="stable")  # by key, each key's rules in firing order
    pair_keys, which = pair_keys[order], which[order]
    new_key = np.diff(pair_keys, prepend=-1) != 0
    starts, local = np.flatnonzero(new_key), np.cumsum(new_key) - 1  # local: covered key number
    span = int(levels.max()) + 1
    cells, first, counts = np.unique(local * span + levels[which], return_index=True,
                                     return_counts=True)
    count = np.zeros((len(starts), span), np.int64)
    count.flat[cells] = counts
    # categorical: the most rules, then the best first (strongest) rule, then the lowest level
    top = int(rank[-1]) + 1
    score = np.full(count.size, -1, np.int64)
    score[cells] = counts * top + (top - 1 - rank[which[first]])
    winners = score.reshape(count.shape).argmax(axis=1).tolist()
    # numeric: the bins of the two middle consequents
    running = count.cumsum(axis=1)
    totals = running[:, -1]
    lows = (running <= ((totals - 1) // 2)[:, None]).sum(axis=1).tolist()
    highs = (running <= (totals // 2)[:, None]).sum(axis=1).tolist()

    fired = [hit_rules[w] for w in which.tolist()]
    bounds = [*starts.tolist(), len(fired)]
    votes = []
    for u, (i, j) in enumerate(zip(pair_keys[starts].tolist(), attrs[which[starts]].tolist())):
        attr = dataset.schema[j]
        if attr.kind == NUMERIC:
            reps = bins[j].representatives
            low, high = reps[lows[u]], reps[highs[u]]
            value = low if totals[u] % 2 else (low + high) / 2.0
            if not math.isfinite(value):  # halve first only when the sum overflows
                value = low / 2.0 + high / 2.0
        else:
            value = attr.levels[winners[u]]
        votes.append((i, value, tuple(fired[bounds[u]:bounds[u + 1]])))
    return votes


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
