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
from .rules_io import rule_to_dict

SOURCE_RULES = "rules"
SOURCE_KNN = "knn"


@dataclass(frozen=True)
class CellImputation:
    """One missing cell's value and source; ``rules`` are positions in the report's ``rules``."""

    record_id: int
    attribute: int
    value: object
    source: str
    rules: tuple = ()
    neighbor_ids: tuple = ()


@dataclass
class ImputationReport:
    """Imputation results stored once per key, plus a parameter echo.

    ``rules`` lists each rule that fired, once per copy in the rule list, in
    firing order.  ``keys`` holds one ``(attribute, value, source, rules,
    neighbor_ids)`` entry per distinct (encoded cells, attribute) key: a
    ``CellImputation`` without its record id.  The imputed cells, in record
    order, are the parallel lists ``record_ids`` and ``key_index`` (the cell's
    entry in ``keys``); ``cells`` views them.
    """

    rules: list[AssociationRule]
    keys: list[tuple]
    record_ids: list[int]
    key_index: list[int]
    attribute_names: tuple[str, ...]
    parameters: dict = field(default_factory=dict)

    @property
    def cells(self) -> list[CellImputation]:
        """A new list of one view per imputed cell; a key's cells share its tuples."""
        return [CellImputation(record_id, *self.keys[i])
                for record_id, i in zip(self.record_ids, self.key_index)]

    @property
    def n_imputed(self) -> int:
        return len(self.key_index)

    @property
    def n_from_rules(self) -> int:
        return sum(self.keys[i][2] == SOURCE_RULES for i in self.key_index)

    @property
    def n_from_knn(self) -> int:
        return self.n_imputed - self.n_from_rules

    def rule_coverage(self) -> float:
        """Fraction of imputed cells that came from fired rules."""
        return self.n_from_rules / self.n_imputed if self.key_index else 0.0

    def per_attribute(self) -> dict[str, dict[str, int]]:
        stats: dict[str, dict[str, int]] = {}
        for i in self.key_index:
            attribute, _, source, _, _ = self.keys[i]
            entry = stats.setdefault(self.attribute_names[attribute],
                                     {"imputed": 0, "rules": 0, "knn": 0})
            entry["imputed"] += 1
            entry[source] += 1
        return stats

    def to_dict(self) -> dict:
        """The report as JSON-ready data, schema ``rulefill-report-v2``.

        Top-level keys: ``schema``, ``parameters``, ``totals``,
        ``per_attribute``, ``rules`` and ``cells``.  ``rules`` is the report's
        ``rules`` (``rule_to_dict``), in firing order, so it does not depend
        on record order.  Each cell gives ``row``, ``column``, ``value``,
        ``source`` and ``provenance``: a rule cell's fired rules as positions
        in ``rules``, in firing order; a kNN cell's neighbor record ids.  Each
        key's column, value, source and provenance are resolved once and
        shared by its cells.
        """
        key_fields = [  # each key's part of its cells' entries
            {"column": self.attribute_names[j], "value": value, "source": source,
             "provenance": list(rules or neighbor_ids)}
            for j, value, source, rules, neighbor_ids in self.keys
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
            "rules": [rule_to_dict(r) for r in self.rules],
            "cells": [{"row": record_id, **key_fields[i]}
                      for record_id, i in zip(self.record_ids, self.key_index)],
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

    Work is per key, not per cell.  Records missing a cell are grouped by
    their encoded cells (``Dataset.columns``: level codes and numeric values,
    bit for bit), and each distinct (encoded cells, attribute) key is imputed
    once, from the first record that has it, and stored once in the report,
    whose cells are views of the keys.  This is exact.  Records with equal
    encoded cells have the same items, and neither holds the attribute, so
    neither is a kNN candidate for the other and both are at the same
    distance from every candidate.  Each completed record keeps its own
    cells' text, so ``1.0`` and ``1.00`` share a key but not a cell.
    """
    rules = sorted(rules, key=AssociationRule.sort_key)
    _check_rules_fit_schema(rules, dataset, bins)
    knn_params = knn_params or KnnParams()
    key_firsts, key_attrs, lacking, rows, key_index = _key_table(dataset)

    attributes = key_attrs.tolist()
    keys = [None] * len(attributes)  # (attribute, value, source, rules, neighbor_ids) per key
    hit_rules, *covered = _fire_rules(dataset, rules, bins, exclude, key_firsts, key_attrs)
    for i, value, positions in zip(*covered):
        keys[i] = (attributes[i], value, SOURCE_RULES, positions, ())
    # The keys no rule covers; a record's are adjacent and share one kNN distance row
    pending = [i for i, key in enumerate(keys) if key is None]
    if pending:
        knn = KnnImputer(dataset, knn_params, exclude)
        results = knn._impute(key_firsts[pending], key_attrs[pending])
        for i, (value, neighbor_ids) in zip(pending, results):
            keys[i] = (attributes[i], value, SOURCE_KNN, (), neighbor_ids)

    # Each record fills its own cells
    originals = [dataset.records[p] for p in lacking.tolist()]
    cells = [list(record.cells) for record in originals]
    rows, targets, key_index = rows.tolist(), key_attrs[key_index].tolist(), key_index.tolist()
    for r, j, i in zip(rows, targets, key_index):
        cells[r][j] = keys[i][1]
    records, ids = list(dataset.records), [record.id for record in originals]
    for p, record in zip(lacking.tolist(), map(Record, ids, map(tuple, cells))):
        records[p] = record
    report = ImputationReport(
        hit_rules, keys, [ids[r] for r in rows], key_index,
        attribute_names=tuple(a.name for a in dataset.schema),
        parameters={"k": knn_params.k, "distance": knn_params.distance,
                    "rule_count": len(rules), **(parameters or {})},
    )
    return dataset._refilled(records), report


def _key_table(dataset: Dataset):
    """``(key_firsts, key_attrs, lacking, rows, key_index)`` from the encoded columns.

    A key is an attribute that a group of records with equal encoded cells
    (categorical codes and numeric values, bit for bit) lacks.  Per key, in
    order: its group's first position and its attribute.  ``lacking`` holds
    the positions of the records missing a cell; per missing cell, in record
    order: its record's index in ``lacking`` and its key.
    """
    codes, values = dataset.columns
    missing = (codes < 0) & np.isnan(values)  # attributes x records
    lacking = np.flatnonzero(missing.any(axis=0))
    numeric = np.array([attr.kind == NUMERIC for attr in dataset.schema], bool)
    encoded = np.hstack([  # a row of bytes per record missing a cell
        np.ascontiguousarray(codes[np.ix_(~numeric, lacking)].T).view(np.uint8),
        np.ascontiguousarray(values[np.ix_(numeric, lacking)].T).view(np.uint8)])
    _, first, group = np.unique(encoded.view(np.dtype((np.void, encoded.shape[1]))).ravel(),
                                return_index=True, return_inverse=True)
    rows, attrs = np.nonzero(missing[:, lacking].T)  # the missing cells, in record order
    width = dataset.n_attributes
    keys, key_index = np.unique(lacking[first[group[rows]]] * width + attrs, return_inverse=True)
    return *np.divmod(keys, width), lacking, rows, key_index


def _fire_rules(dataset: Dataset, rules, bins, exclude, key_firsts, key_attrs):
    """``(hit_rules, keys, values, fired)``: the rules that fire, in firing order,
    and parallel lists of each covered key's index, value and hit-rule positions.

    ``key_firsts`` and ``key_attrs`` are ``impute_dataset``'s key table: per
    key, its group's first position and its attribute.  ``rules`` are in
    firing order.  Each rule fires on every group at once: ``need[j]``, the
    bitset of the first positions of the groups lacking attribute j, ANDed
    with the bitsets of the rule's antecedent items (``Dataset.tidsets``).
    Neither is built unless some rule targets a missing attribute.  One
    ``np.unpackbits`` turns the hits into (rule, key) pairs, one sort orders
    them by key, then firing order, and each key votes once from the counts
    of its rules' consequent levels or bins:

    * categorical: a dense rank of (confidence, support), which ascends in
      firing order among the rules of one target, breaks count ties by each
      level's best (lowest-ranked) rule;
    * numeric: bin representatives do not decrease with the bin index, so
      the counts in bin order give the sorted representatives, and with
      them the middle one or two.
    """
    width, n = dataset.n_attributes, dataset.n_records
    lacking = np.zeros((width, n), bool)
    lacking[key_attrs, key_firsts] = True
    need = [int.from_bytes(row, "little")
            for row in np.packbits(lacking, axis=1, bitorder="little")]
    if not any(need[rule.consequent[0]] for rule in rules):
        return [], [], [], []

    tidsets = dataset.tidsets(bins, exclude)
    size = (n + 7) // 8
    hit_rules, hit_bits = [], bytearray()
    for rule in rules:
        hits = need[rule.consequent[0]]
        for item in rule.antecedent:
            hits &= tidsets.get(item, 0)
        if hits:  # hit bits are first positions of keys, so the rule fires on some key
            hit_rules.append(rule)
            hit_bits += hits.to_bytes(size, "little")
    if not hit_rules:
        return [], [], [], []

    # (hit rule, position) pairs in firing order from the non-zero bytes (flagged: bool scans fast)
    packed = np.frombuffer(hit_bits, np.uint8)
    nonzero = np.flatnonzero(packed != 0)
    bits = np.flatnonzero(np.unpackbits(packed[nonzero], bitorder="little").view(bool))
    which, positions = np.divmod(nonzero[bits >> 3] * 8 + (bits & 7), size * 8)
    fields = np.fromiter(itertools.chain.from_iterable(  # attribute, level, confidence, support
        (*r.consequent, r.confidence, r.support) for r in hit_rules), float).reshape(-1, 4)
    attrs, levels = fields[:, :2].T.astype(np.intp)
    # a dense rank of each hit rule's (confidence, support), ascending in firing order
    rank = np.cumsum(np.any(np.diff(fields[:, 2:], axis=0, prepend=np.nan) != 0, axis=1)) - 1
    # by key, each key's rules in firing order: (position, attribute) codes ascend in key order
    codes, which = np.divmod(np.sort((positions * width + attrs[which]) * len(hit_rules) + which),
                             len(hit_rules))
    new_key = np.diff(codes, prepend=-1) != 0
    starts, local = np.flatnonzero(new_key), np.cumsum(new_key) - 1  # local: covered key number
    span = int(levels.max()) + 1
    cells = local * span + levels[which]
    count = np.bincount(cells, minlength=starts.size * span)
    # categorical: the most rules, then the best rule, then the lowest level
    top = int(rank[-1]) + 1
    best = np.full(count.size, top)  # top where no rule names the level: a score of -1
    np.minimum.at(best, cells, rank[which])
    winners = (count * top + (top - 1 - best)).reshape(-1, span).argmax(axis=1)

    fired = tuple(which.tolist())
    bounds = [*starts.tolist(), len(fired)]
    targets = attrs[which[starts]]
    names, numeric = np.full((width, span), None, object), np.zeros(width, bool)
    for j, attr in enumerate(dataset.schema):  # each categorical target's level names
        names[j, : len(attr.levels)], numeric[j] = attr.levels[:span], attr.kind == NUMERIC
    values = names[targets, winners].tolist()
    numeric = np.flatnonzero(numeric[targets])
    if numeric.size:  # the bins of the two middle consequents
        running = count.reshape(-1, span)[numeric].cumsum(axis=1)
        totals = running[:, -1]
        lows = (running <= ((totals - 1) // 2)[:, None]).sum(axis=1).tolist()
        highs = (running <= (totals // 2)[:, None]).sum(axis=1).tolist()
        for u, total, lo, hi in zip(numeric.tolist(), totals.tolist(), lows, highs):
            reps = bins[int(targets[u])].representatives
            low, high = reps[lo], reps[hi]
            value = low if total % 2 else (low + high) / 2.0
            if not math.isfinite(value):  # halve first only when the sum overflows
                value = low / 2.0 + high / 2.0
            values[u] = value
    covered = np.searchsorted(key_firsts * width + key_attrs, codes[starts]).tolist()
    return hit_rules, covered, values, [fired[a:b] for a, b in zip(bounds, bounds[1:])]


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
