"""k-nearest-neighbor imputation over mixed-type records.

Distance is the heterogeneous Euclidean-overlap metric (HEOM): categorical
attributes contribute 0/1 overlap terms, numeric attributes contribute
range-normalized absolute differences, and a missing value on either side
counts as maximally dissimilar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, DataError, Dataset, Record


@dataclass(frozen=True)
class KnnParams:
    k: int = 10
    distance: str = "heom"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.distance != "heom":
            raise ValueError(f"unsupported distance: {self.distance!r}")


def fit_numeric_ranges(dataset: Dataset, exclude=()) -> dict[int, float]:
    """Per numeric attribute, max minus min over its known values."""
    skip = frozenset(exclude)
    ranges = {}
    for j, attr in enumerate(dataset.schema):
        if attr.kind != NUMERIC or j in skip:
            continue
        values = [float(v) for v in dataset.present_values(j)]
        ranges[j] = (max(values) - min(values)) if values else 0.0
    return ranges


def heom_distance(a: Record, b: Record, schema, ranges, exclude=()) -> float:
    """HEOM distance between two records.

    Per attribute: 1 when either cell is missing; equality overlap for
    categorical; |x - y| / range for numeric (a zero range contributes 0 for
    equal present values, else 1).  The distance is sqrt of the summed
    squared terms.
    """
    skip = frozenset(exclude)
    total = 0.0
    for j, attr in enumerate(schema):
        if j in skip:
            continue
        va, vb = a.cells[j], b.cells[j]
        if va is None or vb is None:
            term = 1.0
        elif attr.kind == NUMERIC:
            x, y = float(va), float(vb)
            rng = ranges.get(j, 0.0)
            if rng > 0.0:
                term = abs(x - y) / rng
            else:
                term = 0.0 if x == y else 1.0
        else:
            term = 0.0 if va == vb else 1.0
        total += term * term
    return math.sqrt(total)


# Distance rows computed at once: a block of query records is at most this
# many bytes of float64, which bounds the kNN fallback's working memory.
_BLOCK_BYTES = 1 << 18


class KnnImputer:
    """Brute-force scan imputer bound to one dataset.

    The table is encoded once, with columns in ascending record id so that
    position order is id order.  Queries run in blocks: one squared-HEOM
    array per block of records, then per target attribute a partition-based
    pick of the k nearest and a single vote.  Evidence is always the dataset
    as given (never previously imputed values).
    """

    def __init__(self, dataset: Dataset, params: KnnParams | None = None, exclude=()):
        self.dataset = dataset
        self.params = params or KnnParams()
        self.exclude = frozenset(exclude)
        self.ranges = fit_numeric_ranges(dataset, self.exclude)

        records = sorted(dataset.records, key=lambda r: r.id)
        self._ids = np.array([r.id for r in records], dtype=np.int64)
        # id position of each record in dataset order
        self._dataset_order = np.searchsorted(self._ids, [r.id for r in dataset.records])
        shape = (dataset.n_attributes, len(records))
        self._codes = np.full(shape, -1, dtype=np.int32)  # level index; -1 missing
        self._values = np.full(shape, math.nan)  # numeric value; NaN missing
        self._absent = np.empty(shape, dtype=bool)
        self._known = []  # count of present values per attribute
        for j, attr in enumerate(dataset.schema):
            cells = [r.cells[j] for r in records]
            if attr.kind == NUMERIC:
                self._values[j] = [math.nan if c is None else float(c) for c in cells]
            else:
                self._codes[j] = [-1 if c is None else dataset.level_index(j, c) for c in cells]
            self._absent[j] = [c is None for c in cells]
            self._known.append(len(cells) - cells.count(None))
        # Participating attributes in schema order, so the block accumulation
        # matches heom_distance term for term; the scale is None for categorical.
        self._terms = [
            (j, self.ranges.get(j)) for j in range(dataset.n_attributes) if j not in self.exclude
        ]

    def squared_distances(self, record: Record) -> np.ndarray:
        """HEOM squared distance from ``record`` to every dataset record, in dataset order."""
        return self._distances([record])[0][self._dataset_order]

    def neighbors(self, record: Record, attribute: int) -> list[int]:
        """Ids of the k nearest candidates holding a value at ``attribute``.

        Candidates are every other record with a present target value; ties
        on distance break by ascending record id; fewer than k candidates
        means all of them.
        """
        [(_, _, positions)] = self._block_nearest([record], [(0, attribute)])
        return self._ids[positions[0]].tolist()

    def impute(self, record: Record, attribute: int):
        """(imputed value, neighbor ids); empty ids when the global fallback ran."""
        [result] = self.impute_cells([(record, attribute)])
        return result

    def impute_cells(self, cells):
        """``impute`` for each (record, attribute) pair, yielded in order.

        Pairs are computed a block of records at a time; adjacent pairs of
        one record share a distance row.
        """
        rows = max(1, _BLOCK_BYTES // (8 * max(self._ids.size, 1)))
        records, block_cells = [], []  # (block row, attribute)
        for record, attribute in cells:
            if not records or records[-1] is not record:
                if len(records) == rows:
                    yield from self._impute_block(records, block_cells)
                    records, block_cells = [], []
                records.append(record)
            block_cells.append((len(records) - 1, attribute))
        if block_cells:
            yield from self._impute_block(records, block_cells)

    def _impute_block(self, records, block_cells) -> list:
        results = [None] * len(block_cells)
        for attribute, members, positions in self._block_nearest(records, block_cells):
            attr = self.dataset.schema[attribute]
            if positions.shape[1] == 0:
                values = [self._global_fallback(attribute)] * len(members)
            elif attr.kind == NUMERIC:
                # Python's sum over the values in neighbor order, as the scalar mean does
                values = [sum(row) / len(row)
                          for row in self._values[attribute][positions].tolist()]
            else:
                winners = _mode(self._codes[attribute][positions], len(attr.levels))
                values = [attr.levels[w] for w in winners.tolist()]
            for i, value, ids in zip(members, values, self._ids[positions].tolist()):
                results[i] = (value, tuple(ids))
        return results

    def _distances(self, records) -> np.ndarray:
        """Squared HEOM from each of ``records`` to every encoded record: one block."""
        total = np.zeros((len(records), self._ids.size))
        for j, scale in self._terms:
            cells = [r.cells[j] for r in records]
            if scale is None:
                # A missing query (-2) mismatches everything, missing cells (-1) too.
                codes = [-2 if c is None else self.dataset.level_index(j, c) for c in cells]
                total += self._codes[j] != np.array(codes, dtype=np.int32)[:, None]
                continue
            x = np.array([math.nan if c is None else float(c) for c in cells])[:, None]
            if scale > 0.0:
                term = np.abs(self._values[j] - x)
                term /= scale
                term *= term
                term[np.isnan(term)] = 1.0  # missing on either side
                total += term
            else:
                total += self._values[j] != x  # NaN is unequal to everything
        return total

    def _block_nearest(self, records, block_cells):
        """Neighbor positions for (block row, attribute) cells of one block.

        Yields (attribute, cell indices, positions) groups: row i of the
        positions array holds cell indices[i]'s neighbors in (distance, id)
        order, and a group whose cells have no candidate has zero columns.
        """
        block = self._distances(records)
        own = self._own_positions(records)
        groups: dict[tuple[int, int], tuple[list, list]] = {}
        for index, (row, attribute) in enumerate(block_cells):
            p = own[row]
            candidates = self._known[attribute] - (p >= 0 and not self._absent[attribute, p])
            k = min(self.params.k, candidates)
            if k:
                d2 = np.where(self._absent[attribute], np.inf, block[row])
                if p >= 0:
                    d2[p] = np.inf  # never one's own neighbor
                chosen = _k_smallest(d2, k)
            else:
                chosen = np.empty(0, dtype=np.intp)
            indices, positions = groups.setdefault((attribute, k), ([], []))
            indices.append(index)
            positions.append(chosen)
        for (attribute, _), (indices, positions) in groups.items():
            yield attribute, indices, np.array(positions)

    def _own_positions(self, records) -> np.ndarray:
        """Encoded position of each record's id, or -1 when the dataset lacks it."""
        ids = np.array([r.id for r in records], dtype=np.int64)
        positions = np.searchsorted(self._ids, ids)
        found = positions < self._ids.size
        found[found] = self._ids[positions[found]] == ids[found]
        return np.where(found, positions, -1)

    def _global_fallback(self, attribute: int):
        # No candidate holds the target value: fall back to the dataset-wide
        # mode (categorical) or mean (numeric) over the known values.
        attr = self.dataset.schema[attribute]
        if not self._known[attribute]:
            raise DataError(
                f"attribute {attr.name!r} has no known value anywhere; cannot impute"
            )
        if attr.kind == NUMERIC:
            numbers = [float(v) for v in self.dataset.present_values(attribute)]
            return sum(numbers) / len(numbers)
        codes = self._codes[attribute][~self._absent[attribute]]
        return attr.levels[_mode(codes[None, :], len(attr.levels))[0]]


def _k_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of d2 in (value, position) order.

    Everything strictly below the k-th smallest value is taken, then the tie
    band at that value fills the rest in position order.  Needs at least k
    finite entries.
    """
    kth = np.partition(d2, k - 1)[k - 1]
    below = np.flatnonzero(d2 < kth)
    chosen = np.concatenate((below, np.flatnonzero(d2 == kth)[: k - below.size]))
    return chosen[np.argsort(d2[chosen], kind="stable")]


def _mode(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Most frequent level per row of ``codes``; a count tie goes to the smallest index."""
    offsets = np.arange(codes.shape[0])[:, None] * n_levels
    counts = np.bincount((codes + offsets).ravel(), minlength=codes.shape[0] * n_levels)
    return counts.reshape(-1, n_levels).argmax(axis=1)
