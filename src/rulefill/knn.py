"""k-nearest-neighbor imputation over mixed-type records.

Distance is the heterogeneous Euclidean-overlap metric (HEOM): categorical
attributes contribute 0/1 overlap terms, numeric attributes contribute
range-normalized absolute differences, and a missing value on either side
counts as maximally dissimilar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, DataError, Dataset


@dataclass(frozen=True)
class KnnParams:
    k: int = 10
    distance: str = "heom"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.distance != "heom":
            raise ValueError(f"unsupported distance: {self.distance!r}")


# Distance rows computed at once: a block of query records is at most this
# many bytes of float64 distances, which bounds the kNN fallback's working
# memory (the block's match counts, masks and nearest-record positions are
# each at most this size again).
_BLOCK_BYTES = 1 << 18

# A query record's cells pick their neighbours from its 2k + _NEAREST_SLACK
# nearest records (k from KnnParams, at most every record) and their ties:
# room for k holders of the target value even when half of the nearest lack it.
_NEAREST_SLACK = 8


class KnnImputer:
    """Brute-force scan imputer bound to one dataset.

    It copies the dataset's columns (``Dataset.columns``) into ascending
    record id, so that position order is id order.  Queries run in blocks:
    one squared-HEOM array per block of records, one partition per record
    for its nearest records, then per cell one stable sort of the target
    attribute's holders among them, kept to the first k (``_select``).  Once
    every block is scanned, each (attribute, k) group of cells votes once.
    Evidence is always the dataset as given (never previously imputed
    values); a numeric attribute whose range overflows a float raises
    ``DataError``.
    """

    def __init__(self, dataset: Dataset, params: KnnParams | None = None, exclude=()):
        self.dataset = dataset
        self.params = params or KnnParams()
        self.exclude = frozenset(exclude)
        self.ranges = {}  # per participating numeric attribute: max minus min, 0.0 if none

        # Copies in ascending record id; np.take keeps them C-contiguous,
        # which the block arithmetic in _distances relies on for speed.
        ids = np.array([r.id for r in dataset.records], dtype=np.int64)
        order = np.argsort(ids)  # ids are unique
        self._ids = ids[order]
        self._position = {record_id: p for p, record_id in enumerate(self._ids.tolist())}
        codes, values = dataset.columns
        self._codes = np.take(codes, order, axis=1)  # level index; -1 missing
        self._values = np.take(values, order, axis=1)  # numeric value; NaN missing
        self._present = (self._codes >= 0) | ~np.isnan(self._values)
        for j, attr in enumerate(dataset.schema):
            if attr.kind == NUMERIC and j not in self.exclude:
                known = self._values[j][self._present[j]]
                low, high = (float(known.min()), float(known.max())) if known.size else (0.0, 0.0)
                if math.isinf(high - low):
                    raise DataError(f"numeric attribute {attr.name!r}: range overflows a float")
                self.ranges[j] = high - low
        self._known = self._present.sum(axis=1).tolist()  # present values per attribute
        # Participating attributes in schema order, so the block accumulation
        # matches the scalar per-term HEOM sum (oracle_heom in tests/oracles.py)
        # term for term; the scale is None for categorical.
        self._terms = [
            (j, self.ranges.get(j)) for j in range(dataset.n_attributes) if j not in self.exclude
        ]

        # The leading run of categorical terms (those before the first numeric
        # one) sums 0/1 terms, an exact integer in any order: its length minus
        # the matches, counted in the narrowest integer type that holds it.
        self._lead = len(list(itertools.takewhile(lambda term: term[1] is None, self._terms)))
        self._match_dtype = np.min_scalar_type(self._lead)

    def impute_cells(self, cells) -> list:
        """(imputed value, neighbor ids) for each (record, attribute) pair, in order.

        Each record must be one of the dataset's own; any other raises
        ``DataError``.  The neighbors are the k nearest other records
        holding a value at the attribute, ties on distance broken by
        ascending record id; fewer than k candidates means all of them.
        They vote (a count tie goes to the smallest level index) or, for a
        numeric attribute, average.  Empty ids mean no other record holds a
        value, and the record's own value is returned.

        Pairs pick their neighbours a block of records at a time; adjacent
        pairs of one record share a distance row.  The vote runs once per
        (attribute, k) group after the last block, so no result comes back
        before every block has been scanned.
        """
        rows = max(1, _BLOCK_BYTES // (8 * max(self._ids.size, 1)))
        groups = {}  # (attribute, k) -> (cell indices, each cell's chosen neighbours)
        last, positions, block_cells = None, [], []  # block_cells: (index, block row, attribute)
        for index, (record, attribute) in enumerate(cells):
            if record is not last:
                if len(positions) == rows:
                    self._pick_block(positions, block_cells, groups)
                    positions, block_cells = [], []
                p = self._position.get(record.id)
                if p is None or self.dataset.record_by_id(record.id) != record:
                    raise DataError(f"record {record.id} is not in the dataset")
                positions.append(p)
                last = record
            block_cells.append((index, len(positions) - 1, attribute))
        if block_cells:
            self._pick_block(positions, block_cells, groups)

        results = [None] * sum(len(indices) for indices, _ in groups.values())
        for (attribute, k), (indices, chosen) in groups.items():
            attr = self.dataset.schema[attribute]
            if k == 0:
                values = [self._global_fallback(attribute, p) for p in chosen]
                ids = [()] * len(indices)
            else:
                neighbors = np.array(chosen, dtype=np.intp)
                if attr.kind == NUMERIC:
                    # Python's sum over the values in neighbor order, as the scalar mean does
                    values = [_mean(row) for row in self._values[attribute][neighbors].tolist()]
                else:
                    winners = _mode(self._codes[attribute][neighbors], len(attr.levels))
                    values = [attr.levels[w] for w in winners.tolist()]
                ids = map(tuple, self._ids[neighbors].tolist())
            for i, value, neighbor_ids in zip(indices, values, ids):
                results[i] = (value, neighbor_ids)
        return results

    def _distances(self, positions) -> np.ndarray:
        """Squared HEOM from the records at ``positions`` to every record: one block."""
        # The block's own cells as columns; a missing one is -2 (or NaN), so
        # it matches no cell, and a missing cell (-1) matches no query cell.
        codes = np.take(self._codes, positions, axis=1)[:, :, None]
        codes[codes == -1] = -2
        values = np.take(self._values, positions, axis=1)[:, :, None]
        matches = np.zeros((len(positions), self._ids.size), dtype=self._match_dtype)
        for j, _ in self._terms[: self._lead]:
            matches += self._codes[j] == codes[j]
        total = (self._lead - matches).astype(np.float64)
        for j, scale in self._terms[self._lead:]:
            if scale is None:
                total += self._codes[j] != codes[j]
            elif scale > 0.0:
                term = np.abs(self._values[j] - values[j])
                term /= scale
                term *= term
                term[np.isnan(term)] = 1.0  # missing on either side
                total += term
            else:
                total += self._values[j] != values[j]  # NaN is unequal to everything
        return total

    def _pick_block(self, positions, block_cells, groups) -> None:
        """File one block's (cell index, block row, attribute) cells under their (attribute, k).

        A cell's entry is its neighbor positions in (distance, id) order, or,
        when k is 0, its own record's position.
        """
        block = self._distances(positions)
        block[np.arange(len(positions)), positions] = np.inf  # never one's own neighbor
        # Each row's nearest records: its positions at or below the row's K-th
        # smallest value, ties included, in position order.
        size = min(block.shape[1], 2 * self.params.k + _NEAREST_SLACK)
        kth = np.partition(block, size - 1, axis=1)[:, size - 1]
        nearest = [np.flatnonzero(distances <= t) for distances, t in zip(block, kth)]

        for index, row, attribute in block_cells:
            present = self._present[attribute]
            k = min(self.params.k, self._known[attribute] - present[positions[row]])
            chosen = _select(block[row], nearest[row], present, k)
            indices, entries = groups.setdefault((attribute, k), ([], []))
            indices.append(index)
            entries.append(chosen if k else positions[row])

    def _global_fallback(self, attribute: int, position: int):
        # k is 0: no other record holds the attribute, so only the query
        # record's own value, if it has one, can answer.
        attr = self.dataset.schema[attribute]
        if not self._present[attribute][position]:
            raise DataError(
                f"attribute {attr.name!r} has no known value anywhere; cannot impute"
            )
        if attr.kind == NUMERIC:
            return float(self._values[attribute][position])
        return attr.levels[self._codes[attribute][position]]


def _select(row: np.ndarray, nearest: np.ndarray, present: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest holders (``present``) in ``row``, in (value, position) order.

    ``nearest`` is every position of ``row`` at or below some threshold, in
    position order; its holders are the candidates.  Short of k, the
    candidates become every holder at or below the cell's own threshold,
    the k-th smallest holder value.  Either way every other holder is
    farther than every candidate, and a stable sort of the candidates by
    value keeps position order among ties.  Needs at least k finite holder
    values.
    """
    candidates = nearest[present[nearest]]
    if candidates.size < k:
        kth = np.partition(row[present], k - 1)[k - 1]
        candidates = np.flatnonzero(present & (row <= kth))
    return candidates[np.argsort(row[candidates], kind="stable")[:k]]


def _mean(numbers: list) -> float:
    """``sum(numbers) / len(numbers)``; when that overflows, the sum of the pre-divided terms.

    Finite results keep the plain sum's bits.
    """
    mean = sum(numbers) / len(numbers)
    if math.isfinite(mean):
        return mean
    n = len(numbers)
    return sum(x / n for x in numbers)


def _mode(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Most frequent level per row of ``codes``; a count tie goes to the smallest index."""
    offsets = np.arange(codes.shape[0])[:, None] * n_levels
    counts = np.bincount((codes + offsets).ravel(), minlength=codes.shape[0] * n_levels)
    return counts.reshape(-1, n_levels).argmax(axis=1)
