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

    The table is encoded once, with columns in ascending record id so that
    position order is id order.  Queries run in blocks: one squared-HEOM
    array per block of records, one partition per record for its nearest
    records, then per cell a pick of the k nearest holders of the target
    attribute among them and, per target attribute, a single vote.
    Evidence is always the dataset as given (never previously imputed
    values).
    """

    def __init__(self, dataset: Dataset, params: KnnParams | None = None, exclude=()):
        self.dataset = dataset
        self.params = params or KnnParams()
        self.exclude = frozenset(exclude)
        self.ranges = {}  # per participating numeric attribute: max minus min, 0.0 if none

        records = sorted(dataset.records, key=lambda r: r.id)
        self._ids = np.array([r.id for r in records], dtype=np.int64)
        self._position = {r.id: p for p, r in enumerate(records)}
        shape = (dataset.n_attributes, len(records))
        self._codes = np.full(shape, -1, dtype=np.int32)  # level index; -1 missing
        self._values = np.full(shape, math.nan)  # numeric value; NaN missing
        self._present = np.empty(shape, dtype=bool)
        for j, attr in enumerate(dataset.schema):
            cells = [r.cells[j] for r in records]
            self._present[j] = [c is not None for c in cells]
            if attr.kind == NUMERIC:
                self._values[j] = [math.nan if c is None else float(c) for c in cells]
                if j not in self.exclude:
                    known = self._values[j][self._present[j]]
                    self.ranges[j] = float(known.max() - known.min()) if known.size else 0.0
            else:
                self._codes[j] = [-1 if c is None else dataset.level_index(j, c) for c in cells]
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

    def impute_cells(self, cells):
        """(imputed value, neighbor ids) for each (record, attribute) pair, yielded in order.

        The neighbors are the k nearest other records holding a value at the
        attribute, ties on distance broken by ascending record id; fewer than
        k candidates means all of them.  They vote (a count tie goes to the
        smallest level index) or, for a numeric attribute, average.  Empty
        ids mean no other record holds a value and the global fallback ran.

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
        matches = np.zeros((len(records), self._ids.size), dtype=self._match_dtype)
        for j, _ in self._terms[: self._lead]:
            matches += self._codes[j] == self._query_codes(records, j)
        total = (self._lead - matches).astype(np.float64)
        for j, scale in self._terms[self._lead:]:
            if scale is None:
                total += self._codes[j] != self._query_codes(records, j)
                continue
            cells = [r.cells[j] for r in records]
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

    def _query_codes(self, records, j: int) -> np.ndarray:
        """Level codes of ``records`` at categorical ``j`` as a column.

        A missing query cell is -2, so it matches no encoded cell, and a
        missing encoded cell (-1) matches no query cell either.
        """
        codes = [-2 if r.cells[j] is None else self.dataset.level_index(j, r.cells[j])
                 for r in records]
        return np.array(codes, dtype=np.int32)[:, None]

    def _block_nearest(self, records, block_cells):
        """Neighbor positions for (block row, attribute) cells of one block.

        Yields (attribute, cell indices, positions) groups: row i of the
        positions array holds cell indices[i]'s neighbors in (distance, id)
        order, and a group whose cells have no candidate has zero columns.
        """
        block = self._distances(records)
        own = [self._position.get(r.id, -1) for r in records]  # -1: not in the dataset
        for row, p in enumerate(own):
            if p >= 0:
                block[row, p] = np.inf  # never one's own neighbor
        # Each row's nearest records: its positions at or below the row's K-th
        # smallest value, ties included, in position order.  An empty table
        # has none.
        n = block.shape[1]
        size = min(n, 2 * self.params.k + _NEAREST_SLACK)
        kth = np.partition(block, size - 1, axis=1)[:, size - 1] if n else np.zeros(len(records))
        flat = np.flatnonzero(block <= kth[:, None])
        ends = np.searchsorted(flat, np.arange(1, len(records) + 1) * n).tolist()
        nearest = [flat[start:end] - row * n
                   for row, (start, end) in enumerate(zip([0, *ends], ends))]

        groups: dict[tuple[int, int], tuple[list, list]] = {}
        for index, (row, attribute) in enumerate(block_cells):
            p = own[row]
            present = self._present[attribute]
            k = min(self.params.k, self._known[attribute] - (p >= 0 and present[p]))
            chosen = _select(block[row], nearest[row], kth[row], present, k)
            indices, positions = groups.setdefault((attribute, k), ([], []))
            indices.append(index)
            positions.append(chosen)
        for (attribute, _), (indices, positions) in groups.items():
            yield attribute, indices, np.array(positions, dtype=np.intp)

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
        codes = self._codes[attribute][self._present[attribute]]
        return attr.levels[_mode(codes[None, :], len(attr.levels))[0]]


def _select(row: np.ndarray, nearest: np.ndarray, kth: float, present: np.ndarray,
            k: int) -> np.ndarray:
    """Positions of the k nearest holders (``present``) in ``row``, in (value, position) order.

    ``nearest`` is every position of ``row`` at or below ``kth``, in position
    order.  Its holders below ``kth`` come first, sorted by value (stably, so
    ties keep position order), then its holders in the tie band at ``kth``,
    in position order and never sorted.  When they are short of k, the pick
    runs once more with the cell's own threshold, the k-th smallest holder
    value, which then always yields k.  Needs at least k finite holder
    values.
    """
    candidates = nearest[present[nearest]]
    if candidates.size < k:
        kth = np.partition(row[present], k - 1)[k - 1]
        return _select(row, np.flatnonzero(row <= kth), kth, present, k)
    values = row[candidates]
    below = values < kth
    chosen = candidates[below][np.argsort(values[below], kind="stable")]
    if chosen.size < k:
        chosen = np.concatenate((chosen, candidates[~below][: k - chosen.size]))
    return chosen[:k]


def _mode(codes: np.ndarray, n_levels: int) -> np.ndarray:
    """Most frequent level per row of ``codes``; a count tie goes to the smallest index."""
    offsets = np.arange(codes.shape[0])[:, None] * n_levels
    counts = np.bincount((codes + offsets).ravel(), minlength=codes.shape[0] * n_levels)
    return counts.reshape(-1, n_levels).argmax(axis=1)
