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
from typing import NamedTuple

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
# many bytes of distances (int32 or float64, see KnnImputer), which bounds the
# kNN fallback's working memory.  The block's partition copy, numeric terms,
# match counts and flags are each at most this size again; impute_cells
# allocates them once per call, every block reuses them, and they are freed
# when it returns.  The block's nearest-record positions (int64) reach twice
# this size when every record ties, as on a constant column, and sorting them
# takes at most five times this size while it runs.
_BLOCK_BYTES = 1 << 18

# A query record's cells pick their neighbours from its 2k + _NEAREST_SLACK
# nearest records (k from KnnParams, at most every record) and their ties:
# room for k holders of the target value even when half of the nearest lack it.
_NEAREST_SLACK = 8


class _Workspace(NamedTuple):
    """The block buffers of one ``impute_cells`` call: a row per query record
    of a block, a column per record.  A shorter block uses the first rows.
    """

    distances: np.ndarray  # squared HEOM, int32 or float64 (KnnImputer._far's type)
    partition: np.ndarray  # copy of distances, partitioned in place
    matches: np.ndarray  # the leading categorical run's match counts
    flags: np.ndarray  # bool
    terms: np.ndarray | None  # float64 numeric terms; None on the int32 path


class KnnImputer:
    """Brute-force scan imputer bound to one dataset.

    It copies the dataset's columns (``Dataset.columns``) into ascending
    record id, so that position order is id order.  Queries run in blocks:
    one squared-HEOM array per block of records, one partition per record
    for its nearest records, one sort of the whole block's nearest records
    into per-record runs in (distance, id) order, then per cell the run's
    first k holders of the target attribute (``_select``).  Once every
    block is scanned, each (attribute, k) group of cells votes once.
    When no participating numeric attribute has a non-zero range, every term
    is 0 or 1 and the squared distances are exact int32 integers; otherwise
    they are float64.  Either way a record's own position holds ``_far``,
    farther than any distance, so it is never its own neighbour.
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
        # Without a non-zero numeric range every term is 0 or 1, so every
        # squared distance is an exact integer, held as int32: on car's rows it
        # partitions about 4x faster than float64, and narrower types are no
        # faster on such heavily tied values.
        exact = not any(scale for _, scale in self._terms)
        self._far = np.int32(np.iinfo(np.int32).max) if exact else np.float64(np.inf)

    def impute_cells(self, cells) -> list:
        """(imputed value, neighbor ids) for each (record, attribute) pair, in order.

        Each record must be one of the dataset's own; any other raises
        ``DataError``.  The neighbors are the k nearest other records
        holding a value at the attribute, ties on distance broken by
        ascending record id; fewer than k candidates means all of them.
        They vote (a count tie goes to the smallest level index) or, for a
        numeric attribute, average.  Empty ids mean no other record holds a
        value: the record's own value votes alone, and a record lacking it
        too raises ``DataError``.

        Pairs pick their neighbours a block of records at a time; adjacent
        pairs of one record share a distance row.  A block holds
        ``_BLOCK_BYTES`` of distances (int32 or float64) or one row; its
        buffers are allocated once per call, reused by every block and freed
        on return, and its nearest records are sorted once.  The vote runs
        once per (attribute, k) group after the last block, so no result
        comes back before every block has been scanned.
        """
        rows = max(1, _BLOCK_BYTES // (self._far.itemsize * max(self._ids.size, 1)))
        work = self._workspace(rows)
        groups = {}  # (attribute, k) -> (cell indices, each cell's chosen neighbours)
        last, positions, block_cells = None, [], []  # block_cells: (index, block row, attribute)
        for index, (record, attribute) in enumerate(cells):
            if record is not last:
                if len(positions) == rows:
                    self._pick_block(positions, block_cells, groups, work)
                    positions, block_cells = [], []
                p = self._position.get(record.id)
                if p is None or self.dataset.record_by_id(record.id) != record:
                    raise DataError(f"record {record.id} is not in the dataset")
                positions.append(p)
                last = record
            block_cells.append((index, len(positions) - 1, attribute))
        if block_cells:
            self._pick_block(positions, block_cells, groups, work)

        results = [None] * sum(len(indices) for indices, _ in groups.values())
        for (attribute, k), (indices, chosen) in groups.items():
            attr = self.dataset.schema[attribute]
            neighbors = np.array(chosen, dtype=np.intp)
            if attr.kind == NUMERIC:
                # Python's sum over the values in neighbor order, as the scalar mean does
                values = [_mean(row) for row in self._values[attribute][neighbors].tolist()]
            else:
                winners = _mode(self._codes[attribute][neighbors], len(attr.levels))
                values = [attr.levels[w] for w in winners.tolist()]
            ids = map(tuple, self._ids[neighbors].tolist()) if k else [()] * len(indices)
            for i, value, neighbor_ids in zip(indices, values, ids):
                results[i] = (value, neighbor_ids)
        return results

    def _workspace(self, rows: int) -> _Workspace:
        """Buffers for blocks of up to ``rows`` query records."""
        shape, dtype = (rows, self._ids.size), self._far.dtype
        terms = np.empty(shape) if dtype == np.float64 else None
        return _Workspace(np.empty(shape, dtype), np.empty(shape, dtype),
                          np.empty(shape, self._match_dtype), np.empty(shape, bool), terms)

    def _distances(self, positions, work: _Workspace) -> np.ndarray:
        """Squared HEOM from the records at ``positions`` to every record: one block.

        Written into the first rows of ``work.distances``, which come back.
        """
        n = len(positions)
        total, matches, flags = work.distances[:n], work.matches[:n], work.flags[:n]
        # The block's own cells as columns; a missing one is -2 (or NaN), so
        # it matches no cell, and a missing cell (-1) matches no query cell.
        codes = np.take(self._codes, positions, axis=1)[:, :, None]
        codes[codes == -1] = -2
        values = np.take(self._values, positions, axis=1)[:, :, None]
        matches.fill(0)
        for j, _ in self._terms[: self._lead]:
            matches += np.equal(self._codes[j], codes[j], out=flags)
        np.subtract(self._lead, matches, out=total)
        for j, scale in self._terms[self._lead:]:
            if scale is None:
                total += np.not_equal(self._codes[j], codes[j], out=flags)
            elif scale > 0.0:
                term = work.terms[:n]
                np.subtract(self._values[j], values[j], out=term)
                np.abs(term, out=term)
                term /= scale
                term *= term
                np.copyto(term, 1.0, where=np.isnan(term, out=flags))  # missing on either side
                total += term
            else:  # zero range: NaN is unequal to everything
                total += np.not_equal(self._values[j], values[j], out=flags)
        return total

    def _pick_block(self, positions, block_cells, groups, work: _Workspace) -> None:
        """File one block's (cell index, block row, attribute) cells under their (attribute, k).

        A cell's entry is its neighbor positions in (distance, id) order.
        When k is 0, no other record holds the attribute: the entry is the
        cell's own record's position, which votes alone, or, when that
        record lacks the attribute too, ``DataError`` is raised.
        """
        n = len(positions)
        block = self._distances(positions, work)
        block[np.arange(n), positions] = self._far  # never one's own neighbor
        # Each row's nearest records: its positions at or below the row's K-th
        # smallest value, ties included, as one run per row in (distance, id) order.
        size = min(block.shape[1], 2 * self.params.k + _NEAREST_SLACK)
        part, flags = work.partition[:n], work.flags[:n]
        np.copyto(part, block)
        part.partition(size - 1, axis=1)
        np.less_equal(block, part[:, size - 1 : size], out=flags)
        ordered, starts = self._sorted_nearest(block, flags)

        holds = self._present[:, positions].tolist()  # [attribute][block row]
        for index, row, attribute in block_cells:
            k = min(self.params.k, self._known[attribute] - holds[attribute][row])
            if k:
                chosen = _select(block[row], ordered[starts[row]:starts[row + 1]],
                                 self._present[attribute], k)
            elif holds[attribute][row]:
                chosen = [positions[row]]
            else:
                name = self.dataset.schema[attribute].name
                raise DataError(f"attribute {name!r} has no known value anywhere; cannot impute")
            indices, entries = groups.setdefault((attribute, k), ([], []))
            indices.append(index)
            entries.append(chosen)

    def _sorted_nearest(self, block: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, list]:
        """Every row's flagged positions in (distance, position) order, rows one after another.

        Row r's run is ``ordered[starts[r]:starts[r + 1]]``.  One
        ``flatnonzero`` finds the flagged cells in row-major order; one sort
        then orders each row's run.  An exact int32 distance is at most the
        term count, or the ``_far`` sentinel (clamped to one more), so
        (row, distance, position) packs into one int64 key, sorted in
        place; float distances sort with ``lexsort`` over (row, distance),
        which is stable, so ties stay in position order.
        """
        width = flags.shape[1]
        flat = np.flatnonzero(flags)  # row * width + position
        distances = block.ravel()[flat]
        starts = np.searchsorted(flat, np.arange(flags.shape[0] + 1) * width).tolist()
        if self._far.dtype == np.int32:
            span = len(self._terms) + 2
            key = flat // width
            key *= span - 1
            key += np.minimum(distances, span - 1, out=distances)
            key *= width
            flat += key  # ((row * span + distance) * width + position)
            del key, distances  # freed before the sort, which runs in place
            flat.sort()
        else:
            flat = flat[np.lexsort((distances, flat // width))]
        flat %= width
        return flat, starts


def _select(row: np.ndarray, ordered: np.ndarray, present: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k nearest holders (``present``) in ``row``, in (value, position) order.

    ``ordered`` is every position of ``row`` at or below some threshold, in
    (value, position) order; its first k holders are the answer.  Short of
    k, the candidates become every holder at or below the cell's own
    threshold, the k-th smallest holder value, and a stable sort of them by
    value keeps position order among ties.  Either way every other holder
    is farther than every candidate.  Needs at least k holder values below
    the sentinel ``KnnImputer._far``.
    """
    candidates = ordered[present[ordered]]
    if candidates.size >= k:
        return candidates[:k].copy()  # not a view: the run can be every record
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
