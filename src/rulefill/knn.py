"""k-nearest-neighbor imputation over mixed-type records.

Distance is the heterogeneous Euclidean-overlap metric (HEOM): categorical
attributes contribute 0/1 overlap terms, numeric attributes contribute
range-normalized absolute differences, and a missing value on either side
counts as maximally dissimilar.

Each query record is scanned against every record, a block of query records
at a time, and keeps its first records in (distance, id) order as a
fixed-width head.  Every cell then picks its neighbours from the heads in one
vectorised pass per chunk of heads.  The cells whose heads hold too few
records with a value at their attribute go through the same scan once more,
each as its own query row, which reaches only those records.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .data import NUMERIC, DataError, Dataset


# Distance rows computed at once: a block of query records is at most this many
# bytes of distances (int32 keys or float64, see KnnImputer), which bounds the
# kNN fallback's working memory.  The block's match counts and flags, and on the
# float64 path a buffer for its numeric terms and then its partition copy, are
# each at most this size again; _impute allocates them once per call, every
# block reuses them, and they are freed when it returns.  An int32 block is
# partitioned in place.  A float64 block's nearest-record positions (int64) reach
# this size when every record ties, and ordering them takes at most five times
# this size while it runs.  A rescan's block masks each row's records that lack
# its attribute with at most two bool temporaries, each at most a quarter of
# this size.  The int32 heads of a chunk of blocks fill at most half this
# size.  Whenever they fill, their cells pick their neighbours in passes whose
# copy of the cells' heads is at most half this size too, and each other
# temporary of a pass at most this size.
_BLOCK_BYTES = 1 << 18

# A query record keeps its first W = 2 * (2k + _HEAD_SLACK) records in
# (distance, id) order (at most every record) as its head: room for k
# holders of the target attribute even when three in four of the nearest
# lack it.  A cell whose head holds fewer than k holders of its
# attribute is scanned again as its own query.  On car at 6,912 rows with a 20% mask
# (seed 3) and maint blanked in 65% of records (seed 5), heads of 2k + 8 sent
# 1,877 of 8,084 keys to that rescan and kNN-only impute_dataset took 0.285 s
# (median), against 253 keys and 0.195 s with twice as many.
_HEAD_SLACK = 8


class _Workspace(NamedTuple):
    """The block buffers of one ``_impute`` call: a row per query record
    of a block, a column per record.  A shorter block uses the first rows.
    """

    distances: np.ndarray  # int32 keys or float64 squared HEOM (KnnImputer._far's type)
    matches: np.ndarray  # the leading run of 0/1 terms' match counts
    flags: np.ndarray  # bool
    floats: np.ndarray | None  # numeric terms, then the partition copy; None on the int32 path


class KnnImputer:
    """Brute-force scan imputer bound to one dataset.

    It copies the dataset's columns (``Dataset.columns``) into ascending
    record id, so that position order is id order.  Queries run in two
    stages.  The block stage computes one distance array per block of
    records and keeps each record's head: its first W records below
    ``_far`` in (distance, id) order.  The pick stage runs whenever a chunk
    of heads fills: for all of the chunk's cells at once, it takes each
    head's first k holders of the cell's attribute into one table of the
    call's neighbours.  The cells whose heads hold fewer go through both
    stages once more, each cell as its own query record, whose distances to
    the records lacking its attribute are set to ``_far``.  Such a head
    holds only holders, and at least k.  Each (attribute, k) group of cells
    then votes once.
    When every term is 0 or 1 (no non-zero numeric range), a squared
    distance is an integer up to the term count T; if (T + 1) * n fits
    int32 (``_exact``), a block holds int32 keys distance * n + position,
    in (distance, id) order, so one partition of a row finds its head.
    Otherwise the squared distances are float64.  Either way a record's own
    position holds ``_far``, beyond any key or distance, so it is never its
    own neighbour.
    Evidence is always the dataset as given (never previously imputed
    values); a numeric attribute whose range overflows a float raises
    ``DataError``.
    """

    def __init__(self, dataset: Dataset, k: int = 10, exclude=()):
        self.dataset = dataset
        self.k = k
        self.exclude = frozenset(exclude)
        self.ranges = {}  # per participating numeric attribute: max minus min, 0.0 if none

        # Copies in ascending record id; np.take keeps them C-contiguous,
        # which the block arithmetic in _distances relies on for speed.  The
        # dataset's id map holds the ids in record order.
        ids = np.fromiter(dataset._position_of, np.int64, dataset.n_records)
        order = np.argsort(ids)  # ids are unique
        self._ids = ids[order]
        self._rank = np.argsort(order)  # by dataset position: the record's position in id order
        codes, values = dataset.columns
        self._codes = np.take(codes, order, axis=1)  # level index; -1 missing
        self._values = np.take(values, order, axis=1)  # numeric value; NaN missing
        present = (self._codes >= 0) | ~np.isnan(self._values)
        for j, attr in enumerate(dataset.schema):
            if attr.kind == NUMERIC and j not in self.exclude:
                known = self._values[j][present[j]]
                low, high = (float(known.min()), float(known.max())) if known.size else (0.0, 0.0)
                if math.isinf(high - low):
                    raise DataError(f"numeric attribute {attr.name!r}: range overflows a float")
                self.ranges[j] = high - low
        # One more column, which no attribute holds, pads the heads
        self._present = np.pad(present, ((0, 0), (0, 1)))
        self._known = present.sum(axis=1)  # present values per attribute
        # Participating attributes in schema order, so the block accumulation
        # matches the scalar per-term HEOM sum (oracle_heom in tests/oracles.py)
        # term for term; the scale is None for categorical.
        self._terms = [
            (j, self.ranges.get(j)) for j in range(dataset.n_attributes) if j not in self.exclude
        ]

        # The leading run of 0/1 terms (before the first non-zero range) sums
        # to an exact integer in any order: its length minus the matches,
        # counted in the narrowest integer type that holds it.
        self._lead = len(list(itertools.takewhile(lambda term: not term[1], self._terms)))
        self._match_dtype = np.min_scalar_type(self._lead)
        # On the exact path every term is in the run, and a row of keys is
        # T * n + position less n per match; int32 keys partition about 4x
        # faster than float64 on car's rows.
        n = self._ids.size
        exact = _exact([scale for _, scale in self._terms], n)
        self._far = np.int32(np.iinfo(np.int32).max) if exact else np.float64(np.inf)
        self._base = self._lead * n + np.arange(n, dtype=np.int32) if exact else None

    def _impute(self, positions: np.ndarray, attributes: np.ndarray) -> list:
        """(imputed value, neighbor ids) for each pair of a record's dataset
        position in ``positions`` and an attribute in ``attributes``, in order.

        The neighbors are the k nearest other records holding a value at the
        attribute, ties on distance broken by ascending record id; fewer than
        k candidates means all of them.  They vote (a count tie goes to the
        smallest level index) or, for a numeric attribute, average.  A pair
        whose attribute no other record holds raises ``DataError``.

        Adjacent pairs of one record share a query record.  Query records
        run a block at a time; a block holds ``_BLOCK_BYTES`` of distances
        (int32 keys or float64) or one row.  Its buffers are allocated once
        per call, reused by every block of both scans and freed before the
        vote, and each of its rows gives one query record's head.  Whenever
        the heads fill half of ``_BLOCK_BYTES``, their pairs pick their
        neighbours, in passes over at most as many pairs as fill that much
        of heads again.  Pairs whose heads hold too few holders are scanned
        once more, one query record each.  The vote runs once per
        (attribute, k) group at the end, so no result comes back before
        every block has been scanned.
        """
        chosen, ks = self._neighbors(self._rank[positions], attributes)

        results = [None] * attributes.size
        order = np.lexsort((ks, attributes))
        change = np.diff(attributes[order]) | np.diff(ks[order])
        for group in np.split(order, np.flatnonzero(change) + 1) if order.size else ():
            attribute, k = int(attributes[group[0]]), int(ks[group[0]])
            attr = self.dataset.schema[attribute]
            neighbors = chosen[group, :k]
            if attr.kind == NUMERIC:
                # Python's sum over the values in neighbor order, as the scalar mean does
                values = [_mean(row) for row in self._values[attribute][neighbors].tolist()]
            else:
                winners = _mode(self._codes[attribute][neighbors], len(attr.levels))
                values = [attr.levels[w] for w in winners.tolist()]
            ids = map(tuple, self._ids[neighbors].tolist())
            for i, value, neighbor_ids in zip(group.tolist(), values, ids):
                results[i] = (value, neighbor_ids)
        return results

    def _neighbors(self, owners, attributes) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's k and neighbour positions: ``(chosen, ks)``.

        Pair i is the record at position ``owners[i]`` and attribute
        ``attributes[i]``.  k is at most the holders other than the owner;
        the pair's neighbours are the first k of ``chosen[i]``.  A k of 0,
        when no other record holds the attribute, raises ``DataError``, and a
        pair still short after its one rescan raises ``RuntimeError``.  The
        block buffers and heads are freed on return.
        """
        n = self._ids.size
        ks = np.minimum(self.k, self._known[attributes] - self._present[attributes, owners])
        if not ks.all():
            name = self.dataset.schema[attributes[np.argmin(ks)]].name  # the first k of 0
            raise DataError(f"attribute {name!r} has no known value anywhere; cannot impute")
        chosen = np.empty((owners.size, min(self.k, n)), np.int32)

        rows = max(1, _BLOCK_BYTES // (self._far.itemsize * max(n, 1)))
        width = min(n, 2 * (2 * self.k + _HEAD_SLACK))
        # The most pairs one pick takes, whose int32 heads fill half of
        # _BLOCK_BYTES, and the most query records whose heads fill at once:
        # a whole number of blocks, at least one
        picks = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
        chunk = max(1, picks // rows) * rows

        work = self._workspace(rows)
        heads = np.empty((min(chunk, owners.size), width), np.int32)
        # The first scan: every pair, its query records the runs of one owner
        short, reach = np.arange(owners.size), None
        firsts = np.append(np.flatnonzero(np.diff(owners, prepend=-1)), owners.size)
        for _ in range(2):  # the scan, then at most one rescan
            if not short.size:
                break
            queries, lacking = owners[short[firsts[:-1]]], []
            for start in range(0, queries.size, chunk):
                batch = queries[start : start + chunk]
                masks = None if reach is None else reach[start : start + chunk]
                for offset, block in self._blocks(batch, rows, work, masks):
                    self._head(block, heads[offset : offset + len(block)], work)
                stop = firsts[start + batch.size]
                for lo in range(firsts[start], stop, picks):
                    pairs = np.arange(lo, min(lo + picks, stop))
                    query = np.searchsorted(firsts, pairs, side="right") - 1
                    lacking.append(self._pick(short[pairs], heads[query - start], attributes, ks,
                                              chosen))
            # The rescan: one query record per short pair, which reaches only
            # the holders of the pair's attribute, so its head holds k of them
            short = np.concatenate(lacking)
            firsts, reach = np.arange(short.size + 1), attributes[short]
        if short.size:
            raise RuntimeError(f"{short.size} pairs still short of k holders after their rescan")
        return chosen, ks

    def _workspace(self, rows: int) -> _Workspace:
        """Buffers for blocks of up to ``rows`` query records."""
        shape, floats = (rows, self._ids.size), self._base is None
        return _Workspace(np.empty(shape, self._far.dtype), np.empty(shape, self._match_dtype),
                          np.empty(shape, bool), np.empty(shape) if floats else None)

    def _blocks(self, positions: np.ndarray, rows: int, work: _Workspace, reach=None):
        """(offset, block) for each ``rows`` of ``positions``: a ``_distances``
        block with each record's own position at ``_far``.  With ``reach``,
        an attribute per position, so is every record lacking it."""
        for offset in range(0, positions.size, rows):
            queries = positions[offset : offset + rows]
            block = self._distances(queries, work)
            block[np.arange(queries.size), queries] = self._far  # never one's own neighbor
            if reach is not None:
                block[~self._present[reach[offset : offset + rows], :-1]] = self._far
            yield offset, block

    def _distances(self, positions, work: _Workspace) -> np.ndarray:
        """Squared HEOM from the records at ``positions`` to every record: one block.

        Written into the first rows of ``work.distances``, which come back,
        as keys on the exact path (see ``KnnImputer``).
        """
        n = len(positions)
        total, matches, flags = work.distances[:n], work.matches[:n], work.flags[:n]
        # The block's own cells as columns; a missing one is -2 (or NaN), so
        # it matches no cell, and a missing cell (-1) matches no query cell.
        codes = np.take(self._codes, positions, axis=1)[:, :, None]
        codes[codes == -1] = -2
        values = np.take(self._values, positions, axis=1)[:, :, None]
        matches.fill(0)
        for j, scale in self._terms[: self._lead]:
            if scale is None:
                matches += np.equal(self._codes[j], codes[j], out=flags)
            else:  # zero range: NaN equals nothing
                matches += np.equal(self._values[j], values[j], out=flags)
        if self._base is None:
            np.subtract(self._lead, matches, out=total)
        else:  # every term is in the run
            np.multiply(matches, -self._ids.size, out=total, dtype=np.int32)
            total += self._base
        for j, scale in self._terms[self._lead:]:
            if scale is None:
                total += np.not_equal(self._codes[j], codes[j], out=flags)
            elif scale > 0.0:
                term = work.floats[:n]
                np.subtract(self._values[j], values[j], out=term)
                term /= scale
                term *= term  # at most 1 for present values: |a - b| <= range
                np.fmin(term, 1.0, out=term)  # NaN, missing on either side, becomes 1
                total += term
            else:  # zero range: NaN is unequal to everything
                total += np.not_equal(self._values[j], values[j], out=flags)
        return total

    def _head(self, block: np.ndarray, heads: np.ndarray, work: _Workspace) -> None:
        """Write each block row's head into its row of ``heads``.

        A row's head is its first ``heads.shape[1]`` positions below ``_far``
        in (distance, position) order, padded with the position past the
        last record, which no attribute holds.  An int32 block of keys is
        partitioned in place, so it is not read again.
        """
        width, n = heads.shape[1], block.shape[1]
        if self._base is not None:  # keys: their order is (distance, position) order
            block.partition(width - 1, axis=1)
            keys = np.sort(block[:, :width], axis=1)
            np.remainder(keys, n, out=heads)
            heads[keys == self._far] = n
            return
        # the head: at most the row's W-th smallest distance and the term count (short of _far)
        part, flags = work.floats[: len(block)], work.flags[: len(block)]
        np.copyto(part, block)
        part.partition(width - 1, axis=1)
        np.less_equal(block, np.minimum(part[:, width - 1 : width], len(self._terms)), out=flags)
        ordered, starts = self._sorted_nearest(block, flags)
        index = starts[:-1, None] + np.arange(width)
        heads[...] = ordered.take(index, mode="clip")
        heads[index >= starts[1:, None]] = n  # past the row's run

    def _pick(self, pairs, heads, attributes, ks, chosen) -> np.ndarray:
        """Write each pair's first k holders in its head into its row of ``chosen``.

        ``pairs`` index ``attributes``, ``ks`` and ``chosen``, with one row
        of ``heads`` each.  Returns the pairs whose heads hold fewer than k
        holders; their rows of ``chosen`` are left as they were.
        """
        holds = self._present[attributes[pairs, None], heads]
        k = ks[pairs]
        counts = np.cumsum(holds, axis=1, dtype=np.min_scalar_type(heads.shape[1]))
        found = counts[:, -1] >= k
        holds &= counts <= k[:, None]  # each pair's first k holders,
        holds &= found[:, None]  # when it has them
        # a chosen holder's count, less one, is its column in its pair's row
        flat = np.flatnonzero(holds)
        target = pairs[flat // heads.shape[1]]
        target *= chosen.shape[1]
        target += counts.ravel()[flat]
        target -= 1
        chosen.ravel()[target] = heads.ravel()[flat]
        return pairs[~found]

    def _sorted_nearest(self, block: np.ndarray, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's flagged positions in (distance, position) order, rows one after another.

        Row r's run is ``ordered[starts[r]:starts[r + 1]]``.  One
        ``flatnonzero`` finds the flagged cells in row-major order; one
        ``lexsort`` over (row, distance), which is stable, then orders each
        row's run with ties in position order.
        """
        width = flags.shape[1]
        flat = np.flatnonzero(flags)  # row * width + position
        starts = np.searchsorted(flat, np.arange(flags.shape[0] + 1) * width)
        flat = flat[np.lexsort((block.ravel()[flat], flat // width))]
        flat %= width
        return flat, starts


def _exact(scales, n_records: int) -> bool:
    """Whether blocks hold int32 keys: no term's scale is non-zero, and (T + 1) * n fits int32."""
    return not any(scales) and (len(scales) + 1) * n_records <= np.iinfo(np.int32).max


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
