"""Numeric-attribute binning so continuous columns can join itemset mining.

Bins carry one representative value per bin so a rule that predicts a bin
can be turned back into a number.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from statistics import median_low

import numpy as np

EQUAL_WIDTH = "width"
EQUAL_FREQUENCY = "frequency"


@dataclass(frozen=True)
class Bins:
    """Increasing finite cut points (b+1 edges for b bins) plus b representatives.

    The single degenerate case is a constant column, encoded as two equal
    edges and one bin.
    """

    edges: tuple[float, ...]
    representatives: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) < 2:
            raise ValueError("need at least two edges")
        if len(self.representatives) != len(self.edges) - 1:
            raise ValueError("need exactly one representative per bin")
        if not all(map(math.isfinite, (*self.edges, *self.representatives))):
            raise ValueError("edges and representatives must be finite")
        degenerate = len(self.edges) == 2 and self.edges[0] == self.edges[1]
        if not degenerate and any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")
        for i, rep in enumerate(self.representatives):
            if not (self.edges[i] <= rep <= self.edges[i + 1]):
                raise ValueError(f"representative {rep} outside bin {i}")

    @property
    def n_bins(self) -> int:
        return len(self.representatives)


def fit_bins(values, n_bins: int, strategy: str = EQUAL_FREQUENCY) -> Bins:
    """Fit a binning over the given numeric values.

    Equal-width bins split [min, max] evenly and use midpoints as
    representatives.  Equal-frequency bins cut at empirical quantiles
    (duplicates merged, so fewer bins may come back) and use the lower
    median of each bin's training values; the last bin is closed on the
    right.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot fit bins without values")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("cannot fit bins over non-finite values")
    if strategy not in (EQUAL_WIDTH, EQUAL_FREQUENCY):
        raise ValueError(f"unknown binning strategy: {strategy!r}")

    vmin, vmax = min(vals), max(vals)
    if vmin == vmax:
        return Bins((vmin, vmax), (vmin,))
    if math.isinf(vmax - vmin):
        raise ValueError(f"span from {vmin} to {vmax} overflows a float")

    if strategy == EQUAL_WIDTH:
        edges = np.unique(np.linspace(vmin, vmax, n_bins + 1)).tolist()
        reps = [lo + (hi - lo) / 2.0 for lo, hi in zip(edges, edges[1:])]
    else:
        qs = np.quantile(vals, [i / n_bins for i in range(1, n_bins)]).tolist()
        interior = sorted({q for q in qs if vmin < q < vmax})
        edges = [vmin, *interior, vmax]
        # Right-closed membership while fitting: a value equal to a cut point
        # counts toward the lower bin, matching a sorted-chunk partition.
        chunks = [[] for _ in range(len(edges) - 1)]
        for v in vals:
            chunks[bisect_left(interior, v)].append(v)
        reps = []
        for i, chunk in enumerate(chunks):
            reps.append(median_low(chunk) if chunk else edges[i] + (edges[i + 1] - edges[i]) / 2.0)

    fit_values = vals if strategy == EQUAL_FREQUENCY else None
    return Bins(tuple(edges), tuple(_repaired(edges, reps, fit_values)))


def _repaired(edges, reps, freq_vals):
    # Lookup is left-closed (see bin_of), so every non-final representative
    # must sit strictly below its upper edge; duplicate-heavy columns can
    # push a bin median onto the cut point.
    fixed = list(reps)
    for i in range(len(fixed) - 1):
        lo, hi = edges[i], edges[i + 1]
        if lo <= fixed[i] < hi:
            continue
        candidate = None
        if freq_vals is not None:
            inside = [v for v in freq_vals if lo <= v < hi]
            if inside:
                candidate = median_low(inside)
        if candidate is None or not (lo <= candidate < hi):
            mid = lo + (hi - lo) / 2.0
            candidate = mid if lo <= mid < hi else lo
        fixed[i] = candidate
    return fixed


def bin_of(value, bins: Bins):
    """Bin index of a value, or an array of them for an array of values.

    edges[i] <= v < edges[i+1], the last bin right-closed; out-of-range
    values clamp to the first or last bin.
    """
    return np.clip(np.searchsorted(bins.edges, value, "right") - 1, 0, bins.n_bins - 1)
