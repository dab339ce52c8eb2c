import math
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefill.binning import EQUAL_FREQUENCY, EQUAL_WIDTH, Bins, bin_of, fit_bins


def test_equal_width_two_bins():
    bins = fit_bins([0.0, 10.0], 2, EQUAL_WIDTH)
    assert bins.edges == (0.0, 5.0, 10.0)
    assert bins.representatives == (2.5, 7.5)


def test_constant_column_collapses_to_single_bin():
    bins = fit_bins([3, 3, 3], 4, EQUAL_WIDTH)
    assert bins.edges == (3.0, 3.0)
    assert bins.representatives == (3.0,)
    assert bin_of(3.0, bins) == 0
    bins = fit_bins([3, 3, 3], 4, EQUAL_FREQUENCY)
    assert bins.representatives == (3.0,)


def test_equal_frequency_quantile_edges_and_bin_medians():
    # sort-based oracle: the interior cut for two bins is the median (3);
    # values split {1,2,3} / {4,100} with bin medians 2 and 4
    values = [1, 2, 3, 4, 100]
    assert median(values) == 3
    bins = fit_bins(values, 2, EQUAL_FREQUENCY)
    assert bins.edges == (1.0, 3.0, 100.0)
    assert bins.representatives == (2.0, 4.0)


def test_equal_frequency_merges_duplicate_edges():
    bins = fit_bins([1, 1, 1, 1, 1, 2], 4, EQUAL_FREQUENCY)
    assert bins.n_bins < 4
    assert bins.edges[0] == 1.0 and bins.edges[-1] == 2.0


@pytest.mark.parametrize("edges, representatives", [
    ((0.0, math.inf), (1.0,)),
    ((-math.inf, 0.0, 1.0), (-1.0, 0.5)),
    ((0.0, 1.0), (math.nan,)),
    ((0.0, math.nan, 2.0), (0.5, 1.5)),
])
def test_bins_refuse_values_that_are_not_finite(edges, representatives):
    with pytest.raises(ValueError, match="must be finite"):
        Bins(edges, representatives)


def test_fit_bins_errors():
    with pytest.raises(ValueError):
        fit_bins([], 2)
    with pytest.raises(ValueError):
        fit_bins([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        fit_bins([1.0, math.nan], 2)
    with pytest.raises(ValueError):
        fit_bins([1.0, 2.0], 2, "entropy")
    with pytest.raises(ValueError, match="one representative per bin"):
        Bins((0.0, 1.0, 2.0), (0.5,))


def test_span_that_overflows_a_float_raises_for_both_strategies():
    for strategy in (EQUAL_WIDTH, EQUAL_FREQUENCY):
        with pytest.raises(ValueError, match="overflows a float"):
            fit_bins([-1e308, 0.0, 1e308], 3, strategy)


# Spans a few ulps wide, where neighbouring equal-width edges round to the
# same float and must merge into one.
@pytest.mark.parametrize("values, n_bins, edges", [
    ([1.0, 1.0000000000000004], 5, (1.0, 1.0000000000000002, 1.0000000000000004)),
    ([-0.0, 1.5e-323], 4, (0.0, 5e-324, 1e-323, 1.5e-323)),
    ([1e300, 1.0000000000000002e300], 3, (1e300, 1.0000000000000002e300)),
    ([0.1, 0.10000000000000005], 8,
     (0.1, 0.10000000000000002, 0.10000000000000003, 0.10000000000000005)),
])
def test_equal_width_edges_over_a_few_ulps_merge(values, n_bins, edges):
    bins = fit_bins(values, n_bins, EQUAL_WIDTH)
    assert bins.edges == edges
    assert all(lo < hi for lo, hi in zip(bins.edges, bins.edges[1:]))


def test_bin_of_boundaries():
    bins = Bins((0.0, 5.0, 10.0), (2.5, 7.5))
    assert bin_of(5.0, bins) == 1  # boundary belongs to the upper bin
    assert bin_of(-3.0, bins) == 0  # clamp below
    assert bin_of(10.0, bins) == 1  # last bin right-closed
    assert bin_of(12.0, bins) == 1  # clamp above
    assert bin_of(0.0, bins) == 0


finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@given(
    values=st.lists(finite_floats, min_size=1, max_size=60),
    n_bins=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([EQUAL_WIDTH, EQUAL_FREQUENCY]),
)
@settings(max_examples=200)
def test_representative_lands_in_its_own_bin(values, n_bins, strategy):
    bins = fit_bins(values, n_bins, strategy)
    for i, rep in enumerate(bins.representatives):
        assert bin_of(rep, bins) == i


@given(
    values=st.lists(finite_floats, min_size=2, max_size=60),
    n_bins=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([EQUAL_WIDTH, EQUAL_FREQUENCY]),
    probes=st.lists(finite_floats, min_size=2, max_size=10),
)
@settings(max_examples=200)
def test_bin_of_is_monotone(values, n_bins, strategy, probes):
    bins = fit_bins(values, n_bins, strategy)
    probes = sorted(probes)
    indices = [bin_of(p, bins) for p in probes]
    assert indices == sorted(indices)


@given(
    values=st.lists(finite_floats, min_size=2, max_size=60).filter(
        lambda vs: max(vs) > min(vs)
    ),
    n_bins=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200)
def test_equal_width_bins_have_equal_widths(values, n_bins):
    bins = fit_bins(values, n_bins, EQUAL_WIDTH)
    if bins.n_bins != n_bins:
        return  # degenerate range: rounding merged edges
    widths = [hi - lo for lo, hi in zip(bins.edges, bins.edges[1:])]
    scale = max(abs(e) for e in bins.edges) or 1.0
    for w in widths:
        assert w == pytest.approx(widths[0], rel=1e-9, abs=1e-9 * scale)


@given(
    values=st.lists(finite_floats, min_size=1, max_size=60),
    n_bins=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([EQUAL_WIDTH, EQUAL_FREQUENCY]),
)
@settings(max_examples=150)
def test_edges_cover_training_range(values, n_bins, strategy):
    bins = fit_bins(values, n_bins, strategy)
    assert bins.edges[0] == min(float(v) for v in values)
    assert bins.edges[-1] == max(float(v) for v in values)
    for v in values:
        assert 0 <= bin_of(v, bins) < bins.n_bins


@given(
    values=st.lists(finite_floats, min_size=1, max_size=60),
    n_bins=st.integers(min_value=1, max_value=8),
    strategy=st.sampled_from([EQUAL_WIDTH, EQUAL_FREQUENCY]),
    probes=st.lists(finite_floats, max_size=20),
)
@settings(max_examples=200)
def test_array_bin_of_matches_scalar(values, n_bins, strategy, probes):
    bins = fit_bins(values, n_bins, strategy)
    probes = [*probes, *values, *bins.edges, *bins.representatives]
    indices = [bin_of(p, bins) for p in probes]
    assert bin_of(np.array(probes), bins).tolist() == indices
    for p, i in zip(probes, indices):
        assert i == 0 or bins.edges[i] <= p
        assert i == bins.n_bins - 1 or p < bins.edges[i + 1]
