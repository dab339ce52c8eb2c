import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AssociationRule,
    AttributeSchema,
    DataError,
    Dataset,
    Record,
    impute_dataset,
)
from rulefill import knn as knn_module
from rulefill import sample_data
from rulefill.knn import KnnImputer
from oracles import (
    oracle_heom,
    oracle_knn_value,
    oracle_missing_cells,
    oracle_neighbors,
    oracle_ranges,
    random_dataset,
)

MIXED_SCHEMA = [
    AttributeSchema("x", NUMERIC),
    AttributeSchema("color", CATEGORICAL, ("red", "blue")),
]


def mixed_dataset(rows):
    return Dataset(MIXED_SCHEMA, [Record(i, tuple(r)) for i, r in enumerate(rows)])


def impute_pairs(knn, cells):
    """``knn._impute`` for (record, attribute) pairs of its dataset, present cells too."""
    positions = [knn.dataset._position_of[record.id] for record, _ in cells]
    return knn._impute(np.array(positions, np.intp), np.array([j for _, j in cells], np.intp))


def every_cell(ds):
    """Every (record, attribute) pair, present cells too, whose attribute another record holds."""
    holders = [sum(r.cells[j] is not None for r in ds.records) for j in range(ds.n_attributes)]
    return [(r, j) for r in ds.records for j in range(ds.n_attributes)
            if holders[j] > (r.cells[j] is not None)]


def knn_only_cell(ds, k):
    """The imputation of ``ds``'s one missing cell by ``impute_dataset`` without rules."""
    _, report = impute_dataset(ds, [], k)
    [cell] = report.cells
    return cell


def test_identical_records_have_zero_distance():
    ds = mixed_dataset([("1.0", "red"), ("1.0", "red")])
    ranges = oracle_ranges(ds)
    assert oracle_heom(ds.records[0], ds.records[1], ds.schema, ranges) == 0.0


def test_single_categorical_difference_is_unit_distance():
    ds = mixed_dataset([("1.0", "red"), ("1.0", "blue")])
    ranges = oracle_ranges(ds)
    assert oracle_heom(ds.records[0], ds.records[1], ds.schema, ranges) == 1.0


def test_range_normalized_numeric_term():
    ds = mixed_dataset([("0", "red"), ("10", "red")])
    ranges = oracle_ranges(ds)
    assert ranges[0] == 10.0
    d = oracle_heom(ds.records[0], ds.records[1], ds.schema, ranges)
    assert d == pytest.approx(math.sqrt(1.0**2 + 0.0**2))


def test_missing_cell_counts_as_one():
    ds = mixed_dataset([(None, "red"), ("5", "red")])
    ranges = oracle_ranges(ds)
    assert oracle_heom(ds.records[0], ds.records[1], ds.schema, ranges) == 1.0


def test_zero_range_terms():
    ds = mixed_dataset([("4", "red"), ("4", "blue"), ("4", "red")])
    ranges = oracle_ranges(ds)
    assert ranges[0] == 0.0
    assert oracle_heom(ds.records[0], ds.records[2], ds.schema, ranges) == 0.0
    a, b = ds.records[0], Record(9, ("7", "red"))
    assert oracle_heom(a, b, ds.schema, ranges) == 1.0  # unequal under zero range


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_refused_before_any_work(k):
    schema = [AttributeSchema("c", CATEGORICAL, ("a", "b")), MIXED_SCHEMA[1]]
    ds = Dataset(schema, [Record(0, ("a", None)), Record(1, ("b", "red"))])
    covering = AssociationRule((), (1, 0), 1.0, 1.0)  # fires on the one missing cell
    misfit = AssociationRule((), (7, 0), 1.0, 1.0)  # no attribute 7: refused when checked
    for rules in ([covering], [misfit]):
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            impute_dataset(ds, rules, k)
    _, report = impute_dataset(ds, [covering], 1)
    assert [(c.value, c.source) for c in report.cells] == [("red", "rules")]


def test_nearest_exact_match_wins():
    ds = mixed_dataset([(None, "red"), ("2.0", "red"), ("9.0", "blue")])
    assert knn_only_cell(ds, 1).value == 2.0


def test_majority_vote():
    schema = [
        AttributeSchema("c", CATEGORICAL, ("red", "blue")),
        AttributeSchema("d", CATEGORICAL, ("a", "b")),
    ]
    ds = Dataset(
        schema,
        [
            Record(0, (None, "a")),
            Record(1, ("red", "a")),
            Record(2, ("red", "a")),
            Record(3, ("blue", "a")),
        ],
    )
    assert knn_only_cell(ds, 3).value == "red"


def test_numeric_mean():
    ds = mixed_dataset([(None, "red"), ("4.0", "red"), ("6.0", "red")])
    assert knn_only_cell(ds, 2).value == 5.0


def test_fewer_candidates_than_k_uses_all():
    ds = mixed_dataset([(None, "red"), ("4.0", "red")])
    assert knn_only_cell(ds, 10).value == 4.0


def test_vote_tie_breaks_to_smallest_level_index():
    schema = [
        AttributeSchema("c", CATEGORICAL, ("z_first", "a_second")),
        AttributeSchema("d", CATEGORICAL, ("u", "v")),
    ]
    ds = Dataset(
        schema,
        [
            Record(0, (None, "u")),
            Record(1, ("a_second", "u")),
            Record(2, ("z_first", "u")),
        ],
    )
    # one vote each: the tie goes to level index 0 regardless of label text
    assert knn_only_cell(ds, 2).value == "z_first"


def test_distance_tie_breaks_by_record_id():
    schema = [
        AttributeSchema("c", CATEGORICAL, ("red", "blue")),
        AttributeSchema("d", CATEGORICAL, ("u", "v")),
    ]
    ds = Dataset(
        schema,
        [
            Record(5, (None, "u")),
            Record(9, ("blue", "u")),
            Record(2, ("red", "u")),
        ],
    )
    assert knn_only_cell(ds, 1).neighbor_ids == (2,)


def test_global_fallback_mode_and_mean():
    schema = [
        AttributeSchema("c", CATEGORICAL, ("red", "blue")),
        AttributeSchema("x", NUMERIC),
    ]
    ds = Dataset(
        schema,
        [Record(0, (None, None)), Record(1, ("red", "2")), Record(2, ("blue", "4"))],
    )
    # candidates exist here, so force the fallback path via a column that is
    # missing everywhere else
    lonely = Dataset(schema, [Record(0, (None, "1")), Record(1, (None, "3"))])
    knn = KnnImputer(lonely, 2)
    with pytest.raises(DataError):
        impute_pairs(knn, [(lonely.records[0], 0)])  # no known value anywhere
    [(value, ids)] = impute_pairs(KnnImputer(ds, 2), [(ds.records[0], 0)])
    assert ids  # normal path still returns neighbors
    empty_target = Dataset(
        schema, [Record(0, ("red", None)), Record(1, ("red", None)), Record(2, ("blue", "7"))]
    )
    knn = KnnImputer(empty_target, 2)
    [(value, ids)] = impute_pairs(knn, [(empty_target.records[0], 1)])
    assert ids == (2,)
    # a present cell whose one other holder votes alone
    only = Dataset(schema, [Record(0, ("red", None)), Record(1, ("blue", "7"))])
    [(value, ids)] = impute_pairs(KnnImputer(only, 2), [(only.records[0], 0)])
    assert value == "blue" and ids == (1,)


def test_metric_properties_random():
    rng = random.Random(11)
    for _ in range(40):
        ds = random_dataset(rng, max_records=12)
        ranges = oracle_ranges(ds)
        a, b = rng.choice(ds.records), rng.choice(ds.records)
        dab = oracle_heom(a, b, ds.schema, ranges)
        dba = oracle_heom(b, a, ds.schema, ranges)
        assert dab == dba
        assert dab >= 0.0
        if all(c is not None for c in a.cells):
            assert oracle_heom(a, a, ds.schema, ranges) == 0.0


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_numeric_scale_invariance(scale, seed):
    rng = random.Random(seed)
    ds = random_dataset(rng, max_records=10, allow_numeric=True)
    numeric = [j for j, a in enumerate(ds.schema) if a.kind == NUMERIC]
    if not numeric:
        return
    scaled_records = []
    for r in ds.records:
        cells = list(r.cells)
        for j in numeric:
            if cells[j] is not None:
                cells[j] = repr(float(cells[j]) * scale)
        scaled_records.append(Record(r.id, tuple(cells)))
    scaled = Dataset(ds.schema, scaled_records)
    ranges = oracle_ranges(ds)
    scaled_ranges = oracle_ranges(scaled)
    for a, b in [(0, 1), (0, len(ds.records) - 1)]:
        d1 = oracle_heom(ds.records[a], ds.records[b], ds.schema, ranges)
        d2 = oracle_heom(scaled.records[a], scaled.records[b], ds.schema, scaled_ranges)
        assert d2 == pytest.approx(d1, rel=1e-9, abs=1e-12)


def test_neighbor_selection_matches_oracle():
    rng = random.Random(2024)
    for trial in range(25):
        categorical_only = trial % 2 == 0  # integer distances force real ties
        ds = random_dataset(rng, max_records=60, allow_numeric=not categorical_only)
        knn = KnnImputer(ds, rng.randint(1, 8))
        for _ in range(6):
            record = rng.choice(ds.records)
            attribute = rng.randrange(ds.n_attributes)
            expected = oracle_neighbors(ds, record, attribute, knn.k)
            [(_, ids)] = impute_pairs(knn, [(record, attribute)])
            assert list(ids) == expected


def test_imputed_values_match_oracle():
    rng = random.Random(77)
    for _ in range(25):
        ds = random_dataset(rng, max_records=40)
        k = rng.randint(1, 6)
        knn = KnnImputer(ds, k)
        for record in ds.records[:8]:
            for attribute in range(ds.n_attributes):
                if record.cells[attribute] is not None:
                    continue
                if not any(
                    r.cells[attribute] is not None for r in ds.records if r.id != record.id
                ):
                    continue
                [(value, _)] = impute_pairs(knn, [(record, attribute)])
                assert value == oracle_knn_value(ds, record, attribute, k)


def test_vectorized_distances_match_scalar_bit_for_bit():
    # k = every record: each cell's neighbours are all holders in (distance,
    # id) order, so a distance off the scalar HEOM by one bit reorders ties
    rng = random.Random(31337)
    for _ in range(20):
        ds = random_dataset(rng, max_records=30)
        record = rng.choice(ds.records)
        cells = [(record, j) for r, j in every_cell(ds) if r is record]
        for (_, j), (_, ids) in zip(cells, impute_pairs(KnnImputer(ds, ds.n_records), cells)):
            assert list(ids) == oracle_neighbors(ds, record, j, ds.n_records)


def assert_matches_oracles(ds, k, cells, exclude=()):
    """``_impute`` on ``cells``, and kNN-only ``impute_dataset`` on those of
    them that are missing, agree with the oracles."""
    results = impute_pairs(KnnImputer(ds, k, exclude), cells)
    for (record, j), (value, ids) in zip(cells, results, strict=True):
        assert list(ids) == oracle_neighbors(ds, record, j, k, exclude)
        assert value == oracle_knn_value(ds, record, j, k, exclude)

    _, report = impute_dataset(ds, [], k, exclude=exclude)
    assert report.n_imputed == len(oracle_missing_cells(ds))
    expected = {(record.id, j): result for (record, j), result in zip(cells, results)}
    for cell in report.cells:
        if (cell.record_id, cell.attribute) in expected:
            assert (cell.value, cell.neighbor_ids) == expected[cell.record_id, cell.attribute]


BATCH_SCHEMA = [
    AttributeSchema("c", CATEGORICAL, ("a", "b", "c")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("flat", NUMERIC),  # one value wherever present: zero range
    AttributeSchema("d", CATEGORICAL, ("u", "v")),
    AttributeSchema("rare", CATEGORICAL, ("p", "q")),  # one holder: k = 1 for every other record
]


def batch_dataset(rng, n_records):
    """Records in shuffled order under non-contiguous ids, with distance ties."""
    ids = rng.sample(range(10 * n_records), n_records)

    def maybe(value):
        return None if rng.random() < 0.25 else value

    records = [
        Record(record_id, (
            maybe(rng.choice("abc")),
            maybe(f"{rng.choice([-1.5, 0.0, 2.25, 7.0])}"),
            maybe("4.0"),
            maybe(rng.choice("uv")),
            "q" if position == 0 else None,
        ))
        for position, record_id in enumerate(ids)
    ]
    return Dataset(BATCH_SCHEMA, records)


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_batched_path_matches_oracle(block_rows, monkeypatch):
    rng = random.Random(4242 + (block_rows or 0))
    for _ in range(12):
        ds = batch_dataset(rng, rng.randint(3, 30))
        if block_rows is not None:
            monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 8 * ds.n_records * block_rows)
        k = rng.randint(1, ds.n_records + 3)  # often more than the candidates
        # every cell, present ones too, so candidate counts differ within a block
        assert_matches_oracles(ds, k, every_cell(ds))


def test_reused_block_buffers_carry_nothing_over(monkeypatch):
    # 20 records in blocks of 3 rows, the last one shorter; BATCH_SCHEMA has a
    # leading categorical run, numeric cells with NaN, a zero-range numeric
    # column and a categorical tail term
    rng = random.Random(4545)
    ds = batch_dataset(rng, 20)
    monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 8 * ds.n_records * 3)
    cells = every_cell(ds)
    for k in (1, 3, ds.n_records + 3):
        knn = KnnImputer(ds, k)
        for (record, j), (value, ids) in zip(cells, impute_pairs(knn, cells), strict=True):
            assert list(ids) == oracle_neighbors(ds, record, j, k)
            assert value == oracle_knn_value(ds, record, j, k)
        # one imputer, two calls of different lengths: each as from a fresh imputer
        state = dict(vars(knn))
        for pairs in (cells[7:30], cells):
            assert impute_pairs(knn, pairs) == impute_pairs(KnnImputer(ds, k), pairs)
        assert vars(knn).keys() == state.keys()  # no buffer stays on the instance


FAR_SCHEMA = [
    AttributeSchema("c", CATEGORICAL, ("a", "b", "far")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("d", CATEGORICAL, ("u", "v", "far")),
    AttributeSchema("rare", CATEGORICAL, ("p", "q")),  # held only by the far records
]


def far_holders_dataset(rng, n_records, n_far):
    """A cluster of records plus a few far-away ones, the only holders of ``rare``."""
    ids = rng.sample(range(10 * n_records), n_records)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    records = []
    for position, record_id in enumerate(ids):
        far = position < n_far
        records.append(Record(record_id, (
            "far" if far else maybe(rng.choice("ab")),
            maybe(f"{rng.choice([0.0, 0.5, 1.0, 2.0]) + (60.0 if far else 0.0)}"),
            "far" if far else maybe(rng.choice("uv")),
            rng.choice("pq") if far else None,
        )))
    rng.shuffle(records)
    return Dataset(FAR_SCHEMA, records)


def near_constant_dataset(rng, n_records):
    """All-categorical records that nearly all agree: huge distance ties."""
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(3)]
    records = [
        Record(record_id, tuple(
            None if rng.random() < 0.15 else ("b" if rng.random() < 0.02 else "a")
            for _ in schema
        ))
        for record_id in rng.sample(range(10 * n_records), n_records)
    ]
    return Dataset(schema, records)


def oracle_rescans(ds, k, cells):
    """Cells whose head, the first W = 2 * (2k + 8) other records in (HEOM,
    id) order (see knn.py), holds fewer holders of the cell's attribute
    than k or than all of them: the cells that are scanned again."""
    ranges = oracle_ranges(ds)
    rescans = 0
    for record, j in cells:
        holds = [held for _, _, held in sorted(
            (oracle_heom(record, other, ds.schema, ranges), other.id, other.cells[j] is not None)
            for other in ds.records if other.id != record.id)]
        rescans += sum(holds[: 2 * (2 * k + 8)]) < min(k, sum(holds))
    return rescans


@pytest.mark.parametrize("seed", [1, 8])
def test_few_near_holders_take_tie_band_then_retry(seed):
    # every rare cell's holders lie far away, past its first head
    rng = random.Random(808 + seed)
    for _ in range(3):
        ds = far_holders_dataset(rng, rng.randint(100, 130), rng.randint(2, 5))
        k = rng.choice([1, 3, 10])
        cells = [(r, 3) for r in ds.records] + [
            (r, j) for r in rng.sample(ds.records, 25) for j in range(3)
        ]
        assert oracle_rescans(ds, k, cells) > 0
        assert_matches_oracles(ds, k, cells)


SPARSE_SCHEMA = [
    AttributeSchema("c0", CATEGORICAL, ("a", "b", "c")),
    AttributeSchema("c1", CATEGORICAL, ("u", "v")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("c3", CATEGORICAL, ("p", "q", "r")),
    AttributeSchema("sparse", CATEGORICAL, ("s", "t")),
]


def sparse_holders_dataset(rng, n_records):
    """``sparse`` is held by about 30% of records, those whose c0 is not "a"
    and whose c1 is "v", and every other cell is missing at 20%: a record
    lacking ``sparse`` has few holders among its nearest records, and often
    none in its head."""
    records = []
    for record_id in rng.sample(range(10 * n_records), n_records):
        lacking = rng.random() < 0.7
        c0, c1 = ("a", "u") if lacking else (rng.choice("bc"), "v")
        cells = [c0, c1, f"{rng.choice([0.0, 1.0, 2.5])}", rng.choice("pqr")]
        cells = [None if rng.random() < 0.2 else cell for cell in cells]
        records.append(Record(record_id, (*cells, None if lacking else rng.choice("st"))))
    return Dataset(SPARSE_SCHEMA, records)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_sparse_holders_mostly_take_the_fallback_and_match_oracle(k):
    rng = random.Random(7070 + k)
    ds = sparse_holders_dataset(rng, 200)
    assert 0.6 < sum(r.cells[4] is None for r in ds.records) / ds.n_records < 0.8
    sparse = [(r, 4) for r in ds.records]
    assert oracle_rescans(ds, k, sparse) > len(sparse) // 2
    cells = sparse + [(r, j) for r in rng.sample(ds.records, 30) for j in range(4)]
    assert_matches_oracles(ds, k, cells)


@pytest.mark.parametrize("k", [1, 10, None])  # None: more than the records
def test_heavy_ties_match_oracle(k):
    rng = random.Random(9090)
    ds = near_constant_dataset(rng, 300)
    assert_matches_oracles(ds, k or ds.n_records + 3, every_cell(ds))


EDGE_SCHEMA = [
    AttributeSchema("c0", CATEGORICAL, ("a", "b", "c")),
    AttributeSchema("c1", CATEGORICAL, ("u", "v")),
    AttributeSchema("c2", CATEGORICAL, ("p", "q", "r", "s")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("c4", CATEGORICAL, ("m", "n")),
]


def zero_range_dataset(rng, n_records):
    """edge_dataset over EDGE_SCHEMA with one value wherever x is present."""
    ds = edge_dataset(rng, EDGE_SCHEMA, n_records)
    return Dataset(EDGE_SCHEMA, [Record(r.id, (*r.cells[:3], r.cells[3] and "2.5", r.cells[4]))
                                 for r in ds.records])


def edge_dataset(rng, schema, n_records):
    def cell(attr):
        if rng.random() < 0.2:
            return None
        if attr.kind == NUMERIC:
            return f"{rng.choice([-3.0, 0.0, 1.5, 8.0])}"
        return rng.choice(attr.levels)

    ids = rng.sample(range(10 * n_records), n_records)
    return Dataset(schema, [Record(i, tuple(cell(a) for a in schema)) for i in ids])


@pytest.mark.parametrize("exclude", [(), (1,), (0, 2), (3,), (0, 1, 2)])
def test_leading_categorical_run_with_exclusions_is_bit_exact(exclude):
    # (1,) and (0, 2) cut into the run; (3,) drops the numeric term, so c4
    # joins it; (0, 1, 2) empties it, so the numeric term comes first.
    rng = random.Random(str(exclude))
    ds = edge_dataset(rng, EDGE_SCHEMA, 40)
    assert KnnImputer(ds, 4, exclude).ranges == oracle_ranges(ds, exclude)
    assert_matches_oracles(ds, 4, every_cell(ds), exclude)


def test_numeric_first_schema_has_no_leading_run():
    schema = [EDGE_SCHEMA[3], *EDGE_SCHEMA[:3], EDGE_SCHEMA[4]]
    ds = edge_dataset(random.Random(5), schema, 40)
    assert_matches_oracles(ds, 4, every_cell(ds))


CATEGORICAL_SCHEMA = [a for a in EDGE_SCHEMA if a.kind == CATEGORICAL]


def categorical_dataset(rng, n_records):
    """edge_dataset over CATEGORICAL_SCHEMA, plus one complete record: every column is held."""
    first = tuple(rng.choice(a.levels) for a in CATEGORICAL_SCHEMA)
    rest = edge_dataset(rng, CATEGORICAL_SCHEMA, n_records - 1).records
    return Dataset(CATEGORICAL_SCHEMA, [Record(10 * n_records, first), *rest])


@pytest.mark.parametrize("block_rows", [1, 3])
def test_all_categorical_int32_blocks_match_oracle(block_rows, monkeypatch):
    # 4 bytes a distance: the int32 path, in blocks of block_rows rows
    rng = random.Random(5151 + block_rows)
    for _ in range(8):
        ds = categorical_dataset(rng, rng.randint(4, 30))
        monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 4 * ds.n_records * block_rows)
        assert_matches_oracles(ds, rng.randint(1, ds.n_records + 3), every_cell(ds))


@pytest.mark.parametrize("k", [1, 3, 10])
def test_tiny_tables_partition_up_to_the_own_record_sentinel(k):
    # n <= W: every row's head spans the whole row, the own record included
    rng = random.Random(k)
    for n in range(2, 2 * k + 9):
        ds = categorical_dataset(rng, n)
        assert_matches_oracles(ds, k, every_cell(ds))


@pytest.mark.parametrize("case, dtype", [
    ("categorical", np.int32),
    ("zero-range numeric", np.int32),
    ("excluded numeric", np.int32),
    ("numeric", np.float64),
])
def test_distance_dtype_is_int32_without_a_non_zero_numeric_range(case, dtype):
    # dtype names the distances each case's blocks hold: int32 keys unless
    # some numeric term has a non-zero range (see KnnImputer)
    rng = random.Random(case)
    schema, exclude = EDGE_SCHEMA, ()
    if case == "categorical":
        schema = CATEGORICAL_SCHEMA
    elif case == "excluded numeric":
        exclude = (3,)
    if case == "zero-range numeric":
        ds = zero_range_dataset(rng, 30)
        assert oracle_ranges(ds)[3] == 0.0
    else:
        ds = edge_dataset(rng, schema, 30)
    assert (np.float64 if any(oracle_ranges(ds, exclude).values()) else np.int32) is dtype
    assert_matches_oracles(ds, 4, every_cell(ds), exclude)


def peak_bytes(run):
    """``run()`` and the tracemalloc peak during it, less what stays allocated after."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def documented_bound():
    """The kNN fallback's working-memory bound (see ``knn._BLOCK_BYTES``), plus an allowance."""
    return 9 * knn_module._BLOCK_BYTES + (512 << 10)


def block_bound(n_records):
    """A block's four buffers (distances, match counts, flags and float64
    terms), each at most ``_BLOCK_BYTES`` or one row of 8-byte values, plus
    an allowance."""
    return 4 * max(knn_module._BLOCK_BYTES, 8 * n_records) + (64 << 10)


@pytest.mark.parametrize("numeric", [False, True])
@pytest.mark.parametrize("block_bytes", [None, 1])  # None: the default; 1: one row per block
def test_workspace_buffers_stay_within_the_block_bound(numeric, block_bytes, monkeypatch):
    # car at 4x rows: 9 int32 rows or 4 float64 rows of 6,912 distances per block
    rows = sample_data.car_rows(n=6912)
    schema = [AttributeSchema(name, CATEGORICAL, tuple(sorted({r[j] for r in rows})))
              for j, name in enumerate(sample_data.CAR_COLUMNS)]
    if numeric:
        schema.append(AttributeSchema("x", NUMERIC))
        rows = [(*row, str(i % 7)) for i, row in enumerate(rows)]
    ds = Dataset(schema, [Record(i, row) for i, row in enumerate(rows)])
    if block_bytes is not None:
        monkeypatch.setattr(knn_module, "_BLOCK_BYTES", block_bytes)
    knn = KnnImputer(ds, 10)
    # one pair: little but the block buffers
    [(value, ids)], peak = peak_bytes(lambda: impute_pairs(knn, [(ds.records[0], 0)]))
    assert peak < block_bound(ds.n_records)
    assert list(ids) == oracle_neighbors(ds, ds.records[0], 0, 10)
    assert value == oracle_knn_value(ds, ds.records[0], 0, 10)


def test_unique_valued_leading_column_keeps_memory_small():
    # a name column: one level per record, first in schema order
    n = 3000
    rng = random.Random(8)
    schema = [AttributeSchema("name", CATEGORICAL, tuple(f"n{i}" for i in range(n))),
              AttributeSchema("c", CATEGORICAL, ("a", "b", "c")),
              AttributeSchema("x", NUMERIC)]
    ds = Dataset(schema, [
        Record(i, (f"n{i}", None if i % 7 == 0 else rng.choice("abc"), f"{rng.random():.3f}"))
        for i in range(n)
    ])
    cells = [(r, 1) for r in ds.records if r.cells[1] is None]
    tracemalloc.start()
    try:
        results = impute_pairs(KnnImputer(ds, 5), cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a per-level table of the name column alone would take n * n bytes
    assert peak < n * n // 4
    for (record, j), (value, ids) in list(zip(cells, results))[:20]:
        assert list(ids) == oracle_neighbors(ds, record, j, 5)
        assert value == oracle_knn_value(ds, record, j, 5)


def test_match_counts_do_not_overflow_on_long_categorical_runs():
    # 300 leading categorical terms: a uint8 match count would wrap past 255
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(300)]
    schema.append(AttributeSchema("x", NUMERIC))
    rng = random.Random(7)
    base = tuple(rng.choice("ab") for _ in range(300))
    records = [Record(0, (*base, "1.0")), Record(1, (*base, "2.0")),
               Record(2, (*base[:-1], None, "3.0")),
               Record(3, (*(rng.choice("ab") for _ in range(300)), None))]
    ds = Dataset(schema, records)
    assert_matches_oracles(ds, 1, every_cell(ds))


def test_int16_codes_of_a_200_level_attribute_match_oracle():
    levels = tuple(f"l{i}" for i in range(200))
    schema = [AttributeSchema("wide", CATEGORICAL, levels), *CATEGORICAL_SCHEMA]
    rng = random.Random(200)
    ds = Dataset(schema, [
        Record(i, (None if rng.random() < 0.2 else rng.choice(levels[:3] + levels[-3:]),
                   *edge_dataset(rng, CATEGORICAL_SCHEMA, 1).records[0].cells))
        for i in rng.sample(range(400), 40)
    ])
    assert ds.columns[0].dtype == np.int16
    assert_matches_oracles(ds, 4, [(r, j) for r in ds.records for j in range(5)])


def test_300_categorical_terms_use_int32_distances_and_uint16_matches():
    # all-categorical, so no numeric term follows the 300-term leading run
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(300)]
    rng = random.Random(300)
    base = [rng.choice("ab") for _ in range(300)]
    records = [
        Record(i, tuple(None if rng.random() < 0.03 else
                        (rng.choice("ab") if rng.random() < 0.1 else cell) for cell in base))
        for i in range(12)
    ]
    ds = Dataset(schema, records)
    attributes = rng.sample(range(300), 6)
    assert_matches_oracles(ds, 3, [(r, j) for r in records for j in attributes])


def test_one_block_of_120_records_over_300_terms_matches_oracle():
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(300)]
    rng = random.Random(120)
    base = [rng.choice("ab") for _ in range(300)]
    ds = Dataset(schema, [
        Record(i, tuple(None if rng.random() < 0.03 else
                        (rng.choice("ab") if rng.random() < 0.02 else cell) for cell in base))
        for i in range(120)
    ])
    cells = [(r, rng.randrange(300)) for r in ds.records]
    assert_matches_oracles(ds, 3, cells)


@pytest.mark.parametrize("terms, rows, numeric", [
    (3, 6, False),  # 0/1 terms only: integral float64 distances
    (300, 120, False),
    (3, 6, True),
    (4, 40, True),
])
def test_sorted_nearest_orders_each_run_by_distance_then_position(terms, rows, numeric):
    # x has a non-zero range, so distances are float64; with values 0 and 1
    # alone its terms are 0 or 1, as past the int32 key bound
    rng = random.Random(terms + rows)
    schema = [*(AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(terms)),
              AttributeSchema("x", NUMERIC)]
    values = ["0.0", "0.25", "1.0", "1.5"] if numeric else ["0", "1"]
    ds = Dataset(schema, [
        Record(i, (*(None if rng.random() < 0.05 else rng.choice("aab") for _ in range(terms)),
                   rng.choice(values)))
        for i in rng.sample(range(10 * rows), rows)  # shuffled ids
    ])
    cells = [(r, rng.randrange(terms + 1)) for r in rng.sample(ds.records, min(rows, 12))]
    assert_matches_oracles(ds, rng.randint(1, rows), cells)


@pytest.mark.parametrize("kind, n_records, k", [
    ("categorical", 5, 3),  # n <= W: a head is every other record
    ("categorical", 60, 1),
    ("categorical", 200, 3),
    ("zero-range numeric", 80, 2),
    ("300 terms", 40, 2),
])
def test_exact_heads_are_the_first_w_of_a_scalar_heom_id_sort(kind, n_records, k):
    # int32 keys; the neighbours are the first k holders of that sort
    rng = random.Random(f"{kind}-{n_records}")
    if kind == "categorical":
        ds = categorical_dataset(rng, n_records)
    elif kind == "zero-range numeric":
        ds = zero_range_dataset(rng, n_records)
    else:
        schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(300)]
        ds = Dataset(schema, [
            Record(i, tuple(None if rng.random() < 0.05 else rng.choice("ab") for _ in schema))
            for i in rng.sample(range(10 * n_records), n_records)  # shuffled ids
        ])
    queries = rng.sample(ds.records, min(n_records, 12))
    attributes = min(ds.n_attributes, 3)
    cells = [(r, j) for r in queries for j in rng.sample(range(ds.n_attributes), attributes)]
    assert_matches_oracles(ds, k, cells)


def test_exact_keys_only_while_the_largest_key_fits_int32():
    # T terms and n records: keys reach (T + 1) * n - 1, which must lie below
    # the int32 sentinel; past it, the float64 path.  No table in a test can
    # reach the bound, so this calls the check itself.
    top = np.iinfo(np.int32).max
    for scales in ([None] * 300, [None, 0.0], [0.0]):
        most = top // (len(scales) + 1)
        assert knn_module._exact(scales, most) and not knn_module._exact(scales, most + 1)
    assert not knn_module._exact([None, 2.5], 10)  # a non-zero range: float64 distances


def test_a_rescan_takes_the_nearest_holders_past_a_head_of_non_holders(monkeypatch):
    # For k = 2 a head holds W = 2 * (2k + 8) = 24 records (see knn.py).
    # The query holds t; in (distance, id) order its nearest records are one
    # holder h (distance 0), then, at distance 1, the records lacking t, then
    # holders g and f, g first by id.  With 22 lacking records g is the 24th:
    # the head holds both neighbours.  With 23 the head holds only h, so the
    # query is scanned again, over the holders alone, and that head holds
    # every holder, then padding: the position past the last record.
    # Without and with a numeric column n of range 10, whose terms are 0 but
    # for the distant records: int32 keys, then float64 distances.
    head, heads = KnnImputer._head, []

    def recording(knn, block, rows, work):
        head(knn, block, rows, work)
        heads.extend(rows.tolist())

    monkeypatch.setattr(KnnImputer, "_head", recording)
    for numeric, n_lacking in itertools.product((False, True), (22, 23)):
        schema = [*(AttributeSchema(f"a{j}", CATEGORICAL, ("x", "y")) for j in range(5)),
                  AttributeSchema("t", CATEGORICAL, ("p", "q")),
                  *[AttributeSchema("n", NUMERIC)] * numeric]
        near, far = ("x",) * 5 + ("0",) * numeric, ("y",) * 3 + ("x",) * 2 + ("10",) * numeric
        query, h = Record(3, (*near[:5], "p", *near[5:])), Record(60, (*near[:5], "p", *near[5:]))
        g, f = Record(40, (*near[:5], "q", *near[5:])), Record(50, (*near[:5], "q", *near[5:]))
        distant = [Record(i, (*far[:5], "p", *far[5:])) for i in range(70, 75)]
        lacking = [Record(i, (*near[:5], None, *near[5:])) for i in range(10, 10 + n_lacking)]
        ds = Dataset(schema, [f, *distant, g, *lacking, query, h])
        by_id = sorted(r.id for r in ds.records)
        heads.clear()
        assert_matches_oracles(ds, 2, [(query, 5)])
        first = [by_id.index(r.id) for r in (h, *lacking, g, f)][:24]
        rescan = [by_id.index(r.id) for r in (h, g, f, *distant)]
        expected = [first] if n_lacking == 22 else [first, rescan + [ds.n_records] * 16]
        # each query's heads, then those of impute_dataset's cells
        assert heads[:len(expected)] == expected
        [(value, ids)] = impute_pairs(KnnImputer(ds, 2), [(query, 5)])
        assert ids == (h.id, g.id) and value == "p"  # one vote each: the lower level


def test_runs_of_different_lengths_in_one_block_match_oracle():
    ds = near_constant_dataset(random.Random(6161), 120)  # one block of every record
    # one record's x of 1 gives x a range, so the block holds float64
    # distances, integral as past the int32 key bound: heavy ties, and runs
    # of different lengths
    schema = [*ds.schema, AttributeSchema("x", NUMERIC)]
    ds = Dataset(schema, [Record(r.id, (*r.cells, "1" if p == 0 else "0"))
                          for p, r in enumerate(ds.records)])
    assert_matches_oracles(ds, 3, every_cell(ds))


def test_a_fully_tied_block_stays_within_the_documented_memory_bound():
    # every other record is at distance 1: each row's run is every record
    n = 3000
    schema = [AttributeSchema("a", CATEGORICAL, ("x",)), AttributeSchema("b", CATEGORICAL, ("y",))]
    ds = Dataset(schema, [Record(i, ("x", None if i % 2 else "y")) for i in range(n)])
    cells = [(r, 1) for r in ds.records if r.cells[1] is None]
    knn = KnnImputer(ds, 5)
    results, peak = peak_bytes(lambda: impute_pairs(knn, cells))
    assert peak < documented_bound()
    assert results == [("y", (0, 2, 4, 6, 8))] * len(cells)  # ties go to the lowest ids


def test_twenty_thousand_cells_pick_within_the_documented_memory_bound(monkeypatch):
    # a narrow table, every cell of 5,000 records: an unchunked pick's copy of
    # all 20,000 cells' heads would alone take about the whole bound (the
    # results are about 4 MB of tuples, so the peak of the block and pick
    # stages is taken at the first vote, before any result exists)
    n = 5000
    rng = random.Random(2020)
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b", "c")) for j in range(4)]
    ds = Dataset(schema, [
        Record(i, tuple(None if rng.random() < 0.2 else rng.choice("abc") for _ in schema))
        for i in range(n)
    ])
    cells = [(r, j) for r in ds.records for j in range(4)]
    mode, before_vote = knn_module._mode, []

    def first_vote(codes, n_levels):
        if not before_vote:
            before_vote.append(tracemalloc.get_traced_memory()[1])
        return mode(codes, n_levels)

    monkeypatch.setattr(knn_module, "_mode", first_vote)
    knn = KnnImputer(ds, 5)
    results, peak = peak_bytes(lambda: impute_pairs(knn, cells))
    assert before_vote[0] < documented_bound()
    assert peak < documented_bound()
    for (record, j), (value, ids) in rng.sample(list(zip(cells, results)), 20):
        assert list(ids) == oracle_neighbors(ds, record, j, 5)
        assert value == oracle_knn_value(ds, record, j, 5)


def test_rescans_of_whole_rows_stay_within_the_documented_memory_bound():
    # the 100 records lacking b lie at distance 1 from each other, more than
    # a head holds, and the 2,900 holders all tie at distance 2: every cell is
    # scanned again, and each rescan's run holds nearly its whole row
    n = 3000
    schema = [AttributeSchema("a", CATEGORICAL, ("x",)), AttributeSchema("b", CATEGORICAL, ("y",)),
              AttributeSchema("c", CATEGORICAL, ("u", "v"))]
    ds = Dataset(schema, [Record(i, ("x", None, "u") if i % 30 == 0 else ("x", "y", "v"))
                          for i in range(n)])
    cells = [(r, 1) for r in ds.records if r.cells[1] is None]
    knn = KnnImputer(ds, 5)
    results, peak = peak_bytes(lambda: impute_pairs(knn, cells))
    assert peak < documented_bound()
    assert results == [("y", (1, 2, 3, 4, 5))] * len(cells)  # ties go to the lowest ids


def test_empty_dataset_has_no_neighbors():
    query = Record(5, (None, "red"))
    assert impute_pairs(KnnImputer(Dataset(MIXED_SCHEMA, []), 3), []) == []
    knn = KnnImputer(Dataset(MIXED_SCHEMA, [query]), 3)
    with pytest.raises(DataError, match="no known value"):
        impute_pairs(knn, [(query, 0)])


def test_numeric_range_that_overflows_a_float_names_the_attribute():
    ds = mixed_dataset([("-1e308", "red"), ("1e308", None), ("0", "blue")])
    with pytest.raises(DataError, match="'x': range overflows a float"):
        KnnImputer(ds)
