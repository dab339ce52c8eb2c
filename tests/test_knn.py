import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    DataError,
    Dataset,
    KnnImputer,
    KnnParams,
    Record,
    fit_all_bins,
    impute_dataset,
)
from rulefill import knn as knn_module
from oracles import (
    oracle_heom,
    oracle_knn_value,
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


def test_knn_params_validation():
    with pytest.raises(ValueError):
        KnnParams(k=0)
    with pytest.raises(ValueError):
        KnnParams(distance="euclidean")


def test_nearest_exact_match_wins():
    ds = mixed_dataset([(None, "red"), ("2.0", "red"), ("9.0", "blue")])
    [(value, _)] = KnnImputer(ds, KnnParams(k=1)).impute_cells([(ds.records[0], 0)])
    assert value == 2.0


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
    [(value, _)] = KnnImputer(ds, KnnParams(k=3)).impute_cells([(ds.records[0], 0)])
    assert value == "red"


def test_numeric_mean():
    ds = mixed_dataset([(None, "red"), ("4.0", "red"), ("6.0", "red")])
    [(value, _)] = KnnImputer(ds, KnnParams(k=2)).impute_cells([(ds.records[0], 0)])
    assert value == 5.0


def test_fewer_candidates_than_k_uses_all():
    ds = mixed_dataset([(None, "red"), ("4.0", "red")])
    [(value, _)] = KnnImputer(ds, KnnParams(k=10)).impute_cells([(ds.records[0], 0)])
    assert value == 4.0


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
    [(value, _)] = KnnImputer(ds, KnnParams(k=2)).impute_cells([(ds.records[0], 0)])
    assert value == "z_first"


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
    knn = KnnImputer(ds, KnnParams(k=1))
    [(_, ids)] = knn.impute_cells([(ds.record_by_id(5), 0)])
    assert list(ids) == [2]


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
    knn = KnnImputer(lonely, KnnParams(k=2))
    with pytest.raises(DataError):
        [(_, _)] = knn.impute_cells([(lonely.records[0], 0)])  # no known value anywhere
    [(value, ids)] = KnnImputer(ds, KnnParams(k=2)).impute_cells([(ds.records[0], 0)])
    assert ids  # normal path still returns neighbors
    empty_target = Dataset(
        schema, [Record(0, ("red", None)), Record(1, ("red", None)), Record(2, ("blue", "7"))]
    )
    knn = KnnImputer(empty_target, KnnParams(k=2))
    [(value, ids)] = knn.impute_cells([(empty_target.records[0], 1)])
    assert ids == (2,)
    # drop the only carrier: global fallback over known values
    only = Dataset(schema, [Record(0, ("red", None)), Record(1, ("blue", "7"))])
    [(value, ids)] = KnnImputer(only, KnnParams(k=2)).impute_cells([(only.records[0], 0)])
    assert value == "blue" and ids == (1,)


def test_numeric_global_fallback_for_the_only_holder():
    # the query is the only record holding x, so no other record can vote
    ds = mixed_dataset([("2.5", "red"), (None, "red"), (None, "blue")])
    record = ds.record_by_id(0)
    [(value, ids)] = KnnImputer(ds, KnnParams(k=2)).impute_cells([(record, 0)])
    assert ids == ()
    assert value == oracle_knn_value(ds, record, 0, 2) == 2.5


def test_categorical_global_fallback_for_the_only_holder():
    # the query is the only record holding color, so no other record can vote
    ds = mixed_dataset([("1", None), ("2", "blue"), ("3", None)])
    record = ds.record_by_id(1)
    [(value, ids)] = KnnImputer(ds, KnnParams(k=2)).impute_cells([(record, 1)])
    assert ids == ()
    assert value == oracle_knn_value(ds, record, 1, 2) == "blue"


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
        knn = KnnImputer(ds, KnnParams(k=rng.randint(1, 8)))
        for _ in range(6):
            record = rng.choice(ds.records)
            attribute = rng.randrange(ds.n_attributes)
            expected = oracle_neighbors(ds, record, attribute, knn.params.k)
            [(_, ids)] = knn.impute_cells([(record, attribute)])
            assert list(ids) == expected


def test_imputed_values_match_oracle():
    rng = random.Random(77)
    for _ in range(25):
        ds = random_dataset(rng, max_records=40)
        k = rng.randint(1, 6)
        knn = KnnImputer(ds, KnnParams(k=k))
        for record in ds.records[:8]:
            for attribute in range(ds.n_attributes):
                if record.cells[attribute] is not None:
                    continue
                if not any(
                    r.cells[attribute] is not None for r in ds.records if r.id != record.id
                ):
                    continue
                [(value, _)] = knn.impute_cells([(record, attribute)])
                assert value == oracle_knn_value(ds, record, attribute, k)


def test_vectorized_distances_match_scalar_bit_for_bit():
    rng = random.Random(31337)
    for _ in range(20):
        ds = random_dataset(rng, max_records=30)
        knn = KnnImputer(ds)
        ranges = oracle_ranges(ds)
        record = rng.choice(ds.records)
        row = distance_rows(knn, [record])[0]  # id order
        for squared, other in zip(row, sorted(ds.records, key=lambda r: r.id), strict=True):
            scalar = oracle_heom(record, other, ds.schema, ranges)
            assert math.sqrt(squared) == scalar


BATCH_SCHEMA = [
    AttributeSchema("c", CATEGORICAL, ("a", "b", "c")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("flat", NUMERIC),  # one value wherever present: zero range
    AttributeSchema("d", CATEGORICAL, ("u", "v")),
    AttributeSchema("rare", CATEGORICAL, ("p", "q")),  # one holder: global fallback
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


def distance_rows(knn, records):
    """Squared HEOM rows of ``records``, each in ascending id of the other record."""
    return knn._distances([knn._position[r.id] for r in records])


def assert_block_is_scalar_heom(knn, queries):
    ds = knn.dataset
    by_id = sorted(ds.records, key=lambda r: r.id)
    for row, record in zip(distance_rows(knn, queries), queries, strict=True):
        for squared, other in zip(row, by_id, strict=True):
            scalar = oracle_heom(record, other, ds.schema, knn.ranges, knn.exclude)
            assert math.sqrt(squared) == scalar


def expected_retries(knn, ds, cells, size):
    """Cells whose nearest records hold fewer target holders than they need.

    A record's nearest records are those at or below its ``size``-th smallest
    squared distance, the record itself counting as infinitely far.
    """
    by_id = sorted(ds.records, key=lambda r: r.id)  # the order of a _distances row
    retries = 0
    for record, attribute in cells:
        row = [math.inf if other.id == record.id else squared
               for squared, other in zip(distance_rows(knn, [record])[0], by_id)]
        kth = sorted(row)[size - 1]
        holders = [squared for squared, other in zip(row, by_id)
                   if other.id != record.id and other.cells[attribute] is not None]
        need = min(knn.params.k, len(holders))
        retries += sum(squared <= kth for squared in holders) < need
    return retries


def check_knn_against_oracles(monkeypatch, ds, k, cells):
    """impute_cells and impute_dataset agree with the oracles, and each cell
    calls _select exactly once."""
    knn = KnnImputer(ds, KnnParams(k=k))
    select, calls = knn_module._select, [0]

    def counting_select(*args):
        calls[0] += 1
        return select(*args)

    monkeypatch.setattr(knn_module, "_select", counting_select)
    results = list(knn.impute_cells(cells))
    monkeypatch.setattr(knn_module, "_select", select)
    assert calls[0] == len(cells)

    for (record, j), (value, ids) in zip(cells, results, strict=True):
        expected = oracle_neighbors(ds, record, j, k)
        assert list(ids) == expected
        assert value == oracle_knn_value(ds, record, j, k)

    _, report = impute_dataset(ds, [], KnnParams(k=k), fit_all_bins(ds))
    assert report.n_imputed == len(ds.missing_cells())
    for cell in report.cells:
        record = ds.record_by_id(cell.record_id)
        assert list(cell.neighbor_ids) == oracle_neighbors(ds, record, cell.attribute, k)
        assert cell.value == oracle_knn_value(ds, record, cell.attribute, k)


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_batched_path_matches_oracle(block_rows, monkeypatch):
    rng = random.Random(4242 + (block_rows or 0))
    for _ in range(12):
        ds = batch_dataset(rng, rng.randint(3, 30))
        if block_rows is not None:
            monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 8 * ds.n_records * block_rows)
        k = rng.randint(1, ds.n_records + 3)  # often more than the candidates
        assert_block_is_scalar_heom(KnnImputer(ds, KnnParams(k=k)), ds.records[:5])
        # every cell, present ones too, so candidate counts differ within a block
        cells = [(r, j) for r in ds.records for j in range(ds.n_attributes)]
        check_knn_against_oracles(monkeypatch, ds, k, cells)


def test_votes_once_per_categorical_attribute_and_k(monkeypatch):
    rng = random.Random(4343)
    monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 1)  # one record per block
    mode, calls = knn_module._mode, []

    def counting_mode(codes, n_levels):
        calls.append(codes.shape)
        return mode(codes, n_levels)

    monkeypatch.setattr(knn_module, "_mode", counting_mode)
    for _ in range(12):
        ds = batch_dataset(rng, rng.randint(3, 30))
        k = rng.randint(1, ds.n_records + 3)
        cells = [(r, j) for r in ds.records for j in range(ds.n_attributes)]
        expected = [oracle_neighbors(ds, record, j, k) for record, j in cells]
        calls.clear()
        results = KnnImputer(ds, KnnParams(k=k)).impute_cells(cells)
        # one call per categorical (attribute, k) group, with all of its cells as rows
        groups = Counter(
            (j, len(ids)) for (_, j), ids in zip(cells, expected)
            if ds.schema[j].kind == CATEGORICAL and ids
        )
        assert sorted(calls) == sorted((size, width) for (_, width), size in groups.items())
        for (record, j), (value, ids), neighbors in zip(cells, results, expected, strict=True):
            assert list(ids) == neighbors
            assert value == oracle_knn_value(ds, record, j, k)


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


@pytest.mark.parametrize("slack", [1, 8])
def test_few_near_holders_take_tie_band_then_retry(slack, monkeypatch):
    monkeypatch.setattr(knn_module, "_NEAREST_SLACK", slack)
    rng = random.Random(808 + slack)
    for _ in range(3):
        ds = far_holders_dataset(rng, rng.randint(100, 130), rng.randint(2, 5))
        k = rng.choice([1, 3, 10])
        # every rare cell (its holders all lie far away) and a sample of the rest
        cells = [(r, 3) for r in ds.records] + [
            (r, j) for r in rng.sample(ds.records, 25) for j in range(3)
        ]
        size = min(ds.n_records, 2 * k + slack)
        assert expected_retries(KnnImputer(ds, KnnParams(k=k)), ds, cells, size) > 0
        check_knn_against_oracles(monkeypatch, ds, k, cells)


@pytest.mark.parametrize("k", [1, 10, None])  # None: more than the records
def test_heavy_ties_match_oracle(k, monkeypatch):
    rng = random.Random(9090)
    ds = near_constant_dataset(rng, 300)
    k = k or ds.n_records + 3
    cells = [(r, j) for r in ds.records for j in range(ds.n_attributes)]
    check_knn_against_oracles(monkeypatch, ds, k, cells)


EDGE_SCHEMA = [
    AttributeSchema("c0", CATEGORICAL, ("a", "b", "c")),
    AttributeSchema("c1", CATEGORICAL, ("u", "v")),
    AttributeSchema("c2", CATEGORICAL, ("p", "q", "r", "s")),
    AttributeSchema("x", NUMERIC),
    AttributeSchema("c4", CATEGORICAL, ("m", "n")),
]


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
    knn = KnnImputer(ds, KnnParams(k=4), exclude)
    assert knn.ranges == oracle_ranges(ds, exclude)
    assert_block_is_scalar_heom(knn, ds.records)
    for record in ds.records[:10]:
        for j in range(ds.n_attributes):
            [(_, ids)] = knn.impute_cells([(record, j)])
            assert list(ids) == oracle_neighbors(ds, record, j, 4, exclude)


def test_numeric_first_schema_has_no_leading_run():
    schema = [EDGE_SCHEMA[3], *EDGE_SCHEMA[:3], EDGE_SCHEMA[4]]
    ds = edge_dataset(random.Random(5), schema, 40)
    knn = KnnImputer(ds)
    assert knn._lead == 0
    assert_block_is_scalar_heom(knn, ds.records)


def test_foreign_record_is_a_data_error():
    ds = edge_dataset(random.Random(6), EDGE_SCHEMA, 40)
    knn = KnnImputer(ds, KnnParams(k=5))
    own = ds.records[3]
    for stranger in (Record(10**6, (None, "v", None, None, "m")),  # unknown id
                     Record(own.id, (None, *own.cells[1:]))):  # known id, other cells
        with pytest.raises(DataError, match=f"record {stranger.id} "):
            list(knn.impute_cells([(own, 0), (stranger, 1)]))


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
        knn = KnnImputer(ds, KnnParams(k=5))
        results = list(knn.impute_cells(cells))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a per-level table of the name column alone would take n * n bytes
    assert peak < n * n // 4
    for (record, j), (value, ids) in list(zip(cells, results))[:20]:
        assert list(ids) == oracle_neighbors(ds, record, j, 5)
        assert value == oracle_knn_value(ds, record, j, 5)
    assert_block_is_scalar_heom(knn, ds.records[:2])


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
    knn = KnnImputer(ds)
    assert knn._lead == 300
    assert_block_is_scalar_heom(knn, ds.records)
    assert distance_rows(knn, [records[0]])[0][1] == 0.25


def test_empty_dataset_has_no_neighbors():
    query = Record(5, (None, "red"))
    knn = KnnImputer(Dataset(MIXED_SCHEMA, []), KnnParams(k=3))
    with pytest.raises(DataError, match="record 5 "):
        list(knn.impute_cells([(query, 1)]))  # every record is foreign to an empty table
    knn = KnnImputer(Dataset(MIXED_SCHEMA, [query]), KnnParams(k=3))
    assert knn._distances([0]).shape == (1, 1)
    assert list(knn.impute_cells([(query, 1)])) == [("red", ())]  # no other record
    with pytest.raises(DataError, match="no known value"):
        list(knn.impute_cells([(query, 0)]))


def test_numeric_range_that_overflows_a_float_names_the_attribute():
    ds = mixed_dataset([("-1e308", "red"), ("1e308", None), ("0", "blue")])
    with pytest.raises(DataError, match="'x': range overflows a float"):
        KnnImputer(ds)
