import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    DataError,
    Dataset,
    KnnParams,
    Record,
    fit_all_bins,
    impute_dataset,
)
from rulefill import knn as knn_module
from rulefill import sample_data
from rulefill.knn import KnnImputer
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
    _, report = impute_dataset(ds, [], KnnParams(k=k))
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


def test_knn_params_validation():
    with pytest.raises(ValueError):
        KnnParams(k=0)
    with pytest.raises(TypeError):  # k is the only option; HEOM is fixed
        KnnParams(distance="euclidean")


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
    knn = KnnImputer(lonely, KnnParams(k=2))
    with pytest.raises(DataError):
        impute_pairs(knn, [(lonely.records[0], 0)])  # no known value anywhere
    [(value, ids)] = impute_pairs(KnnImputer(ds, KnnParams(k=2)), [(ds.records[0], 0)])
    assert ids  # normal path still returns neighbors
    empty_target = Dataset(
        schema, [Record(0, ("red", None)), Record(1, ("red", None)), Record(2, ("blue", "7"))]
    )
    knn = KnnImputer(empty_target, KnnParams(k=2))
    [(value, ids)] = impute_pairs(knn, [(empty_target.records[0], 1)])
    assert ids == (2,)
    # a present cell whose one other holder votes alone
    only = Dataset(schema, [Record(0, ("red", None)), Record(1, ("blue", "7"))])
    [(value, ids)] = impute_pairs(KnnImputer(only, KnnParams(k=2)), [(only.records[0], 0)])
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
        knn = KnnImputer(ds, KnnParams(k=rng.randint(1, 8)))
        for _ in range(6):
            record = rng.choice(ds.records)
            attribute = rng.randrange(ds.n_attributes)
            expected = oracle_neighbors(ds, record, attribute, knn.params.k)
            [(_, ids)] = impute_pairs(knn, [(record, attribute)])
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
                [(value, _)] = impute_pairs(knn, [(record, attribute)])
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


def position(knn, record):
    """``record``'s position in id order, the order of a ``_distances`` row."""
    return knn._rank[knn.dataset._position_of[record.id]]


def distance_rows(knn, records):
    """Squared HEOM rows of ``records``, each in ascending id of the other record;
    on the exact path, the distance part of each key."""
    rows = knn._distances([position(knn, r) for r in records], knn._workspace(len(records)))
    return rows if knn._base is None else rows // knn._ids.size


def assert_block_is_scalar_heom(knn, queries):
    ds = knn.dataset
    by_id = sorted(ds.records, key=lambda r: r.id)
    for row, record in zip(distance_rows(knn, queries), queries, strict=True):
        for squared, other in zip(row, by_id, strict=True):
            scalar = oracle_heom(record, other, ds.schema, knn.ranges, knn.exclude)
            assert math.sqrt(squared) == scalar


def expected_retries(knn, ds, cells, size, width=None):
    """Cells whose nearest records hold fewer target holders than they need.

    A record's nearest records are those at or below its ``size``-th smallest
    squared distance, the record itself counting as infinitely far; with a
    ``width``, only the first ``width`` of them in (distance, id) order count.
    """
    by_id = sorted(ds.records, key=lambda r: r.id)  # the order of a _distances row
    retries = 0
    for record, attribute in cells:
        row = [math.inf if other.id == record.id else squared
               for squared, other in zip(distance_rows(knn, [record])[0], by_id)]
        kth = sorted(row)[size - 1]
        nearest = sorted((squared, p) for p, squared in enumerate(row) if squared <= kth)
        holds = [other.id != record.id and other.cells[attribute] is not None for other in by_id]
        need = min(knn.params.k, sum(holds))
        retries += sum(holds[p] for _, p in nearest[:width]) < need
    return retries


def head_width(n_records, k):
    """W: the records a head holds."""
    return min(n_records, 2 * (2 * k + knn_module._HEAD_SLACK))


def expected_fallbacks(knn, ds, cells):
    """Cells whose heads hold fewer target holders than they need: those that are scanned again."""
    width = head_width(ds.n_records, knn.params.k)
    return expected_retries(knn, ds, cells, width, width)


def count_rescans(monkeypatch):
    """Patch KnnImputer._blocks to count the query rows of rescans, one per pair."""
    blocks, rescanned = KnnImputer._blocks, [0]

    def counting_blocks(knn, positions, rows, work, reach=None):
        if reach is not None:
            rescanned[0] += positions.size
        return blocks(knn, positions, rows, work, reach)

    monkeypatch.setattr(KnnImputer, "_blocks", counting_blocks)
    return rescanned


def check_knn_against_oracles(monkeypatch, ds, k, cells):
    """_impute and impute_dataset agree with the oracles, and exactly the
    cells whose heads fall short of k holders are scanned again, once each.

    Returns how many pairs were scanned again."""
    knn = KnnImputer(ds, KnnParams(k=k))
    rescanned = count_rescans(monkeypatch)
    results, rescans = impute_pairs(knn, cells), rescanned[0]
    assert rescans == expected_fallbacks(knn, ds, cells)

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
    return rescans


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
        cells = every_cell(ds)
        check_knn_against_oracles(monkeypatch, ds, k, cells)


def test_reused_block_buffers_carry_nothing_over(monkeypatch):
    # 20 records in blocks of 3 rows, the last one shorter; BATCH_SCHEMA has a
    # leading categorical run, numeric cells with NaN, a zero-range numeric
    # column and a categorical tail term
    rng = random.Random(4545)
    ds = batch_dataset(rng, 20)
    monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 8 * ds.n_records * 3)
    by_id = sorted(ds.records, key=lambda r: r.id)
    blocks = record_blocks(monkeypatch)
    cells = every_cell(ds)
    for k in (1, 3, ds.n_records + 3):
        blocks.clear()
        knn = KnnImputer(ds, KnnParams(k=k))
        results = impute_pairs(knn, cells)
        # the main pass: every query record in order, in blocks of 3; any later
        # block recomputes rows for the fallback
        main = blocks[:7]
        assert [len(positions) for positions, _ in main] == [3] * 6 + [2]
        assert [p for positions, _ in main for p in positions] == [
            position(knn, r) for r in ds.records]
        assert all(len(positions) <= 3 for positions, _ in blocks[7:])
        for positions, block in blocks:
            for p, row in zip(positions, block, strict=True):
                record = by_id[p]
                for squared, other in zip(row, by_id, strict=True):
                    assert math.sqrt(squared) == oracle_heom(record, other, ds.schema, knn.ranges)
        for (record, j), (value, ids) in zip(cells, results, strict=True):
            assert list(ids) == oracle_neighbors(ds, record, j, k)
            assert value == oracle_knn_value(ds, record, j, k)

        # one imputer, two calls of different lengths: each as from a fresh imputer
        state = dict(vars(knn))
        short = cells[7:30]
        for pairs in (short, cells):
            assert impute_pairs(knn, pairs) == impute_pairs(KnnImputer(ds, KnnParams(k=k)), pairs)
        assert vars(knn).keys() == state.keys()  # no buffer stays on the instance


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
        cells = every_cell(ds)
        expected = [oracle_neighbors(ds, record, j, k) for record, j in cells]
        calls.clear()
        results = impute_pairs(KnnImputer(ds, KnnParams(k=k)), cells)
        # one call per categorical (attribute, k) group, with all of its cells as rows
        groups = Counter(
            (j, len(ids)) for (_, j), ids in zip(cells, expected)
            if ds.schema[j].kind == CATEGORICAL
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
    monkeypatch.setattr(knn_module, "_HEAD_SLACK", slack)
    rng = random.Random(808 + slack)
    for _ in range(3):
        ds = far_holders_dataset(rng, rng.randint(100, 130), rng.randint(2, 5))
        k = rng.choice([1, 3, 10])
        # every rare cell (its holders all lie far away) and a sample of the rest
        cells = [(r, 3) for r in ds.records] + [
            (r, j) for r in rng.sample(ds.records, 25) for j in range(3)
        ]
        assert expected_fallbacks(KnnImputer(ds, KnnParams(k=k)), ds, cells) > 0
        check_knn_against_oracles(monkeypatch, ds, k, cells)


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
def test_sparse_holders_mostly_take_the_fallback_and_match_oracle(k, monkeypatch):
    rng = random.Random(7070 + k)
    ds = sparse_holders_dataset(rng, 200)
    assert 0.6 < sum(r.cells[4] is None for r in ds.records) / ds.n_records < 0.8
    sparse = [(r, 4) for r in ds.records]
    assert expected_fallbacks(KnnImputer(ds, KnnParams(k=k)), ds, sparse) > len(sparse) // 2
    cells = sparse + [(r, j) for r in rng.sample(ds.records, 30) for j in range(4)]
    check_knn_against_oracles(monkeypatch, ds, k, cells)


@pytest.mark.parametrize("k", [1, 10, None])  # None: more than the records
def test_heavy_ties_match_oracle(k, monkeypatch):
    rng = random.Random(9090)
    ds = near_constant_dataset(rng, 300)
    k = k or ds.n_records + 3
    cells = every_cell(ds)
    check_knn_against_oracles(monkeypatch, ds, k, cells)


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
    knn = KnnImputer(ds, KnnParams(k=4), exclude)
    assert knn.ranges == oracle_ranges(ds, exclude)
    assert_block_is_scalar_heom(knn, ds.records)
    for record in ds.records[:10]:
        for j in range(ds.n_attributes):
            [(_, ids)] = impute_pairs(knn, [(record, j)])
            assert list(ids) == oracle_neighbors(ds, record, j, 4, exclude)


def test_numeric_first_schema_has_no_leading_run():
    schema = [EDGE_SCHEMA[3], *EDGE_SCHEMA[:3], EDGE_SCHEMA[4]]
    ds = edge_dataset(random.Random(5), schema, 40)
    knn = KnnImputer(ds)
    assert knn._lead == 0
    assert_block_is_scalar_heom(knn, ds.records)


CATEGORICAL_SCHEMA = [a for a in EDGE_SCHEMA if a.kind == CATEGORICAL]


def categorical_dataset(rng, n_records):
    """edge_dataset over CATEGORICAL_SCHEMA, plus one complete record: every column is held."""
    first = tuple(rng.choice(a.levels) for a in CATEGORICAL_SCHEMA)
    rest = edge_dataset(rng, CATEGORICAL_SCHEMA, n_records - 1).records
    return Dataset(CATEGORICAL_SCHEMA, [Record(10 * n_records, first), *rest])


def record_blocks(monkeypatch):
    """Patch KnnImputer._distances to keep (positions, copy of block) per block."""
    distances, blocks = KnnImputer._distances, []

    def recording_distances(knn, positions, work):
        block = distances(knn, positions, work)
        blocks.append((list(positions), block.copy()))
        return block

    monkeypatch.setattr(KnnImputer, "_distances", recording_distances)
    return blocks


@pytest.mark.parametrize("block_rows", [1, 3])
def test_all_categorical_int32_blocks_match_oracle(block_rows, monkeypatch):
    # the int32 item size: BATCH_SCHEMA's 8 * n * rows patches run the float64 path
    rng = random.Random(5151 + block_rows)
    blocks = record_blocks(monkeypatch)
    for _ in range(8):
        ds = categorical_dataset(rng, rng.randint(4, 30))
        n = ds.n_records
        monkeypatch.setattr(knn_module, "_BLOCK_BYTES", 4 * n * block_rows)
        k = rng.randint(1, n + 3)
        knn = KnnImputer(ds, KnnParams(k=k))
        assert_block_is_scalar_heom(knn, ds.records[:5])
        cells = every_cell(ds)
        blocks.clear()
        impute_pairs(knn, cells)
        assert [len(positions) for positions, _ in blocks] == (
            [block_rows] * (n // block_rows) + [n % block_rows] * (n % block_rows > 0))
        assert all(block.dtype == np.int32 for _, block in blocks)
        check_knn_against_oracles(monkeypatch, ds, k, cells)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_tiny_tables_partition_up_to_the_own_record_sentinel(k, monkeypatch):
    # n <= W: every row's head spans the whole row, whose largest key is the
    # row's own position, which holds the int32 sentinel
    rng = random.Random(k)
    for n in range(2, 2 * k + knn_module._HEAD_SLACK + 1):
        ds = categorical_dataset(rng, n)
        knn = KnnImputer(ds, KnnParams(k=k))
        assert knn._far == np.iinfo(np.int32).max
        cells = every_cell(ds)
        check_knn_against_oracles(monkeypatch, ds, k, cells)


@pytest.mark.parametrize("case, dtype", [
    ("categorical", np.int32),
    ("zero-range numeric", np.int32),
    ("excluded numeric", np.int32),
    ("numeric", np.float64),
])
def test_distance_dtype_is_int32_without_a_non_zero_numeric_range(case, dtype):
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
    knn = KnnImputer(ds, KnnParams(k=4), exclude)
    work = knn._workspace(2)
    assert work.distances.dtype == knn._far.dtype == dtype
    assert (work.floats is None) == (dtype == np.int32)
    assert_block_is_scalar_heom(knn, ds.records)
    for record in ds.records[:10]:
        for j in range(ds.n_attributes):
            [(value, ids)] = impute_pairs(knn, [(record, j)])
            assert list(ids) == oracle_neighbors(ds, record, j, 4, exclude)
            assert value == oracle_knn_value(ds, record, j, 4, exclude)


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
    workspace, built = KnnImputer._workspace, []

    def recording_workspace(knn, rows):
        built.append(workspace(knn, rows))
        return built[-1]

    monkeypatch.setattr(KnnImputer, "_workspace", recording_workspace)
    knn = KnnImputer(ds, KnnParams(k=10))
    [(value, ids)] = impute_pairs(knn, [(ds.records[0], 0)])
    assert len(ids) == 10 and value in schema[0].levels
    [work] = built
    assert work.distances.shape == (1 if block_bytes else 4 if numeric else 9, 6912)
    assert work.distances.itemsize == (8 if numeric else 4)
    assert (work.floats is not None) == numeric
    for buffer in filter(lambda b: b is not None, work):
        assert buffer.shape == work.distances.shape
        assert buffer.nbytes <= max(knn_module._BLOCK_BYTES, buffer[0].nbytes)


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
        results = impute_pairs(knn, cells)
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


def test_int16_codes_of_a_200_level_attribute_match_oracle(monkeypatch):
    levels = tuple(f"l{i}" for i in range(200))
    schema = [AttributeSchema("wide", CATEGORICAL, levels), *CATEGORICAL_SCHEMA]
    rng = random.Random(200)
    ds = Dataset(schema, [
        Record(i, (None if rng.random() < 0.2 else rng.choice(levels[:3] + levels[-3:]),
                   *edge_dataset(rng, CATEGORICAL_SCHEMA, 1).records[0].cells))
        for i in rng.sample(range(400), 40)
    ])
    knn = KnnImputer(ds, KnnParams(k=4))
    assert ds.columns[0].dtype == knn._codes.dtype == np.int16  # encoded once, not cast again
    assert distance_rows(knn, ds.records[:1]).dtype == np.int32
    assert_block_is_scalar_heom(knn, ds.records)
    check_knn_against_oracles(monkeypatch, ds, 4, [(r, j) for r in ds.records for j in range(5)])


def test_300_categorical_terms_use_int32_distances_and_uint16_matches(monkeypatch):
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
    knn = KnnImputer(ds, KnnParams(k=3))
    assert knn._lead == 300 and knn._match_dtype == np.uint16
    assert distance_rows(knn, records[:1]).dtype == np.int32
    assert_block_is_scalar_heom(knn, records)
    attributes = rng.sample(range(300), 6)
    check_knn_against_oracles(monkeypatch, ds, 3, [(r, j) for r in records for j in attributes])


def brute_force_runs(block, flags):
    """Each row's flagged positions in (distance, position) order."""
    return [sorted(np.flatnonzero(below).tolist(), key=lambda p: (row[p], p))
            for row, below in zip(block.tolist(), flags)]


@pytest.mark.parametrize("terms, rows, numeric", [
    (3, 6, False),  # 0/1 terms only: integral float64 distances
    (300, 120, False),
    (3, 6, True),
    (4, 40, True),
])
def test_sorted_nearest_orders_each_run_by_distance_then_position(terms, rows, numeric,
                                                                   monkeypatch):
    # without numeric terms, as past the int32 key bound: the float64 path
    monkeypatch.setattr(knn_module, "_exact", lambda scales, n_records: False)
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(terms)]
    cells = ["a"] * terms
    if numeric:
        schema.append(AttributeSchema("x", NUMERIC))
    ds = Dataset(schema, [Record(i, (*cells, f"{i}.5")[:len(schema)]) for i in range(2)])
    knn = KnnImputer(ds)
    assert knn._far.dtype == np.float64
    rng = np.random.default_rng(terms + rows)
    width = 50
    for _ in range(10):
        if numeric:  # few values, so ties; inf is the own-record sentinel
            block = rng.choice([0.0, 0.25, 1.0, 1.5, np.inf], size=(rows, width))
        else:
            block = rng.integers(0, terms + 1, size=(rows, width)).astype(np.float64)
            block[rng.random((rows, width)) < 0.05] = knn._far
        # a different threshold per row: runs of different lengths, tied at the threshold
        flags = block <= np.sort(block, axis=1)[np.arange(rows), rng.integers(0, width, rows)][:, None]
        ordered, starts = knn._sorted_nearest(block.copy(), flags)
        assert starts.tolist() == [0, *np.cumsum(flags.sum(axis=1)).tolist()]
        runs = [ordered[a:b].tolist() for a, b in zip(starts, starts[1:])]
        assert runs == brute_force_runs(block, flags)


def brute_force_heads(knn, queries, reach, width):
    """Each query's first ``width`` other records in (HEOM, id) order, less
    those lacking its ``reach`` attribute (None: none), as positions in id
    order padded with n."""
    ds, n = knn.dataset, knn._ids.size
    by_id = sorted(ds.records, key=lambda r: r.id)
    heads = []
    for record, j in zip(queries, reach, strict=True):
        order = sorted((oracle_heom(record, other, ds.schema, knn.ranges), p)
                       for p, other in enumerate(by_id)
                       if other.id != record.id and (j is None or other.cells[j] is not None))
        head = [p for _, p in order[:width]]
        heads.append(head + [n] * (width - len(head)))
    return heads


@pytest.mark.parametrize("kind, n_records, k", [
    ("categorical", 5, 3),  # n <= W: a head is every other record, then padding
    ("categorical", 60, 1),
    ("categorical", 200, 3),
    ("zero-range numeric", 80, 2),
    ("300 terms", 40, 2),
])
def test_exact_heads_are_the_first_w_of_a_scalar_heom_id_sort(kind, n_records, k):
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
    knn = KnnImputer(ds, KnnParams(k=k))
    assert knn._far.dtype == np.int32
    width = head_width(n_records, k)
    queries = rng.sample(ds.records, min(n_records, 12))
    positions = np.array([position(knn, r) for r in queries])
    work = knn._workspace(5)  # blocks of 5 rows, the last one shorter
    for reach in (None, np.array(rng.choices(range(ds.n_attributes), k=len(queries)))):
        heads = np.empty((len(queries), width), np.int32)
        for offset, block in knn._blocks(positions, 5, work, reach):
            knn._head(block, heads[offset : offset + len(block)], work)
        expected = brute_force_heads(knn, queries, [None] * len(queries) if reach is None
                                     else reach.tolist(), width)
        assert heads.tolist() == expected


def test_exact_keys_only_while_the_largest_key_fits_int32():
    # T terms and n records: keys reach (T + 1) * n - 1, which must lie below
    # the int32 sentinel; past it, the float64 path
    top = np.iinfo(np.int32).max
    for scales in ([None] * 300, [None, 0.0], [0.0]):
        most = top // (len(scales) + 1)
        assert knn_module._exact(scales, most) and not knn_module._exact(scales, most + 1)
    assert not knn_module._exact([None, 2.5], 10)  # a non-zero range: float64 distances


def test_a_rescan_takes_the_nearest_holders_past_a_head_of_non_holders(monkeypatch):
    # the query's 24 nearest records lack t, as many as a head holds for k = 2,
    # so its first head holds no holder; the rescan finds a at distance 2, then
    # b and c tied at 3 for the second neighbour: b, the lower id.  The query
    # holds t itself, at distance 0.
    schema = [*(AttributeSchema(f"a{j}", CATEGORICAL, ("x", "y")) for j in range(5)),
              AttributeSchema("t", CATEGORICAL, ("p", "q"))]
    query = Record(3, ("x",) * 5 + ("p",))
    a = Record(20, ("y", "y", "x", "x", "x", "p"))
    b = Record(5, ("y", "y", "y", "x", "x", "p"))
    c = Record(9, ("y", "y", "x", "x", "x", "q"))
    lacking = [Record(i, ("x",) * 5 + (None,)) for i in (*range(10, 20), *range(21, 35))]
    far = [Record(i, ("y",) * 4 + ("x", "p")) for i in range(40, 45)]
    ds = Dataset(schema, [c, *far, b, *lacking, query, a])
    assert len(lacking) == head_width(ds.n_records, 2) < ds.n_records
    head, heads = KnnImputer._head, []

    def recording(knn, block, rows, work):
        head(knn, block, rows, work)
        heads.append(rows.tolist())

    monkeypatch.setattr(KnnImputer, "_head", recording)
    assert check_knn_against_oracles(monkeypatch, ds, 2, [(query, 5)]) == 1
    # the first head is the records lacking t, in id order; the rescan's holds
    # the 8 holders in (distance, id) order, then the padding past the last
    # record, and no record out of its reach
    by_id = sorted(r.id for r in ds.records)
    assert heads[0] == [[by_id.index(r.id) for r in lacking]]
    assert heads[1] == [[by_id.index(r.id) for r in (a, b, c, *far)] + [ds.n_records] * 16]
    [(value, ids)] = impute_pairs(KnnImputer(ds, KnnParams(k=2)), [(query, 5)])
    assert ids == (a.id, b.id) and value == "p"


def test_one_block_of_120_records_over_300_terms_matches_oracle(monkeypatch):
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b")) for j in range(300)]
    rng = random.Random(120)
    base = [rng.choice("ab") for _ in range(300)]
    ds = Dataset(schema, [
        Record(i, tuple(None if rng.random() < 0.03 else
                        (rng.choice("ab") if rng.random() < 0.02 else cell) for cell in base))
        for i in range(120)
    ])
    blocks = record_blocks(monkeypatch)
    knn = KnnImputer(ds, KnnParams(k=3))
    cells = [(r, rng.randrange(300)) for r in ds.records]
    results = impute_pairs(knn, cells)
    [(positions, _)] = blocks
    assert len(positions) * (knn._lead + 2) > np.iinfo(np.int16).max
    for (record, j), (value, ids) in rng.sample(list(zip(cells, results)), 12):
        assert list(ids) == oracle_neighbors(ds, record, j, 3)
        assert value == oracle_knn_value(ds, record, j, 3)


def test_runs_of_different_lengths_in_one_block_match_oracle(monkeypatch):
    rng = random.Random(6161)
    ds = near_constant_dataset(rng, 120)  # one float64 block of every record
    # the float64 path, as past the int32 key bound; runs belong to it alone
    monkeypatch.setattr(knn_module, "_exact", lambda scales, n_records: False)
    sorted_nearest, runs = KnnImputer._sorted_nearest, []

    def recording(knn, block, flags):
        ordered, starts = sorted_nearest(knn, block, flags)
        runs.append(np.diff(starts))
        return ordered, starts

    monkeypatch.setattr(KnnImputer, "_sorted_nearest", recording)
    cells = every_cell(ds)
    check_knn_against_oracles(monkeypatch, ds, 3, cells)
    lengths = runs[0]
    assert len(lengths) == ds.n_records and len(set(lengths.tolist())) > 1
    assert lengths.max() > head_width(ds.n_records, 3)  # ties at the threshold


def test_a_fully_tied_block_stays_within_the_documented_memory_bound():
    # every other record is at distance 1: each row's run is every record
    n = 3000
    schema = [AttributeSchema("a", CATEGORICAL, ("x",)), AttributeSchema("b", CATEGORICAL, ("y",))]
    ds = Dataset(schema, [Record(i, ("x", None if i % 2 else "y")) for i in range(n)])
    cells = [(r, 1) for r in ds.records if r.cells[1] is None]
    knn = KnnImputer(ds, KnnParams(k=5))
    tracemalloc.start()
    try:
        results = impute_pairs(knn, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block's four buffers, five blocks' worth while its nearest records
    # sort, and a fixed allowance for the results
    assert peak < 9 * knn_module._BLOCK_BYTES + (512 << 10)
    assert results == [("y", (0, 2, 4, 6, 8))] * len(cells)  # ties go to the lowest ids


def assert_within_the_documented_memory_bound(monkeypatch, ds, cells, k):
    """_impute's results, with its block and pick stages, and the whole
    call less the results it returns, each within the documented bound."""
    mode, before_vote = knn_module._mode, []

    def first_vote(codes, n_levels):
        if not before_vote:
            before_vote.append(tracemalloc.get_traced_memory()[1])
        return mode(codes, n_levels)

    monkeypatch.setattr(knn_module, "_mode", first_vote)
    knn = KnnImputer(ds, KnnParams(k=k))
    tracemalloc.start()
    try:
        results = impute_pairs(knn, cells)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 9 * knn_module._BLOCK_BYTES + (512 << 10)
    # the block and pick stages, before any result exists; then the whole
    # call, less the results it returns
    assert before_vote[0] < bound
    assert peak - held < bound
    return results


def test_twenty_thousand_cells_pick_within_the_documented_memory_bound(monkeypatch):
    # a narrow table, every cell of 5,000 records: an unchunked pick's copy of
    # all 20,000 cells' heads would alone take about the whole bound (the
    # results are about 4 MB of tuples)
    n = 5000
    rng = random.Random(2020)
    schema = [AttributeSchema(f"c{j}", CATEGORICAL, ("a", "b", "c")) for j in range(4)]
    ds = Dataset(schema, [
        Record(i, tuple(None if rng.random() < 0.2 else rng.choice("abc") for _ in schema))
        for i in range(n)
    ])
    cells = [(r, j) for r in ds.records for j in range(4)]
    results = assert_within_the_documented_memory_bound(monkeypatch, ds, cells, 5)
    for (record, j), (value, ids) in rng.sample(list(zip(cells, results)), 20):
        assert list(ids) == oracle_neighbors(ds, record, j, 5)
        assert value == oracle_knn_value(ds, record, j, 5)


def test_rescans_of_whole_rows_stay_within_the_documented_memory_bound(monkeypatch):
    # the 100 records lacking b lie at distance 1 from each other, more than
    # a head holds, and the 2,900 holders all tie at distance 2: every cell is
    # scanned again, and each rescan's run holds nearly its whole row
    n = 3000
    schema = [AttributeSchema("a", CATEGORICAL, ("x",)), AttributeSchema("b", CATEGORICAL, ("y",)),
              AttributeSchema("c", CATEGORICAL, ("u", "v"))]
    ds = Dataset(schema, [Record(i, ("x", None, "u") if i % 30 == 0 else ("x", "y", "v"))
                          for i in range(n)])
    cells = [(r, 1) for r in ds.records if r.cells[1] is None]
    rescanned = count_rescans(monkeypatch)
    results = assert_within_the_documented_memory_bound(monkeypatch, ds, cells, 5)
    assert rescanned[0] == len(cells) == 100
    assert results == [("y", (1, 2, 3, 4, 5))] * len(cells)  # ties go to the lowest ids


def test_empty_dataset_has_no_neighbors():
    query = Record(5, (None, "red"))
    knn = KnnImputer(Dataset(MIXED_SCHEMA, []), KnnParams(k=3))
    assert impute_pairs(knn, []) == []
    knn = KnnImputer(Dataset(MIXED_SCHEMA, [query]), KnnParams(k=3))
    assert knn._distances([0], knn._workspace(1)).shape == (1, 1)
    with pytest.raises(DataError, match="no known value"):
        impute_pairs(knn, [(query, 0)])


def test_numeric_range_that_overflows_a_float_names_the_attribute():
    ds = mixed_dataset([("-1e308", "red"), ("1e308", None), ("0", "blue")])
    with pytest.raises(DataError, match="'x': range overflows a float"):
        KnnImputer(ds)
