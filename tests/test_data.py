import math
import random

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
    Record,
    fit_all_bins,
    load_csv,
    write_csv,
)
from rulefill import data as data_module
from rulefill.binning import Bins
from oracles import oracle_itemize, oracle_missing_cells


def make_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_loads_car_shape(car_csv):
    ds = load_csv(car_csv, "?")
    assert ds.n_records == 1728
    assert ds.n_attributes == 7  # six attributes plus the class column
    assert all(a.kind == CATEGORICAL for a in ds.schema)
    assert not oracle_missing_cells(ds)


def test_loads_credit_shape(credit_csv):
    ds = load_csv(credit_csv, "?")
    assert ds.n_records == 690
    assert ds.n_attributes == 16
    kinds = {a.kind for a in ds.schema}
    assert kinds == {CATEGORICAL, NUMERIC}
    assert oracle_missing_cells(ds)  # the credit file carries "?" cells


def test_single_row_without_marker(tmp_path):
    ds = load_csv(make_csv(tmp_path, "x,y\na,b\n"), "?")
    assert ds.n_records == 1
    assert [a.kind for a in ds.schema] == [CATEGORICAL, CATEGORICAL]
    assert not oracle_missing_cells(ds)


def test_marker_cells_become_missing(tmp_path):
    ds = load_csv(make_csv(tmp_path, "x,y\n?,b\na,?\n"), "?")
    assert oracle_missing_cells(ds) == [(0, 0), (1, 1)]
    # the marker never becomes a categorical level
    assert ds.schema[0].levels == ("a",)


def test_numeric_inference_and_hints(tmp_path):
    path = make_csv(tmp_path, "x,y,z\n1,2,a\n2.5,?,b\n-3e1,4,9\n")
    ds = load_csv(path, "?")
    assert [a.kind for a in ds.schema] == [NUMERIC, NUMERIC, CATEGORICAL]
    hinted = load_csv(path, "?", schema_hints={"x": CATEGORICAL})
    assert hinted.schema[0].kind == CATEGORICAL
    assert hinted.schema[0].levels == ("1", "2.5", "-3e1")
    with pytest.raises(DataError):
        load_csv(path, "?", schema_hints={"z": NUMERIC})
    with pytest.raises(DataError):
        load_csv(path, "?", schema_hints={"missing_column": NUMERIC})
    with pytest.raises(DataError, match="unknown kind 'text'"):
        load_csv(path, "?", schema_hints={"x": "text"})


def test_load_csv_parses_each_observed_cell_at_most_once(tmp_path, monkeypatch):
    # x inferred numeric, c inferred categorical, h hinted categorical, n hinted numeric
    path = make_csv(tmp_path, "x,c,h,n\n1.5,red,10,100\n2.5,?,20,200\n?,blue,30,300\n")
    parse, calls = data_module.parse_number, []

    def counting_parse(value):
        calls.append(value)
        return parse(value)

    monkeypatch.setattr(data_module, "parse_number", counting_parse)
    ds = load_csv(path, "?", schema_hints={"h": CATEGORICAL, "n": NUMERIC})
    assert [a.kind for a in ds.schema] == [NUMERIC, CATEGORICAL, CATEGORICAL, NUMERIC]
    observed = [cell for r in ds.records for cell in r.cells if cell is not None]
    assert len(set(observed)) == len(observed) == 10  # each text is one cell
    assert set(calls) <= set(observed)
    assert all(calls.count(cell) <= 1 for cell in observed)


def test_ragged_row_reports_line_number(tmp_path):
    path = make_csv(tmp_path, "x,y\na,b\nc\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path, "?")


def test_leading_byte_order_mark_is_not_read_into_the_first_name(tmp_path):
    text = "a,b,class\n1,x,y\n?,z,y\n"
    plain = load_csv(make_csv(tmp_path, text), "?")
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    marked = load_csv(tmp_path / "bom.csv", "?", class_column="a")
    assert [a.name for a in marked.schema] == ["a", "b", "class"]
    assert marked.schema == plain.schema
    assert [r.cells for r in marked.records] == [r.cells for r in plain.records]


def test_empty_file_errors(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_csv(make_csv(tmp_path, ""), "?")


def test_all_missing_column_is_categorical_with_no_levels(tmp_path):
    ds = load_csv(make_csv(tmp_path, "x,y\n?,1\n?,2\n"), "?")
    assert ds.schema[0].kind == CATEGORICAL
    assert ds.schema[0].levels == ()


def test_duplicate_header_rejected(tmp_path):
    with pytest.raises(DataError):
        load_csv(make_csv(tmp_path, "x,x\na,b\n"), "?")


def test_class_column_lookup(tmp_path):
    path = make_csv(tmp_path, "x,y\na,b\n")
    ds = load_csv(path, "?", class_column="y")
    assert ds.class_index == 1
    assert ds.attribute_index("x") == 0 and ds.attribute_index("y") == 1
    with pytest.raises(DataError, match="no attribute named 'nope'"):
        ds.attribute_index("nope")
    assert ds.record_by_id(0).cells == ("a", "b")
    with pytest.raises(DataError, match="no record with id 1"):
        ds.record_by_id(1)
    with pytest.raises(DataError):
        load_csv(path, "?", class_column="nope")


def test_round_trip_is_byte_identical(tmp_path, credit_csv):
    # zero-padded numerics and markers must survive load -> write untouched
    original = credit_csv.read_bytes()
    ds = load_csv(credit_csv, "?")
    out = tmp_path / "round.csv"
    write_csv(ds, out, "?")
    assert out.read_bytes() == original


def test_round_trip_mixed_formats(tmp_path):
    text = "a,b,c\n00202,x,?\n1e3,?,3.50\n"
    path = make_csv(tmp_path, text)
    ds = load_csv(path, "?")
    out = tmp_path / "out.csv"
    write_csv(ds, out, "?")
    assert out.read_text(encoding="utf-8") == text


def test_write_csv_writes_float_reprs_text_and_the_marker(tmp_path):
    schema = [AttributeSchema("x", NUMERIC), AttributeSchema("t", CATEGORICAL, ("u", "v,w"))]
    cells = [(0.1 + 0.2, "u"), (-0.0, "v,w"), (3.0, None), (1e16, "u"),
             (1e308, None), (5e-324, "v,w"), (None, "u")]
    out = tmp_path / "out.csv"
    write_csv(Dataset(schema, [Record(i, row) for i, row in enumerate(cells)]), out, "NA")
    assert out.read_text(encoding="utf-8") == (
        'x,t\n0.30000000000000004,u\n-0.0,"v,w"\n3.0,NA\n1e+16,u\n'
        '1e+308,NA\n5e-324,"v,w"\nNA,u\n'
    )


def test_itemize_skips_missing_cells():
    schema = [
        AttributeSchema("color", CATEGORICAL, ("red", "blue")),
        AttributeSchema("size", CATEGORICAL, ("s", "m")),
    ]
    ds = Dataset(schema, [Record(0, ("red", None)), Record(1, (None, None)),
                          Record(2, ("red", "m"))])
    assert ds.tidsets() == {(0, 0): 0b101, (1, 1): 0b100}


def test_itemize_numeric_uses_bins():
    schema = [AttributeSchema("x", NUMERIC)]
    ds = Dataset(schema, [Record(0, ("2.0",)), Record(1, (None,)), Record(2, ("9",))])
    bins = {0: Bins((0.0, 5.0, 10.0), (2.5, 7.5))}
    assert ds.tidsets(bins) == {(0, 0): 0b001, (0, 1): 0b100}
    with pytest.raises(DataError, match="no bins fitted for numeric attribute 'x'"):
        ds.tidsets()  # bins required for numeric attributes
    assert Dataset(schema, [Record(0, (None,))]).tidsets() == {}  # unless no cell is present


def test_tidsets_are_built_once_per_bins_and_exclusion(monkeypatch):
    schema = [AttributeSchema("x", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b"))]
    ds = Dataset(schema, [Record(0, ("2.0", "a")), Record(1, (None, "b")), Record(2, ("9", "a"))])
    with pytest.raises(DataError, match="no bins fitted"):
        ds.tidsets()  # a failed build leaves nothing behind
    binned = []
    bin_of = data_module.bin_of

    def counting(values, bins):
        binned.append(bins)
        return bin_of(values, bins)

    monkeypatch.setattr(data_module, "bin_of", counting)
    bins = {0: Bins((0.0, 5.0, 10.0), (2.5, 7.5))}
    tidsets = ds.tidsets(bins)
    assert tidsets == {(0, 0): 0b001, (0, 1): 0b100, (1, 0): 0b101, (1, 1): 0b010}
    assert ds.tidsets({0: Bins((0.0, 5.0, 10.0), (2.5, 7.5))}, exclude=[]) is tidsets
    assert ds.tidsets(bins, [1]) is ds.tidsets(bins, frozenset({1})) != tidsets
    assert len(binned) == 2  # one build per (bins, exclude)
    with pytest.raises(DataError, match="no bins fitted"):
        ds.tidsets()


def test_itemize_exclude():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("x",)),
        AttributeSchema("b", CATEGORICAL, ("y",)),
    ]
    ds = Dataset(schema, [Record(0, ("x", "y"))])
    assert ds.tidsets(exclude={1}) == {(0, 0): 1}


def random_mixed_dataset(rng, max_records=40):
    """Shuffled ids, missing cells, and numeric columns that are constant,
    empty or drawn from a coarse grid, so that values sit on bin edges."""
    schema = []
    for j in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            schema.append(AttributeSchema(f"n{j}", NUMERIC))
        else:
            schema.append(AttributeSchema(f"c{j}", CATEGORICAL,
                                          tuple(f"v{i}" for i in range(rng.randint(1, 4)))))
    draws = {j: rng.choice(["grid", "uniform", "constant", "empty"])
             for j, attr in enumerate(schema) if attr.kind == NUMERIC}

    def cell(j, attr):
        if rng.random() < 0.2 or draws.get(j) == "empty":
            return None
        if attr.kind == CATEGORICAL:
            return rng.choice(attr.levels)
        if draws[j] == "constant":
            return "2.5"
        if draws[j] == "grid":
            return str(rng.randrange(9) / 2)
        return repr(rng.uniform(-5.0, 5.0))

    ids = rng.sample(range(1000), rng.randint(0, max_records))
    return Dataset(schema, [Record(i, tuple(cell(j, a) for j, a in enumerate(schema)))
                            for i in ids])


def test_tidsets_match_the_scalar_oracle():
    rng = random.Random(2718)
    for trial in range(60):
        ds = random_mixed_dataset(rng, 40 if trial % 3 else 300)  # some span several words
        strategy = ("width", "frequency")[trial % 2]
        n_bins = rng.randint(1, 5)
        bins = fit_all_bins(ds, n_bins, strategy)
        if trial % 4 >= 2:  # bins from part of the table: other values clamp
            part = Dataset(ds.schema, ds.records[: len(ds.records) // 3])
            bins.update(fit_all_bins(part, n_bins, strategy))
        exclude = set(rng.sample(range(ds.n_attributes), rng.randint(0, ds.n_attributes)))
        tidsets = ds.tidsets(bins, exclude)
        assert all(0 < bits < 1 << ds.n_records for bits in tidsets.values())
        for p, record in enumerate(ds.records):
            items = {item for item, bits in tidsets.items() if bits >> p & 1}
            assert items == oracle_itemize(ds, record, bins, exclude)


def test_columns_encode_each_kind_and_reject_foreign_cells():
    schema = [AttributeSchema("x", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b"))]
    codes, values = Dataset(schema, [Record(3, ("1.5", None)), Record(1, (None, "b"))]).columns
    assert codes.tolist() == [[-1, -1], [-1, 1]]
    assert codes.dtype == np.int8 and values.dtype == np.float64
    assert values[0, 0] == 1.5 and math.isnan(values[0, 1]) and np.isnan(values[1]).all()
    for bad in ("abc", "inf"):
        with pytest.raises(DataError, match=f"{bad!r} in numeric attribute 'x'"):
            Dataset(schema, [Record(0, ("1", "a")), Record(1, (bad, "a"))]).columns
    with pytest.raises(DataError, match="unknown level 'z' for attribute 'c'"):
        Dataset(schema, [Record(0, ("1", "z"))]).columns


@pytest.mark.parametrize("n_levels, dtype", [(1, np.int8), (127, np.int8), (128, np.int8),
                                             (129, np.int16), (200, np.int16),
                                             (3000, np.int16)])
def test_columns_take_the_narrowest_signed_code_type(n_levels, dtype):
    # every level index and -2, the kNN fallback's missing query cell, must fit
    levels = tuple(f"l{i}" for i in range(n_levels))
    schema = [AttributeSchema("c", CATEGORICAL, levels),
              AttributeSchema("small", CATEGORICAL, ("a", "b")), AttributeSchema("x", NUMERIC)]
    records = [Record(0, (levels[-1], "b", "1")), Record(1, (None, "a", None)),
               Record(2, (levels[0], None, "2"))]
    codes, _ = Dataset(schema, records).columns
    assert codes.dtype == dtype
    assert codes.tolist() == [[n_levels - 1, -1, 0], [1, 0, -1], [-1, -1, -1]]


def test_columns_of_a_table_without_levels_are_int8():
    codes, _ = Dataset([AttributeSchema("x", NUMERIC)], [Record(0, ("1",))]).columns
    assert codes.dtype == np.int8 and codes.tolist() == [[-1]]
    assert Dataset([], []).columns[0].dtype == np.int8


def test_dataset_validates_invariants():
    schema = [AttributeSchema("a", CATEGORICAL, ("x",))]
    with pytest.raises(DataError):
        Dataset(schema, [Record(0, ("x",)), Record(0, ("x",))])  # duplicate ids
    with pytest.raises(DataError):
        Dataset(schema, [Record(0, ("x", "extra"))])  # wrong arity
    with pytest.raises(DataError):
        Dataset(schema * 2, [])  # duplicate names
    with pytest.raises(DataError):
        AttributeSchema("a", "weird")


def test_fit_all_bins_covers_numeric_attributes(credit_dataset):
    bins = fit_all_bins(credit_dataset, 5, "frequency")
    numeric = {j for j, a in enumerate(credit_dataset.schema) if a.kind == NUMERIC}
    assert set(bins) == numeric


cell_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=6,
).filter(lambda s: s != "?")


@st.composite
def tables(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=1, max_value=8))
    header = [f"col{i}" for i in range(n_cols)]
    rows = [
        [draw(st.one_of(st.just("?"), cell_text)) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    return header, rows


@given(tables())
@settings(max_examples=60)
def test_round_trip_property(tmp_path_factory, table):
    header, rows = table
    tmp = tmp_path_factory.mktemp("rt")
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    path = tmp / "t.csv"
    path.write_text(text, encoding="utf-8")
    ds = load_csv(path, "?")
    out = tmp / "o.csv"
    write_csv(ds, out, "?")
    assert out.read_text(encoding="utf-8") == text


@given(tables())
@settings(max_examples=60)
def test_itemize_size_counts_present_cells(tmp_path_factory, table):
    header, rows = table
    tmp = tmp_path_factory.mktemp("it")
    path = tmp / "t.csv"
    path.write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n",
        encoding="utf-8",
    )
    ds = load_csv(path, "?", schema_hints={h: CATEGORICAL for h in header})
    tidsets = ds.tidsets()
    for p, record in enumerate(ds.records):
        held = sum(bits >> p & 1 for bits in tidsets.values())
        assert held == sum(cell is not None for cell in record.cells)


def test_equal_cells_give_equal_itemsets():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("x", "y")),
        AttributeSchema("b", CATEGORICAL, ("u", "v")),
    ]
    ds = Dataset(schema, [Record(0, ("x", "v")), Record(1, ("x", "v"))])
    assert ds.tidsets() == {(0, 0): 0b11, (1, 1): 0b11}
