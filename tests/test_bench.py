import csv
import hashlib
import json
import math
import random

import pytest

import rulefill.bench
from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    DataError,
    Dataset,
    ExperimentSpec,
    KnnParams,
    MiningParams,
    Record,
    evaluate,
    impute_dataset,
    inject_missing,
    load_csv,
    run_sweep,
    write_report_files,
)
from rulefill.sample_data import CAR_COLUMNS, CREDIT_COLUMNS, car_rows, credit_rows
from oracles import random_dataset


def test_inject_rate_zero_is_identity(car_dataset):
    masked, truth = inject_missing(car_dataset, 0.0, seed=1)
    assert truth == {}
    assert [r.cells for r in masked.records] == [r.cells for r in car_dataset.records]


def test_inject_twenty_percent_masks_2074_cells(car_dataset):
    # 1728 records x 6 eligible attributes (class excluded) = 10368 cells
    masked, truth = inject_missing(car_dataset, 0.20, seed=1)
    assert len(truth) == round(0.2 * 1728 * 6) == 2074
    assert len(masked.missing_cells()) == 2074
    class_index = car_dataset.class_index
    assert all(j != class_index for _, j in truth)
    for (record_id, j), value in truth.items():
        assert car_dataset.record_by_id(record_id).cells[j] == value
        assert masked.record_by_id(record_id).cells[j] is None


def test_inject_seed_determinism(car_dataset):
    _, truth_a = inject_missing(car_dataset, 0.10, seed=42)
    _, truth_b = inject_missing(car_dataset, 0.10, seed=42)
    _, truth_c = inject_missing(car_dataset, 0.10, seed=43)
    assert truth_a == truth_b
    assert truth_a != truth_c


def test_inject_never_empties_a_record():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("x", "y")),
        AttributeSchema("b", CATEGORICAL, ("u", "v")),
    ]
    ds = Dataset(schema, [Record(i, ("x", "u")) for i in range(6)])
    masked, truth = inject_missing(ds, 0.45, seed=0, exclude_class=False)
    assert len(truth) == round(0.45 * 12)
    for record in masked.records:
        assert any(cell is not None for cell in record.cells)


def test_inject_unsatisfiable_rate_errors():
    schema = [AttributeSchema("a", CATEGORICAL, ("x",))]
    ds = Dataset(schema, [Record(0, ("x",)), Record(1, ("x",))])
    with pytest.raises(DataError):
        inject_missing(ds, 0.8, seed=0, exclude_class=False)


def test_inject_masks_only_present_cells(credit_dataset):
    native = set(credit_dataset.missing_cells())
    assert native  # the credit table carries "?" cells
    class_index = credit_dataset.class_index
    present = sum(cell is not None and j != class_index
                  for record in credit_dataset.records for j, cell in enumerate(record.cells))
    masked, truth = inject_missing(credit_dataset, 0.20, seed=4)
    assert len(truth) == round(0.20 * present)
    assert native.isdisjoint(truth)
    assert set(masked.missing_cells()) == native | set(truth)


# SHA-256 of the masked cells and the ordered truth items, per (table, rate,
# seed, exclude_class); the tables come from sample_data, never a data file
PINNED_MASKS = {
    ("car", 0.05, 0, False): "64846d91c6cad306655c89493b82ed5142c958c6ffa19df856a5196bf77a0dd0",
    ("car", 0.05, 0, True): "58b5ebe8a9a7719210a361661b7bf041934df69f837f3fe7ed011969aad8c4ff",
    ("car", 0.05, 7, False): "a5161e1360b8af2e4828be86b80eac1dc86b87b80aa8051a23ab2fdaa09f15b3",
    ("car", 0.05, 7, True): "b6ef32a1231665e1354bf1757ecc137bf852dce3b950cdaeeb88f87a1514c0dc",
    ("car", 0.3, 0, False): "e57f1ff026f54989069d8513c07323c3a9eb9b147628abae38b58889fcd61125",
    ("car", 0.3, 0, True): "0edede0682917ab2f4d8dd3ec4e11188726b3064e776af49d0a22d387d391460",
    ("car", 0.3, 7, False): "fc1acd442220899632d1e2c77904828417dea3a1f64237fce82324b23982d1cd",
    ("car", 0.3, 7, True): "9da814c5b1b0e897ac963604d4cecd05162935e5bac21ad584a37a21d9907983",
    ("credit", 0.05, 0, False): "afe94f8f1d86ec262db4b8c10f877543a4dbaf917b034c71db371ed7bbfad3d4",
    ("credit", 0.05, 0, True): "1aad4c57c838822676029d05c2fcf1c38815380a642a6a7e97012824bf9fba2a",
    ("credit", 0.05, 7, False): "330c0c36db4b3d45b54b8c80a60187f2522139bc10c5ccab918959d221363068",
    ("credit", 0.05, 7, True): "4b541dae6da8eeb664c2aa2c7d1134088ee97efd57782ce47e12bd972e03a611",
    ("credit", 0.3, 0, False): "cf95a6320ed6b52788a0da60fdee4105319500259143fa26247f8435d795b3c3",
    ("credit", 0.3, 0, True): "7b99f423a51ee8e92725863ed9c76edbbddf178caa84f5b76ab3e4acbb35460c",
    ("credit", 0.3, 7, False): "09ea4972a4acf3cf77a4945149b835aae53c6421455212d729829e6ca04dc9a9",
    ("credit", 0.3, 7, True): "bd62950d6f0aa56e91e835674e14e71599ca2919a7c82a5b6b8e2d1a3636de7b",
}


@pytest.mark.parametrize("key", sorted(PINNED_MASKS), ids=lambda key: "-".join(map(str, key)))
def test_inject_draws_are_pinned(tmp_path, key):
    table, rate, seed, exclude_class = key
    header, rows = (CAR_COLUMNS, car_rows()) if table == "car" else (CREDIT_COLUMNS, credit_rows())
    path = tmp_path / f"{table}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    dataset = load_csv(path, "?", class_column="class")
    masked, truth = inject_missing(dataset, rate, seed, exclude_class=exclude_class)
    payload = repr(([r.cells for r in masked.records], list(truth.items())))
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_MASKS[key]


def test_inject_class_flag(car_dataset):
    masked, truth = inject_missing(car_dataset, 0.05, seed=3, exclude_class=False)
    class_index = car_dataset.class_index
    assert any(j == class_index for _, j in truth)


def test_evaluate_perfect_and_counting():
    schema = [AttributeSchema("c", CATEGORICAL, ("a", "b"))]
    ds = Dataset(schema, [Record(i, ("a",)) for i in range(4)])
    truth = {(0, 0): "a", (1, 0): "a", (2, 0): "a", (3, 0): "b"}
    metrics = evaluate(ds, truth)
    assert metrics.categorical_accuracy == 0.75  # 3 of 4 exact matches
    all_right = {(0, 0): "a", (1, 0): "a"}
    assert evaluate(ds, all_right).categorical_accuracy == 1.0
    with pytest.raises(ValueError):
        evaluate(ds, {})


def test_evaluate_nrmse_formula():
    schema = [AttributeSchema("x", NUMERIC)]
    ds = Dataset(schema, [Record(0, (0.0,)), Record(1, (5.0,))])
    truth = {(0, 0): "0", (1, 0): "10"}
    metrics = evaluate(ds, truth)
    # direct formula: sqrt(((0-0)^2 + (10-5)^2) / 2) / (10 - 0)
    assert metrics.numeric_nrmse == pytest.approx(math.sqrt(12.5) / 10.0)
    assert metrics.categorical_accuracy is None
    assert metrics.n_numeric == 2


def test_evaluate_split_metrics_never_blend():
    schema = [
        AttributeSchema("c", CATEGORICAL, ("a", "b")),
        AttributeSchema("x", NUMERIC),
    ]
    ds = Dataset(schema, [Record(0, ("a", 3.0))])
    metrics = evaluate(ds, {(0, 0): "b", (0, 1): "3"})
    assert metrics.categorical_accuracy == 0.0
    assert metrics.numeric_nrmse == 0.0


def spec_for(path, **overrides) -> ExperimentSpec:
    base = dict(
        dataset_path=str(path),
        class_column="class",
        missing_rate=0.10,
        seed=5,
        mining=MiningParams(0.40, 0.60),
        knn=KnnParams(5),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def spied_sweep(monkeypatch, spec):
    """Run ``spec``; return its report, the (seed, masked table) of every mask
    draw, and the table each imputation was given, in call order."""
    draws, imputed = [], []

    def spy_inject(dataset, rate, seed, **options):
        masked, truth = inject_missing(dataset, rate, seed, **options)
        draws.append((seed, masked))
        return masked, truth

    def spy_impute(dataset, *args):
        imputed.append(dataset)
        return impute_dataset(dataset, *args)

    monkeypatch.setattr(rulefill.bench, "inject_missing", spy_inject)
    monkeypatch.setattr(rulefill.bench, "impute_dataset", spy_impute)
    return run_sweep(spec), draws, imputed


def test_run_sweep_missing_rate_rows(car_csv, monkeypatch):
    spec = spec_for(
        car_csv,
        sweep_axis="missing_rate",
        sweep_values=(0.05, 0.10),
        methods=("hmit", "knn"),
    )
    report, draws, imputed = spied_sweep(monkeypatch, spec)
    # one draw per position, seeded spec.seed + position, shared by its methods
    assert [seed for seed, _ in draws] == [spec.seed, spec.seed + 1]
    assert len(imputed) == len(report.rows)
    for row, table in zip(report.rows, imputed):
        assert table is draws[row.position][1]
    assert len(report.rows) == 4  # two values x two methods
    assert [r.method for r in report.rows] == ["hmit", "knn", "hmit", "knn"]
    assert report.rows[0].n_missing == round(0.05 * 1728 * 6)
    # paired methods share the mask, so share n_missing
    assert report.rows[0].n_missing == report.rows[1].n_missing
    assert report.rows[0].seed_used == 5 and report.rows[2].seed_used == 6
    for row in report.rows:
        assert row.time_impute_s >= 0.0
        if row.method == "knn":
            assert row.time_mine_s is None and row.rule_count is None
            assert row.rule_coverage == 0.0


def test_run_sweep_single_knn_row(car_csv):
    spec = spec_for(car_csv, methods=("knn",))
    report = run_sweep(spec)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.method == "knn"
    assert row.time_mine_s is None  # no mining happened at all


def test_run_sweep_support_axis_shares_one_mask(car_csv, monkeypatch):
    spec = spec_for(
        car_csv,
        sweep_axis="support",
        sweep_values=(0.10, 0.30, 0.60),
        methods=("hmit",),
        missing_rate=0.20,
    )
    report, draws, imputed = spied_sweep(monkeypatch, spec)
    # one draw for the whole sweep, and every position imputes that table
    [(seed, masked)] = draws
    assert seed == spec.seed and isinstance(masked, Dataset)
    assert len(imputed) == 3 and all(table is masked for table in imputed)
    assert len(report.rows) == 3
    n_missing = {row.n_missing for row in report.rows}
    assert len(n_missing) == 1  # fixed mask across the sweep
    seeds = {row.seed_used for row in report.rows}
    assert seeds == {5}
    coverages = [row.rule_coverage for row in report.rows]
    assert coverages == sorted(coverages, reverse=True)
    assert [row.min_support for row in report.rows] == [0.10, 0.30, 0.60]


def test_run_sweep_confidence_axis(car_csv, monkeypatch):
    spec = spec_for(
        car_csv,
        sweep_axis="confidence",
        sweep_values=(0.2, 0.8),
        methods=("hmit",),
        mining=MiningParams(0.40, 0.60, min_support_count=40),
    )
    report, draws, imputed = spied_sweep(monkeypatch, spec)
    [(seed, masked)] = draws  # one draw, kept across the thresholds
    assert seed == spec.seed and isinstance(masked, Dataset)
    assert len(imputed) == 2 and all(table is masked for table in imputed)
    assert [row.min_confidence for row in report.rows] == [0.2, 0.8]
    assert report.rows[0].rule_coverage >= report.rows[1].rule_coverage
    # support settings carry through unchanged
    assert all(row.min_support_count == 40 for row in report.rows)


def test_degenerate_coverage_means_equal_accuracy(car_csv):
    # at these thresholds no rules fire, so the hybrid must equal pure knn
    spec = spec_for(car_csv, methods=("hmit", "knn"), missing_rate=0.15)
    report = run_sweep(spec)
    hybrid, knn = report.rows
    assert hybrid.rule_coverage == 0.0
    assert hybrid.categorical_accuracy == knn.categorical_accuracy


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(dataset_path="x", sweep_axis="bogus")
    with pytest.raises(ValueError):
        ExperimentSpec(dataset_path="x", sweep_axis="support")
    with pytest.raises(ValueError):
        ExperimentSpec(dataset_path="x", methods=("mystery",))
    with pytest.raises(ValueError):
        ExperimentSpec(dataset_path="x", missing_rate=1.0)
    # every sweep value is range-checked up front, not when its position runs
    for axis, values in [
        ("missing_rate", (0.1, 1.0)),
        ("missing_rate", (-0.1,)),
        ("support", (0.3, 1.5)),
        ("support", (0.0,)),
        ("confidence", (0.5, 1.01)),
        ("confidence", (-0.2,)),
    ]:
        with pytest.raises(ValueError, match=axis):
            ExperimentSpec(dataset_path="x", sweep_axis=axis, sweep_values=values)
    for axis, values in [("missing_rate", (0.0, 0.95)), ("support", (1.0,)),
                         ("confidence", (0.01, 1.0))]:
        ExperimentSpec(dataset_path="x", sweep_axis=axis, sweep_values=values)


def test_report_files_written(tmp_path, car_csv):
    spec = spec_for(
        car_csv,
        sweep_axis="missing_rate",
        sweep_values=(0.05, 0.10),
        methods=("hmit", "knn"),
    )
    report = run_sweep(spec)
    written = write_report_files(report, tmp_path / "out")
    names = {p.name for p in written}
    assert "report.json" in names and "report.csv" in names
    assert "categorical_accuracy__hmit.dat" in names
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(payload["rows"]) == 4
    csv_text = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(csv_text) == 5  # header plus one line per row
    assert csv_text[0].startswith("position,sweep_axis,sweep_value,method")
    dat = (tmp_path / "out" / "categorical_accuracy__hmit.dat").read_text().splitlines()
    assert len(dat) == 2 and all(len(line.split()) == 2 for line in dat)


def test_report_files_write_timings_to_the_microsecond(tmp_path, car_csv):
    spec = spec_for(car_csv, sweep_axis="missing_rate", sweep_values=(0.05, 0.10))
    out = tmp_path / "out"
    write_report_files(run_sweep(spec), out)

    def microseconds(text):  # at most 6 decimals
        return float(text) == round(float(text), 6)

    rows = json.loads((out / "report.json").read_text())["rows"]
    assert all(microseconds(row["time_impute_s"]) for row in rows)
    assert all(microseconds(row["time_mine_s"]) for row in rows if row["method"] == "hmit")
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            mine, impute = row["time_mine_s"] or "0", row["time_impute_s"]
            assert microseconds(mine) and microseconds(impute)
            assert float(row["time_impute_plus_mine_s"]) == round(float(impute) + float(mine), 6)
    dat_files = list(out.glob("time_impute_s__*.dat"))
    assert len(dat_files) == 2
    for path in dat_files:
        assert all(microseconds(line.split()[1]) for line in path.read_text().splitlines())


def test_report_determinism_modulo_timing(car_csv):
    spec = spec_for(car_csv, sweep_axis="missing_rate", sweep_values=(0.05,))
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first.to_json(timings=False) == second.to_json(timings=False)


def test_masks_differ_across_positions_for_rate_axis(car_csv):
    spec = spec_for(
        car_csv, sweep_axis="missing_rate", sweep_values=(0.10, 0.10), methods=("knn",)
    )
    report = run_sweep(spec)
    # same rate at two positions: deterministic but distinct masks
    assert report.rows[0].seed_used != report.rows[1].seed_used
    assert report.rows[0].categorical_accuracy != report.rows[1].categorical_accuracy
