import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulefill
from rulefill import (
    KnnParams,
    MiningParams,
    fit_all_bins,
    impute_dataset,
    inject_missing,
    load_csv,
    mine_rules,
    write_csv,
)
from rulefill.cli import _values_list, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mine_writes_rules_and_summary(tmp_path, car_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "car.rules.jsonl"
    code, stdout, _ = run_cli(
        ["mine", "--data", str(car_csv), "--support", "40", "--confidence", "60",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.exists()
    assert "config:" in stdout and "mined" in stdout
    config = json.loads(stdout.splitlines()[0].removeprefix("config: "))
    assert config["min_support"] == 0.4 and config["min_confidence"] == 0.6


def test_mine_accepts_fractions_too(tmp_path, car_csv, capsys):
    out = tmp_path / "r.jsonl"
    code, stdout, _ = run_cli(
        ["mine", "--data", str(car_csv), "--support", "0.4", "--confidence", "0.6",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    config = json.loads(stdout.splitlines()[0].removeprefix("config: "))
    assert config["min_support"] == 0.4


def test_mine_support_out_of_range_is_usage_error(car_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["mine", "--data", str(car_csv), "--support", "101"])
    assert excinfo.value.code == 2


def test_mine_empty_dataset_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    code, _, stderr = run_cli(["mine", "--data", str(empty)], capsys)
    assert code == 1
    assert "empty dataset" in stderr


def test_impute_roundtrip(tmp_path, credit_csv, capsys):
    out = tmp_path / "done.csv"
    report = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["impute", "--data", str(credit_csv), "--marker", "?",
         "--support-count", "60", "--confidence", "60", "--k", "10",
         "--out", str(out), "--report", str(report)],
        capsys,
    )
    assert code == 0
    completed = load_csv(out, "?")
    assert not completed.missing_cells()
    payload = json.loads(report.read_text())
    assert payload["totals"]["imputed"] == payload["totals"]["rules"] + payload["totals"]["knn"]
    assert "parameters" in payload


@pytest.fixture(scope="module")
def masked_car_csv(tmp_path_factory, car_dataset):
    masked, _ = inject_missing(car_dataset, 0.2, seed=5)
    path = tmp_path_factory.mktemp("masked") / "car_masked.csv"
    write_csv(masked, path, "?")
    return path


@pytest.mark.parametrize("table", ["masked_car_csv", "credit_csv"])
def test_impute_with_mined_rule_file_equals_inline_impute(tmp_path, table, request, capsys):
    # mine -> impute --rules must write what one inline impute writes
    data = str(request.getfixturevalue(table))
    thresholds = ["--support-count", "40", "--confidence", "60"]
    rules = tmp_path / "rules.jsonl"
    assert run_cli(["mine", "--data", data, *thresholds, "--out", str(rules)], capsys)[0] == 0
    outputs = {}
    for name, extra in [("file", ["--rules", str(rules)]), ("inline", thresholds)]:
        out, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        code, _, _ = run_cli(
            ["impute", "--data", data, *extra, "--out", str(out), "--report", str(report)],
            capsys,
        )
        assert code == 0
        outputs[name] = (out.read_bytes(), report.read_bytes())
    assert outputs["file"] == outputs["inline"]
    payload = json.loads(outputs["file"][1])
    assert payload["totals"]["rules"] > 0 and payload["totals"]["knn"] > 0
    assert not load_csv(tmp_path / "file.csv", "?").missing_cells()


@pytest.mark.parametrize("no_class, exclude_class", [
    (False, False), (False, True), (True, True),
])
def test_impute_class_flags_match_library(tmp_path, credit_csv, capsys, no_class,
                                          exclude_class):
    # --no-class overrides --class-column, and --exclude-class then drops nothing
    name = load_csv(credit_csv, "?").schema[-1].name
    flags = ["--class-column", name]
    flags += ["--no-class"] * no_class + ["--exclude-class"] * exclude_class
    out = tmp_path / "done.csv"
    code, _, _ = run_cli(
        ["impute", "--data", str(credit_csv), "--support-count", "40", "--confidence", "60",
         *flags, "--out", str(out), "--report", str(tmp_path / "report.json")],
        capsys,
    )
    assert code == 0
    dataset = load_csv(credit_csv, "?", class_column=None if no_class else name)
    exclude = frozenset([dataset.class_index] if exclude_class and not no_class else [])
    bins = fit_all_bins(dataset, 5, "frequency", exclude)
    params = MiningParams(min_confidence=0.6, min_support_count=40)
    rules = mine_rules(dataset, params, bins, exclude)
    completed, _ = impute_dataset(dataset, rules, KnnParams(k=10), bins, exclude)
    write_csv(completed, tmp_path / "library.csv", "?")
    assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_impute_without_missing_cells_notes_zero(tmp_path, car_csv, capsys):
    out = tmp_path / "done.csv"
    report = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["impute", "--data", str(car_csv), "--out", str(out), "--report", str(report)],
        capsys,
    )
    assert code == 0
    assert "imputed 0 cells" in stdout
    assert load_csv(out, "?").n_records == 1728


def test_impute_schema_mismatch_exits_one(tmp_path, car_csv, credit_csv, capsys):
    rules = tmp_path / "car.rules.jsonl"
    code, _, _ = run_cli(["mine", "--data", str(car_csv), "--out", str(rules)], capsys)
    assert code == 0
    code, _, stderr = run_cli(
        ["impute", "--data", str(credit_csv), "--rules", str(rules)], capsys
    )
    assert code == 1
    assert "schema" in stderr


def test_impute_malformed_rule_header_exits_one(tmp_path, car_csv, capsys):
    rules = tmp_path / "bad.rules.jsonl"
    rules.write_text('{"format": "rulefill-rules-v1", "bins": {}, "params": null}\n')
    code, _, stderr = run_cli(
        ["impute", "--data", str(car_csv), "--rules", str(rules)], capsys
    )
    assert code == 1
    assert stderr.startswith("error:") and "bad.rules.jsonl" in stderr


@pytest.mark.parametrize("sweep, values", [("missing-rate", "5,100"), ("support", "150")])
def test_bench_out_of_range_values_exit_one(tmp_path, car_csv, capsys, sweep, values):
    code, _, stderr = run_cli(
        ["bench", "--data", str(car_csv), "--sweep", sweep, "--values", values,
         "--out-dir", str(tmp_path / "bench")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:")
    assert not (tmp_path / "bench").exists()


def test_bench_sweep_reports(tmp_path, car_csv, capsys):
    out_dir = tmp_path / "bench"
    code, stdout, _ = run_cli(
        ["bench", "--data", str(car_csv), "--sweep", "missing-rate",
         "--values", "5,10", "--methods", "hmit,knn", "--seed", "7",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert (out_dir / "report.json").exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["spec"]["seed"] == 7
    assert payload["spec"]["sweep_values"] == [0.05, 0.10]
    assert len(payload["rows"]) == 4
    assert "config:" in stdout


def test_bench_range_values_and_fixed_mask_coverage(tmp_path, car_csv, capsys):
    out_dir = tmp_path / "bench"
    code, stdout, _ = run_cli(
        ["bench", "--data", str(car_csv), "--sweep", "support",
         "--values", "10..60", "--methods", "hmit", "--seed", "3",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    payload = json.loads((out_dir / "report.json").read_text())
    supports = [row["min_support"] for row in payload["rows"]]
    assert supports == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    masks = {row["n_missing"] for row in payload["rows"]}
    assert len(masks) == 1
    coverages = [row["rule_coverage"] for row in payload["rows"]]
    assert coverages == sorted(coverages, reverse=True)


def test_range_values_do_not_accumulate_float_error():
    assert _values_list("0..1:0.1") == [i / 10 for i in range(11)]


@given(lo=st.integers(0, 1000), step=st.integers(1, 100), count=st.integers(1, 60),
       scale=st.sampled_from([1, 10, 100]))
@settings(max_examples=200, deadline=None)
def test_range_values_hit_both_endpoints(lo, step, count, scale):
    hi = lo + (count - 1) * step
    values = _values_list(f"{lo / scale}..{hi / scale}:{step / scale}")
    assert len(values) == count
    assert values[0] == lo / scale and values[-1] == hi / scale
    assert values == [(lo + i * step) / scale for i in range(count)]


def test_bench_empty_values_is_usage_error(car_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--data", str(car_csv), "--sweep", "support", "--values", ""])
    assert excinfo.value.code == 2


def test_bench_sweep_without_values_exits_one(car_csv, capsys):
    code, _, stderr = run_cli(
        ["bench", "--data", str(car_csv), "--sweep", "support"], capsys
    )
    assert code == 1
    assert "--values" in stderr


def test_unknown_method_is_usage_error(car_csv):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--data", str(car_csv), "--methods", "tree"])
    assert excinfo.value.code == 2


def test_data_dir_env_var(tmp_path, car_csv, capsys, monkeypatch):
    monkeypatch.setenv("RULEFILL_DATA_DIR", str(car_csv.parent))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["mine", "--data", car_csv.name, "--out", str(tmp_path / "r.jsonl")], capsys
    )
    assert code == 0


def child_env():
    # the package's own source root, so a bare `python -m pytest` works too
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(rulefill.__file__)), os.environ.get("PYTHONPATH", "")]
    )}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rulefill", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "impute" in proc.stdout and "bench" in proc.stdout


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write into tempfile.mkdtemp(); keep that under the test's own directory
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**child_env(), "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
