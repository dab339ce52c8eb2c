import contextlib
import csv
import hashlib
import io
import json
import math
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulefill
from rulefill import (
    NUMERIC,
    MiningParams,
    fit_all_bins,
    impute_dataset,
    inject_missing,
    load_csv,
    mine_rules,
    write_csv,
)
from rulefill.cli import _values_list, main
from rulefill.rules_io import read_rules
from rulefill.sample_data import CAR_COLUMNS, CREDIT_COLUMNS, car_rows, credit_rows, write_car_csv
from oracles import oracle_missing_cells


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


@pytest.mark.parametrize("command", ["mine", "impute", "bench"])
def test_mine_empty_dataset_exits_one(tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    code, _, stderr = run_cli([command, "--data", str(empty)], capsys)
    assert code == 1
    assert "empty dataset" in stderr


@pytest.mark.parametrize("command", ["impute", "bench"])
def test_all_missing_column_is_refused_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                           command):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "blank.csv"
    data.write_text("a,b,c\nx,?,u\ny,?,v\nx,?,u\ny,?,u\n")
    code, _, stderr = run_cli([command, "--data", str(data)], capsys)
    assert code == 1
    # the error line alone: no traceback
    assert stderr == "error: attribute 'b' has no known value anywhere; cannot impute\n"
    assert list(tmp_path.iterdir()) == [data]  # nothing written


def test_mine_equal_width_overflow_names_the_column(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text("span,c\n-1e308,a\n1e308,b\n0,a\n5,b\n")
    code, _, stderr = run_cli(
        ["mine", "--data", str(data), "--bin-strategy", "width",
         "--out", str(tmp_path / "r.jsonl")],
        capsys,
    )
    assert code == 1
    assert "'span'" in stderr and "overflows" in stderr


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
    assert not oracle_missing_cells(completed)
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
    assert not oracle_missing_cells(load_csv(tmp_path / "file.csv", "?"))


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
    completed, _ = impute_dataset(dataset, rules, 10, bins, exclude)
    write_csv(completed, tmp_path / "library.csv", "?")
    assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


@pytest.mark.parametrize("table, from_file", [("masked_car_csv", False), ("credit_csv", True)])
def test_impute_report_is_one_json_line_equal_to_the_library_report(tmp_path, table, from_file,
                                                                   request, capsys):
    data = str(request.getfixturevalue(table))
    thresholds = ["--support-count", "40", "--confidence", "60"]
    rules_path = tmp_path / "rules.jsonl"
    extra = thresholds
    if from_file:
        assert run_cli(["mine", "--data", data, *thresholds, "--out", str(rules_path)],
                       capsys)[0] == 0
        extra = ["--rules", str(rules_path)]
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["impute", "--data", data, *extra, "--out", str(tmp_path / "done.csv"),
         "--report", str(report_path)],
        capsys,
    )
    assert code == 0

    dataset = load_csv(data, "?")
    if from_file:
        rule_file = read_rules(rules_path)
        rules, bins, params = rule_file.rules, rule_file.bins, rule_file.params
    else:
        params = MiningParams(min_confidence=0.6, min_support_count=40)
        bins = fit_all_bins(dataset, 5, "frequency")
        rules = mine_rules(dataset, params, bins)
    _, report = impute_dataset(dataset, rules, 10, bins)
    report.parameters.update({
        "mining": asdict(params),
        "bins": {
            dataset.schema[j].name: {"edges": list(b.edges),
                                     "representatives": list(b.representatives)}
            for j, b in sorted(bins.items())
        },
        "exclude_class": False,
    })
    text = report_path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert payload == report.to_dict()
    assert payload["totals"]["rules"] > 0 and payload["rules"]


def test_impute_neighbour_mean_past_the_largest_float_stays_finite(tmp_path, capsys):
    data = tmp_path / "mean.csv"
    data.write_text("x,c\n1e308,a\n1e308,a\n0,b\n?,a\n", encoding="utf-8")
    out, report = tmp_path / "done.csv", tmp_path / "report.json"
    code, _, _ = run_cli(
        ["impute", "--data", str(data), "--support-count", "100", "--k", "2",
         "--out", str(out), "--report", str(report)],
        capsys,
    )
    assert code == 0
    completed = load_csv(out, "?")
    assert completed.schema[0].kind == NUMERIC
    assert float(completed.record_by_id(3).cells[0]) == 1e308

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(report.read_text(encoding="utf-8"), parse_constant=reject)
    assert [cell["value"] for cell in payload["cells"]] == [1e308]


def test_impute_keeps_each_record_s_own_numeric_text(tmp_path, capsys):
    # rows 0 and 1 differ only in x's text, not its value, and both lack c
    data = tmp_path / "text.csv"
    data.write_text("x,c,d\n1.0,?,p\n1.00,?,p\n2,a,p\n2.5,b,q\n3,a,p\n0.5,b,q\n",
                    encoding="utf-8")
    out, report = tmp_path / "done.csv", tmp_path / "report.json"
    code, _, stderr = run_cli(
        ["impute", "--data", str(data), "--support-count", "100", "--k", "3",
         "--out", str(out), "--report", str(report)],
        capsys,
    )
    assert code == 0, stderr
    first, second = json.loads(report.read_text(encoding="utf-8"))["cells"]
    assert (first.pop("row"), second.pop("row")) == (0, 1)
    assert first == second and first["source"] == "knn"
    value = first["value"]
    assert out.read_text(encoding="utf-8").splitlines()[1:3] == [f"1.0,{value},p",
                                                                 f"1.00,{value},p"]


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


def test_impute_names_the_levels_when_only_their_order_differs(tmp_path, capsys):
    mined, reordered = tmp_path / "car.csv", tmp_path / "reordered.csv"
    rows = car_rows()
    with open(mined, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([CAR_COLUMNS, *rows])
    rows = [list(row) for row in reversed(rows)]
    rows[0][1] = "?"
    with open(reordered, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([CAR_COLUMNS, *rows])
    rules = tmp_path / "car.rules.jsonl"
    assert run_cli(["mine", "--data", str(mined), "--out", str(rules)], capsys)[0] == 0
    code, _, stderr = run_cli(
        ["impute", "--data", str(reordered), "--rules", str(rules),
         "--out", str(tmp_path / "done.csv"), "--report", str(tmp_path / "report.json")],
        capsys,
    )
    expected, found = (load_csv(path, "?").schema[0].levels for path in (mined, reordered))
    assert expected != found and sorted(expected) == sorted(found)
    assert code == 1
    assert f"levels of 'buying' differ: expected {expected}, found {found}" in stderr


def test_impute_refuses_a_rule_strength_that_is_not_a_number(tmp_path, car_csv, capsys):
    rules = tmp_path / "car.rules.jsonl"
    assert run_cli(["mine", "--data", str(car_csv), "--support-count", "40",
                    "--out", str(rules)], capsys)[0] == 0
    header, first, *_ = rules.read_text().splitlines()
    rule = json.loads(first)
    rule["confidence"] = math.nan
    rules.write_text(header + "\n" + json.dumps(rule) + "\n")
    code, _, stderr = run_cli(
        ["impute", "--data", str(car_csv), "--rules", str(rules),
         "--out", str(tmp_path / "done.csv"), "--report", str(tmp_path / "report.json")],
        capsys,
    )
    assert code == 1
    assert "car.rules.jsonl: line 2: bad rule record" in stderr
    assert not (tmp_path / "report.json").exists()


def test_impute_refuses_a_bin_edge_that_is_not_finite(tmp_path, credit_csv, capsys):
    rules = tmp_path / "crx.rules.jsonl"
    assert run_cli(["mine", "--data", str(credit_csv), "--support-count", "60",
                    "--out", str(rules)], capsys)[0] == 0
    first, *rest = rules.read_text().splitlines()
    header = json.loads(first)
    spec = next(iter(header["bins"].values()))
    spec["edges"][-1] = math.inf  # written as a bare Infinity
    rules.write_text("\n".join([json.dumps(header), *rest]) + "\n")
    assert '"edges": [' in rules.read_text() and "Infinity]" in rules.read_text()
    out, report = tmp_path / "done.csv", tmp_path / "report.json"
    code, _, stderr = run_cli(
        ["impute", "--data", str(credit_csv), "--rules", str(rules),
         "--out", str(out), "--report", str(report)],
        capsys,
    )
    assert code == 1
    assert "crx.rules.jsonl: bad rule-file header: edges and representatives must be finite" in stderr
    assert not out.exists() and not report.exists()


def test_impute_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    rows = ["a,b,class"] + [f"{i % 3},{'xyz'[i % 3]},{'pq'[i % 2]}" for i in range(12)]
    rows[5] = "1,?,q"
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows + [""]).encode("utf-8"))
    code, _, stderr = run_cli(
        ["impute", "--data", str(data), "--class-column", "a",
         "--out", str(tmp_path / "done.csv"), "--report", str(tmp_path / "report.json")],
        capsys,
    )
    assert code == 0, stderr
    assert load_csv(tmp_path / "done.csv", "?").schema[0].name == "a"


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


def test_bench_squared_error_overflow_names_the_column(tmp_path, capsys):
    data = tmp_path / "over.csv"
    data.write_text("h0,h1\n2.5,1e308\n-1e308,1\n1,2\n")
    code, _, stderr = run_cli(
        ["bench", "--data", str(data), "--support-count", "1", "--k", "2",
         "--missing-rate", "30", "--out-dir", str(tmp_path / "bench")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:") and "'h0'" in stderr and "overflows" in stderr


NUMBERS = st.one_of(
    st.integers(-5, 5).map(str), st.floats(-10, 10, allow_nan=False).map(repr),
    st.sampled_from(["1e308", "-1e308"]),
)
CELLS = st.one_of(NUMBERS, st.sampled_from(
    ["?", "", "a", "b", "c", "nan", "inf", "-inf", '"a,b"', '"x ""y"""', '" 1"', '"?"']
))


@st.composite
def small_csvs(draw):
    """1-4 columns, 0-8 rows; a column draws either any cell or numbers and ``?`` only.

    About one row in six is ragged: cut short, down to no fields, or given
    one or two extra cells.
    """
    width = draw(st.integers(1, 4))
    numeric = st.one_of(st.just("?"), NUMBERS)
    columns = [draw(st.sampled_from([numeric, CELLS])) for _ in range(width)]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(column) for column in columns]
        if draw(st.integers(0, 5)) == 0:
            fields = draw(st.integers(0, width + 2).filter(lambda n: n != width))
            row = (row + [draw(CELLS), draw(CELLS)])[:fields]
        rows.append(row)
    header = ",".join(f"h{j}" for j in range(width))
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])


def first_ragged_row(text):
    """(line number, header width) of the first row whose field count is not
    the header's, or None."""
    header, *rows = csv.reader(io.StringIO(text))
    return next(
        ((lineno, len(header)) for lineno, row in enumerate(rows, start=2)
         if len(row) != len(header)),
        None,
    )


def exit_code(argv) -> tuple[int, str]:
    """The CLI's exit status and stderr, its stdout discarded; any other exception propagates."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


@given(text=small_csvs())
@settings(max_examples=60, deadline=None)
def test_every_command_exits_cleanly_on_small_csvs(text):
    ragged = first_ragged_row(text)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, rules = tmp / "data.csv", tmp / "rules.jsonl"
        data.write_text(text)
        common = ["--data", str(data), "--support-count", "1"]
        commands = [
            ["mine", *common, "--out", str(rules)],
            ["impute", *common, "--out", str(tmp / "inline.csv"),
             "--report", str(tmp / "inline.json")],
            ["impute", *common, "--rules", str(rules), "--out", str(tmp / "file.csv"),
             "--report", str(tmp / "file.json")],
            ["bench", *common, "--k", "2", "--missing-rate", "30",
             "--out-dir", str(tmp / "bench")],
        ]
        for argv in commands:
            code, stderr = exit_code(argv)
            if ragged is None:
                assert code in (0, 1, 2), argv
            else:
                lineno, width = ragged
                assert code == 1, argv
                assert f"line {lineno}: expected {width} fields" in stderr, argv


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


def test_bench_scores_a_table_with_native_missing_cells(tmp_path, credit_csv, capsys):
    out_dir = tmp_path / "bench"
    code, _, stderr = run_cli(
        ["bench", "--data", str(credit_csv), "--support-count", "40", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0, stderr
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    assert all(0.0 < row["numeric_nrmse"] < math.inf for row in rows)


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


def test_bench_empty_values_is_usage_error(car_csv, capsys):
    for values in ("", ",", " , "):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--data", str(car_csv), "--sweep", "support", "--values", values])
        assert excinfo.value.code == 2
        assert "empty sweep value list" in capsys.readouterr().err


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


@pytest.mark.parametrize("command, option, value", [
    ("mine", "--support", "abc"),
    ("bench", "--missing-rate", "100"),
    ("bench", "--missing-rate", "abc"),
    ("impute", "--k", "0"),
    ("impute", "--k", "x"),
    ("bench", "--values", "10..5"),
    ("bench", "--values", "a..5"),
    ("bench", "--values", "a,b"),
    ("bench", "--values", "0..inf"),
    ("bench", "--values", "10..nan"),
    ("bench", "--methods", ","),
])
def test_bad_option_value_is_usage_error(car_csv, capsys, command, option, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--data", str(car_csv), option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err
    assert f"argument {option}: invalid" not in err  # the option's own message, not argparse's


def test_data_dir_env_var(tmp_path, car_csv, capsys, monkeypatch):
    monkeypatch.setenv("RULEFILL_DATA_DIR", str(car_csv.parent))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        ["mine", "--data", car_csv.name, "--out", str(tmp_path / "r.jsonl")], capsys
    )
    assert code == 0
    code, _, err = run_cli(
        ["mine", "--data", "absent.csv", "--out", str(tmp_path / "r.jsonl")], capsys
    )
    assert code == 1 and err.startswith("error:") and "absent.csv" in err


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


PUBLIC_NAMES = [
    "AssociationRule", "AttributeSchema", "CATEGORICAL", "DataError", "Dataset",
    "ExperimentSpec", "MiningParams", "NUMERIC", "Record",
    "evaluate", "fit_all_bins", "generate_rules", "impute_dataset", "inject_missing",
    "load_csv", "mine_frequent", "mine_rules", "read_rules", "run_sweep", "write_csv",
    "write_report_files", "write_rules",
]


def test_package_exports_exactly_the_public_names():
    assert sorted(rulefill.__all__) == PUBLIC_NAMES
    assert all(hasattr(rulefill, name) for name in PUBLIC_NAMES)


def test_every_mutant_text_occurs_once_in_the_checkout():
    # code that a refactor moved fails here, not at the next tools/mutants.py run
    root = Path(__file__).resolve().parent.parent
    mutants = runpy.run_path(str(root / "tools" / "mutants.py"))
    assert mutants["check_texts"](root, mutants["MUTANTS"]) == []


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tour = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    write_car_csv(tmp_path / "car.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, str(readme), "exec"), {})
    coverage, accuracy = map(float, capsys.readouterr().out.split())
    assert 0.0 < coverage <= 1.0 and 0.0 < accuracy <= 1.0


def test_readme_mine_line_mines_rules(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (line,) = [l for l in readme.read_text(encoding="utf-8").splitlines()
               if l.startswith("rulefill mine ")]
    write_car_csv(tmp_path / "car.csv")
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(shlex.split(line)[1:], capsys)
    assert code == 0
    (count,) = [int(l.split()[1]) for l in stdout.splitlines() if l.startswith("mined ")]
    assert count > 0


# SHA-256 of the rule file, report and completed CSV that ``mine`` then
# ``impute --rules`` write on the masked car table and a small masked credit
# table (numeric columns binned), keyed by (table, --exclude-class).
PINNED_CLI_OUTPUTS = {
    ("car", False): (
        "e01ad7a2853454c0562a88e9daa4a0e563efad3e0eb263e8d6174f010584c759",
        "8394ff5cfb3401d78847ff76ad9a724cc1738d81699817786252b4947cb934d5",
        "3618d78ac92bd1001f94f17012ae6f76aca338a840759c733c7a7fe5fd8d8dbd",
    ),
    ("car", True): (
        "1867297256b69827c39da92d465d42a878167f3f6b1440819c464c26266f072b",
        "9433e6746500d87461494a91b9e59ceea2718e33aebd78525ff541ba70bca68f",
        "34d141435eb0e7a85aee6743b51ab4b9181422657c82355914a8086355b61680",
    ),
    ("credit", False): (
        "00796921367507b338a45bc7e2b63557eee06a0cf9784021034db2a8cf7cc20d",
        "97d89eb93b04d90b0b99d0c081cd304884dcd1b5635ecaca82033f76f07e7e0e",
        "59bfda33e852d9b8038af5d2148bb1149b021faa24392454fd603dac334de331",
    ),
    ("credit", True): (
        "c1be2ed3efbd3e27410378ee5cf6726df6cfb6f59b9b8ace8bcfa6a6cdb04461",
        "75e53ef6e742a5519b31e896352ddf188dc948df84e6ac0fbb2488f4128d007a",
        "5b92b0384fcd3846ea4037b7775daf6df90dbacd7e31690bb1f0da3eeda3f126",
    ),
}


@pytest.fixture(scope="module")
def pinned_csvs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small")
    paths = {}
    for table, header, rows in [("car", CAR_COLUMNS, car_rows()),
                                ("credit", CREDIT_COLUMNS, credit_rows(n=300))]:
        raw = directory / f"{table}_raw.csv"
        with open(raw, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        masked, _ = inject_missing(load_csv(raw, "?", class_column="class"), 0.1, seed=0)
        paths[table] = directory / f"{table}.csv"
        write_csv(masked, paths[table], "?")
    return paths


@pytest.mark.parametrize("table, exclude_class", [
    ("car", False), ("car", True), ("credit", False), ("credit", True),
])
def test_cli_rule_file_report_and_csv_are_pinned(tmp_path, pinned_csvs, capsys, table,
                                                 exclude_class):
    flags = ["--data", str(pinned_csvs[table]), "--class-column", "class",
             "--support-count", "40", "--confidence", "60"] + ["--exclude-class"] * exclude_class
    rules, out, report = tmp_path / "rules.jsonl", tmp_path / "done.csv", tmp_path / "report.json"
    assert run_cli(["mine", *flags, "--out", str(rules)], capsys)[0] == 0
    assert run_cli(["impute", *flags, "--rules", str(rules), "--out", str(out),
                    "--report", str(report)], capsys)[0] == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (rules, report, out))
    assert digests == PINNED_CLI_OUTPUTS[(table, exclude_class)]
