"""Benchmark workloads: input generation, one pass of the CLI, output checks.

Each workload is a documented ``rulefill`` CLI workflow run in-process through
``rulefill.cli.main`` on files generated here.  The base tables come from
``rulefill.sample_data`` with their fixed default seed.  The workload seed
shuffles the rows and draws the MCAR mask with ``inject_missing`` (for the
sweep it is the ``bench --seed`` that draws the masks).  ``crx-rules`` keeps
one fixed mask instead: at support count 20 on 690 rows the rule count swings
between 36k and 43k from one mask seed to the next (seeds 1 to 8), which
would move mining, rule-file and report time by as much.  There the seed only
shuffles the rows, which changes record ids, level order and tie-breaks but
not the amount of work.

Why these three:

* ``car4x-knn``: car at 4x rows with a 20% mask.  Rules cover about a tenth of
  the cells, so the quadratic kNN fallback dominates; mining, rule files and
  binning do almost nothing.
* ``crx-rules``: the mixed-type credit table with a 5% mask and support count
  20.  About 37k rules cover three quarters of the cells, so mining, rule
  validation and firing, the rule file and the report dominate, and kNN does
  little.  The only workload with numeric binning and NRMSE.  It is not in
  BENCHMARK.json: its passes are almost all interpreted Python, and on a
  shared 2-vCPU Xeon virtual machine the run-to-run spread of its timings
  over ten seeds (identical work, identical outputs) reached 0.27-0.42 of
  the median, above the largest bound a gated metric may have.  Run it by
  name.
* ``car-sweep``: ``rulefill bench`` over six missing rates, hybrid and pure
  kNN: the paper's experiment.  Many small passes over the same layers, so
  per-pass fixed costs weigh more than on ``car4x-knn``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from rulefill import cli, sample_data
from rulefill.bench import BenchReport, inject_missing
from rulefill.data import CATEGORICAL, fit_all_bins, load_csv
from rulefill.imputer import mine_rules
from rulefill.mining import MiningParams

MARKER = "?"
METHODS = ("hmit", "knn")


@dataclass(frozen=True)
class Workload:
    name: str
    table: str              # "car" or "credit"
    rows: int
    support_count: int
    mask_rate: float = 0.0  # share of non-class cells masked (mine + impute workloads)
    sweep_rates: tuple = ()  # missing rates in percent (bench workload)
    mask_seed: int | None = None  # a fixed mask; None draws it from the workload seed
    confidence: int = 60
    k: int = 10

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_rates)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("car4x-knn", "car", rows=6912, support_count=40, mask_rate=0.20),
        Workload("crx-rules", "credit", rows=690, support_count=20, mask_rate=0.05,
                 mask_seed=7),
        Workload("car-sweep", "car", rows=1728, support_count=40,
                 sweep_rates=(5, 10, 15, 20, 25, 30)),
    )
}


@dataclass
class Inputs:
    """The generated files and what the checks need to know about them."""

    data_path: Path
    header: list
    grid: list                  # the data file's cells, row by row
    truth: dict = field(default_factory=dict)   # (row, column) -> hidden text
    kinds: list = field(default_factory=list)   # per column, from the full table
    levels: list = field(default_factory=list)  # per column, the known levels


def table_rows(workload: Workload) -> tuple[tuple, list]:
    if workload.table == "car":
        return sample_data.CAR_COLUMNS, sample_data.car_rows(n=workload.rows)
    if workload.table == "credit":
        return sample_data.CREDIT_COLUMNS, sample_data.credit_rows(
            n=workload.rows, missing_rate=0.0
        )
    raise ValueError(f"unknown table: {workload.table!r}")


def _read_grid(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_grid(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Write the workload's input file under ``work_dir``; same seed, same bytes."""
    header, rows = table_rows(workload)
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)  # order[new position] = table row
    grid = [list(rows[old]) for old in order]
    path = work_dir / f"{workload.table}.csv"
    if workload.is_sweep:
        _write_grid(path, header, grid)
        return Inputs(path, list(header), grid)

    _write_grid(path, header, rows)
    dataset = load_csv(path, MARKER, class_column="class")
    mask_seed = seed if workload.mask_seed is None else workload.mask_seed
    _, hidden = inject_missing(dataset, workload.mask_rate, mask_seed)
    position = {old: new for new, old in enumerate(order)}
    truth = {(position[row], column): str(value) for (row, column), value in hidden.items()}
    for row, column in truth:
        grid[row][column] = MARKER
    _write_grid(path, header, grid)  # the program sees only the masked, shuffled table
    return Inputs(
        path,
        list(header),
        grid,
        truth,
        [a.kind for a in dataset.schema],
        [frozenset(a.levels) for a in dataset.schema],
    )


def rule_record(rule) -> dict:
    """A rule as the documented rule-file line holds it, after JSON decoding."""
    return {
        "antecedent": [list(item) for item in sorted(rule.antecedent)],
        "consequent": list(rule.consequent),
        "support": rule.support,
        "confidence": rule.confidence,
    }


def reference_rules(workload: Workload, inputs: Inputs) -> list[dict]:
    """The rule list the library mines from the input, as the CLI's `mine` should write it."""
    dataset = load_csv(inputs.data_path, MARKER)
    bins = fit_all_bins(dataset, 5, "frequency")
    params = MiningParams(
        min_confidence=workload.confidence / 100.0,
        min_support_count=workload.support_count,
    )
    return [rule_record(r) for r in mine_rules(dataset, params, bins)]


class PassFailed(Exception):
    pass


def _cli(argv: list) -> float:
    """Run one CLI command with its stdout sent to a buffer; its wall time."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise PassFailed(f"rulefill {argv[0]} exited with code {code}")
    return elapsed


def run_pass(workload: Workload, inputs: Inputs, seed: int, pass_dir: Path) -> dict:
    """One pass of the workload's CLI workflow; returns its timings."""
    pass_dir.mkdir(parents=True)
    thresholds = ["--support-count", workload.support_count,
                  "--confidence", workload.confidence]
    start = time.perf_counter()
    if workload.is_sweep:
        _cli(["bench", "--data", inputs.data_path, "--sweep", "missing-rate",
              "--values", ",".join(str(r) for r in workload.sweep_rates),
              "--methods", ",".join(METHODS), *thresholds, "--k", workload.k,
              "--seed", seed, "--out-dir", pass_dir / "bench"])
        return {"total_s": time.perf_counter() - start}
    mine_s = _cli(["mine", "--data", inputs.data_path, *thresholds,
                   "--out", pass_dir / "rules.jsonl"])
    impute_s = _cli(["impute", "--data", inputs.data_path, "--rules", pass_dir / "rules.jsonl",
                     "--k", workload.k, "--out", pass_dir / "completed.csv",
                     "--report", pass_dir / "report.json"])
    return {"total_s": time.perf_counter() - start, "mine_s": mine_s, "impute_s": impute_s}


def _bytes_written(pass_dir: Path) -> int:
    return sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())


def _mean(values):
    return sum(values) / len(values) if values else None


def score(inputs: Inputs, completed_grid: list) -> tuple[float | None, float | None]:
    """(categorical accuracy, numeric NRMSE) of the hidden cells.

    NRMSE is the RMSE over a numeric column's hidden cells divided by the
    range of their true values, averaged over the numeric columns; the two
    scores are never blended.
    """
    correct = total = 0
    numeric: dict[int, list] = {}
    for (row, column), true_text in inputs.truth.items():
        got = completed_grid[row][column]
        if inputs.kinds[column] == CATEGORICAL:
            total += 1
            correct += got == true_text
        else:
            numeric.setdefault(column, []).append((float(true_text), float(got)))
    per_column = []
    for pairs in numeric.values():
        truths = [t for t, _ in pairs]
        spread = max(truths) - min(truths)
        rmse = math.sqrt(sum((t - g) ** 2 for t, g in pairs) / len(pairs))
        per_column.append(rmse / spread if spread > 0 else (0.0 if rmse == 0 else math.inf))
    return (correct / total if total else None), _mean(per_column)


def check_masked(workload: Workload, inputs: Inputs, reference: list, pass_dir: Path):
    """Problems found in a mine + impute pass's files, and the scores read from them."""
    problems = []
    header, grid = _read_grid(pass_dir / "completed.csv")
    if header != inputs.header or len(grid) != len(inputs.grid):
        problems.append("completed CSV has another header or row count")
        grid = inputs.grid
    unfilled = changed = invalid = 0
    for row, (got_row, given_row) in enumerate(zip(grid, inputs.grid)):
        for column, (got, given) in enumerate(zip(got_row, given_row)):
            if (row, column) not in inputs.truth:
                changed += got != given
            elif got in (MARKER, ""):
                unfilled += 1
            elif inputs.kinds[column] == CATEGORICAL:
                invalid += got not in inputs.levels[column]
            else:
                try:
                    invalid += not math.isfinite(float(got))
                except ValueError:
                    invalid += 1
    for count, what in ((unfilled, "masked cells left unfilled"),
                        (changed, "known cells changed"),
                        (invalid, "imputed values outside the column's domain")):
        if count:
            problems.append(f"{count} {what}")

    report = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))
    totals = report["totals"]
    if totals["imputed"] != len(inputs.truth):
        problems.append(f"report imputed {totals['imputed']} cells, {len(inputs.truth)} masked")
    if totals["rules"] + totals["knn"] != totals["imputed"]:
        problems.append("report totals: rules + knn != imputed")

    with open(pass_dir / "rules.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rules = [json.loads(line) for line in lines[1:] if line.strip()]
    if rules != reference:
        problems.append(f"rule file holds {len(rules)} rules, not the {len(reference)} mined")

    accuracy, nrmse = score(inputs, grid)
    outcome = {
        "cells": len(inputs.truth),
        "categorical_accuracy": accuracy,
        "numeric_nrmse": nrmse,
        "rule_coverage": totals["rules"] / totals["imputed"] if totals["imputed"] else 0.0,
        "output_bytes": _bytes_written(pass_dir),
        "digest": hashlib.sha256((pass_dir / "completed.csv").read_bytes()).hexdigest(),
    }
    return problems, outcome


def check_sweep(workload: Workload, inputs: Inputs, pass_dir: Path):
    """Problems found in a bench pass's report, and the scores read from it."""
    problems = []
    out = pass_dir / "bench"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = report["rows"]
    expected = [(r / 100.0, m) for r in workload.sweep_rates for m in METHODS]
    if [(row["missing_rate"], row["method"]) for row in rows] != expected:
        problems.append("report rows are not one per (missing rate, method)")
    eligible = len(inputs.grid) * (len(inputs.header) - 1)  # the class is never masked
    for row in rows:
        if row["n_missing"] != round(row["missing_rate"] * eligible):
            problems.append(f"{row['n_missing']} cells masked at rate {row['missing_rate']}")
        accuracy = row["categorical_accuracy"]
        if accuracy is None or not 0.0 <= accuracy <= 1.0:
            problems.append(f"accuracy {accuracy!r} at rate {row['missing_rate']}")
        coverage = row["rule_coverage"]
        if not 0.0 <= coverage <= 1.0 or (row["method"] == "knn" and coverage != 0.0):
            problems.append(f"{row['method']} coverage {coverage!r}")
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        if len(list(csv.DictReader(fh))) != len(rows):
            problems.append("report.csv and report.json disagree on the row count")

    hybrid = [row for row in rows if row["method"] == "hmit"]
    outcome = {
        "cells": sum(row["n_missing"] for row in rows),
        "mine_s": sum(row["time_mine_s"] or 0.0 for row in rows),
        "impute_s": sum(row["time_impute_s"] for row in rows),
        "categorical_accuracy": _mean([row["categorical_accuracy"] or 0.0 for row in hybrid]),
        "numeric_nrmse": None,
        "rule_coverage": _mean([row["rule_coverage"] for row in hybrid]),
        "output_bytes": _bytes_written(pass_dir),
    }
    for row in rows:
        for name in BenchReport.TIMING_FIELDS:
            row[name] = None
    # the work directory differs from run to run
    report["spec"]["dataset_path"] = Path(report["spec"]["dataset_path"]).name
    # otherwise the same text BenchReport.to_json(timings=False) gives
    untimed = json.dumps(report, indent=2, sort_keys=True)
    outcome["digest"] = hashlib.sha256(untimed.encode("utf-8")).hexdigest()
    return problems, outcome


def check_pass(workload: Workload, inputs: Inputs, reference, pass_dir: Path):
    if workload.is_sweep:
        return check_sweep(workload, inputs, pass_dir)
    return check_masked(workload, inputs, reference, pass_dir)
