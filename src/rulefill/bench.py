"""Benchmark harness: seeded MCAR injection, paired imputation runs, and
missing-rate / support / confidence sweeps with accuracy, rule-coverage and
wall-clock reporting.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .binning import EQUAL_FREQUENCY, EQUAL_WIDTH
from .data import CATEGORICAL, DataError, Dataset, Record, load_csv, parse_number, fit_all_bins
from .imputer import impute_dataset, mine_rules
from .mining import MiningParams

METHOD_HYBRID = "hmit"
METHOD_KNN = "knn"
AXES = ("none", "missing_rate", "support", "confidence")


def inject_missing(dataset: Dataset, rate: float, seed: int,
                   exclude_class: bool = True):
    """Mask round(rate * eligible cells) cells uniformly at random.

    Eligible cells are the present cells, minus the class column when
    ``exclude_class`` is set; a cell missing already stays missing and is
    never in the truth map.  A cell whose removal would leave its record
    with no known value is skipped and another is drawn, so no record is
    ever emptied.  Returns (masked dataset, {(record id, attribute): truth}).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"missing rate must be in [0, 1), got {rate}")
    class_index = dataset.class_index if exclude_class else None
    records = list(dataset.records)
    cells = [
        (position, j)
        for position, record in enumerate(records)
        for j, cell in enumerate(record.cells)
        if j != class_index and cell is not None
    ]
    target = round(rate * len(cells))
    if target == 0:
        return dataset, {}

    random.Random(seed).shuffle(cells)
    remaining = [len(record.cells) - record.cells.count(None) for record in records]
    truth = {}
    for position, j in cells:
        if len(truth) == target:
            break
        if remaining[position] <= 1:
            continue  # redraw: never empty a record
        remaining[position] -= 1
        record = records[position]
        truth[record.id, j] = record.cells[j]
        records[position] = Record(record.id, record.cells[:j] + (None,) + record.cells[j + 1:])
    if len(truth) < target:
        raise DataError(
            f"cannot mask {target} cells without emptying a record "
            f"(only {len(truth)} maskable)"
        )
    return dataset._refilled(records), truth


@dataclass(frozen=True)
class EvalMetrics:
    categorical_accuracy: float | None
    numeric_nrmse: float | None
    n_cells: int
    n_categorical: int
    n_categorical_correct: int
    n_numeric: int


def evaluate(imputed: Dataset, truth: dict) -> EvalMetrics:
    """Score imputations against the ground-truth cell map.

    Categorical accuracy is the exact-match fraction.  Numeric error is the
    RMSE divided by the attribute's true-value range (from the truth map),
    averaged over the numeric attributes that had masked cells.  The two are
    never blended.
    """
    if not truth:
        raise ValueError("empty ground-truth map")

    n_cat = cat_correct = 0
    numeric_errors: dict[int, list[tuple[float, float]]] = {}
    for (record_id, j), true_value in truth.items():
        got = imputed.record_by_id(record_id).cells[j]
        if imputed.schema[j].kind == CATEGORICAL:
            n_cat += 1
            if got is not None and str(got) == str(true_value):
                cat_correct += 1
        else:
            truth_num = parse_number(true_value)
            got_num = parse_number(got)
            numeric_errors.setdefault(j, []).append((truth_num, got_num))

    accuracy = cat_correct / n_cat if n_cat else None

    nrmse = None
    n_num = sum(len(v) for v in numeric_errors.values())
    if numeric_errors:
        per_attribute = []
        for j, pairs in numeric_errors.items():
            truths = [t for t, _ in pairs]
            spread = max(truths) - min(truths)
            try:
                squares = sum((t - (math.inf if g is None else g)) ** 2 for t, g in pairs)
            except OverflowError:
                raise DataError(
                    f"numeric attribute {imputed.schema[j].name!r}: squared error overflows a float"
                ) from None
            rmse = math.sqrt(squares / len(pairs))
            if spread > 0:
                per_attribute.append(rmse / spread)
            else:
                per_attribute.append(0.0 if rmse == 0.0 else math.inf)
        nrmse = sum(per_attribute) / len(per_attribute)

    return EvalMetrics(accuracy, nrmse, len(truth), n_cat, cat_correct, n_num)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration, including the sweep to run."""

    dataset_path: str
    missing_marker: str = "?"
    class_column: str | None = None
    missing_rate: float = 0.20
    seed: int = 0
    mining: MiningParams = field(default_factory=MiningParams)
    k: int = 10  # kNN neighbours
    n_bins: int = 5
    bin_strategy: str = "frequency"
    sweep_axis: str = "none"
    sweep_values: tuple = ()
    methods: tuple[str, ...] = (METHOD_HYBRID, METHOD_KNN)
    exclude_class: bool = False  # drop the class column from evidence
    inject_class: bool = False   # allow masking class cells

    def __post_init__(self):
        if self.sweep_axis not in AXES:
            raise ValueError(f"unknown sweep axis: {self.sweep_axis!r}")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise ValueError("a sweep needs at least one value")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in (METHOD_HYBRID, METHOD_KNN):
                raise ValueError(f"unknown method: {m!r}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be at least 1, got {self.n_bins}")
        if self.bin_strategy not in (EQUAL_WIDTH, EQUAL_FREQUENCY):
            raise ValueError(f"unknown bin strategy: {self.bin_strategy!r}")
        rate_axis = self.sweep_axis == "missing_rate"
        for value in self.sweep_values if self.sweep_axis != "none" else ():
            if not (0.0 <= value < 1.0 if rate_axis else 0.0 < value <= 1.0):
                bounds = "[0, 1)" if rate_axis else "(0, 1]"
                raise ValueError(f"{self.sweep_axis} must be in {bounds}, got {value}")

    def to_dict(self) -> dict:
        """The spec as JSON-ready data, k written as ``knn``: ``{"distance": "heom", "k": k}``."""
        spec = asdict(self)
        spec["knn"] = {"distance": "heom", "k": spec.pop("k")}
        return spec


@dataclass
class BenchRow:
    position: int
    sweep_axis: str
    sweep_value: float | None
    method: str
    seed_used: int
    missing_rate: float
    min_support: float
    min_support_count: int | None
    min_confidence: float
    k: int
    n_missing: int
    rule_count: int | None
    rule_coverage: float
    categorical_accuracy: float | None
    numeric_nrmse: float | None
    # wall seconds, rounded to the microsecond
    time_mine_s: float | None
    time_impute_s: float


@dataclass
class BenchReport:
    spec: ExperimentSpec
    rows: list[BenchRow]

    TIMING_FIELDS = ("time_mine_s", "time_impute_s")  # the fields that vary from run to run

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(), "rows": [asdict(row) for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _resolved_point(spec: ExperimentSpec, value):
    """Missing rate and mining params for one sweep position."""
    rate, mining = spec.missing_rate, spec.mining
    if spec.sweep_axis == "missing_rate":
        rate = float(value)
    elif spec.sweep_axis == "support":
        mining = replace(mining, min_support=float(value), min_support_count=None)
    elif spec.sweep_axis == "confidence":
        mining = replace(mining, min_confidence=float(value))
    return rate, mining


def run_sweep(spec: ExperimentSpec, dataset: Dataset | None = None) -> BenchReport:
    """Run the configured sweep and return one report row per (value, method).

    The missing-rate axis draws a fresh mask per position (seed = spec.seed
    + position); support and confidence sweeps keep the mask drawn, and its
    bins fitted, at position 0, so coverage comparisons across thresholds are
    exact.  All methods at one position share the same mask; the hybrid mines
    its rules just before it imputes.
    """
    if dataset is None:
        dataset = load_csv(
            spec.dataset_path, spec.missing_marker, class_column=spec.class_column
        )
    exclude = frozenset(
        [dataset.class_index] if spec.exclude_class and dataset.class_index is not None else []
    )

    points = list(spec.sweep_values) if spec.sweep_axis != "none" else [None]
    rate_axis = spec.sweep_axis == "missing_rate"
    rows = []
    for position, value in enumerate(points):
        rate, mining = _resolved_point(spec, value)
        seed_used = spec.seed + position if rate_axis else spec.seed
        if rate_axis or position == 0:
            masked, truth = inject_missing(
                dataset, rate, seed_used, exclude_class=not spec.inject_class
            )
            bins = fit_all_bins(masked, spec.n_bins, spec.bin_strategy, exclude)

        for method in spec.methods:
            rules = time_mine = None
            if method == METHOD_HYBRID:
                start = time.perf_counter()
                rules = mine_rules(masked, mining, bins, exclude)
                time_mine = round(time.perf_counter() - start, 6)
            start = time.perf_counter()
            completed, report = impute_dataset(masked, rules or [], spec.k, bins, exclude)
            time_impute = time.perf_counter() - start
            metrics = evaluate(completed, truth) if truth else EvalMetrics(None, None, 0, 0, 0, 0)
            rows.append(
                BenchRow(
                    position=position,
                    sweep_axis=spec.sweep_axis,
                    sweep_value=None if value is None else float(value),
                    method=method,
                    seed_used=seed_used,
                    missing_rate=rate,
                    min_support=mining.min_support,
                    min_support_count=mining.min_support_count,
                    min_confidence=mining.min_confidence,
                    k=spec.k,
                    n_missing=len(truth),
                    rule_count=None if rules is None else len(rules),
                    rule_coverage=report.rule_coverage(),
                    categorical_accuracy=metrics.categorical_accuracy,
                    numeric_nrmse=metrics.numeric_nrmse,
                    time_mine_s=time_mine,
                    time_impute_s=round(time_impute, 6),
                )
            )
    return BenchReport(spec, rows)


CSV_COLUMNS = [f.name for f in fields(BenchRow)] + ["time_impute_plus_mine_s"]


def write_report_files(report: BenchReport, out_dir) -> list[Path]:
    """Write report.json, report.csv, and plain x/y plot data files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    json_path = out / "report.json"
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    written.append(json_path)

    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in report.rows:
            payload = asdict(row)
            # timing both ways: imputation alone, and with mining folded in
            payload["time_impute_plus_mine_s"] = round(
                row.time_impute_s + (row.time_mine_s or 0.0), 6
            )
            writer.writerow(payload)
    written.append(csv_path)

    if report.spec.sweep_axis != "none":
        metrics = ("categorical_accuracy", "numeric_nrmse", "rule_coverage", "time_impute_s")
        for metric in metrics:
            for method in report.spec.methods:
                points = [
                    (row.sweep_value, getattr(row, metric))
                    for row in report.rows
                    if row.method == method and getattr(row, metric) is not None
                ]
                if not points:
                    continue
                path = out / f"{metric}__{method}.dat"
                lines = [f"{x} {y}" for x, y in points]
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(path)
    return written
