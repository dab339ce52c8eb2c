"""Benchmark sweeps: missing-rate, confidence and support curves plus timing.

Each sweep writes plain x/y .dat files (one per metric and method) next to a
JSON and CSV report, so any plotting tool can redraw the curves.
"""

import tempfile
from pathlib import Path

from rulefill import (
    ExperimentSpec,
    MiningParams,
    run_sweep,
    write_report_files,
)
from rulefill.sample_data import write_car_csv

work = Path(tempfile.mkdtemp())
csv_path = work / "car.csv"
write_car_csv(csv_path)

base = dict(
    dataset_path=str(csv_path),
    class_column="class",
    seed=7,
    mining=MiningParams(0.40, 0.60, min_support_count=40),
    k=10,
)

print("1) accuracy versus injected missing rate (both methods, paired masks)")
spec = ExperimentSpec(
    **base, sweep_axis="missing_rate", sweep_values=(0.05, 0.10, 0.20, 0.30)
)
report = run_sweep(spec)
for row in report.rows:
    print(
        f"    rate={row.sweep_value:.2f} {row.method:5s} "
        f"accuracy={row.categorical_accuracy:.4f} coverage={row.rule_coverage:.3f}"
    )

print("\n2) confidence sweep at a fixed 20% mask (hybrid only)")
spec = ExperimentSpec(
    **base,
    missing_rate=0.20,
    sweep_axis="confidence",
    sweep_values=(0.2, 0.4, 0.6, 0.8),
    methods=("hmit",),
)
for row in run_sweep(spec).rows:
    print(
        f"    confidence={row.sweep_value:.1f} rules={row.rule_count:5d} "
        f"coverage={row.rule_coverage:.3f} accuracy={row.categorical_accuracy:.4f}"
    )

print("\n3) support sweep at the same fixed mask: coverage can only shrink")
spec = ExperimentSpec(
    **base,
    missing_rate=0.20,
    sweep_axis="support",
    sweep_values=(0.01, 0.02, 0.05, 0.10),
    methods=("hmit",),
)
for row in run_sweep(spec).rows:
    print(
        f"    support={row.sweep_value:.2f} rules={row.rule_count:5d} "
        f"coverage={row.rule_coverage:.3f}"
    )

print("\n4) wall-clock comparison at 20% missing (mining timed separately)")
spec = ExperimentSpec(**base, missing_rate=0.20)
report = run_sweep(spec)
for row in report.rows:
    mine = f"{row.time_mine_s:.3f}s" if row.time_mine_s is not None else "-"
    print(f"    {row.method:5s} impute={row.time_impute_s:.3f}s mine={mine}")

out_dir = work / "bench_out"
written = write_report_files(report, out_dir)
print(f"\nwrote {len(written)} report files under {out_dir}")
for path in written:
    print("   ", path.name)
