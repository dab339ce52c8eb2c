"""Repeat acceptance criterion 6's timing in isolated trials and summarise it.

Criterion 6 (``tests/test_acceptance.py``) times hybrid imputation against
kNN-only imputation once, so a single run says little about the ratio
between them.  This script runs the same procedure in N fresh interpreters,
one after another: the sample car table, a 20% mask with seed 11, rules
mined at ``MiningParams(0.40, 0.40, min_support_count=40)``, k = 10, one
warm-up call per side, then the best of 3 calls per side.  It prints both
best times of each trial in microseconds, then the median hybrid/kNN ratio,
its quartiles and how many ratios are above 1 (trials criterion 6 would
fail).

Run it from a checkout with the package importable, for example::

    PYTHONPATH=src python tools/criterion6_trials.py --trials 48
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def trial(csv_path: str) -> None:
    """Criterion 6's procedure; prints the best hybrid and kNN-only times in microseconds."""
    from rulefill import MiningParams, impute_dataset, inject_missing, load_csv, mine_rules

    probe = load_csv(csv_path, "?")
    dataset = load_csv(csv_path, "?", class_column=probe.schema[-1].name)
    masked, _ = inject_missing(dataset, 0.20, seed=11)
    rules = mine_rules(masked, MiningParams(0.40, 0.40, min_support_count=40))
    _, report = impute_dataset(masked, rules, k=10)
    if report.rule_coverage() == 0.0:
        sys.exit("no rule fired: the comparison is vacuous")

    def best_of(run, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        return best

    impute_dataset(masked, rules, k=10)  # warm both paths
    impute_dataset(masked, [], k=10)
    time_hybrid = best_of(lambda: impute_dataset(masked, rules, k=10))
    time_knn = best_of(lambda: impute_dataset(masked, [], k=10))
    print(round(time_hybrid * 1e6), round(time_knn * 1e6))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=48,
                        help="fresh interpreters, at least 2 (default 48)")
    parser.add_argument("--trial", metavar="CSV", help=argparse.SUPPRESS)  # one trial's child
    args = parser.parse_args(argv)
    if args.trial:
        trial(args.trial)
        return 0
    if args.trials < 2:
        parser.error("--trials must be at least 2")

    from rulefill.sample_data import write_car_csv

    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = str(Path(tmp) / "car.csv")
        write_car_csv(csv_path)
        for i in range(args.trials):
            out = subprocess.run([sys.executable, __file__, "--trial", csv_path],
                                 capture_output=True, text=True, check=True).stdout
            hybrid_us, knn_us = map(int, out.split())
            ratios.append(hybrid_us / knn_us)
            print(f"trial {i + 1:3d}: hybrid {hybrid_us} us, knn {knn_us} us, "
                  f"ratio {ratios[-1]:.3f}", flush=True)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    above = sum(r > 1.0 for r in ratios)
    print(f"median hybrid/knn ratio {median:.3f} (quartiles {q1:.3f}-{q3:.3f}); "
          f"{above} of {len(ratios)} above 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
