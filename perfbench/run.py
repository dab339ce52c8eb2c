#!/usr/bin/env python3
"""rulefill benchmark: run one workload's CLI workflow for a fixed time.

    python3 perfbench/run.py --workload car4x-knn --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``rulefill`` from its
``src/``.  Set-up imports the package and writes the workload's input files
(several times, in fresh processes, to report a median).  Then passes of the
workflow run back to back until ``--seconds`` have passed (at least three),
each in its own directory with a garbage collection before it, and every
pass's files are checked.  Every timing is put on one host-speed scale
(``speed.py``): a fixed calibration unit runs before set-up and after each
pass, and a wall time is multiplied by the reference unit time over the
mean unit time measured around it.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` spends half the time untraced and half with spans around the
program's public functions, and prints the per-layer table with the tracing
overhead.  Human-readable lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = 4
MIN_PASSES = 3
TIMINGS = ("total_s", "mine_s", "impute_s")  # a pass's timings, scaled by on_scale

END_TO_END = (
    ("total_s", "s"),
    ("impute_s", "s"),
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
    ("categorical_accuracy", "ratio"),
    ("rule_coverage", "ratio"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", type=Path, default=None,
                        help="time one set-up into DIR in this process, print it and exit")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside a git work tree."""
    head_path = ROOT / ".git" / "HEAD"
    try:
        head = head_path.read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = ROOT / ".git" / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        return next(line.split()[0] for line in packed.splitlines()
                    if line.endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def on_scale(record: dict, factor: float, layer_metrics) -> None:
    """Multiply a pass's timings by the host-speed ``factor``; keep its wall time."""
    if "total_s" not in record:  # the pass raised before it was timed
        return
    record["wall_s"] = record["total_s"]
    record["factor"] = factor
    for name in TIMINGS:
        if name in record:
            record[name] *= factor
    record["cells_per_s"] = record["cells"] / record["total_s"]
    table = record.get("layers", {})
    for name, unit in layer_metrics:
        if name in table and unit == "s":
            table[name] *= factor
        elif name in table and unit == "1/s":
            table[name] /= factor


class Bench:
    """One workload's inputs, its reference outputs, and the passes run on them.

    It times the calibration unit when made and again by ``calibrate``; each
    timing is scaled by the mean of the two calibrations around it.
    """

    def __init__(self, workloads, layers, speed, workload, seed, work_dir):
        self.workloads, self.layers, self.speed = workloads, layers, speed
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.inputs = None
        self.reference = None
        self.digest = None
        self.passes = 0
        self.absent: set[str] = set()
        self.units = [speed.unit_seconds()]  # also warms the CPU up before timing

    def calibrate(self) -> float:
        """Time the calibration unit again; the scale factor since the last time."""
        self.units.append(self.speed.unit_seconds())
        return self.speed.factor(self.units[-2], self.units[-1])

    def set_up(self, import_s: float) -> float:
        """Generate the inputs here and in fresh processes; median set-up seconds."""
        start = time.perf_counter()
        self.inputs = self.workloads.generate(self.workload, self.seed, self.work_dir)
        samples = [import_s + time.perf_counter() - start]
        for index in range(SETUP_PROBES):
            probe_dir = self.work_dir / f"setup-{index}"
            probe_dir.mkdir()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-probe", str(probe_dir),
                 "--workload", self.workload.name, "--seed", str(self.seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(done.stdout.split()[-1]))
        if not self.workload.is_sweep:
            self.reference = self.workloads.reference_rules(self.workload, self.inputs)
        if self.workload == self.workloads.WORKLOADS.get(self.workload.name) \
                and self.seed == DEFAULT_SEED:
            expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
            self.digest = expected.get(self.workload.name)
        return median(samples)

    def one_pass(self, tracer=None) -> dict:
        """Run and check one pass; its record, with ``problems`` empty when it passed."""
        gc.collect()
        pass_dir = self.work_dir / f"pass-{self.passes}"
        self.passes += 1
        try:
            if tracer is None:
                timing = self.workloads.run_pass(self.workload, self.inputs, self.seed, pass_dir)
            else:
                tracer.reset()
                with tracer.installed(self.layers.TARGETS):
                    timing = self.workloads.run_pass(
                        self.workload, self.inputs, self.seed, pass_dir
                    )
                self.absent.update(tracer.absent)
                timing["layers"] = self.layers.layer_metrics(tracer)
            problems, outcome = self.workloads.check_pass(
                self.workload, self.inputs, self.reference, pass_dir
            )
        except Exception:  # a pass that crashes counts as failed; the run goes on
            traceback.print_exc()
            return {"problems": ["pass raised"]}
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if self.digest is None and not problems:
            self.digest = outcome["digest"]
        if outcome["digest"] != self.digest:
            problems.append("output digest differs from the recorded one")
        record = {**outcome, **timing, "problems": problems}
        for problem in problems:
            print(f"pass {self.passes - 1} failed: {problem}", file=sys.stderr)
        return record

    def measure(self, seconds: float, min_passes: int, tracer=None) -> list[dict]:
        records = []
        start = time.perf_counter()
        while len(records) < min_passes or time.perf_counter() - start < seconds:
            record = self.one_pass(tracer)
            on_scale(record, self.calibrate(), self.layers.METRICS)
            records.append(record)
        return records


def end_to_end(good: list[dict], setup_s: float) -> dict[str, float]:
    values = {name: median([r[name] for r in good])
              for name, _ in END_TO_END if name not in ("setup_s", "peak_rss_mb")}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    # so that a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rulefill" / "__init__.py").is_file():
        print(f"error: no rulefill sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rulefill
    import layers
    import speed
    import tracing
    import workloads
    import_s = time.perf_counter() - start
    if Path(rulefill.__file__).resolve().parent != (SRC / "rulefill").resolve():
        print(f"error: imported rulefill from {rulefill.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        start = time.perf_counter()
        workloads.generate(workload, args.seed, args.setup_probe)
        print(import_s + time.perf_counter() - start)
        return 0

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(workloads, layers, speed, workload, args.seed, work_dir)
        setup_s = bench.set_up(import_s) * bench.calibrate()
        if args.trace:
            plain = bench.measure(args.seconds / 2, 2)
            traced = bench.measure(args.seconds / 2, 2, tracing.Tracer())
            records = plain + traced
        else:
            records = bench.measure(args.seconds, MIN_PASSES)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    good = [r for r in records if not r["problems"]]
    failed = len(records) - len(good)
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"host speed: calibration unit median {median(bench.units)} s over "
          f"{len(bench.units)} calibrations; reference {speed.REFERENCE_UNIT_S} s")
    print(f"workload {workload.name}: {len(records)} passes, {failed} failed, "
          f"failed_frac {failed / len(records)}, output digest {bench.digest}")
    for index, record in enumerate(records):
        timings = " ".join(f"{name} {record[name]:.4f}" for name in (*TIMINGS, "wall_s", "factor")
                           if name in record)
        print(f"  pass {index}{' traced' if 'layers' in record else ''}: {timings}")
    if args.trace:
        metrics = per_layer(bench, plain, traced)
    else:
        values = end_to_end(good, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        # printed, not gated: mine_s is too short on the car workloads to be
        # steady, and numeric_nrmse exists on crx-rules only
        print(f"  mine_s {median([r['mine_s'] for r in good])} s")
        nrmse = [r["numeric_nrmse"] for r in good if r["numeric_nrmse"] is not None]
        if nrmse:
            print(f"  numeric_nrmse {median(nrmse)} ratio")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer(bench, plain: list[dict], traced: list[dict]) -> dict:
    plain_good = [r for r in plain if not r["problems"]]
    traced_good = [r for r in traced if not r["problems"]]
    plain_total = median([r["total_s"] for r in plain_good])
    traced_total = median([r["total_s"] for r in traced_good])
    values = {
        name: median([r["layers"][name] for r in traced_good])
        for name, _ in bench.layers.METRICS if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = traced_total / plain_total - 1.0 if plain_total else 0.0
    impute_s = median([r["impute_s"] for r in traced_good])
    print(f"  knn spans: {values['knn.s']} s of impute_s {impute_s} s "
          f"and total_s {traced_total} s (traced)")
    if bench.absent:
        print("  absent from the program: " + ", ".join(sorted(bench.absent)))
    return {name: {"value": values[name], "unit": unit} for name, unit in bench.layers.METRICS}


if __name__ == "__main__":
    sys.exit(main())
