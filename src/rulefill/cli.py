"""Command line: mine rules, impute a dataset, run benchmark sweeps.

Thresholds accept either percentages or fractions (a value above 1 is read
as a percent).  Exit codes: 0 success, 1 runtime or data error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .bench import ExperimentSpec, run_sweep, write_report_files
from .data import DataError, Dataset, fit_all_bins, load_csv, write_csv
from .imputer import impute_dataset, mine_rules
from .knn import KnnParams
from .mining import MiningParams
from .rules_io import check_compatible, read_rules, write_rules

DATA_DIR_ENV = "RULEFILL_DATA_DIR"


def _normalize(value: float) -> float:
    # "40" means 40 percent, "0.4" is already a fraction
    return value / 100.0 if value > 1.0 else value


def _threshold(text: str) -> float:
    try:
        value = _normalize(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"threshold out of range (0, 100]: {text!r}")
    return value


def _rate(text: str) -> float:
    try:
        value = _normalize(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"missing rate out of range [0, 100): {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _values_list(text: str) -> list[float]:
    """Comma list ("5,10,15") or inclusive range ("10..60" or "10..60:5")."""
    text = text.strip()
    if not text:
        raise argparse.ArgumentTypeError("empty sweep value list")
    if ".." in text:
        body, _, step_text = text.partition(":")
        lo_text, _, hi_text = body.partition("..")
        try:
            lo, hi = float(lo_text), float(hi_text)
            step = float(step_text) if step_text else 10.0
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range: {text!r}") from None
        if step <= 0 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad range: {text!r}")
        # lo + i*step, rounded, so "0..1:0.1" ends at 1.0 rather than
        # accumulating to 0.9999999999999999
        count = math.floor((hi - lo) / step + 1e-9) + 1
        return [round(lo + i * step, 10) for i in range(count)]
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value list: {text!r}") from None


def _methods_list(text: str) -> list[str]:
    methods = [part.strip() for part in text.split(",") if part.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("empty method list")
    for m in methods:
        if m not in ("hmit", "knn"):
            raise argparse.ArgumentTypeError(f"unknown method: {m!r}")
    return methods


def _resolve_data_path(path: str) -> str:
    if os.path.exists(path):
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _mining_params(args) -> MiningParams:
    return MiningParams(
        min_support=args.support,
        min_confidence=args.confidence,
        max_antecedent_len=args.max_antecedent_len,
        min_support_count=args.support_count,
    )


def _class_column(args, dataset_header_names) -> str | None:
    if args.no_class:
        return None
    if args.class_column is not None:
        return args.class_column
    if args.default_class_last:
        return dataset_header_names[-1]
    return None


def _echo_config(command: str, payload: dict) -> None:
    print("config: " + json.dumps({"command": command, **payload}, sort_keys=True))


def _add_common(parser, default_class_last=False):
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--marker", default="?", help="missing-value marker (default '?')")
    parser.add_argument("--support", type=_threshold, default=0.40,
                        help="minimum support, percent or fraction (default 40)")
    parser.add_argument("--support-count", type=_positive_int, default=None,
                        help="absolute minimum support count (overrides --support)")
    parser.add_argument("--confidence", type=_threshold, default=0.60,
                        help="minimum confidence, percent or fraction (default 60)")
    parser.add_argument("--max-antecedent-len", type=_positive_int, default=None,
                        help="cap on rule antecedent length")
    parser.add_argument("--bins", type=_positive_int, default=5,
                        help="bins per numeric attribute (default 5)")
    parser.add_argument("--bin-strategy", choices=("width", "frequency"),
                        default="frequency")
    parser.add_argument("--class-column", default=None,
                        help="name of the class column")
    parser.add_argument("--no-class", action="store_true",
                        help="treat no column as the class")
    parser.add_argument("--exclude-class", action="store_true",
                        help="drop the class column from mining and distances")
    parser.set_defaults(default_class_last=default_class_last)


def _load(args):
    path = _resolve_data_path(args.data)
    dataset = load_csv(path, args.marker)
    if dataset.n_records == 0:
        raise DataError("empty dataset")
    class_column = _class_column(args, [a.name for a in dataset.schema])
    if class_column is not None:
        dataset = Dataset(dataset.schema, dataset.records, class_column)
    return dataset


def _exclude(args, dataset):
    if args.exclude_class and dataset.class_index is not None:
        return frozenset([dataset.class_index])
    return frozenset()


def cmd_mine(args) -> int:
    dataset = _load(args)
    params = _mining_params(args)
    _echo_config("mine", {
        "data": args.data, "marker": args.marker,
        "class_column": dataset.class_column, "exclude_class": args.exclude_class,
        **asdict(params), "bins": args.bins, "bin_strategy": args.bin_strategy,
    })
    exclude = _exclude(args, dataset)
    bins = fit_all_bins(dataset, args.bins, args.bin_strategy, exclude)
    start = time.perf_counter()
    rules = mine_rules(dataset, params, bins, exclude)
    elapsed = time.perf_counter() - start
    out = args.out or (Path(args.data).stem + ".rules.jsonl")
    write_rules(out, rules, dataset, bins, params)
    print(f"mined {len(rules)} rules in {elapsed:.3f}s")
    print(f"rules written to {out}")
    return 0


def cmd_impute(args) -> int:
    dataset = _load(args)
    params = _mining_params(args)
    knn_params = KnnParams(k=args.k)
    _echo_config("impute", {
        "data": args.data, "marker": args.marker, "rules": args.rules,
        "class_column": dataset.class_column, "exclude_class": args.exclude_class,
        "k": args.k, **asdict(params), "bins": args.bins,
        "bin_strategy": args.bin_strategy,
    })
    exclude = _exclude(args, dataset)

    if args.rules:
        rule_file = read_rules(_resolve_data_path(args.rules))
        check_compatible(rule_file, dataset)
        rules, bins = rule_file.rules, rule_file.bins
        mined_params = rule_file.params
    else:
        bins = fit_all_bins(dataset, args.bins, args.bin_strategy, exclude)
        rules = mine_rules(dataset, params, bins, exclude)
        mined_params = params

    completed, report = impute_dataset(
        dataset, rules, knn_params, bins, exclude,
        parameters={
            "mining": asdict(mined_params) if mined_params else None,
            "bins": {dataset.schema[j].name: asdict(b) for j, b in sorted(bins.items())},
            "exclude_class": args.exclude_class,
        },
    )

    out = args.out or (Path(args.data).stem + ".imputed.csv")
    report_path = args.report or (Path(args.data).stem + ".impute_report.json")
    write_csv(completed, out, args.marker)
    payload = report.to_dict()
    Path(report_path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    totals = payload["totals"]
    print(f"imputed {totals['imputed']} cells "
          f"({totals['rules']} from rules, {totals['knn']} from knn)")
    print(f"completed dataset written to {out}")
    print(f"report written to {report_path}")
    return 0


def cmd_bench(args) -> int:
    dataset = _load(args)

    axis = args.sweep.replace("-", "_")
    values: tuple = ()
    if axis != "none":
        if not args.values:
            raise DataError("a sweep needs --values")
        values = tuple(_normalize(v) for v in args.values)

    spec = ExperimentSpec(
        dataset_path=_resolve_data_path(args.data),
        missing_marker=args.marker,
        class_column=dataset.class_column,
        missing_rate=args.missing_rate,
        seed=args.seed,
        mining=_mining_params(args),
        knn=KnnParams(k=args.k),
        n_bins=args.bins,
        bin_strategy=args.bin_strategy,
        sweep_axis=axis,
        sweep_values=values,
        methods=tuple(args.methods),
        exclude_class=args.exclude_class,
        inject_class=args.inject_class,
    )
    _echo_config("bench", asdict(spec))

    report = run_sweep(spec, dataset)
    written = write_report_files(report, args.out_dir)
    for row in report.rows:
        accuracy = "-" if row.categorical_accuracy is None else f"{row.categorical_accuracy:.4f}"
        print(
            f"{row.sweep_axis}={row.sweep_value} method={row.method} "
            f"accuracy={accuracy} coverage={row.rule_coverage:.4f} "
            f"impute_s={row.time_impute_s:.3f}"
        )
    print(f"reports written to {args.out_dir} ({len(written)} files)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulefill",
        description="Hybrid missing-value imputation: association rules with kNN fallback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine an association-rule set from a dataset")
    _add_common(mine)
    mine.add_argument("--out", default=None, help="rule file path (JSON lines)")
    mine.set_defaults(func=cmd_mine)

    impute = sub.add_parser("impute", help="fill every missing cell of a dataset")
    _add_common(impute)
    impute.add_argument("--rules", default=None, help="pre-mined rule file (else mined inline)")
    impute.add_argument("--k", type=_positive_int, default=10, help="neighbors (default 10)")
    impute.add_argument("--out", default=None, help="completed CSV path")
    impute.add_argument("--report", default=None, help="imputation report JSON path")
    impute.set_defaults(func=cmd_impute)

    bench = sub.add_parser("bench", help="inject missing values and compare imputers")
    _add_common(bench, default_class_last=True)
    bench.add_argument("--k", type=_positive_int, default=10, help="neighbors (default 10)")
    bench.add_argument("--missing-rate", type=_rate, default=0.20,
                       help="injected missing rate, percent or fraction (default 20)")
    bench.add_argument("--sweep", choices=("none", "missing-rate", "support", "confidence"),
                       default="none")
    bench.add_argument("--values", type=_values_list, default=None,
                       help="sweep values: '5,10,20' or '10..60[:step]'")
    bench.add_argument("--methods", type=_methods_list, default=["hmit", "knn"],
                       help="comma list from {hmit,knn} (default both)")
    bench.add_argument("--seed", type=int, default=0, help="mask seed (default 0)")
    bench.add_argument("--inject-class", action="store_true",
                       help="allow masking class-column cells")
    bench.add_argument("--out-dir", default="bench_out", help="report directory")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
