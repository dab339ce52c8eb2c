"""Which program functions the traced run wraps, and the per-layer table.

Spans are named ``<module>.<function>`` after the layer that defines the
function.  Counts are taken by observers at the same boundaries.
"""

from __future__ import annotations

import os

from tracing import Target, outermost_time, summarize

MAX_LEVEL = 16  # the widest table has 16 columns, so no itemset is longer


def _knn_scan(tracer, args, result):
    imputer = args[0]
    dataset = imputer.dataset
    excluded = sum(1 for j in imputer.exclude if 0 <= j < dataset.n_attributes)
    tracer.add("knn.distance_terms", dataset.n_records * (dataset.n_attributes - excluded))


def _knn_impute(tracer, args, result):
    tracer.add("knn.cells")
    if not result[1]:
        tracer.add("knn.global_fallback")


def _frequent(tracer, args, result):
    tracer.add("mining.frequent_itemsets", len(result))
    for itemset in result:
        size = len(itemset.itemset)
        tracer.add(f"mining.frequent.L{size}")
        if size >= 2:
            tracer.add("mining.rule_candidates", size)


def _rules(tracer, args, result):
    tracer.add("mining.rules", len(result))


def _rules_written(tracer, args, result):
    tracer.add("rules_io.bytes", os.path.getsize(args[0]))


def _imputed(tracer, args, result):
    report = result[1]
    tracer.add("imputer.cells_rules", report.n_from_rules)
    tracer.add("imputer.cells_knn", report.n_from_knn)
    fired = [len(cell.rules) for cell in report.cells if cell.source == "rules"]
    tracer.add("imputer.fired_rules_total", sum(fired))
    tracer.counts["imputer.fired_rules_max"] = max(
        [tracer.counts.get("imputer.fired_rules_max", 0), *fired]
    )


TARGETS = (
    Target("rulefill.cli", "cmd_mine", "cli.mine"),
    Target("rulefill.cli", "cmd_impute", "cli.impute"),
    Target("rulefill.cli", "cmd_bench", "cli.bench"),
    Target("rulefill.data", "load_csv", "data.load_csv"),
    Target("rulefill.data", "write_csv", "data.write_csv"),
    Target("rulefill.data", "fit_all_bins", "data.fit_all_bins"),
    Target("rulefill.data", "Dataset.itemize_all", "data.itemize_all"),
    Target("rulefill.data", "Dataset.replace_cells", "data.replace_cells"),
    Target("rulefill.mining", "mine_frequent", "mining.mine_frequent", _frequent),
    Target("rulefill.mining", "generate_rules", "mining.generate_rules", _rules),
    Target("rulefill.mining", "index_rules", "mining.index_rules"),
    Target("rulefill.rules_io", "write_rules", "rules_io.write_rules", _rules_written),
    Target("rulefill.rules_io", "read_rules", "rules_io.read_rules"),
    Target("rulefill.rules_io", "check_compatible", "rules_io.check_compatible"),
    Target("rulefill.imputer", "impute_dataset", "imputer.impute_dataset", _imputed),
    Target("rulefill.imputer", "impute_from_rules", "imputer.impute_from_rules"),
    Target("rulefill.imputer", "ImputationReport.to_dict", "imputer.report_to_dict"),
    Target("rulefill.knn", "KnnImputer.__init__", "knn.init"),
    Target("rulefill.knn", "KnnImputer.squared_distances", "knn.squared_distances", _knn_scan),
    Target("rulefill.knn", "KnnImputer.neighbors", "knn.neighbors"),
    Target("rulefill.knn", "KnnImputer.impute", "knn.impute", _knn_impute),
    Target("rulefill.bench", "inject_missing", "bench.inject_missing"),
    Target("rulefill.bench", "evaluate", "bench.evaluate"),
    Target("rulefill.bench", "run_sweep", "bench.run_sweep"),
    Target("rulefill.bench", "write_report_files", "bench.write_report_files"),
)

# (metric, unit): the per-layer table, in BENCHMARK.json order.
METRICS = (
    ("knn.s", "s"),
    ("knn.init.s", "s"),
    ("knn.squared_distances.s", "s"),
    ("knn.squared_distances.calls", "count"),
    ("knn.neighbors.s", "s"),
    ("knn.impute.self_s", "s"),
    ("knn.cells", "count"),
    ("knn.scans_per_cell", "ratio"),
    ("knn.global_fallback", "count"),
    ("knn.distance_terms", "count"),
    ("imputer.impute_dataset.s", "s"),
    ("imputer.impute_dataset.self_s", "s"),
    ("imputer.impute_from_rules.s", "s"),
    ("imputer.impute_from_rules.calls", "count"),
    ("imputer.cells_rules", "count"),
    ("imputer.cells_knn", "count"),
    ("imputer.fired_rules_total", "count"),
    ("imputer.fired_rules_max", "count"),
    ("imputer.rule_cells_per_s", "1/s"),
    ("imputer.report_to_dict.s", "s"),
    ("mining.mine_frequent.s", "s"),
    ("mining.generate_rules.s", "s"),
    ("mining.index_rules.s", "s"),
    ("mining.frequent_itemsets", "count"),
    *((f"mining.frequent.L{size}", "count") for size in range(1, MAX_LEVEL + 1)),
    ("mining.rules", "count"),
    ("mining.rule_yield", "ratio"),
    ("rules_io.write_rules.s", "s"),
    ("rules_io.read_rules.s", "s"),
    ("rules_io.check_compatible.s", "s"),
    ("rules_io.bytes", "bytes"),
    ("cli.mine.self_s", "s"),
    ("cli.impute.self_s", "s"),
    ("cli.bench.self_s", "s"),
    ("bench.inject_missing.s", "s"),
    ("bench.evaluate.s", "s"),
    ("bench.run_sweep.self_s", "s"),
    ("bench.write_report_files.s", "s"),
    ("data.load_csv.s", "s"),
    ("data.write_csv.s", "s"),
    ("data.fit_all_bins.s", "s"),
    ("data.itemize_all.s", "s"),
    ("data.replace_cells.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """One traced pass's per-layer table (every METRICS name but trace.overhead_frac).

    A span that never ran reads 0.
    """
    table = summarize(tracer.spans)
    count = tracer.counts.get
    metrics = {}
    for name, _ in METRICS:
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls") and base in table:
            metrics[name] = table[base][field]
        else:
            metrics[name] = count(name, 0)
    metrics["knn.s"] = outermost_time(tracer.spans, "knn.")
    metrics["knn.scans_per_cell"] = _ratio(
        metrics["knn.squared_distances.calls"], metrics["knn.cells"]
    )
    metrics["imputer.rule_cells_per_s"] = _ratio(
        metrics["imputer.cells_rules"],
        metrics["imputer.impute_dataset.self_s"] + metrics["mining.index_rules.s"]
        + metrics["imputer.impute_from_rules.s"],
    )
    metrics["mining.rule_yield"] = _ratio(
        metrics["mining.rules"], count("mining.rule_candidates", 0)
    )
    del metrics["trace.overhead_frac"]
    return metrics
