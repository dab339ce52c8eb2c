"""Tests of the benchmark's own helpers: generation, tracing and small passes.

Run from the repository root: python -m pytest perfbench/tests
"""

from dataclasses import replace

import pytest

import rulefill
import rulefill.bench
import rulefill.cli
import rulefill.imputer
from rulefill.knn import KnnImputer

import layers
import workloads
from tracing import Target, Tracer, self_times, summarize

SMALL = {
    "car4x-knn": dict(rows=400, support_count=10),
    "crx-rules": dict(rows=150, support_count=10),
    "car-sweep": dict(rows=200, support_count=10, sweep_rates=(10, 20)),
}


def small(name):
    return replace(workloads.WORKLOADS[name], name=name + "-small", **SMALL[name])


@pytest.mark.parametrize("name", ["car4x-knn", "crx-rules"])
def test_generation_is_deterministic_for_a_seed(tmp_path, name):
    workload = small(name)
    runs = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / label).mkdir()
        inputs = workloads.generate(workload, seed, tmp_path / label)
        runs[label] = (inputs.data_path.read_bytes(), inputs.truth)
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]
    assert len(runs["a"][1]) == len(runs["c"][1]) > 0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["child", 1.0, 3.0, 0],
        ["child", 2.0, 5.0, 0],       # overlaps the first child
        ["child", 8.0, 12.0, 0],      # runs past the parent's end
        ["grandchild", 1.5, 2.5, 1],  # covered by its own parent, not ours
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_summary_counts_a_recursive_name_once():
    spans = [
        ["f", 0.0, 6.0, None],
        ["f", 1.0, 4.0, 0],
        ["g", 4.0, 5.0, 0],
    ]
    table = summarize(spans)
    assert table["f"] == pytest.approx({"s": 6.0, "self_s": 2.0 + 3.0, "calls": 2})
    assert table["g"] == pytest.approx({"s": 1.0, "self_s": 1.0, "calls": 1})


def test_wrappers_patch_every_lookup_site_and_restore_the_originals():
    impute_dataset = rulefill.imputer.impute_dataset
    neighbors = KnnImputer.__dict__["neighbors"]
    targets = (
        *layers.TARGETS,
        Target("rulefill.mining", "no_such_function", "mining.gone"),
        Target("rulefill.knn", "KnnImputer.no_such_method", "knn.gone"),
    )
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert rulefill.cli.impute_dataset is not impute_dataset
            assert rulefill.bench.impute_dataset is rulefill.cli.impute_dataset
            assert KnnImputer.__dict__["neighbors"] is not neighbors
            raise RuntimeError("leaves the block early")
    assert tracer.absent == [
        "rulefill.mining.no_such_function",
        "rulefill.knn.KnnImputer.no_such_method",
    ]
    assert rulefill.cli.impute_dataset is impute_dataset
    assert rulefill.bench.impute_dataset is impute_dataset
    assert rulefill.impute_dataset is impute_dataset
    assert KnnImputer.__dict__["neighbors"] is neighbors


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_pass_of_each_workload_passes_its_checks(tmp_path, name):
    workload = small(name)
    inputs = workloads.generate(workload, 1, tmp_path)
    reference = None if workload.is_sweep else workloads.reference_rules(workload, inputs)
    digests = []
    for index, tracer in enumerate((None, Tracer())):
        pass_dir = tmp_path / f"pass-{index}"
        if tracer is None:
            workloads.run_pass(workload, inputs, 1, pass_dir)
        else:
            with tracer.installed(layers.TARGETS):
                workloads.run_pass(workload, inputs, 1, pass_dir)
            table = layers.layer_metrics(tracer)
            assert set(table) == {m for m, _ in layers.METRICS} - {"trace.overhead_frac"}
            assert table["knn.cells"] > 0
        problems, outcome = workloads.check_pass(workload, inputs, reference, pass_dir)
        assert problems == []
        assert 0.0 < outcome["categorical_accuracy"] <= 1.0
        digests.append(outcome["digest"])
    assert digests[0] == digests[1]


def test_checks_catch_a_changed_known_cell(tmp_path):
    workload = small("car4x-knn")
    inputs = workloads.generate(workload, 1, tmp_path)
    reference = workloads.reference_rules(workload, inputs)
    pass_dir = tmp_path / "pass"
    workloads.run_pass(workload, inputs, 1, pass_dir)
    completed = pass_dir / "completed.csv"
    lines = completed.read_text(encoding="utf-8").splitlines()
    row = next(i for i in range(len(inputs.grid))
               if all((i, j) not in inputs.truth for j in range(len(inputs.header))))
    cells = lines[row + 1].split(",")
    cells[0] = "low" if cells[0] != "low" else "high"
    lines[row + 1] = ",".join(cells)
    completed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems, _ = workloads.check_pass(workload, inputs, reference[:-1], pass_dir)
    assert "1 known cells changed" in problems
    assert any(p.startswith("rule file holds") for p in problems)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.METRICS)


def test_timings_are_put_on_the_host_speed_scale_and_keep_their_wall_time():
    import run
    import speed

    half_speed = speed.factor(2 * speed.REFERENCE_UNIT_S, 2 * speed.REFERENCE_UNIT_S)
    assert half_speed == pytest.approx(0.5)
    record = {"total_s": 2.0, "impute_s": 1.5, "cells": 100, "problems": [],
              "layers": {"knn.s": 1.0, "imputer.rule_cells_per_s": 10.0, "knn.cells": 7}}
    run.on_scale(record, half_speed, layers.METRICS)
    assert record["total_s"] == pytest.approx(1.0)
    assert record["impute_s"] == pytest.approx(0.75)
    assert record["wall_s"] == 2.0
    assert record["cells_per_s"] == pytest.approx(100.0)
    assert record["layers"] == pytest.approx(
        {"knn.s": 0.5, "imputer.rule_cells_per_s": 20.0, "knn.cells": 7}
    )
    raised = {"problems": ["pass raised"]}
    run.on_scale(raised, half_speed, layers.METRICS)
    assert raised == {"problems": ["pass raised"]}
    assert 0.0 < speed.unit_seconds(0.01) < 1.0
