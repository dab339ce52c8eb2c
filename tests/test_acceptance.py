"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The car/credit fixtures use the bundled synthetic stand-ins unless
RULEFILL_DATA_DIR points at real benchmark CSVs (header row required).
"""

import json
import random
import statistics
import time

import numpy as np
import pytest

from rulefill import (
    ExperimentSpec,
    KnnParams,
    MiningParams,
    SOURCE_RULES,
    evaluate,
    fit_all_bins,
    generate_rules,
    impute_dataset,
    inject_missing,
    mine_frequent,
    mine_rules,
    run_sweep,
)
from rulefill.knn import KnnImputer
from oracles import (
    as_sorted_tuples,
    brute_force_frequent,
    brute_force_rules,
    fired_rules,
    oracle_fired,
    oracle_itemize,
    oracle_knn_value,
    oracle_neighbors,
    random_dataset,
    random_itemized_db,
    support_count,
    tidsets_of,
)

SUPPORT = 0.40      # benchmark defaults: 40% support, 60% confidence, k=10
CONFIDENCE = 0.60
K = 10


def check_downward_closure_and_thresholds(db, params):
    frequents = mine_frequent(*tidsets_of(db), params)
    reported = {f.itemset for f in frequents}
    n = len(db)
    for f in frequents:
        if len(f.itemset) > 1:
            for item in f.itemset:
                assert tuple(i for i in f.itemset if i != item) in reported, (
                    "downward closure violated")
        count = support_count(f.itemset, db)
        assert count == f.support_count
        if params.min_support_count is not None:
            assert count >= params.min_support_count
        else:
            assert count / n >= params.min_support
    for r in generate_rules(frequents, params):
        joint = support_count({*r.antecedent, r.consequent}, db)
        base = support_count(r.antecedent, db)
        assert r.support == joint / n
        assert r.confidence == joint / base >= params.min_confidence
    return frequents


def test_criterion_1_and_2_mining_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260811)
    checked = 0
    for _ in range(100):
        db = random_itemized_db(rng, max_attrs=4, max_levels=3, max_records=40)
        params = MiningParams(
            min_support=rng.choice([0.1, 0.2, 0.3, 0.4, 0.6]),
            min_confidence=rng.choice([0.3, 0.5, 0.7, 0.9]),
        )
        frequents = check_downward_closure_and_thresholds(db, params)
        got = [(f.itemset, f.support_count, f.support) for f in frequents]
        assert got == as_sorted_tuples(brute_force_frequent(db, params)), (
            "frequent itemsets differ")
        rules = generate_rules(frequents, params)
        got_rules = [(r.antecedent, r.consequent, r.support, r.confidence) for r in rules]
        assert got_rules == as_sorted_tuples(brute_force_rules(db, params)), "rule sets differ"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 100/100 random databases match brute force ({elapsed:.1f}s)")
    print("ACCEPTANCE 2 PASS: downward closure and threshold invariants exact on every output")


def test_criterion_3_accuracy_falls_with_missing_rate(car_dataset):
    start = time.perf_counter()
    levels = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    seeds = range(1, 6)
    params = MiningParams(SUPPORT, CONFIDENCE)
    mean_hybrid, mean_knn = {}, {}
    for rate in levels:
        hybrid_accs, knn_accs = [], []
        for seed in seeds:
            masked, truth = inject_missing(car_dataset, rate, seed)
            rules = mine_rules(masked, params)
            completed, _ = impute_dataset(masked, rules, KnnParams(K))
            hybrid_accs.append(evaluate(completed, truth).categorical_accuracy)
            completed, _ = impute_dataset(masked, [], KnnParams(K))
            knn_accs.append(evaluate(completed, truth).categorical_accuracy)
        mean_hybrid[rate] = statistics.mean(hybrid_accs)
        mean_knn[rate] = statistics.mean(knn_accs)
    elapsed = time.perf_counter() - start

    assert mean_hybrid[0.30] < mean_hybrid[0.05], (
        f"hybrid accuracy did not fall: {mean_hybrid[0.30]:.4f} vs {mean_hybrid[0.05]:.4f}"
    )
    assert mean_knn[0.30] < mean_knn[0.05], (
        f"knn accuracy did not fall: {mean_knn[0.30]:.4f} vs {mean_knn[0.05]:.4f}"
    )
    for rate in levels:
        assert mean_hybrid[rate] >= mean_knn[rate] - 0.02, (
            f"hybrid below knn slack at {rate:.0%}: "
            f"{mean_hybrid[rate]:.4f} vs {mean_knn[rate]:.4f}"
        )
    assert elapsed < 300.0, f"trend run took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 3 PASS: mean accuracy falls {mean_hybrid[0.05]:.4f} -> "
        f"{mean_hybrid[0.30]:.4f} (hybrid) and {mean_knn[0.05]:.4f} -> "
        f"{mean_knn[0.30]:.4f} (knn); hybrid >= knn - 0.02 at all 6 levels ({elapsed:.0f}s)"
    )


def test_criterion_4_coverage_monotone_in_support(car_dataset):
    masked, truth = inject_missing(car_dataset, 0.20, seed=1)
    sweeps = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60)
    coverages = []
    for support in sweeps:
        rules = mine_rules(masked, MiningParams(support, CONFIDENCE))
        _, report = impute_dataset(masked, rules, KnnParams(K))
        coverages.append(report.rule_coverage())
    for lower, higher in zip(coverages, coverages[1:]):
        assert higher <= lower, f"coverage rose along support sweep: {coverages}"

    # the 10..60% band can sit at zero coverage; repeat on a low-support band
    # where rules demonstrably fire so the monotonicity is exercised non-vacuously
    low_band = (0.01, 0.02, 0.03)
    low_cov = []
    for support in low_band:
        rules = mine_rules(masked, MiningParams(support, CONFIDENCE))
        _, report = impute_dataset(masked, rules, KnnParams(K))
        low_cov.append(report.rule_coverage())
    assert low_cov[0] > 0.0, "no coverage anywhere; monotonicity check is vacuous"
    for lower, higher in zip(low_cov, low_cov[1:]):
        assert higher <= lower
    print(
        f"\nACCEPTANCE 4 PASS: coverage non-increasing over support "
        f"10..60% {coverages} and 1..3% {['%.3f' % c for c in low_cov]}"
    )


def test_criterion_5_confidence_raises_rule_cell_accuracy(car_dataset):
    # support read as an absolute count of 40: the fractional reading leaves
    # zero rules on this dataset, which would make the comparison vacuous
    seeds = range(1, 6)
    means = {}
    for confidence in (0.20, 0.70):
        per_seed = []
        for seed in seeds:
            masked, truth = inject_missing(car_dataset, 0.20, seed)
            rules = mine_rules(
                masked, MiningParams(SUPPORT, confidence, min_support_count=40)
            )
            _, report = impute_dataset(masked, rules, KnnParams(K))
            rule_cells = [c for c in report.cells if c.source == SOURCE_RULES]
            assert rule_cells, f"no rule-sourced cells at confidence {confidence}"
            correct = sum(
                1
                for c in rule_cells
                if str(c.value) == str(truth[(c.record_id, c.attribute)])
            )
            per_seed.append(correct / len(rule_cells))
        means[confidence] = statistics.mean(per_seed)
    assert means[0.70] >= means[0.20], (
        f"rule-cell accuracy fell with confidence: {means}"
    )
    print(
        f"\nACCEPTANCE 5 PASS: mean rule-sourced accuracy {means[0.20]:.4f} at 20% "
        f"confidence vs {means[0.70]:.4f} at 70%"
    )


def test_criterion_6_hybrid_imputation_no_slower_than_knn(car_dataset):
    # pre-mined rule set at a coverage-bearing regime (support count 40,
    # confidence 40%); at zero coverage the two methods are the same work
    masked, _ = inject_missing(car_dataset, 0.20, seed=11)
    t0 = time.perf_counter()
    rules = mine_rules(masked, MiningParams(SUPPORT, 0.40, min_support_count=40))
    time_mine = time.perf_counter() - t0
    _, report = impute_dataset(masked, rules, KnnParams(K))
    assert report.rule_coverage() > 0.0, "regime fired no rules; timing claim vacuous"

    def best_of(run, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        return best

    impute_dataset(masked, rules, KnnParams(K))  # warm both paths
    impute_dataset(masked, [], KnnParams(K))
    time_hybrid = best_of(lambda: impute_dataset(masked, rules, KnnParams(K)))
    time_knn = best_of(lambda: impute_dataset(masked, [], KnnParams(K)))

    assert time_hybrid <= time_knn, (
        f"hybrid imputation slower than knn: {time_hybrid:.3f}s vs {time_knn:.3f}s"
    )
    print(
        f"\nACCEPTANCE 6 PASS: imputation {time_hybrid:.3f}s (hybrid) vs "
        f"{time_knn:.3f}s (knn) excluding mining; {time_hybrid + time_mine:.3f}s "
        f"including mining; coverage {report.rule_coverage():.3f}"
    )


def test_criterion_7_knn_oracle_exact():
    rng = random.Random(424242)
    datasets = 0
    while datasets < 50:
        categorical_only = datasets % 2 == 0
        ds = random_dataset(rng, max_records=200, allow_numeric=not categorical_only)
        k = rng.randint(1, 12)
        knn = KnnImputer(ds, KnnParams(k))
        probes = 0
        for record in ds.records:
            for attribute in range(ds.n_attributes):
                if record.cells[attribute] is not None:
                    continue
                if not any(
                    r.cells[attribute] is not None
                    for r in ds.records
                    if r.id != record.id
                ):
                    continue
                [(value, ids)] = knn._impute(
                    np.array([ds._position_of[record.id]]), np.array([attribute])
                )
                assert list(ids) == oracle_neighbors(
                    ds, record, attribute, k
                ), "neighbor selection differs from exhaustive sort"
                assert value == oracle_knn_value(ds, record, attribute, k), (
                    "vote/mean differs from oracle"
                )
                probes += 1
                if probes >= 12:
                    break
            if probes >= 12:
                break
        datasets += 1
    print(f"\nACCEPTANCE 7 PASS: neighbor selection and votes exact on {datasets} datasets")


def test_criterion_8_bench_determinism(car_csv):
    spec = ExperimentSpec(
        dataset_path=str(car_csv),
        class_column="class",
        missing_rate=0.10,
        seed=9,
        mining=MiningParams(SUPPORT, CONFIDENCE, min_support_count=40),
        knn=KnnParams(K),
        sweep_axis="confidence",
        sweep_values=(0.3, 0.6),
        methods=("hmit", "knn"),
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first.to_json(timings=False) == second.to_json(timings=False), (
        "reports differ beyond timing fields"
    )
    with_timing = json.loads(first.to_json(timings=True))
    assert any(
        row["time_impute_s"] is not None for row in with_timing["rows"]
    )
    print("\nACCEPTANCE 8 PASS: repeated bench runs byte-identical modulo timing")


def test_criterion_9_totality_and_branch_soundness(car_dataset):
    rng = random.Random(616)
    cases = []
    masked, _ = inject_missing(car_dataset, 0.20, seed=2)
    cases.append((masked, MiningParams(SUPPORT, CONFIDENCE, min_support_count=40)))
    for _ in range(6):
        ds = random_dataset(rng, max_records=60)
        cases.append((ds, MiningParams(0.2, 0.5)))

    checked_cells = 0
    for ds, params in cases:
        bins = fit_all_bins(ds, 4)
        rules = mine_rules(ds, params, bins)
        completed, report = impute_dataset(ds, rules, KnnParams(5), bins)
        assert completed.missing_cells() == [], "missing cells survived imputation"
        for cell in report.cells:
            record = ds.record_by_id(cell.record_id)
            fired = oracle_fired(rules, oracle_itemize(ds, record, bins), cell.attribute)
            if cell.source == SOURCE_RULES:
                assert fired and set(fired_rules(report, cell)) <= set(fired)
            else:
                assert fired == ()
            checked_cells += 1
    print(
        f"\nACCEPTANCE 9 PASS: zero missing cells after imputation; "
        f"{checked_cells} recorded branches re-verified"
    )
