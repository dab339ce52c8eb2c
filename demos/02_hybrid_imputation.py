"""Hybrid imputation end to end on the synthetic car table.

Inject a seeded 20% MCAR mask, mine rules from the masked data itself, then
fill every cell: fired rules where any match, kNN votes elsewhere.  The
report records which branch produced each value.
"""

import tempfile
from collections import Counter
from pathlib import Path

from rulefill import (
    KnnParams,
    MiningParams,
    SOURCE_RULES,
    evaluate,
    impute_dataset,
    inject_missing,
    load_csv,
    mine_rules,
)
from rulefill.sample_data import write_car_csv

work = Path(tempfile.mkdtemp())
csv_path = work / "car.csv"
write_car_csv(csv_path)
dataset = load_csv(csv_path, "?", class_column="class")
print(f"loaded {dataset.n_records} records x {dataset.n_attributes} attributes")

masked, truth = inject_missing(dataset, rate=0.20, seed=7)
print(f"masked {len(truth)} cells (class column excluded, no record emptied)")

# support as an absolute count of 40 records; confidence 60%
params = MiningParams(min_support=0.40, min_confidence=0.60, min_support_count=40)
rules = mine_rules(masked, params)
print(f"mined {len(rules)} rules from the masked table")

completed, report = impute_dataset(masked, rules, KnnParams(k=10))
print(
    f"imputed {report.n_imputed} cells: {report.n_from_rules} from rules, "
    f"{report.n_from_knn} from the kNN fallback "
    f"(coverage {report.rule_coverage():.1%})"
)

metrics = evaluate(completed, truth)
print(f"categorical accuracy against the hidden truth: {metrics.categorical_accuracy:.4f}")

by_column = Counter(report.attribute_names[c.attribute] for c in report.cells)
print("imputations per column:", dict(by_column))

example = next(c for c in report.cells if c.source == SOURCE_RULES)
record = masked.record_by_id(example.record_id)
print(
    f"\nexample rule-sourced cell: record {example.record_id}, "
    f"column {report.attribute_names[example.attribute]!r}"
)
print(f"    known cells: {record.cells}")
print(f"    imputed value: {example.value!r} (truth: {truth[(example.record_id, example.attribute)]!r})")
# a cell's fired rules are positions in report.rules, the report's one table of fired rules
fired = [report.rules[i] for i in example.rules]
print(f"    fired rules ({len(fired)}), strongest first:")
for rule in fired[:3]:
    print(f"        {rule.antecedent} -> {rule.consequent} conf={rule.confidence:.2f}")
