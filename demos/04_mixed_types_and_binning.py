"""Mixed-type data: quantile binning, numeric de-binning, HEOM neighbours.

Numeric columns join mining through fitted bins; a rule that predicts a bin
is turned back into a number via the bin's representative value, and the
kNN fallback measures mixed records with the HEOM metric.
"""

import tempfile
from pathlib import Path

from rulefill import (
    NUMERIC,
    MiningParams,
    fit_all_bins,
    impute_dataset,
    load_csv,
    mine_rules,
)
from rulefill.binning import bin_of, fit_bins
from rulefill.sample_data import write_credit_csv

print("equal-frequency bins over a skewed column:")
values = [1, 2, 3, 4, 100]
bins = fit_bins(values, n_bins=2, strategy="frequency")
print(f"    values {values} -> edges {bins.edges}, representatives {bins.representatives}")
for v in (2, 3, 50, 100):
    print(f"    bin_of({v}) = {bin_of(v, bins)}")

work = Path(tempfile.mkdtemp())
csv_path = work / "credit.csv"
write_credit_csv(csv_path)
dataset = load_csv(csv_path, "?", class_column="class")
numeric = [a.name for a in dataset.schema if a.kind == NUMERIC]
print(f"\ncredit-like table: {dataset.n_records} records, numeric columns {numeric}")
print(f"pre-existing missing cells: {sum(r.cells.count(None) for r in dataset.records)}")

all_bins = fit_all_bins(dataset, n_bins=5, strategy="frequency")
j = dataset.attribute_index(numeric[0])
print(f"fitted bins for {numeric[0]!r}: edges {tuple(round(e, 2) for e in all_bins[j].edges)}")

rules = mine_rules(dataset, MiningParams(0.40, 0.60, min_support_count=60), all_bins)
completed, report = impute_dataset(dataset, rules, k=10, bins=all_bins)
print(
    f"\nimputed the table's own {report.n_imputed} missing cells: "
    f"{report.n_from_rules} from rules, {report.n_from_knn} from knn"
)
numeric_cells = [
    c for c in report.cells if dataset.schema[c.attribute].kind == NUMERIC
]
for cell in numeric_cells[:3]:
    name = report.attribute_names[cell.attribute]
    print(f"    {name}[record {cell.record_id}] <- {cell.value:.3f} ({cell.source})")
knn_cell = next(c for c in report.cells if c.source == "knn")
name = report.attribute_names[knn_cell.attribute]
print(f"\n{name}[record {knn_cell.record_id}] <- {knn_cell.value!r}, the vote of its "
      f"{len(knn_cell.neighbor_ids)} HEOM-nearest records: {list(knn_cell.neighbor_ids)}")
print(f"missing cells left: {sum(r.cells.count(None) for r in completed.records)}")
