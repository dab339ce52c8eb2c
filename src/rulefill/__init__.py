"""Hybrid missing-value imputation: association rules first, kNN fallback.

The library mines single-consequent association rules from an incomplete
table, imputes each missing cell from the rules that fire on the record's
known values, and falls back to HEOM k-nearest-neighbor voting for cells no
rule covers.  A benchmark harness reproduces missing-rate, support and
confidence sweeps over seeded MCAR masks.
"""

from .binning import EQUAL_FREQUENCY, EQUAL_WIDTH, Bins, bin_of, fit_bins
from .data import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    DataError,
    Dataset,
    Record,
    fit_all_bins,
    load_csv,
    write_csv,
)
from .mining import (
    AssociationRule,
    FrequentItemset,
    MiningParams,
    generate_rules,
    mine_frequent,
    support_count,
)
from .knn import KnnImputer, KnnParams, fit_numeric_ranges, heom_distance
from .imputer import (
    SOURCE_KNN,
    SOURCE_RULES,
    CellImputation,
    ImputationReport,
    impute_dataset,
    impute_from_rules,
    mine_rules,
)
from .bench import (
    BenchReport,
    BenchRow,
    EvalMetrics,
    ExperimentSpec,
    evaluate,
    inject_missing,
    run_sweep,
    write_report_files,
)
from .rules_io import RuleFile, check_compatible, read_rules, write_rules

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "AttributeSchema",
    "BenchReport",
    "BenchRow",
    "Bins",
    "CATEGORICAL",
    "CellImputation",
    "DataError",
    "Dataset",
    "EQUAL_FREQUENCY",
    "EQUAL_WIDTH",
    "EvalMetrics",
    "ExperimentSpec",
    "FrequentItemset",
    "ImputationReport",
    "KnnImputer",
    "KnnParams",
    "MiningParams",
    "NUMERIC",
    "Record",
    "RuleFile",
    "SOURCE_KNN",
    "SOURCE_RULES",
    "bin_of",
    "check_compatible",
    "evaluate",
    "fit_all_bins",
    "fit_bins",
    "fit_numeric_ranges",
    "generate_rules",
    "heom_distance",
    "impute_dataset",
    "impute_from_rules",
    "inject_missing",
    "load_csv",
    "mine_frequent",
    "mine_rules",
    "read_rules",
    "run_sweep",
    "support_count",
    "write_csv",
    "write_report_files",
    "write_rules",
]
