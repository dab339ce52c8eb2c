"""Hybrid missing-value imputation: association rules first, kNN fallback.

The library mines single-consequent association rules from an incomplete
table, imputes each missing cell from the rules that fire on the record's
known values, and falls back to HEOM k-nearest-neighbor voting for cells no
rule covers.  A benchmark harness reproduces missing-rate, support and
confidence sweeps over seeded MCAR masks.
"""

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
from .mining import AssociationRule, MiningParams, generate_rules, mine_frequent
from .imputer import impute_dataset, mine_rules
from .bench import ExperimentSpec, evaluate, inject_missing, run_sweep, write_report_files
from .rules_io import read_rules, write_rules

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "AttributeSchema",
    "CATEGORICAL",
    "DataError",
    "Dataset",
    "ExperimentSpec",
    "MiningParams",
    "NUMERIC",
    "Record",
    "evaluate",
    "fit_all_bins",
    "generate_rules",
    "impute_dataset",
    "inject_missing",
    "load_csv",
    "mine_frequent",
    "mine_rules",
    "read_rules",
    "run_sweep",
    "write_csv",
    "write_report_files",
    "write_rules",
]
