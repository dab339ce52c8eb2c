"""Schema-aware tabular data with explicit missing-value tracking.

Cells hold the raw text read from disk, with ``None`` marking a missing
value, so an untouched dataset writes back byte for byte.  Numeric cells are
parsed when ``load_csv`` infers the column's kind and again when
``Dataset.columns`` first encodes the table; once imputed they may hold a
float instead of text.  ``Dataset.tidsets``, built from ``Dataset.columns``,
is the one item encoding, which mining and rule firing both read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binning import bin_of, fit_bins

CATEGORICAL = "categorical"
NUMERIC = "numeric"


class DataError(ValueError):
    """Malformed input data or a schema violation."""


def parse_number(value) -> float | None:
    """Float value of a cell, or None when it is not a finite number."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        return None
    return parsed if math.isfinite(parsed) else None


@dataclass(frozen=True)
class AttributeSchema:
    """One column: name, kind, and the fitted categorical levels."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise DataError(f"unknown attribute kind: {self.kind!r}")
        if self.kind == NUMERIC and self.levels:
            raise DataError(f"numeric attribute {self.name!r} cannot carry levels")
        if len(set(self.levels)) != len(self.levels):
            raise DataError(f"duplicate levels for attribute {self.name!r}")
        if any(level == "" for level in self.levels):
            raise DataError(f"empty level label for attribute {self.name!r}")


@dataclass(frozen=True)
class Record:
    """One row; ``cells[j]`` is the value for attribute j, or None if missing."""

    id: int
    cells: tuple


class Dataset:
    """A fixed schema plus records; treated as immutable once built."""

    def __init__(self, schema, records, class_column: str | None = None):
        self.schema = tuple(schema)
        self.records = tuple(records)
        self.class_column = class_column

        self._index_of = {a.name: j for j, a in enumerate(self.schema)}
        if len(self._index_of) != len(self.schema):
            raise DataError("attribute names must be unique")
        if class_column is not None and class_column not in self._index_of:
            raise DataError(f"class column {class_column!r} not in schema")
        self._position_of = {r.id: i for i, r in enumerate(self.records)}
        if len(self._position_of) != len(self.records):
            raise DataError("record ids must be unique")
        for r in self.records:
            if len(r.cells) != len(self.schema):
                raise DataError(
                    f"record {r.id} has {len(r.cells)} cells for "
                    f"{len(self.schema)} attributes"
                )

    # -- shape -----------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def attribute_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise DataError(f"no attribute named {name!r}") from None

    @property
    def class_index(self) -> int | None:
        return None if self.class_column is None else self._index_of[self.class_column]

    def record_by_id(self, record_id: int) -> Record:
        try:
            return self.records[self._position_of[record_id]]
        except KeyError:
            raise DataError(f"no record with id {record_id}") from None

    # -- encoding ----------------------------------------------------------

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The table as (codes, values), attributes by records in record order (cached).

        ``codes`` holds each categorical cell's level index and ``values``
        each numeric cell's number; a missing cell, and every cell of the
        other kind, is -1 in ``codes`` and NaN in ``values``.  ``codes`` is
        the narrowest signed integer type that holds every level index and
        -2, the kNN fallback's missing query cell: int8 up to 128 levels.
        """
        shape = (self.n_attributes, self.n_records)
        most = max((len(attr.levels) for attr in self.schema), default=0)
        codes = np.full(shape, -1, dtype=np.min_scalar_type(-max(most, 2)))
        values = np.full(shape, math.nan)
        by_column = zip(*(r.cells for r in self.records))
        for j, (attr, column) in enumerate(zip(self.schema, by_column)):
            if attr.kind == NUMERIC:
                numbers = [math.nan if c is None else parse_number(c) for c in column]
                if None in numbers:
                    bad = column[numbers.index(None)]
                    raise DataError(f"non-numeric cell {bad!r} in numeric attribute {attr.name!r}")
                values[j] = numbers
                continue
            table = {None: -1, **{level: i for i, level in enumerate(attr.levels)}}
            try:
                codes[j] = [table[c] for c in column]
            except KeyError as exc:
                raise DataError(
                    f"unknown level {exc.args[0]!r} for attribute {attr.name!r}"
                ) from None
        return codes, values

    def tidsets(self, bins=None, exclude=()) -> dict[tuple[int, int], int]:
        """Each item's bitset of the record positions holding it (bit p: position p).

        Items are (attribute index, level or bin index) of the present cells
        outside ``exclude``.  A numeric cell maps to its bin in ``bins``
        (attribute index -> Bins), which a numeric attribute with a present
        cell must have.
        """
        codes, values = self.columns
        tidsets = {}
        for j, attr in enumerate(self.schema):
            if j in exclude:
                continue
            levels = codes[j]
            if attr.kind == NUMERIC and not np.isnan(values[j]).all():
                if not bins or j not in bins:
                    raise DataError(f"no bins fitted for numeric attribute {attr.name!r}")
                levels = np.where(np.isnan(values[j]), -1, bin_of(values[j], bins[j]))
            for level in np.unique(levels[levels >= 0]).tolist():
                bits = np.packbits(levels == level, bitorder="little")
                tidsets[j, level] = int.from_bytes(bits, "little")
        return tidsets

    # -- cells -------------------------------------------------------------

    def missing_cells(self) -> list[tuple[int, int]]:
        """(record id, attribute index) pairs for every missing cell."""
        return [
            (r.id, j)
            for r in self.records
            for j, cell in enumerate(r.cells)
            if cell is None
        ]


def fit_all_bins(dataset: Dataset, n_bins: int = 5, strategy: str = "frequency",
                 exclude=()) -> dict:
    """Fit bins for every numeric attribute from its present values."""
    skip = frozenset(exclude)
    fitted = {}
    for j, attr in enumerate(dataset.schema):
        if attr.kind != NUMERIC or j in skip:
            continue
        values = dataset.columns[1][j]
        values = values[~np.isnan(values)].tolist()
        if not values:
            continue
        try:
            fitted[j] = fit_bins(values, n_bins, strategy)
        except ValueError as exc:
            raise DataError(f"numeric attribute {attr.name!r}: {exc}") from None
    return fitted


def load_csv(path, missing_marker: str = "?", schema_hints=None,
             class_column: str | None = None) -> Dataset:
    """Load an RFC-4180-style CSV with a header row.

    Cells exactly equal to ``missing_marker`` become missing.  A column is
    numeric when at least one non-missing cell exists and every non-missing
    cell parses as a finite number; ``schema_hints`` maps column names to
    kinds ("categorical"/"numeric") to override the inference.  Categorical
    levels are fitted in first-appearance order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        width = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
                )
            rows.append([None if cell == missing_marker else cell for cell in row])

    if len(set(header)) != width:
        raise DataError(f"{path}: duplicate column names in header")

    hints = dict(schema_hints or {})
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")

    schema = []
    for j, name in enumerate(header):
        observed = [row[j] for row in rows if row[j] is not None]
        kind = hints.get(name)
        # the first observed cell that is not a finite number, each cell parsed once
        bad = None if kind == CATEGORICAL else next(
            (c for c in observed if parse_number(c) is None), None)
        if kind is None:
            kind = NUMERIC if observed and bad is None else CATEGORICAL
        if kind == NUMERIC:
            if bad is not None:
                raise DataError(f"column {name!r} hinted numeric but holds {bad!r}")
            schema.append(AttributeSchema(name, NUMERIC))
        elif kind == CATEGORICAL:
            schema.append(AttributeSchema(name, CATEGORICAL, tuple(dict.fromkeys(observed))))
        else:
            raise DataError(f"unknown kind {kind!r} in schema hint for {name!r}")

    records = [Record(i, tuple(row)) for i, row in enumerate(rows)]
    return Dataset(schema, records, class_column)


def write_csv(dataset: Dataset, path, missing_marker: str = "?") -> None:
    """Write the dataset back out; missing cells become the marker string."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in dataset.schema])
        for record in dataset.records:
            writer.writerow([missing_marker if c is None else c for c in record.cells])
