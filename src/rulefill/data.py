"""Schema-aware tabular data with explicit missing-value tracking.

Cells hold the raw text read from disk, with ``None`` marking a missing
value, so an untouched dataset writes back byte for byte.  Numeric cells are
parsed once, when ``Dataset.columns`` first encodes the table; once imputed
they may hold a float instead of text.
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

# An item is an (attribute index, level-or-bin index) assignment; an itemset
# is a frozenset of items carrying at most one item per attribute.
Item = tuple[int, int]


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

    def present_count(self) -> int:
        return sum(1 for c in self.cells if c is not None)


class Dataset:
    """A fixed schema plus records; treated as immutable once built."""

    def __init__(self, schema, records, class_column: str | None = None):
        self.schema = tuple(schema)
        self.records = tuple(records)
        self.class_column = class_column

        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        if class_column is not None and class_column not in names:
            raise DataError(f"class column {class_column!r} not in schema")
        ids = {r.id for r in self.records}
        if len(ids) != len(self.records):
            raise DataError("record ids must be unique")
        for r in self.records:
            if len(r.cells) != len(self.schema):
                raise DataError(
                    f"record {r.id} has {len(r.cells)} cells for "
                    f"{len(self.schema)} attributes"
                )

        self._index_of = {name: j for j, name in enumerate(names)}
        self._position_of = {r.id: i for i, r in enumerate(self.records)}

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
        other kind, is -1 in ``codes`` and NaN in ``values``.
        """
        shape = (self.n_attributes, self.n_records)
        codes = np.full(shape, -1, dtype=np.int32)
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

    def itemize_all(self, bins=None, exclude=()) -> list[frozenset]:
        """Each record's items, in record order: one per present cell outside ``exclude``.

        A numeric cell maps to its bin in ``bins`` (attribute index -> Bins),
        which a numeric attribute with a present cell must have.
        """
        codes, values = self.columns
        skip = frozenset(exclude)
        columns = []  # per attribute, each record's item or None
        for j, attr in enumerate(self.schema):
            if j in skip:
                continue
            levels = codes[j]
            if attr.kind == NUMERIC:
                present = ~np.isnan(values[j])
                if not present.any():
                    continue
                if not bins or j not in bins:
                    raise DataError(f"no bins fitted for numeric attribute {attr.name!r}")
                levels = np.where(present, bin_of(values[j], bins[j]), -1)
            columns.append([(j, level) if level >= 0 else None for level in levels.tolist()])
        rows = zip(*columns) if columns else [()] * self.n_records
        return [frozenset(filter(None, row)) for row in rows]

    # -- cells -------------------------------------------------------------

    def missing_cells(self) -> list[tuple[int, int]]:
        """(record id, attribute index) pairs for every missing cell."""
        return [
            (r.id, j)
            for r in self.records
            for j, cell in enumerate(r.cells)
            if cell is None
        ]

    def replace_cells(self, assignments: dict) -> "Dataset":
        """New dataset with ``assignments[(record_id, attribute)] = value`` applied."""
        by_position = {}
        for (record_id, attribute), value in assignments.items():
            pos = self._position_of.get(record_id)
            if pos is None:
                raise DataError(f"no record with id {record_id}")
            if not 0 <= attribute < len(self.schema):
                raise DataError(f"attribute index {attribute} out of range")
            by_position.setdefault(pos, {})[attribute] = value
        new_records = []
        for pos, record in enumerate(self.records):
            changes = by_position.get(pos)
            if not changes:
                new_records.append(record)
                continue
            cells = list(record.cells)
            for attribute, value in changes.items():
                cells[attribute] = value
            new_records.append(Record(record.id, tuple(cells)))
        return Dataset(self.schema, new_records, self.class_column)


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
        if kind is None:
            numeric = bool(observed) and all(parse_number(c) is not None for c in observed)
            kind = NUMERIC if numeric else CATEGORICAL
        if kind == NUMERIC:
            bad = next((c for c in observed if parse_number(c) is None), None)
            if bad is not None:
                raise DataError(f"column {name!r} hinted numeric but holds {bad!r}")
            schema.append(AttributeSchema(name, NUMERIC))
        elif kind == CATEGORICAL:
            levels = []
            seen = set()
            for cell in observed:
                if cell not in seen:
                    seen.add(cell)
                    levels.append(cell)
            schema.append(AttributeSchema(name, CATEGORICAL, tuple(levels)))
        else:
            raise DataError(f"unknown kind {kind!r} in schema hint for {name!r}")

    records = [Record(i, tuple(row)) for i, row in enumerate(rows)]
    return Dataset(schema, records, class_column)


def format_cell(value, missing_marker: str) -> str:
    if value is None:
        return missing_marker
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(dataset: Dataset, path, missing_marker: str = "?") -> None:
    """Write the dataset back out; missing cells become the marker string."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a.name for a in dataset.schema])
        for record in dataset.records:
            writer.writerow([format_cell(c, missing_marker) for c in record.cells])
