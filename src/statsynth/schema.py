"""Variable schemas, immutable datasets and their CSV / JSON round-trip.

A dataset stores columns as numpy arrays: float64 for continuous variables
and int64 codes (indices into the category tuple) for discrete ones. Records
are decoded views built on demand.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyFile,
    IoFailure,
    MissingColumn,
    OutOfBounds,
    SchemaError,
    SchemaMismatch,
    TypeMismatch,
)


@dataclass(frozen=True)
class Discrete:
    """Finite set of categories; tuple order fixes table and CSV ordering."""

    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.categories:
            raise SchemaError("discrete variable needs at least one category")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"duplicate categories: {self.categories}")
        for c in self.categories:
            if not isinstance(c, str) or c == "":
                raise SchemaError(f"categories must be non-empty strings, got {c!r}")


@dataclass(frozen=True)
class Continuous:
    """Closed interval [lower, upper] of permitted values."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise SchemaError("bounds must be finite")
        if not self.lower < self.upper:
            raise SchemaError(f"need lower < upper, got [{self.lower}, {self.upper}]")


VariableKind = Discrete | Continuous


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VariableKind

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or self.name == "":
            raise SchemaError(f"variable name must be a non-empty string, got {self.name!r}")


@dataclass(frozen=True)
class VariableSchema:
    """Ordered collection of variables; order defines CSV column order."""

    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise SchemaError("schema needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate variable names: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.variables)

    def index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise SchemaError(f"unknown variable: {name!r}")

    def kind(self, name: str) -> VariableKind:
        return self.variables[self.index(name)].kind


@dataclass(frozen=True)
class Record:
    """One row; values aligned with the schema's variable order."""

    values: tuple[str | float, ...]


def _decode_cell(var: Variable, code_or_value: float | int) -> str | float:
    if isinstance(var.kind, Discrete):
        return var.kind.categories[int(code_or_value)]
    return float(code_or_value)


def _encode_value(var: Variable, value: object, row: int, col: int) -> float:
    """Validate one raw value and return its internal representation."""
    kind = var.kind
    if isinstance(kind, Discrete):
        if not isinstance(value, str):
            raise TypeMismatch(row, col, f"expected a category string for {var.name!r}, got {value!r}")
        if value == "":
            raise TypeMismatch(row, col, f"missing value for {var.name!r}")
        try:
            return float(kind.categories.index(value))
        except ValueError:
            raise OutOfBounds(row, col, f"{value!r} is not a category of {var.name!r}") from None
    if isinstance(value, bool) or value is None:
        raise TypeMismatch(row, col, f"expected a number for {var.name!r}, got {value!r}")
    if isinstance(value, str):
        if value == "":
            raise TypeMismatch(row, col, f"missing value for {var.name!r}")
        try:
            value = float(value)
        except ValueError:
            raise TypeMismatch(row, col, f"cannot parse {value!r} as a number for {var.name!r}") from None
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeMismatch(row, col, f"expected a number for {var.name!r}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise OutOfBounds(row, col, f"integer too large for a float for {var.name!r}") from None
    if not math.isfinite(x):
        raise TypeMismatch(row, col, f"non-finite number for {var.name!r}")
    if not (kind.lower <= x <= kind.upper):
        raise OutOfBounds(row, col, f"{x} outside [{kind.lower}, {kind.upper}] for {var.name!r}")
    return x


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable table of records conforming to a schema.

    ``columns[i]`` holds variable i: float64 values for continuous variables,
    int64 category codes for discrete ones. Arrays are write-protected.
    """

    schema: VariableSchema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema):
            raise SchemaMismatch("column count does not match schema")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise SchemaMismatch(f"ragged columns: lengths {sorted(lengths)}")
        for c in self.columns:
            c.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, schema: VariableSchema) -> "Dataset":
        cols = []
        for v in schema:
            dtype = np.int64 if isinstance(v.kind, Discrete) else np.float64
            cols.append(np.empty(0, dtype=dtype))
        return cls(schema, tuple(cols))

    @classmethod
    def from_records(cls, schema: VariableSchema, records: Iterable[Record | Sequence[object]]) -> "Dataset":
        rows = []
        for i, rec in enumerate(records):
            values = rec.values if isinstance(rec, Record) else tuple(rec)
            if len(values) != len(schema):
                raise TypeMismatch(i, min(len(values), len(schema) - 1),
                                   f"row has {len(values)} values, schema has {len(schema)}")
            rows.append([_encode_value(v, values[j], i, j) for j, v in enumerate(schema)])
        if not rows:
            return cls.empty(schema)
        raw = np.array(rows, dtype=np.float64)
        cols = []
        for j, v in enumerate(schema):
            col = raw[:, j]
            cols.append(col.astype(np.int64) if isinstance(v.kind, Discrete) else col.copy())
        return cls(schema, tuple(cols))

    @classmethod
    def from_columns(cls, schema: VariableSchema, columns: Mapping[str, Sequence[object]]) -> "Dataset":
        missing = [n for n in schema.names if n not in columns]
        if missing:
            raise MissingColumn(missing[0])
        extra = [n for n in columns if n not in schema.names]
        if extra:
            raise SchemaMismatch(f"unknown columns: {extra}")
        by_name = {n: list(columns[n]) for n in schema.names}
        n = len(by_name[schema.names[0]])
        records = (tuple(by_name[name][i] for name in schema.names) for i in range(n))
        return cls.from_records(schema, records)

    @classmethod
    def _from_coded(cls, schema: VariableSchema, columns: Sequence[np.ndarray]) -> "Dataset":
        """Fast path for columns already in internal representation.

        Callers guarantee codes are in range and floats are within bounds.
        """
        return cls(schema, tuple(np.asarray(c).copy() for c in columns))

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def n_records(self) -> int:
        return len(self)

    def column(self, name: str) -> np.ndarray:
        """Decoded column: float64 array, or object array of category strings."""
        i = self.schema.index(name)
        var = self.schema.variables[i]
        if isinstance(var.kind, Discrete):
            return np.array(var.kind.categories, dtype=object)[self.columns[i]]
        return self.columns[i]

    def codes(self, name: str) -> np.ndarray:
        """Raw internal column (category codes for discrete variables)."""
        return self.columns[self.schema.index(name)]

    def record(self, i: int) -> Record:
        return Record(tuple(_decode_cell(v, self.columns[j][i]) for j, v in enumerate(self.schema)))

    def iter_records(self) -> Iterator[Record]:
        for i in range(len(self)):
            yield self.record(i)

    def equals(self, other: "Dataset") -> bool:
        if self.schema != other.schema or len(self) != len(other):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))


def concat(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets over an identical schema (a's rows first)."""
    if a.schema != b.schema:
        raise SchemaMismatch("cannot concat datasets with different schemas")
    cols = tuple(np.concatenate([x, y]) for x, y in zip(a.columns, b.columns))
    return Dataset(a.schema, cols)


# ---------------------------------------------------------------------------
# CSV


def csv_text(data: Dataset, start: int = 0) -> str:
    """CSV lines of records start onward, led by the header row when start is 0.

    The one formatter behind save_csv and the checkpoint's batch appends, so
    a file appended batch by batch has the bytes of one save_csv. Categories
    with commas or quotes get quoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL)
    if start == 0:
        writer.writerow(data.schema.names)
    cells = []
    for var, col in zip(data.schema, data.columns):
        values = col[start:].tolist()
        if isinstance(var.kind, Discrete):
            cells.append([var.kind.categories[c] for c in values])
        else:
            # repr of a Python float is the shortest string that round-trips
            # exactly, stronger than the 9 significant digits the format needs
            cells.append([repr(x) for x in values])
    writer.writerows(zip(*cells))
    return out.getvalue()


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write UTF-8 CSV with a header row."""
    path = Path(path)
    try:
        path.write_bytes(csv_text(data).encode("utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _parse_column(var: Variable, cells: Sequence[str]) -> tuple[np.ndarray, int | None]:
    """One CSV column in internal form, plus the first row _encode_value rejects.

    Rejects exactly what _encode_value rejects for a string cell: a string
    that is not a category, or one float() cannot parse, or a number that is
    non-finite or outside the bounds.
    """
    kind = var.kind
    if isinstance(kind, Discrete):
        lookup = {c: i for i, c in enumerate(kind.categories)}
        col = np.array([lookup.get(c, -1) for c in cells], dtype=np.int64)
        bad = col < 0
    else:
        try:
            col = np.array(list(map(float, cells)), dtype=np.float64)
        except ValueError:
            col = np.array([_float_or_nan(c) for c in cells], dtype=np.float64)
        # NaN fails both comparisons, infinities one of them
        bad = ~((col >= kind.lower) & (col <= kind.upper))
    hits = np.flatnonzero(bad)
    return col, (int(hits[0]) if len(hits) else None)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def load_csv(path: str | Path, schema: VariableSchema, data: bytes | None = None) -> Dataset:
    """Read a CSV written by save_csv (or compatible) and validate every cell.

    Cells are parsed column by column. On the first rejected cell in
    row-major order, _encode_value raises the error for that cell. A caller
    that already holds the file's bytes passes them as data; path then only
    names the file in errors.
    """
    path = Path(path)
    try:
        with (open(path, "r", encoding="utf-8", newline="") if data is None else
              io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyFile(f"{path} has no header row") from None
            twice = [h for i, h in enumerate(header) if h in header[:i]]
            if twice:
                raise SchemaMismatch(f"column {twice[0]!r} appears twice in the header of {path}")
            for name in schema.names:
                if name not in header:
                    raise MissingColumn(name)
            extra = [h for h in header if h not in schema.names]
            if extra:
                raise SchemaMismatch(f"unknown columns in {path}: {extra}")
            order = [header.index(n) for n in schema.names]
            rows = []
            for i, row in enumerate(reader):
                if len(row) != len(header):
                    raise TypeMismatch(i, min(len(row), len(header) - 1),
                                       f"expected {len(header)} fields, found {len(row)}")
                rows.append(row)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"cannot read {path} as UTF-8 CSV: {exc}") from exc
    if not rows:
        return Dataset.empty(schema)
    cells = list(zip(*rows))
    columns, rejected = [], []
    for j, var in enumerate(schema):
        col, bad_row = _parse_column(var, cells[order[j]])
        columns.append(col)
        if bad_row is not None:
            rejected.append((bad_row, j))
    if rejected:
        i, j = min(rejected)
        _encode_value(schema.variables[j], cells[order[j]][i], i, j)
        raise AssertionError(f"row {i}, column {j}: rejected by the column parse only")
    return Dataset(schema, tuple(columns))


# ---------------------------------------------------------------------------
# schema JSON


def schema_to_json(schema: VariableSchema) -> dict:
    out = []
    for v in schema:
        if isinstance(v.kind, Discrete):
            out.append({"name": v.name, "kind": "discrete", "categories": list(v.kind.categories)})
        else:
            out.append({"name": v.name, "kind": "continuous", "lower": v.kind.lower, "upper": v.kind.upper})
    return {"variables": out}


def _bound(entry: Mapping, key: str) -> float:
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key} bound must be a JSON number, got {value!r}")
    return float(value)


def schema_from_json(doc: Mapping) -> VariableSchema:
    try:
        entries = doc["variables"]
        variables = []
        for e in entries:
            if e["kind"] == "discrete":
                if not isinstance(e["categories"], list):
                    raise SchemaError(f"categories must be a JSON array, got {e['categories']!r}")
                kind: VariableKind = Discrete(tuple(e["categories"]))
            elif e["kind"] == "continuous":
                kind = Continuous(_bound(e, "lower"), _bound(e, "upper"))
            else:
                raise SchemaError(f"unknown kind {e['kind']!r}")
            variables.append(Variable(e["name"], kind))
    except (KeyError, TypeError, OverflowError) as exc:
        raise SchemaError(f"malformed schema document: {exc!r}") from exc
    return VariableSchema(tuple(variables))


def save_schema(schema: VariableSchema, path: str | Path, extra: Mapping | None = None) -> None:
    """Write the schema JSON; extra top-level keys may ride along."""
    doc = schema_to_json(schema)
    if extra:
        for key, value in extra.items():
            if key != "variables":
                doc[key] = value
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_schema(path: str | Path) -> VariableSchema:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    # ValueError also covers integer literals past Python's digit limit,
    # RecursionError arrays or objects nested too deep to parse
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return schema_from_json(doc)
