from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statsynth import errors
from statsynth.schema import (
    Continuous,
    Dataset,
    Discrete,
    Record,
    Variable,
    VariableSchema,
    concat,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    schema_from_json,
    schema_to_json,
)


def test_kind_validation():
    with pytest.raises(errors.SchemaError):
        Discrete(())
    with pytest.raises(errors.SchemaError):
        Discrete(("a", "a"))
    with pytest.raises(errors.SchemaError):
        Continuous(1.0, 1.0)
    with pytest.raises(errors.SchemaError):
        Continuous(0.0, math.inf)
    with pytest.raises(errors.SchemaError):
        VariableSchema((Variable("x", Continuous(0, 1)), Variable("x", Continuous(0, 1))))


def test_from_records_validates(tiny_schema):
    data = Dataset.from_records(tiny_schema, [("red", 1.5), ("blue", 0.0)])
    assert len(data) == 2
    assert data.record(0) == Record(("red", 1.5))
    with pytest.raises(errors.OutOfBounds) as exc:
        Dataset.from_records(tiny_schema, [("red", 1.5), ("yellow", 1.0)])
    assert exc.value.row == 1 and exc.value.column == 0
    with pytest.raises(errors.OutOfBounds) as exc:
        Dataset.from_records(tiny_schema, [("red", 11.0)])
    assert exc.value.row == 0 and exc.value.column == 1
    with pytest.raises(errors.OutOfBounds) as exc:
        Dataset.from_records(tiny_schema, [("red", 1.5), ("red", 10**400)])
    assert exc.value.row == 1 and exc.value.column == 1
    with pytest.raises(errors.TypeMismatch):
        Dataset.from_records(tiny_schema, [("red", "abc")])
    with pytest.raises(errors.TypeMismatch):
        Dataset.from_records(tiny_schema, [(3, 1.0)])
    with pytest.raises(errors.TypeMismatch):
        Dataset.from_records(tiny_schema, [("red", float("nan"))])
    with pytest.raises(errors.TypeMismatch):
        Dataset.from_records(tiny_schema, [("red",)])


def test_columns_are_immutable(tiny_schema):
    data = Dataset.from_records(tiny_schema, [("red", 1.0)])
    with pytest.raises(ValueError):
        data.columns[0][0] = 2
    with pytest.raises(Exception):
        data.schema = None


def test_column_access(tiny_schema):
    data = Dataset.from_records(tiny_schema, [("red", 1.0), ("blue", 2.0)])
    assert list(data.column("color")) == ["red", "blue"]
    assert list(data.codes("color")) == [0, 2]
    assert np.allclose(data.column("size"), [1.0, 2.0])


def test_concat(tiny_schema, two_binary_schema):
    a = Dataset.from_records(tiny_schema, [("red", 1.0)])
    b = Dataset.from_records(tiny_schema, [("green", 2.0)])
    both = concat(a, b)
    assert len(both) == 2
    assert both.record(0) == Record(("red", 1.0))
    assert both.record(1) == Record(("green", 2.0))
    other = Dataset.from_records(two_binary_schema, [("A0", "B0")])
    with pytest.raises(errors.SchemaMismatch):
        concat(a, other)


def test_csv_round_trip(tmp_path, tiny_schema):
    data = Dataset.from_records(
        tiny_schema, [("red", 0.1), ("blue", 9.999999999), ("green", 5.0 / 3.0)])
    path = tmp_path / "t.csv"
    save_csv(data, path)
    back = load_csv(path, tiny_schema)
    assert back.equals(data)


def test_csv_quotes_categories_with_commas(tmp_path):
    schema = VariableSchema((Variable("c", Discrete(("plain", "a,b"))),))
    data = Dataset.from_records(schema, [("a,b",), ("plain",)])
    path = tmp_path / "q.csv"
    save_csv(data, path)
    text = path.read_text(encoding="utf-8")
    assert '"a,b"' in text
    assert load_csv(path, schema).equals(data)


def test_csv_empty_dataset_round_trip(tmp_path, tiny_schema):
    data = Dataset.empty(tiny_schema)
    path = tmp_path / "e.csv"
    save_csv(data, path)
    assert path.read_text(encoding="utf-8").strip() == "color,size"
    back = load_csv(path, tiny_schema)
    assert len(back) == 0


def test_csv_errors(tmp_path, tiny_schema):
    empty = tmp_path / "none.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(errors.EmptyFile):
        load_csv(empty, tiny_schema)

    missing = tmp_path / "m.csv"
    missing.write_text("color\nred\n", encoding="utf-8")
    with pytest.raises(errors.MissingColumn) as exc:
        load_csv(missing, tiny_schema)
    assert exc.value.column == "size"

    bad = tmp_path / "b.csv"
    bad.write_text("color,size\nred,abc\n", encoding="utf-8")
    with pytest.raises(errors.TypeMismatch) as exc:
        load_csv(bad, tiny_schema)
    assert exc.value.row == 0 and exc.value.column == 1

    oob = tmp_path / "o.csv"
    oob.write_text("color,size\nred,1\nred,17\n", encoding="utf-8")
    with pytest.raises(errors.OutOfBounds) as exc:
        load_csv(oob, tiny_schema)
    assert exc.value.row == 1 and exc.value.column == 1

    twice = tmp_path / "t.csv"
    twice.write_text("color,size,color\nred,1,blue\n", encoding="utf-8")
    with pytest.raises(errors.SchemaMismatch, match="'color'"):
        load_csv(twice, tiny_schema)

    extra = tmp_path / "x.csv"
    extra.write_text("color,size,junk\nred,1,2\n", encoding="utf-8")
    with pytest.raises(errors.SchemaMismatch):
        load_csv(extra, tiny_schema)

    with pytest.raises(errors.IoFailure):
        load_csv(tmp_path / "does-not-exist.csv", tiny_schema)


def test_missing_values_rejected(tmp_path, tiny_schema):
    path = tmp_path / "mv.csv"
    path.write_text("color,size\n,1.0\n", encoding="utf-8")
    with pytest.raises(errors.TypeMismatch):
        load_csv(path, tiny_schema)
    path.write_text("color,size\nred,\n", encoding="utf-8")
    with pytest.raises(errors.TypeMismatch):
        load_csv(path, tiny_schema)


def test_schema_json_round_trip(tmp_path, tiny_schema):
    doc = schema_to_json(tiny_schema)
    assert schema_from_json(doc) == tiny_schema
    path = tmp_path / "s.json"
    save_schema(tiny_schema, path, extra={"note": 1})
    assert load_schema(path) == tiny_schema
    with pytest.raises(errors.SchemaError):
        schema_from_json({"variables": [{"name": "x", "kind": "weird"}]})


@pytest.mark.parametrize("entry", [
    {"kind": "discrete", "categories": "MF"},
    {"kind": "discrete", "categories": {"M": 1, "F": 2}},
    {"kind": "continuous", "lower": True, "upper": 2.0},
    {"kind": "continuous", "lower": 0.0, "upper": "2"},
    {"kind": "continuous", "lower": 0.0, "upper": 10 ** 400},
])
def test_schema_json_rejects_mistyped_kinds(entry):
    with pytest.raises(errors.SchemaError):
        schema_from_json({"variables": [{"name": "x", **entry}]})


@st.composite
def _records(draw, schema: VariableSchema):
    n = draw(st.integers(0, 30))
    rows = []
    for _ in range(n):
        row = []
        for v in schema:
            if isinstance(v.kind, Discrete):
                row.append(draw(st.sampled_from(v.kind.categories)))
            else:
                row.append(draw(st.floats(
                    v.kind.lower, v.kind.upper, allow_nan=False, allow_infinity=False)))
        rows.append(tuple(row))
    return rows


@given(rows=_records(VariableSchema((
    Variable("c", Discrete(("x", "y", "with,comma"))),
    Variable("u", Continuous(-1e6, 1e6)),
    Variable("v", Continuous(-1.0, 1.0)),
))))
@settings(max_examples=40, deadline=None)
def test_csv_round_trip_property(tmp_path_factory, rows):
    schema = VariableSchema((
        Variable("c", Discrete(("x", "y", "with,comma"))),
        Variable("u", Continuous(-1e6, 1e6)),
        Variable("v", Continuous(-1.0, 1.0)),
    ))
    data = Dataset.from_records(schema, rows)
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    save_csv(data, path)
    back = load_csv(path, schema)
    # repr round-trips floats exactly, so equality is exact, not approximate
    assert back.equals(data)


def reference_load_csv(path, schema):
    """load_csv validating row by row: every record through Dataset.from_records."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        order = [header.index(n) for n in schema.names]
        records = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise errors.TypeMismatch(i, min(len(row), len(header) - 1),
                                          f"expected {len(header)} fields, found {len(row)}")
            records.append(tuple(row[j] for j in order))
    return Dataset.from_records(schema, records)


GARBLED_SCHEMA = VariableSchema((
    Variable("c", Discrete(("x", "y", "with,comma"))),
    Variable("u", Continuous(-5.0, 5.0)),
    Variable("v", Continuous(0.0, 1.0)),
))

garbled_cells = st.one_of(
    st.sampled_from(["", " ", "x", "y", "X", "x ", "with,comma", "nan", "-inf", "inf", "1e999",
                     "1_0", " 0.5 ", "0x1", "1,5", "\"q\"", "-0.0", "5", "5.000001", "-5"]),
    st.floats(-6.0, 6.0).map(repr),
    st.text(max_size=4),
)


@st.composite
def garbled_tables(draw):
    """CSV rows in schema column order, each cell valid or garbled."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        valid = [draw(st.sampled_from(["x", "y", "with,comma"])),
                 repr(draw(st.floats(-5.0, 5.0))), repr(draw(st.floats(0.0, 1.0)))]
        rows.append([cell if draw(st.integers(0, 5)) else draw(garbled_cells) for cell in valid])
    return rows


@given(rows=garbled_tables())
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_row_by_row_validation(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("garbled") / "g.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([list(GARBLED_SCHEMA.names)] + rows)
    try:
        expected = reference_load_csv(path, GARBLED_SCHEMA)
    except errors.SynthError as exc:
        with pytest.raises(type(exc)) as got:
            load_csv(path, GARBLED_SCHEMA)
        assert (str(got.value), got.value.row, got.value.column) == (str(exc), exc.row, exc.column)
    else:
        back = load_csv(path, GARBLED_SCHEMA)
        assert back.equals(expected)
        assert [c.dtype for c in back.columns] == [c.dtype for c in expected.columns]
