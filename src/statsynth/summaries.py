"""Summary-statistics space: a fixed bin grid and integer count tables.

Continuous variables are described by six main bins whose edges sit at the
0, 1/6, ..., 6/6 empirical quantiles of the real data (order statistics with
linear interpolation); tied quantiles merge bins. Inside main bin i the eight
sub-bin edges are linspace(e_i, e_{i+1}, 9). Edges are fitted once, on the
real data, so the grid is fixed for a whole run: every record is binned once,
a continuous value to its fine code 8*main + sub, a discrete value to its
category code. Intervals are half-open [lo, hi) with the final one closed;
values outside the fitted range clip into the first or last bin.

Every table is an integer count array over that grid, read with the row
count n as proportions count / n. A marginal has one axis: category counts,
or main-bin counts of a continuous variable in which one refined main bin
may be replaced by its eight sub-bin counts. A joint table over a component
has one axis per variable, at main-bin or category resolution. String labels
are attached only where tables are written out as JSON.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateBins,
    EmptyDataset,
    MissingBinSpec,
    NotContinuous,
    SchemaError,
    UnitMismatch,
)
from .schema import Continuous, Dataset, Discrete, VariableSchema

SUB_BINS = 8


@dataclass(frozen=True)
class BinSpec:
    """Main-bin edges of one continuous variable; strictly increasing."""

    variable: str
    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise DegenerateBins(f"{self.variable!r}: need at least 2 edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise SchemaError(f"{self.variable!r}: edges must be strictly increasing")

    @property
    def n_main(self) -> int:
        return len(self.edges) - 1

    def sub_edges(self, i: int) -> np.ndarray:
        """The nine edges of the equal-width sub-bins of main bin i."""
        return np.linspace(self.edges[i], self.edges[i + 1], SUB_BINS + 1)

    def fine_edges(self) -> np.ndarray:
        """The 8*n_main + 1 fine-grid edges; fine code f spans edges f and f + 1.

        Entry 8i + j is sub_edges(i)[j], for j = 8 too: linspace ends on its
        stop exactly. So main edge e_i is entry 8i.
        """
        return np.concatenate([self.sub_edges(i)[:-1] for i in range(self.n_main)]
                              + [np.asarray(self.edges[-1:])])

    def fine_codes(self, values: np.ndarray) -> np.ndarray:
        """Fine code 8*main + sub per value; its main part is the main bin."""
        idx = np.searchsorted(self.fine_edges(), values, side="right") - 1
        return np.clip(idx, 0, SUB_BINS * self.n_main - 1).astype(np.int64)


def fit_bins(real: Dataset, variable: str, bins: int = 6) -> BinSpec:
    """Fit main-bin edges at empirical quantiles of the real data."""
    if bins < 1:
        raise SchemaError(f"bins must be >= 1, got {bins}")
    if not isinstance(real.schema.kind(variable), Continuous):
        raise NotContinuous(f"{variable!r} is not continuous")
    if len(real) == 0:
        raise EmptyDataset(f"cannot fit bins for {variable!r} on an empty dataset")
    col = real.codes(variable)
    edges = np.quantile(col, np.linspace(0.0, 1.0, bins + 1))
    unique = np.unique(edges)
    if len(unique) < 2:
        raise DegenerateBins(f"{variable!r}: all quantile edges coincide at {unique[0]!r}")
    return BinSpec(variable, tuple(float(e) for e in unique))


def fit_all_bins(real: Dataset, bins: int = 6) -> dict[str, BinSpec | None]:
    """Main-bin specs for every continuous variable (None for discrete)."""
    return {
        v.name: fit_bins(real, v.name, bins) if isinstance(v.kind, Continuous) else None
        for v in real.schema
    }


@dataclass(frozen=True)
class StructuralComponent:
    """A joint unit: 2 to 4 variables whose dependence is tracked together."""

    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 2 <= len(self.variables) <= 4:
            raise SchemaError(f"component needs 2..4 variables, got {len(self.variables)}")
        if len(set(self.variables)) != len(self.variables):
            raise SchemaError(f"component repeats a variable: {self.variables}")

    @property
    def id(self) -> str:
        return "+".join(self.variables)


# ---------------------------------------------------------------------------
# records on the grid


@dataclass(frozen=True, eq=False)
class Codes:
    """Records binned onto the grid: one int64 code column per variable.

    A discrete column holds category codes, a continuous one fine codes.
    """

    schema: VariableSchema
    columns: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def n_records(self) -> int:
        return len(self)

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index(name)]

    def append(self, other: Codes) -> Codes:
        return Codes(self.schema, tuple(
            np.concatenate([a, b]) for a, b in zip(self.columns, other.columns)))


def encode(data: Dataset, specs: Mapping[str, BinSpec | None]) -> Codes:
    """Bin every record of data onto the grid of specs."""
    columns = []
    for name, col in zip(data.schema.names, data.columns):
        spec = _spec(data.schema, specs, name)
        columns.append(col if spec is None else spec.fine_codes(col))
    return Codes(data.schema, tuple(columns))


def _spec(schema: VariableSchema, specs: Mapping[str, BinSpec | None],
          name: str) -> BinSpec | None:
    """The bin spec of a continuous variable; None for a discrete one."""
    if isinstance(schema.kind(name), Discrete):
        return None
    spec = specs.get(name)
    if spec is None:
        raise MissingBinSpec(f"continuous variable {name!r} needs a BinSpec")
    if spec.variable != name:
        raise UnitMismatch(f"spec is for {spec.variable!r}, not {name!r}")
    return spec


def main_codes(codes: Codes, specs: Mapping[str, BinSpec | None], name: str,
               ) -> tuple[np.ndarray, int]:
    """Main-bin (or category) codes of one variable, and how many there are."""
    spec = _spec(codes.schema, specs, name)
    if spec is None:
        return codes.column(name), len(codes.schema.kind(name).categories)
    return codes.column(name) // SUB_BINS, spec.n_main


def marginal_counts(codes: Codes, specs: Mapping[str, BinSpec | None], name: str,
                    refined: int | None = None) -> np.ndarray:
    """Counts per category or main bin; a refined bin shows its sub-bin counts."""
    spec = _spec(codes.schema, specs, name)
    if spec is None:
        col, size = main_codes(codes, specs, name)
        return np.bincount(col, minlength=size)
    fine = np.bincount(codes.column(name), minlength=SUB_BINS * spec.n_main)
    main = fine.reshape(spec.n_main, SUB_BINS).sum(axis=1)
    if refined is None:
        return main
    sub = fine[SUB_BINS * refined:SUB_BINS * (refined + 1)]
    return np.concatenate([main[:refined], sub, main[refined + 1:]])


def joint_counts(codes: Codes, specs: Mapping[str, BinSpec | None],
                 variables: Sequence[str]) -> np.ndarray:
    """Counts over a component, one axis per variable at main-bin resolution."""
    cols, shape = zip(*(main_codes(codes, specs, name) for name in variables))
    flat = np.ravel_multi_index(cols, shape)
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)


def sub_detail(codes: Codes, spec: BinSpec) -> np.ndarray:
    """(n_main, 8) within-bin sub-proportions of the records in codes.

    Row i describes how records inside main bin i spread over that bin's
    eight sub-bins; rows with no members fall back to uniform.
    """
    fine = np.bincount(codes.column(spec.variable), minlength=SUB_BINS * spec.n_main)
    fine = fine.reshape(spec.n_main, SUB_BINS)
    totals = fine.sum(axis=1, keepdims=True)
    return np.where(totals > 0, fine / np.maximum(totals, 1), 1.0 / SUB_BINS)


def proportions(counts: np.ndarray, n: int) -> np.ndarray:
    """count / n per cell; all zero for a table of no rows."""
    return counts / n if n else np.zeros(counts.shape)


# ---------------------------------------------------------------------------
# dataset-level summary sets


@dataclass(frozen=True, eq=False)
class SummarySet:
    """All count tables of one dataset, over n rows.

    refined maps a continuous variable to the main bin whose sub-bin counts
    replace it in that variable's marginal.
    """

    marginals: dict[str, np.ndarray]
    joints: dict[StructuralComponent, np.ndarray]
    n: int
    refined: dict[str, int] = field(default_factory=dict)


def compute_summaries(
    data: Dataset | Codes,
    specs: Mapping[str, BinSpec | None],
    components: Sequence[StructuralComponent] = (),
    refined: Mapping[str, int] | None = None,
) -> SummarySet:
    """Every marginal, and the joint of every component, of data.

    A Dataset is binned onto the grid of specs first.
    """
    codes = data if isinstance(data, Codes) else encode(data, specs)
    refined = dict(refined or {})
    marginals = {name: marginal_counts(codes, specs, name, refined.get(name))
                 for name in codes.schema.names}
    joints = {c: joint_counts(codes, specs, c.variables) for c in components}
    return SummarySet(marginals, joints, len(codes), refined)


def refine_all_bins(
    specs: Mapping[str, BinSpec | None],
    real: Codes,
    synth: Codes,
) -> dict[str, int]:
    """Per continuous variable, the main bin with the largest positive gap.

    The gap is real minus synth proportion at main-bin resolution; a
    variable with no under-generated main bin is not refined.
    """
    out: dict[str, int] = {}
    for name, spec in specs.items():
        if spec is None:
            continue
        gaps = (proportions(marginal_counts(real, specs, name), len(real))
                - proportions(marginal_counts(synth, specs, name), len(synth)))
        if float(gaps.max()) > 0.0:
            out[name] = int(np.argmax(gaps))
    return out


def evaluation_summaries(
    real: Codes,
    synth: Codes,
    specs: Mapping[str, BinSpec | None],
    components: Sequence[StructuralComponent] = (),
) -> tuple[SummarySet, SummarySet]:
    """Shared real/synth summary pipeline: refine against synth, then count.

    Used both by the loop's per-iteration reporting and by offline
    evaluation so the two agree to the last bit on identical inputs.
    """
    refined = refine_all_bins(specs, real, synth)
    return (
        compute_summaries(real, specs, components, refined),
        compute_summaries(synth, specs, components, refined),
    )


# ---------------------------------------------------------------------------
# labels and JSON payloads (exactly what proposer prompts embed)


def _interval_label(prefix: str, lo: float, hi: float, closed: bool) -> str:
    right = "]" if closed else ")"
    return f"{prefix}:[{float(lo)!r},{float(hi)!r}{right}"


def _axis_labels(schema: VariableSchema, specs: Mapping[str, BinSpec | None],
                 name: str) -> tuple[str, ...]:
    spec = specs.get(name)
    if spec is None:
        return schema.kind(name).categories
    last = spec.n_main - 1
    return tuple(_interval_label(f"bin{i}", spec.edges[i], spec.edges[i + 1], i == last)
                 for i in range(spec.n_main))


def unit_labels(summaries: SummarySet, schema: VariableSchema,
                specs: Mapping[str, BinSpec | None]) -> dict[str, list]:
    """Cell labels of every unit, aligned with its flattened count array.

    A joint cell's label is the tuple of its variables' labels.
    """
    out: dict[str, list] = {}
    for name in summaries.marginals:
        labels = list(_axis_labels(schema, specs, name))
        r = summaries.refined.get(name)
        if r is not None:
            spec = specs[name]
            se = spec.sub_edges(r)
            closed = r == spec.n_main - 1
            labels[r:r + 1] = [
                _interval_label(f"bin{r}.{j}", se[j], se[j + 1], closed and j == SUB_BINS - 1)
                for j in range(SUB_BINS)]
        out[name] = labels
    for comp in summaries.joints:
        out[comp.id] = list(itertools.product(
            *(_axis_labels(schema, specs, name) for name in comp.variables)))
    return out


def occupied(labels: Sequence, *tables: np.ndarray) -> list[int]:
    """Flat indices of the cells non-zero in any of tables, in label order."""
    nonzero = np.logical_or.reduce([np.ravel(t) > 0 for t in tables])
    return sorted(np.flatnonzero(nonzero).tolist(), key=labels.__getitem__)


def summary_payload(summaries: SummarySet, labels: Mapping[str, list],
                    include_detail: bool = True) -> dict:
    empty = {"empty": True} if summaries.n == 0 else {}
    marginals = []
    for name, counts in summaries.marginals.items():
        r = summaries.refined.get(name)
        detail = range(r, r + SUB_BINS) if r is not None else range(0)
        props = proportions(counts, summaries.n).tolist()
        cells = []
        for i, (label, p) in enumerate(zip(labels[name], props)):
            if i not in detail:
                cells.append({"label": label, "proportion": p})
            elif include_detail:
                cells.append({"label": label, "proportion": p, "detail": True})
        marginals.append({"unit": name, "cells": cells, **empty})
    joints = []
    for comp, counts in summaries.joints.items():
        keys = labels[comp.id]
        props = proportions(counts, summaries.n).ravel()
        cells = [{"labels": list(keys[i]), "proportion": float(props[i])}
                 for i in occupied(keys, counts)]
        joints.append({"unit": comp.id, "variables": list(comp.variables),
                       "cells": cells, **empty})
    return {"marginals": marginals, "joints": joints}
