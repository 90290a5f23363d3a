"""Proposal columns and the pluggable proposer contract.

A proposal is a sampleable region of the joint variable space: every schema
variable is pinned to either a fixed category or a numeric range, together
with a sample count. Proposers (the deterministic oracle, or an LLM client)
consume a ProposerContext and emit a batch of proposals as Proposals
columns; the synthesis loop samples records straight from those columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import errors
from .discrepancy import DiscrepancyReport
from .schema import Dataset, Discrete, VariableSchema
from .summaries import BinSpec, Codes, StructuralComponent, SummarySet


class Proposals:
    """k proposals as columns over a schema.

    columns[j] holds schema variable j for every proposal: an int64 (k,)
    column of category codes for a discrete variable, a float64 (k, 2)
    column of [lo, hi] bounds for a continuous one. num is the int64 (k,)
    column of record counts. The constructor checks shapes and dtypes only;
    validate_proposal checks the values.
    """

    __slots__ = ("schema", "columns", "num")

    def __init__(self, schema: VariableSchema, columns: Sequence[np.ndarray],
                 num: np.ndarray) -> None:
        self.schema, self.num = schema, np.asarray(num)
        self.columns = tuple(np.asarray(col) for col in columns)
        if self.num.ndim != 1 or self.num.dtype != np.int64:
            raise errors.InfeasibleProposal(f"num must be a 1-D int64 column, got {self.num!r:.60}")
        k = len(self.num)
        if len(self.columns) != len(schema):
            problem = ("missing columns" if len(self.columns) < len(schema)
                       else "columns for unknown variables")
            raise errors.InfeasibleProposal(
                f"{problem}: {len(self.columns)} for {len(schema)} schema variables")
        for var, col in zip(schema, self.columns):
            if isinstance(var.kind, Discrete):
                need, shape, dtype = "a fixed category", (k,), np.int64
            else:
                need, shape, dtype = "a range", (k, 2), np.float64
            if col.shape != shape or col.dtype != dtype:
                raise errors.InfeasibleProposal(
                    f"{var.name} needs {need} per proposal, a {shape} {np.dtype(dtype)} "
                    f"column; got {col.dtype} {col.shape}")

    def __len__(self) -> int:
        return len(self.num)


def validate_proposal(proposals: Proposals) -> dict[int, str]:
    """Why each infeasible proposal cannot be sampled, by row; empty when none is.

    A row is infeasible when its num is below 1, a code names no category,
    or a range is non-finite, empty (lo > hi) or outside the variable's
    bounds. Each row gets its first reason in that order, variables taken
    in schema order.
    """
    reasons: dict[int, str] = {}

    def flag(mask: np.ndarray, reason) -> None:
        for i in np.flatnonzero(mask).tolist():
            reasons.setdefault(i, reason(i))

    num = proposals.num
    flag(num < 1, lambda i: f"num must be a positive integer, got {num[i]}")
    for var, col in zip(proposals.schema, proposals.columns):
        kind, name = var.kind, var.name
        if isinstance(kind, Discrete):
            flag((col < 0) | (col >= len(kind.categories)),
                 lambda i: f"{name}: unknown category code {col[i]}")
            continue
        lo, hi = col[:, 0], col[:, 1]
        finite = np.isfinite(lo) & np.isfinite(hi)
        flag(~finite, lambda i: f"{name}: non-finite range")
        flag(finite & (lo > hi), lambda i: f"{name}: empty range [{lo[i]}, {hi[i]}]")
        flag(finite & ((lo < kind.lower) | (hi > kind.upper)),
             lambda i: f"{name}: range [{lo[i]}, {hi[i]}] outside bounds "
                       f"[{kind.lower}, {kind.upper}]")
    return reasons


@dataclass(frozen=True)
class ProposerContext:
    """Everything a proposer may consult when generating one iteration's batch.

    pool_size is the cumulative pool BEFORE this iteration's batch; the
    report compares real summaries against that same pool. real_codes, the
    real records binned onto the grid of bin_specs, is consulted by the
    oracle for the joint lattice and within-bin composition; LLM proposers
    see only the serialized summaries.
    """

    schema: VariableSchema
    real_summaries: SummarySet
    report: DiscrepancyReport
    components: tuple[StructuralComponent, ...]
    k: int
    batch_size: int
    pool_size: int
    bin_specs: dict[str, BinSpec | None]
    seed: int
    guidance: str = ""
    real_codes: Codes | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise errors.ConfigError("k must be >= 1")
        if self.batch_size < self.k:
            raise errors.ConfigError("batch_size must be >= k")
        if self.pool_size < 0:
            raise errors.ConfigError("pool_size must be >= 0")


@dataclass(frozen=True)
class ComponentContext:
    """Inputs for dependency inference (choosing structural components).

    batch_size, when given, caps how large a component's contingency table
    may grow: a correction batch of b records cannot meaningfully steer a
    table with more than b/2 cells, so such components are not formed.
    """

    schema: VariableSchema
    real_data: Dataset
    real_marginals: SummarySet
    bin_specs: dict[str, BinSpec | None]
    n_components: int = 3
    seed: int = 0
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise errors.ConfigError("n_components must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise errors.ConfigError("batch_size must be >= 1 when set")


class Proposer(Protocol):
    """propose returns Proposals over ctx.schema, every row feasible and num
    summing to ctx.batch_size; the loop refuses any other batch."""

    name: str

    def infer_components(self, ctx: ComponentContext) -> list[StructuralComponent]: ...

    def propose(self, ctx: ProposerContext) -> Proposals: ...
