"""Proposal types and the pluggable proposer contract.

A proposal is a sampleable region of the joint variable space: every schema
variable is pinned to either a fixed category or a numeric range, together
with a sample count. Proposers (the deterministic oracle, or an LLM client)
consume a ProposerContext and emit proposals; the synthesis loop turns them
into records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Union

from . import errors
from .discrepancy import DiscrepancyReport
from .schema import Dataset, Discrete, VariableSchema
from .summaries import BinSpec, Codes, StructuralComponent, SummarySet


@dataclass(frozen=True)
class FixedCategory:
    value: str


@dataclass(frozen=True)
class Range:
    lo: float
    hi: float


Assignment = Union[FixedCategory, Range]


@dataclass(frozen=True)
class Proposal:
    """A complete variable configuration plus the number of records to draw."""

    assignments: dict[str, Assignment]
    num: int
    rationale: str = ""


def validate_proposal(proposal: Proposal, schema: VariableSchema) -> None:
    """Raise InfeasibleProposal unless the proposal is sampleable under schema."""
    if not isinstance(proposal.num, int) or proposal.num < 1:
        raise errors.InfeasibleProposal(f"num must be a positive integer, got {proposal.num!r}")
    names = set(schema.names)
    got = set(proposal.assignments)
    missing = names - got
    if missing:
        raise errors.InfeasibleProposal(f"missing assignments for {sorted(missing)}")
    extra = got - names
    if extra:
        raise errors.InfeasibleProposal(f"unknown variables {sorted(extra)}")
    for var in schema:
        value = proposal.assignments[var.name]
        kind = var.kind
        if isinstance(kind, Discrete):
            if not isinstance(value, FixedCategory):
                raise errors.InfeasibleProposal(
                    f"{var.name} is discrete and needs a fixed category, got {value!r}")
            if value.value not in kind.categories:
                raise errors.InfeasibleProposal(
                    f"{var.name}: unknown category {value.value!r}")
        else:
            if not isinstance(value, Range):
                raise errors.InfeasibleProposal(
                    f"{var.name} is continuous and needs a range, got {value!r}")
            lo, hi = value.lo, value.hi
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise errors.InfeasibleProposal(f"{var.name}: non-finite range")
            if lo > hi:
                raise errors.InfeasibleProposal(f"{var.name}: empty range [{lo}, {hi}]")
            if lo < kind.lower or hi > kind.upper:
                raise errors.InfeasibleProposal(
                    f"{var.name}: range [{lo}, {hi}] outside bounds "
                    f"[{kind.lower}, {kind.upper}]")


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
    name: str

    def infer_components(self, ctx: ComponentContext) -> list[StructuralComponent]: ...

    def propose(self, ctx: ProposerContext) -> list[Proposal]: ...
