from __future__ import annotations

import pytest

from statsynth import errors
from statsynth.discrepancy import DiscrepancyReport
from statsynth.proposals import (
    ComponentContext,
    FixedCategory,
    Proposal,
    ProposerContext,
    Range,
    validate_proposal,
)
from statsynth.summaries import SummarySet


def ok_proposal(tiny_schema):
    return Proposal({"color": FixedCategory("red"), "size": Range(1.0, 2.0)}, 5)


def test_valid_proposal_passes(tiny_schema):
    validate_proposal(ok_proposal(tiny_schema), tiny_schema)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda a: a.pop("size"), "missing"),
    (lambda a: a.update(extra=FixedCategory("x")), "unknown variables"),
    (lambda a: a.update(color=FixedCategory("mauve")), "unknown category"),
    (lambda a: a.update(color=Range(0.0, 1.0)), "fixed category"),
    (lambda a: a.update(size=FixedCategory("red")), "needs a range"),
    (lambda a: a.update(size=Range(5.0, 2.0)), "empty range"),
    (lambda a: a.update(size=Range(-1.0, 2.0)), "outside bounds"),
    (lambda a: a.update(size=Range(1.0, 11.0)), "outside bounds"),
    (lambda a: a.update(size=Range(0.0, float("inf"))), "non-finite"),
])
def test_invalid_assignments(tiny_schema, mutate, fragment):
    assigns = dict(ok_proposal(tiny_schema).assignments)
    mutate(assigns)
    with pytest.raises(errors.InfeasibleProposal, match=fragment):
        validate_proposal(Proposal(assigns, 5), tiny_schema)


@pytest.mark.parametrize("num", [0, -3, 2.0])
def test_bad_num(tiny_schema, num):
    p = Proposal(ok_proposal(tiny_schema).assignments, num)
    with pytest.raises(errors.InfeasibleProposal, match="num"):
        validate_proposal(p, tiny_schema)


def _ctx_kwargs(schema):
    return dict(
        schema=schema,
        real_summaries=SummarySet({}, {}, 0),
        report=DiscrepancyReport({}, {}, 0.0),
        components=(),
        bin_specs={},
        seed=0,
    )


def test_context_invariants(tiny_schema):
    kw = _ctx_kwargs(tiny_schema)
    ProposerContext(k=1, batch_size=1, pool_size=0, **kw)
    with pytest.raises(errors.ConfigError):
        ProposerContext(k=0, batch_size=5, pool_size=0, **kw)
    with pytest.raises(errors.ConfigError):
        ProposerContext(k=5, batch_size=4, pool_size=0, **kw)
    with pytest.raises(errors.ConfigError):
        ProposerContext(k=1, batch_size=5, pool_size=-1, **kw)


def test_component_context_invariant(tiny_schema, ref_2k):
    with pytest.raises(errors.ConfigError):
        ComponentContext(tiny_schema, ref_2k, SummarySet({}, {}, 0), {}, n_components=0)
