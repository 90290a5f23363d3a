from __future__ import annotations

import numpy as np
import pytest

from statsynth import errors
from statsynth.discrepancy import DiscrepancyReport
from statsynth.proposals import (
    ComponentContext,
    Proposals,
    ProposerContext,
    validate_proposal,
)
from statsynth.summaries import SummarySet


def ok_columns():
    """color red, size [1, 2], num 5: one proposal as columns."""
    return {"color": np.array([0]), "size": np.array([[1.0, 2.0]]), "num": np.array([5])}


def build(tiny_schema, cols):
    return Proposals(tiny_schema, [cols[name] for name in tiny_schema.names if name in cols]
                     + cols.get("extra", []), cols["num"])


def checked(tiny_schema, cols) -> None:
    """Build the proposals, then raise InfeasibleProposal with row 0's reason."""
    infeasible = validate_proposal(build(tiny_schema, cols))
    if infeasible:
        raise errors.InfeasibleProposal(infeasible[0])


def test_valid_proposal_passes(tiny_schema):
    proposals = build(tiny_schema, ok_columns())
    assert len(proposals) == 1
    assert validate_proposal(proposals) == {}


# missing, unknown variables, fixed category and needs a range are shape errors
# the constructor raises; the rest are row values validate_proposal rejects
@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c.pop("size"), "missing"),
    (lambda c: c.update(extra=[np.array([0])]), "unknown variables"),
    (lambda c: c.update(color=np.array([3])), "unknown category"),
    (lambda c: c.update(color=np.array([[0.0, 1.0]])), "fixed category"),
    (lambda c: c.update(size=np.array([0])), "needs a range"),
    (lambda c: c.update(size=np.array([[5.0, 2.0]])), "empty range"),
    (lambda c: c.update(size=np.array([[-1.0, 2.0]])), "outside bounds"),
    (lambda c: c.update(size=np.array([[1.0, 11.0]])), "outside bounds"),
    (lambda c: c.update(size=np.array([[0.0, float("inf")]])), "non-finite"),
])
def test_invalid_assignments(tiny_schema, mutate, fragment):
    cols = ok_columns()
    mutate(cols)
    with pytest.raises(errors.InfeasibleProposal, match=fragment):
        checked(tiny_schema, cols)


@pytest.mark.parametrize("num", [0, -3, 2.0])
def test_bad_num(tiny_schema, num):
    with pytest.raises(errors.InfeasibleProposal, match="num"):
        checked(tiny_schema, {**ok_columns(), "num": np.array([num])})


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(color=np.array([0.0])),
    lambda c: c.update(color=np.array([0, 1])),
    lambda c: c.update(size=np.array([[1, 2]])),
    lambda c: c.update(size=np.array([[1.0, 2.0, 3.0]])),
    lambda c: c.update(num=np.array(5)),
])
def test_columns_must_match_schema_and_length(tiny_schema, mutate):
    cols = ok_columns()
    mutate(cols)
    with pytest.raises(errors.InfeasibleProposal):
        build(tiny_schema, cols)


def test_each_row_gets_its_first_reason(tiny_schema):
    proposals = Proposals(tiny_schema,
                          [np.array([0, 7, 7, 1, -1, 2]),
                           np.array([[1.0, 2.0], [5.0, 2.0], [1.0, 2.0], [3.0, 11.0],
                                     [1.0, 2.0], [float("nan"), 1.0]])],
                          np.array([1, 0, 2, 4, 1, 1]))
    infeasible = validate_proposal(proposals)
    assert sorted(infeasible) == [1, 2, 3, 4, 5]
    assert "num" in infeasible[1]
    assert "unknown category code 7" in infeasible[2]
    assert "outside bounds" in infeasible[3]
    assert "unknown category code -1" in infeasible[4]
    assert "non-finite" in infeasible[5]


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
