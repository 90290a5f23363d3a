from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statsynth import errors
from statsynth.discrepancy import compute_report, tvd
from statsynth.reference import EcommerceParams, generate
from statsynth.summaries import (
    StructuralComponent,
    SummarySet,
    compute_summaries,
    fit_all_bins,
    unit_labels,
)


def test_tvd_frozen_example():
    assert tvd(np.array([0.5, 0.5]), np.array([0.7, 0.3])) == pytest.approx(0.2)


def test_tvd_requires_matching_units():
    p = np.array([0.5, 0.5])
    with pytest.raises(errors.UnitMismatch):
        tvd(p, np.array([0.5, 0.3, 0.2]))
    with pytest.raises(errors.UnitMismatch):
        tvd(p.reshape(1, 2), p.reshape(2, 1))
    # one variable refined on one side only: the cell layouts disagree
    real = SummarySet({"c": np.array([5, 5])}, {}, 10, {"c": 0})
    with pytest.raises(errors.UnitMismatch):
        compute_report(real, SummarySet({"c": np.array([5, 5])}, {}, 10))


def test_tvd_contingency_key_union():
    # axes (x, y) by (u, v); cells (y, v) and (x, v) each occupied on one side only
    p = np.array([[0.6, 0.0], [0.0, 0.4]])
    q = np.array([[0.6, 0.4], [0.0, 0.0]])
    assert tvd(p, q) == pytest.approx(0.4)


@given(st.lists(st.integers(0, 100), min_size=2, max_size=6),
       st.lists(st.integers(0, 100), min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_tvd_properties(aw, bw):
    k = min(len(aw), len(bw))
    aw, bw = aw[:k], bw[:k]
    if sum(aw) == 0 or sum(bw) == 0:
        return
    p = np.array(aw) / sum(aw)
    q = np.array(bw) / sum(bw)
    v = tvd(p, q)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert tvd(q, p) == pytest.approx(v, abs=1e-12)
    assert tvd(p, p) == 0.0


def test_report_structure_and_signed_gaps(ref_2k):
    synth = generate(EcommerceParams(), 300, seed=51)
    specs = fit_all_bins(ref_2k)
    comps = [StructuralComponent(("location_tier", "payment_method"))]
    real = compute_summaries(ref_2k, specs, comps)
    syn = compute_summaries(synth, specs, comps)
    report = compute_report(real, syn)
    assert set(report.marginals) == set(ref_2k.schema.names)
    assert set(report.joints) == {"location_tier+payment_method"}
    for unit in report.units.values():
        gaps = unit.cells
        # signed gaps over a shared support cancel out
        assert sum(gaps) == pytest.approx(0.0, abs=1e-9)
        assert unit.value == pytest.approx(0.5 * sum(abs(g) for g in gaps))
        for gap, r, s in zip(unit.cells, unit.real, unit.synth):
            assert gap == pytest.approx(r - s)
    vals = [u.value for u in report.units.values()]
    assert report.mean_tvd == pytest.approx(np.mean(vals))


def test_report_empty_synth_is_unit_discrepancy(ref_2k):
    from statsynth.schema import Dataset
    specs = fit_all_bins(ref_2k)
    real = compute_summaries(ref_2k, specs)
    syn = compute_summaries(Dataset.empty(ref_2k.schema), specs)
    report = compute_report(real, syn)
    for unit in report.units.values():
        assert unit.empty_synth
        assert unit.value == 1.0
    assert report.mean_tvd == 1.0


def test_report_missing_unit_raises(ref_2k):
    specs = fit_all_bins(ref_2k)
    real = compute_summaries(ref_2k, specs,
                             [StructuralComponent(("gender", "location_tier"))])
    syn = compute_summaries(ref_2k, specs)
    with pytest.raises(errors.MissingSummary):
        compute_report(real, syn)


@given(st.integers(0, 5), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_perturbing_one_variable_only_moves_its_units(var_i, seed):
    from statsynth.schema import Dataset, Discrete

    real = generate(EcommerceParams(), 400, seed=17)
    synth = generate(EcommerceParams(), 250, seed=seed)
    name = real.schema.names[var_i]
    comps = [StructuralComponent(("location_tier", "payment_method")),
             StructuralComponent(("user_age", "product_category", "price"))]
    specs = fit_all_bins(real)
    real_sum = compute_summaries(real, specs, comps)
    labels = unit_labels(real_sum, real.schema, specs)

    # collapse one column to a constant, keep every other column bit-identical
    cols = {n: synth.column(n).copy() for n in synth.schema.names}
    kind = synth.schema.kind(name)
    if isinstance(kind, Discrete):
        cols[name] = [kind.categories[0]] * len(synth)
    else:
        cols[name] = np.full(len(synth), float(np.min(cols[name])))
    moved = Dataset.from_columns(synth.schema, cols)

    before = compute_report(real_sum, compute_summaries(synth, specs, comps))
    after = compute_report(real_sum, compute_summaries(moved, specs, comps))
    for uname, unit in before.units.items():
        touches = name in uname.split("+") if "+" in uname else uname == name
        if touches:
            continue
        twin = after.units[uname]
        assert twin.value == unit.value
        assert list(zip(labels[uname], twin.real, twin.synth)) == \
            list(zip(labels[uname], unit.real, unit.synth))
    assert after.marginals[name].value != before.marginals[name].value
