from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statsynth import errors, oracle
from statsynth.discrepancy import compute_report, tvd
from statsynth.loop import LoopConfig, run
from statsynth.oracle import (
    OracleProposer,
    _apportion,
    _fill_variable,
    _Lattice,
    _sub_split,
    _transport_round,
    ideal_batch_histogram,
    infer_components,
    pairwise_mi,
)
from statsynth.proposals import ComponentContext, ProposerContext, validate_proposal
from statsynth.schema import Continuous, Dataset, Discrete, Variable, VariableSchema
from statsynth.summaries import (
    SUB_BINS,
    StructuralComponent,
    SummarySet,
    compute_summaries,
    encode,
    fit_all_bins,
    refine_all_bins,
)

ONE_VAR = VariableSchema((Variable("c", Discrete(("A", "B"))),))


def oracle_allocate(report, real_summaries, batch_size, *, schema, real_data, pool_size=0):
    """One oracle batch allocation outside the loop."""
    ctx = ProposerContext(
        schema=schema,
        real_summaries=real_summaries,
        report=report,
        components=(),
        k=1,
        batch_size=batch_size,
        pool_size=pool_size,
        bin_specs={},
        seed=0,
        real_codes=encode(real_data, {}),
    )
    return OracleProposer().propose(ctx)


def one_var_report(real_props, synth_props):
    real = SummarySetFor(real_props)
    return real, compute_report(real, SummarySetFor(synth_props))


def one_var_data(schema, props, n=10):
    values = []
    for label in sorted(props):
        values.extend([label] * round(props[label] * n))
    return Dataset.from_columns(schema, {schema.names[0]: values})


def SummarySetFor(props, n=10):
    """One-variable summary set holding props over n records."""
    counts = np.array([round(props[label] * n) for label in sorted(props)])
    return SummarySet({"c": counts}, {}, n)


def steering_ctx(real: Dataset, pool: Dataset, *, batch_size=200, seed=0,
                 n_components=3, k=5) -> ProposerContext:
    """Assemble one iteration's proposer inputs the way the loop does."""
    specs = fit_all_bins(real)
    real_codes, pool_codes = encode(real, specs), encode(pool, specs)
    refined = refine_all_bins(specs, real_codes, pool_codes)
    comps = []
    if len(real.schema.names) >= 2:
        cctx = ComponentContext(real.schema, real, compute_summaries(real_codes, specs),
                                specs, n_components=n_components, seed=seed,
                                batch_size=batch_size)
        comps = infer_components(cctx)
    real_sum = compute_summaries(real_codes, specs, comps, refined)
    pool_sum = compute_summaries(pool_codes, specs, comps, refined)
    return ProposerContext(
        schema=real.schema,
        real_summaries=real_sum,
        report=compute_report(real_sum, pool_sum),
        components=tuple(comps),
        k=k,
        batch_size=batch_size,
        pool_size=len(pool),
        bin_specs=specs,
        seed=seed,
        real_codes=real_codes,
    )


def proposal_marginal(proposals, var):
    """num-weighted distribution of a discrete variable's codes across proposals."""
    j = proposals.schema.index(var)
    n_codes = len(proposals.schema.variables[j].kind.categories)
    weights = np.bincount(proposals.columns[j], weights=proposals.num, minlength=n_codes)
    return weights / proposals.num.sum()


def test_all_a_frozen_example():
    real, report = one_var_report({"A": 0.7, "B": 0.3}, {"A": 0.3, "B": 0.7})
    data = one_var_data(ONE_VAR, {"A": 0.7, "B": 0.3})
    proposals = oracle_allocate(report, real, 100, schema=ONE_VAR, pool_size=100,
                                real_data=data)
    assert len(proposals) == 1
    assert proposals.columns[0].tolist() == [0]  # A
    assert proposals.num.tolist() == [100]


def test_batch_size_one():
    real, report = one_var_report({"A": 0.7, "B": 0.3}, {"A": 0.3, "B": 0.7})
    data = one_var_data(ONE_VAR, {"A": 0.7, "B": 0.3})
    proposals = oracle_allocate(report, real, 1, schema=ONE_VAR, pool_size=100,
                                real_data=data)
    assert len(proposals) == 1 and proposals.num.tolist() == [1]


def test_overgenerated_cell_never_targeted():
    schema = VariableSchema((Variable("c", Discrete(("A", "B", "C"))),))
    real = SummarySetFor({"A": 0.6, "B": 0.2, "C": 0.2})
    report = compute_report(real, SummarySetFor({"A": 0.1, "B": 0.8, "C": 0.1}))
    data = one_var_data(schema, {"A": 0.6, "B": 0.2, "C": 0.2})
    proposals = oracle_allocate(report, real, 100, schema=schema, pool_size=100,
                                real_data=data)
    assert len(proposals)
    assert 1 not in proposals.columns[0]  # B


dist = st.lists(st.integers(0, 50), min_size=2, max_size=8).filter(lambda w: sum(w) > 0)


@given(dist, dist, st.integers(1, 5000), st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_ideal_histogram_descent(rw, sw, m, b):
    k = min(len(rw), len(sw))
    r = np.array(rw[:k], float)
    s = np.array(sw[:k], float)
    if r.sum() == 0 or s.sum() == 0:
        return
    r, s = r / r.sum(), s / s.sum()
    h, neg = ideal_batch_histogram(r, s, m, b)
    assert h.min() >= 0 and h.sum() == pytest.approx(1.0)
    new = (m * s + b * h) / (m + b)
    old_tvd = 0.5 * np.abs(r - s).sum()
    new_tvd = 0.5 * np.abs(r - new).sum()
    assert new_tvd == pytest.approx(b * neg / (m + b), abs=1e-9)
    assert new_tvd <= m / (m + b) * old_tvd + 1e-9
    if old_tvd >= 0.05:
        assert new_tvd < old_tvd


@given(dist, st.integers(0, 400), st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_apportion_sums_and_support(w, total, seed):
    rng = np.random.default_rng(seed)
    counts = _apportion(np.array(w, float), total, rng)
    assert counts.sum() == total
    assert counts.min() >= 0
    raw = np.array(w, float) * total / sum(w)
    assert np.all(np.abs(counts - raw) < 1.0 + 1e-9)


@given(
    st.integers(1, 6), st.integers(1, 5),
    st.lists(st.integers(0, 30), min_size=30, max_size=30),
    st.integers(0, 2**31),
)
@settings(max_examples=100, deadline=None)
def test_transport_round_margins(G, L, cells, seed):
    rng = np.random.default_rng(seed)
    mat = np.array(cells[:G * L], float).reshape(G, L) + 0.01
    p = mat / mat.sum(axis=1, keepdims=True)
    rows = rng.integers(0, 40, G)
    raw = p * rows[:, None]
    cols = _apportion(raw.sum(axis=0), int(rows.sum()), rng)
    out = _transport_round(raw, rows, cols, rng)
    assert (out >= 0).all()
    assert np.array_equal(out.sum(axis=1), rows)
    assert np.array_equal(out.sum(axis=0), cols)


def reference_transport_round(raw, row_sums, col_sums, rng):
    """The rounding loop as first written: one rng.choice per leftover unit."""
    raw = np.asarray(raw, dtype=float)
    rows = np.asarray(row_sums, dtype=np.int64)
    cols = np.asarray(col_sums, dtype=np.int64)
    out = np.floor(raw).astype(np.int64)
    frac = raw - out
    over = out.sum(axis=0) - cols
    for l in np.flatnonzero(over > 0):
        while over[l] > 0:
            holders = np.flatnonzero(out[:, l] > 0)
            g = holders[np.argmin(frac[holders, l])]
            out[g, l] -= 1
            frac[g, l] += 1.0
            over[l] -= 1
    row_def = rows - out.sum(axis=1)
    col_def = cols - out.sum(axis=0)
    score = frac.copy()
    while row_def.sum() > 0:
        open_cells = (row_def[:, None] > 0) & (col_def[None, :] > 0)
        weight = np.where(open_cells, np.clip(score, 0.0, None), 0.0)
        total = weight.sum()
        if total <= 0:
            weight = open_cells.astype(float)
            total = weight.sum()
        flat = int(rng.choice(weight.size, p=(weight / total).ravel()))
        g, l = np.unravel_index(flat, weight.shape)
        out[g, l] += 1
        score[g, l] -= 1.0
        row_def[g] -= 1
        col_def[l] -= 1
    return out


def assert_rounds_like_reference(raw, rows, cols, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _transport_round(raw, rows, cols, rng_new)
    want = reference_transport_round(raw, rows, cols, rng_ref)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


@st.composite
def rounding_inputs(draw):
    """(raw, rows, cols): whole or fractional cells, column targets near or far.

    Column targets apportioned from the raw column sums are the loop's case;
    arbitrary targets make floor() overshoot columns (the shave pass), and
    whole-number cells leave no positive score (the uniform fallback).
    """
    G, L = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        raw = rng.integers(0, 4, (G, L)).astype(float)
        rows = raw.sum(axis=1).astype(np.int64)
    else:
        p = rng.dirichlet(np.full(L, draw(st.sampled_from([0.2, 1.0, 5.0]))), G)
        rows = rng.integers(0, 12, G)
        raw = p * rows[:, None]
    total = int(rows.sum())
    if draw(st.booleans()):
        cols = _apportion(raw.sum(axis=0), total, rng)
    else:
        cols = rng.multinomial(total, np.full(L, 1.0 / L))
    return raw, rows, cols


@given(rounding_inputs(), st.integers(0, 2**31))
@settings(max_examples=300, deadline=None)
def test_transport_round_matches_choice_reference(inputs, seed):
    raw, rows, cols = inputs
    out = assert_rounds_like_reference(raw, rows, cols, seed)
    assert np.array_equal(out.sum(axis=1), rows)
    assert np.array_equal(out.sum(axis=0), cols)


@pytest.mark.parametrize("raw, rows, cols", [
    # shave: floor() puts 3 in column 0, whose target is 1
    ([[1.5, 0.5], [1.6, 0.4]], [2, 2], [1, 3]),
    # fallback: after the shave the only open cell scores 0
    ([[2.0, 0.0], [0.0, 2.0]], [2, 2], [0, 4]),
    # fallback over several open cells, mixed with positive scores first
    ([[1.0, 1.0, 0.0], [0.0, 2.0, 0.5], [3.0, 0.0, 0.0]], [2, 3, 3], [1, 1, 6]),
    # zero leftover units: nothing drawn
    ([[1.0, 2.0], [3.0, 0.0]], [3, 3], [4, 2]),
    # one row, one column
    ([[0.3, 1.2, 2.5]], [4], [1, 1, 2]),
    ([[0.5], [1.5], [2.0]], [1, 2, 2], [5]),
])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_transport_round_reference_edge_cases(raw, rows, cols, seed):
    out = assert_rounds_like_reference(np.array(raw), np.array(rows), np.array(cols), seed)
    assert np.array_equal(out.sum(axis=1), rows)
    assert np.array_equal(out.sum(axis=0), cols)


@pytest.mark.parametrize("cols", [[3, 2], [1, 2]], ids=["columns-over", "columns-under"])
def test_transport_round_rejects_unequal_totals(cols):
    with pytest.raises(errors.ProposerError, match="column totals"):
        _transport_round(np.array([[1.5, 0.5], [0.5, 1.5]]), np.array([2, 2]),
                         np.array(cols), np.random.default_rng(0))


def test_empty_pool_batch_matches_real_marginals(ref_2k):
    ctx = steering_ctx(ref_2k, Dataset.empty(ref_2k.schema), batch_size=200)
    proposals = OracleProposer().propose(ctx)
    assert proposals.num.sum() == 200
    assert validate_proposal(proposals) == {}
    for var in ref_2k.schema.names:
        if not isinstance(ref_2k.schema.kind(var), Discrete):
            continue
        got = proposal_marginal(proposals, var)
        real = ctx.real_summaries.marginals[var] / ctx.real_summaries.n
        t = 0.5 * np.abs(got - real).sum()
        assert t <= 2 / 200 + 1e-9, f"{var}: TVD {t}"


def test_empty_pool_continuous_main_bins_match(ref_2k):
    ctx = steering_ctx(ref_2k, Dataset.empty(ref_2k.schema), batch_size=200)
    proposals = OracleProposer().propose(ctx)
    for var in ("user_age", "price"):
        spec = ctx.bin_specs[var]
        mid = proposals.columns[ref_2k.schema.index(var)].mean(axis=1)
        got = np.bincount(spec.fine_codes(mid) // SUB_BINS, weights=proposals.num,
                          minlength=spec.n_main)
        got /= got.sum()
        table = ctx.real_summaries.marginals[var] / ctx.real_summaries.n
        r = ctx.real_summaries.refined.get(var)
        if r is not None:
            table = np.concatenate([table[:r], [table[r:r + SUB_BINS].sum()],
                                    table[r + SUB_BINS:]])
        want = table
        assert 0.5 * np.abs(got - want).sum() <= 6 / (2 * 200) + 1e-9


def test_ranges_are_sub_bin_width(ref_2k):
    ctx = steering_ctx(ref_2k, Dataset.empty(ref_2k.schema), batch_size=200)
    proposals = OracleProposer().propose(ctx)
    for var in ("user_age", "price"):
        spec = ctx.bin_specs[var]
        widths = np.diff(spec.edges) / 8
        lo, hi = proposals.columns[ref_2k.schema.index(var)].T
        main = spec.fine_codes(0.5 * (lo + hi)) // SUB_BINS
        assert hi - lo == pytest.approx(widths[main], rel=1e-9)


def test_deterministic_for_fixed_seed(ref_2k):
    a = OracleProposer().propose(steering_ctx(ref_2k, Dataset.empty(ref_2k.schema)))
    b = OracleProposer().propose(steering_ctx(ref_2k, Dataset.empty(ref_2k.schema)))
    for x, y in zip(a.columns + (a.num,), b.columns + (b.num,)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_maintenance_mode_tracks_real(ref_2k):
    ctx = steering_ctx(ref_2k, ref_2k, batch_size=200)
    assert max(u.value for u in ctx.report.units.values()) == 0.0
    proposals = OracleProposer().propose(ctx)
    assert proposals.num.sum() == 200
    for var in ref_2k.schema.names:
        if isinstance(ref_2k.schema.kind(var), Discrete):
            got = proposal_marginal(proposals, var)
            real = ctx.real_summaries.marginals[var] / ctx.real_summaries.n
            t = 0.5 * np.abs(got - real).sum()
            assert t <= 2 / 200 + 1e-9


def test_joint_target_corrects_dependence(two_binary_schema):
    rows = []
    for combo, n in [(("A0", "B0"), 160), (("A0", "B1"), 40),
                     (("A1", "B0"), 40), (("A1", "B1"), 160)]:
        rows += [combo] * n
    real = Dataset.from_records(two_binary_schema, rows)
    pool_rows = []
    for combo in [("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1")]:
        pool_rows += [combo] * 100
    pool = Dataset.from_records(two_binary_schema, pool_rows)
    ctx = steering_ctx(real, pool, batch_size=400)
    assert len(ctx.components) == 1 and ctx.components[0].id == "a+b"
    report = ctx.report
    assert report.marginals["a"].value == 0.0
    assert report.joints["a+b"].value == pytest.approx(0.3)
    proposals = OracleProposer().propose(ctx)
    got = {}
    for a, b, num in zip(*(col.tolist() for col in proposals.columns + (proposals.num,))):
        key = ("A0", "A1")[a], ("B0", "B1")[b]
        got[key] = got.get(key, 0) + num
    assert got == {("A0", "B0"): 200, ("A1", "B1"): 200}


def test_pool_progression_keeps_conservation(ref_2k):
    from statsynth.reference import EcommerceParams, generate
    for pool_seed, n_pool in [(31, 200), (32, 1000)]:
        pool = generate(EcommerceParams(), n_pool, seed=pool_seed)
        ctx = steering_ctx(ref_2k, pool, batch_size=200, seed=pool_seed)
        proposals = OracleProposer().propose(ctx)
        assert proposals.num.sum() == 200
        assert validate_proposal(proposals) == {}


def test_infer_components_shape(ref_2k):
    base = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k, compute_summaries(ref_2k, base),
                            base, n_components=3)
    comps = infer_components(cctx)
    assert len(comps) == 3
    assert len({c.id for c in comps}) == 3
    for c in comps:
        assert 2 <= len(c.variables) <= 4
        assert set(c.variables) <= set(ref_2k.schema.names)


def test_infer_components_two_var_schema(two_binary_schema):
    data = Dataset.from_records(
        two_binary_schema, [("A0", "B0"), ("A1", "B1")] * 20)
    cctx = ComponentContext(two_binary_schema, data,
                            compute_summaries(data, {}), {}, n_components=3)
    comps = infer_components(cctx)
    assert len(comps) == 1
    assert set(comps[0].variables) == {"a", "b"}


def test_infer_components_needs_two_variables():
    data = Dataset.from_records(ONE_VAR, [("A",)])
    cctx = ComponentContext(ONE_VAR, data, compute_summaries(data, {}), {})
    with pytest.raises(errors.TooFewVariables):
        infer_components(cctx)


@contextmanager
def counted_component_searches():
    calls = []
    search = oracle.infer_components

    def count(ctx):
        calls.append(ctx)
        return search(ctx)

    with mock.patch.object(oracle, "infer_components", count):
        yield calls


def test_run_searches_components_once(ref_2k):
    cfg = LoopConfig(iterations=5, batch_size=100, n_components=2, seed=4,
                     full_metrics_every=0)
    with counted_component_searches() as calls:
        _, history = run(ref_2k, cfg, OracleProposer())
    assert len(calls) == 1
    assert all(row["components"] == history[0]["components"] for row in history)


def test_component_memo_follows_sizes_and_data(ref_2k):
    specs = fit_all_bins(ref_2k)

    def ctx(data, n_components, seed=0):
        return ComponentContext(data.schema, data, compute_summaries(encode(data, specs), specs),
                                specs, n_components=n_components, seed=seed, batch_size=200)

    proposer = OracleProposer()
    with counted_component_searches() as calls:
        first = proposer.infer_components(ctx(ref_2k, 2))
        assert proposer.infer_components(ctx(ref_2k, 2, seed=9)) == first
        assert len(calls) == 1
        three = proposer.infer_components(ctx(ref_2k, 3))
        assert len(calls) == 2 and three == infer_components(ctx(ref_2k, 3))
        other = Dataset(ref_2k.schema, tuple(c[:1000] for c in ref_2k.columns))
        proposer.infer_components(ctx(other, 3))
        assert len(calls) == 3


def test_component_memo_returns_fresh_lists(ref_2k):
    specs = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k, compute_summaries(encode(ref_2k, specs), specs),
                            specs, n_components=2, batch_size=200)
    proposer = OracleProposer()
    first = proposer.infer_components(cctx)
    want = list(first)
    first.clear()
    again = proposer.infer_components(cctx)
    assert again == want and again is not first
    again.append(StructuralComponent(("gender", "price")))
    assert proposer.infer_components(cctx) == want


def brute_mi(x_codes, y_codes, nx, ny):
    joint = np.zeros((nx, ny))
    np.add.at(joint, (x_codes, y_codes), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / (px @ py)[mask])))


def test_pairwise_mi_against_brute_force(ref_100k):
    specs = fit_all_bins(ref_100k)
    cat = ref_100k.codes("product_category")
    gender = ref_100k.codes("gender")
    price_bins = specs["price"].fine_codes(ref_100k.codes("price")) // SUB_BINS
    n_bins = specs["price"].n_main
    want_cat = brute_mi(cat, price_bins, 4, n_bins)
    want_gender = brute_mi(gender, price_bins, 2, n_bins)
    codes = encode(ref_100k, specs)
    got_cat = pairwise_mi(codes, "product_category", "price", specs)
    got_gender = pairwise_mi(codes, "gender", "price", specs)
    assert got_cat == pytest.approx(want_cat, abs=1e-12)
    assert got_gender == pytest.approx(want_gender, abs=1e-12)
    assert got_cat > got_gender


def test_propose_builds_no_labels(ref_2k, monkeypatch):
    # labels belong to the JSON and CSV edges: the batch plan is made of codes
    def boom(*args, **kwargs):
        raise AssertionError("the oracle built or sorted cell labels")

    monkeypatch.setattr(oracle, "unit_labels", boom, raising=False)
    monkeypatch.setattr(oracle, "occupied", boom, raising=False)
    from statsynth.reference import EcommerceParams, generate
    pool = generate(EcommerceParams(), 400, seed=5)
    ctx = steering_ctx(ref_2k, pool, batch_size=200)
    assert ctx.report.joints
    proposals = OracleProposer().propose(ctx)
    assert proposals.num.sum() == 200


# ---------------------------------------------------------------------------
# the array fill against the per-group fill it replaced


def reference_fill_variable(lattice, w, groups, col, rng):
    """Per-group fill: one searchsorted and one bincount per group.

    groups is a list of (codes, count), codes a dict from the lattice
    columns filled so far (in fill order) to their codes.
    """
    n_labels = lattice.dims[col]
    marg = np.bincount(lattice.codes[:, col], weights=w, minlength=n_labels)
    rows = np.array([count for _, count in groups], dtype=np.int64)
    cols = _apportion(marg, int(rows.sum()), rng)
    assigned = list(groups[0][0])
    if assigned:
        dims = tuple(lattice.dims[c] for c in assigned)
        cell_keys = np.ravel_multi_index(tuple(lattice.codes[:, c] for c in assigned), dims)
        sort_idx = np.argsort(cell_keys, kind="stable")
        sorted_keys = cell_keys[sort_idx]
        fallback = marg / marg.sum() if marg.sum() > 0 else np.full(n_labels, 1.0 / n_labels)
        p_rows = []
        for codes, _ in groups:
            key = int(np.ravel_multi_index(tuple([codes[c]] for c in assigned), dims)[0])
            lo = np.searchsorted(sorted_keys, key, side="left")
            hi = np.searchsorted(sorted_keys, key, side="right")
            sel = sort_idx[lo:hi]
            row = np.bincount(lattice.codes[sel, col], weights=w[sel], minlength=n_labels)
            total = row.sum()
            p_rows.append(row / total if total > 0.0 else fallback)
        p_matrix = np.stack(p_rows)
    else:
        base = marg / marg.sum() if marg.sum() > 0 else np.full(n_labels, 1.0 / n_labels)
        p_matrix = np.tile(base, (len(groups), 1))
    alloc = oracle._transport_round(p_matrix * rows[:, None], rows, cols, rng)
    return [({**codes, col: int(li)}, int(alloc[gi, li]))
            for gi, (codes, _) in enumerate(groups) for li in np.flatnonzero(alloc[gi])]


def reference_sub_split(groups, col, detail, rng):
    """Per-bin sub-split over (codes, count) groups; col gets fine codes."""
    by_bin: dict[int, list] = {}
    for g in groups:
        by_bin.setdefault(g[0][col], []).append(g)
    out = []
    for i in sorted(by_bin):
        members = by_bin[i]
        rows = np.array([count for _, count in members], dtype=np.int64)
        cols = _apportion(detail[i], int(rows.sum()), rng)
        p_matrix = np.tile(detail[i], (len(members), 1))
        alloc = oracle._transport_round(p_matrix * rows[:, None], rows, cols, rng)
        for gi, (codes, _) in enumerate(members):
            for j in np.flatnonzero(alloc[gi]):
                out.append(({**codes, col: SUB_BINS * i + int(j)}, int(alloc[gi, j])))
    return out


@contextmanager
def transport_inputs():
    """Record every matrix handed to the transportation rounding."""
    calls = []
    rounding = oracle._transport_round

    def record(raw, rows, cols, rng):
        calls.append((raw.copy(), np.array(rows), np.array(cols)))
        return rounding(raw, rows, cols, rng)

    with mock.patch.object(oracle, "_transport_round", record):
        yield calls


def assert_same_inputs(got, want):
    # bit for bit: rounding would hide a difference in the last bits
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def as_groups(codes, counts, columns):
    return [(dict(zip(columns, row)), count)
            for row, count in zip(codes.tolist(), counts.tolist())]


weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def lattices(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    cells = draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in dims)),
                          min_size=1, max_size=40, unique=True))
    codes = np.array(sorted(cells), dtype=np.int64)
    w = np.array(draw(st.lists(weight, min_size=len(codes), max_size=len(codes))))
    return _Lattice(codes, w, dims, {}), w


@given(lattices(), st.data(), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_fill_variable_matches_per_group_reference(lat, data, seed):
    lattice, w = lat
    n_vars = len(lattice.dims)
    order = data.draw(st.permutations(range(n_vars)))
    n_filled = data.draw(st.integers(0, n_vars - 1))
    filled, col = list(order[:n_filled]), order[n_filled]
    if filled:
        # some rows may match no lattice cell: they fall back to the marginal
        rows = data.draw(st.lists(
            st.tuples(*(st.integers(0, lattice.dims[c] - 1) for c in filled)),
            min_size=1, max_size=12, unique=True))
    else:
        rows = [()]
    codes = np.array(rows, dtype=np.int64).reshape(len(rows), len(filled))
    counts = np.array(data.draw(st.lists(st.integers(1, 20), min_size=len(rows),
                                         max_size=len(rows))), dtype=np.int64)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with transport_inputs() as got_inputs:
        got_codes, got_counts = _fill_variable(lattice, w, filled, codes, counts, col, rng_new)
    with transport_inputs() as want_inputs:
        want = reference_fill_variable(lattice, w, as_groups(codes, counts, filled), col,
                                       rng_ref)
    assert_same_inputs(got_inputs, want_inputs)
    assert as_groups(got_codes, got_counts, filled + [col]) == want
    assert got_codes.dtype == np.int64 and got_counts.dtype == np.int64
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(st.data(), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_sub_split_matches_per_bin_reference(data, seed):
    n_main = data.draw(st.integers(1, 6))
    n_cols = data.draw(st.integers(1, 3))
    col = data.draw(st.integers(0, n_cols - 1))
    n_rows = data.draw(st.integers(1, 15))
    codes = np.array(data.draw(st.lists(
        st.lists(st.integers(0, n_main - 1), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    counts = np.array(data.draw(st.lists(st.integers(1, 20), min_size=n_rows,
                                         max_size=n_rows)), dtype=np.int64)
    detail = np.array(data.draw(st.lists(
        st.lists(weight, min_size=SUB_BINS, max_size=SUB_BINS).filter(lambda r: sum(r) > 0),
        min_size=n_main, max_size=n_main)))
    detail = detail / detail.sum(axis=1, keepdims=True)
    columns = list(range(n_cols))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with transport_inputs() as got_inputs:
        got_codes, got_counts = _sub_split(codes, counts, col, detail, rng_new)
    with transport_inputs() as want_inputs:
        want = reference_sub_split(as_groups(codes, counts, columns), col, detail, rng_ref)
    assert_same_inputs(got_inputs, want_inputs)
    assert as_groups(got_codes, got_counts, columns) == want
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
