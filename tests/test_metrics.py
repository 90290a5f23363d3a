from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial.distance import cdist
from scipy.stats import wasserstein_distance

from statsynth import errors, metrics
from statsynth.metrics import (
    c2st_gap,
    encode_features,
    energy_distance,
    hellinger,
    jsd,
    kl,
    metric_suite,
    mmd_rbf,
    wasserstein1,
)
from statsynth.reference import EcommerceParams, generate
from statsynth.schema import Continuous, Dataset, Discrete, Variable, VariableSchema


def transport_w1(x, y):
    """LP solution of the 1-D optimal transport problem, uniform weights."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = len(x), len(y)
    cost = np.abs(x[:, None] - y[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        a_eq.append(col)
        b_eq.append(1.0 / m)
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_w1_frozen_examples():
    assert wasserstein1([0.0, 0.0], [0.0, 2.0]) == pytest.approx(1.0)
    assert wasserstein1([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    # unequal sizes: {0} vs {0, 1} -> 0.5
    assert wasserstein1([0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_w1_matches_lp_on_dyadic_samples():
    rng = np.random.default_rng(3)
    grid = np.arange(0, 33) / 8.0
    for _ in range(25):
        n = rng.integers(1, 9)
        m = rng.integers(1, 9)
        x = rng.choice(grid, n)
        y = rng.choice(grid, m)
        assert wasserstein1(x, y) == pytest.approx(transport_w1(x, y), abs=1e-9)


@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_w1_matches_scipy(xs, ys):
    ours = wasserstein1(xs, ys)
    ref = wasserstein_distance(xs, ys)
    assert ours == pytest.approx(ref, abs=1e-9)
    assert wasserstein1(ys, xs) == pytest.approx(ours, abs=1e-9)


def test_w1_empty():
    with pytest.raises(errors.EmptyDataset):
        wasserstein1([], [1.0])


def test_jsd_frozen_value():
    # 0.5*KL([.5,.5]||[.75,.25]) + 0.5*KL([1,0]||[.75,.25]) in bits
    assert jsd([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.31128, abs=1e-5)
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_hellinger_frozen():
    assert hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    p = [0.7, 0.3]
    q = [0.5, 0.5]
    direct = math.sqrt(0.5 * ((math.sqrt(0.7) - math.sqrt(0.5)) ** 2
                              + (math.sqrt(0.3) - math.sqrt(0.5)) ** 2))
    assert hellinger(p, q) == pytest.approx(direct)


def test_kl_smoothing_keeps_zero_support_finite():
    v = kl([0.5, 0.5], [1.0, 0.0])
    assert math.isfinite(v) and v > 1.0
    assert kl([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-9)
    # hand-check with the same epsilon smoothing
    eps = 1e-6
    q = np.array([1.0 + eps, eps])
    q /= q.sum()
    p = np.array([0.5, 0.5])
    direct = float(np.sum(p * np.log(p / q)))
    assert kl([0.5, 0.5], [1.0, 0.0]) == pytest.approx(direct, rel=1e-9)


dist2 = st.integers(0, 1000).flatmap(
    lambda a: st.just(np.array([a, 1000 - a]) / 1000.0))


@given(dist2, dist2)
@settings(max_examples=200, deadline=None)
def test_divergence_properties(p, q):
    for fn in (jsd, hellinger):
        v = fn(p, q)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert fn(q, p) == pytest.approx(v, abs=1e-12)
        assert fn(p, p) == pytest.approx(0.0, abs=1e-12)
    assert kl(p, p) == pytest.approx(0.0, abs=1e-9)


def test_energy_distance_identity_and_separation(rng):
    x = rng.normal(0, 1, (300, 2))
    y = rng.normal(3, 1, (300, 2))
    assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-9)
    assert energy_distance(x, y) > 0.5
    assert energy_distance(x, y) == pytest.approx(energy_distance(y, x))


def test_mmd_identity_and_separation(rng):
    x = rng.normal(0, 1, (200, 3))
    y = rng.normal(2, 1, (200, 3))
    assert mmd_rbf(x, x) == pytest.approx(0.0, abs=1e-6)
    assert mmd_rbf(x, y) > 0.1
    # degenerate: all points identical -> bandwidth 0 -> defined as 0
    z = np.zeros((50, 2))
    assert mmd_rbf(z, z) == 0.0


def reference_mmd_rbf(x, y):
    """mmd_rbf on the full distance matrix, median over its upper triangle."""
    pooled = np.vstack([x, y])
    dists = cdist(pooled, pooled)
    off_diag = dists[np.triu_indices(len(pooled), k=1)]
    h = float(np.median(off_diag)) if len(off_diag) else 0.0
    if h == 0.0:
        return 0.0
    gamma = 1.0 / (2.0 * h * h)
    nx = len(x)
    k = np.exp(-gamma * dists ** 2)
    kxx = k[:nx, :nx].mean()
    kyy = k[nx:, nx:].mean()
    kxy = k[:nx, nx:].mean()
    return float(np.sqrt(max(0.0, kxx + kyy - 2.0 * kxy)))


@st.composite
def mmd_samples(draw):
    """Two samples of rows drawn from a small pool, so rows repeat."""
    dim = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(draw(st.integers(1, 12)), dim))
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return pool[rng.integers(0, len(pool), nx)], pool[rng.integers(0, len(pool), ny)]


@given(mmd_samples())
@settings(max_examples=80, deadline=None)
def test_mmd_equals_full_matrix_form(xy):
    x, y = xy
    assert mmd_rbf(x, y) == reference_mmd_rbf(x, y)


def test_mmd_equals_full_matrix_form_edge_cases(rng, ref_2k):
    x = rng.normal(size=(30, 3))
    same = np.ones((7, 3))
    cases = [
        (x[:20], x[20:]),            # nx != ny
        (x[:1], x[1:]),              # one-row side
        (x[5:], x[:1]),
        (np.vstack([x, x]), x[:4]),  # duplicate rows
        (same, same[:2]),            # all rows identical: h = 0
    ]
    xr, xs = encode_features(ref_2k, generate(EcommerceParams(), 300, seed=4))
    cases.append((xr[:500], xs))
    for a, b in cases:
        assert mmd_rbf(a, b) == reference_mmd_rbf(a, b)
    assert mmd_rbf(same, same[:2]) == 0.0


def test_encode_features_shapes(ref_2k):
    small = generate(EcommerceParams(), 100, seed=9)
    a, b = encode_features(ref_2k, small)
    # 2+2+4+2 one-hot columns + 2 numeric
    assert a.shape == (2000, 12)
    assert b.shape == (100, 12)
    pooled = np.vstack([a, b])
    means = pooled.mean(axis=0)
    zscored = np.abs(means) < 1e-9
    # exactly the two numeric columns are centered, with unit pooled spread
    assert zscored.sum() == 2
    assert np.allclose(pooled[:, zscored].std(axis=0), 1.0, atol=1e-9)
    onehot = pooled[:, ~zscored]
    assert set(np.unique(onehot)) == {0.0, 1.0}


def test_c2st_same_source_near_half():
    a = generate(EcommerceParams(), 1500, seed=21)
    b = generate(EcommerceParams(), 1500, seed=22)
    assert c2st_gap(a, b) <= 0.05


def test_c2st_detects_shifted_numeric(rng):
    schema = VariableSchema((Variable("x", Continuous(-100.0, 100.0)),))
    a = Dataset.from_columns(schema, {"x": rng.normal(0, 1, 800)})
    b = Dataset.from_columns(schema, {"x": rng.normal(4, 1, 800)})
    assert c2st_gap(a, b) >= 0.4


def test_c2st_deterministic(ref_2k):
    noise = generate(EcommerceParams(), 500, seed=5)
    assert c2st_gap(ref_2k, noise, seed=0) == c2st_gap(ref_2k, noise, seed=0)


def reference_best_split(x, grad, hess, sizes, damp):
    """Per-feature split search: two bincounts per feature over one node's rows."""
    best = (1e-12, -1, -1)
    for j in range(x.shape[1]):
        g = np.bincount(x[:, j], weights=grad, minlength=sizes[j])
        h = np.bincount(x[:, j], weights=hess, minlength=sizes[j])
        gl, hl = np.cumsum(g)[:-1], np.cumsum(h)[:-1]
        gt, ht = g.sum(), h.sum()
        gain = gl**2 / (hl + damp) + (gt - gl) ** 2 / (ht - hl + damp) - gt**2 / (ht + damp)
        m = int(np.argmax(gain))
        if gain[m] > best[0]:
            best = (float(gain[m]), j, m)
    return best


def reference_boost(x, y, sizes, rounds, rate, damp):
    """metrics._boost with each node's rows copied out and searched feature by feature."""
    score = np.zeros(len(y))
    trees = []
    for _ in range(rounds):
        p = 1.0 / (1.0 + np.exp(-np.clip(score, -30.0, 30.0)))
        grad, hess = y - p, p * (1.0 - p)
        gain, j1, t1 = reference_best_split(x, grad, hess, sizes, damp)
        if j1 < 0:
            break
        left = x[:, j1] <= t1
        nodes = []
        update = np.zeros(len(y))
        for mask in (left, ~left):
            gain2, j2, t2 = reference_best_split(x[mask], grad[mask], hess[mask], sizes, damp)
            if j2 >= 0:
                sub = x[mask][:, j2] <= t2
                val_l = grad[mask][sub].sum() / (hess[mask][sub].sum() + damp)
                val_r = grad[mask][~sub].sum() / (hess[mask][~sub].sum() + damp)
                nodes.append((j2, t2, val_l, val_r))
                side = x[:, j2] <= t2
                update[mask & side] = val_l
                update[mask & ~side] = val_r
            else:
                val = grad[mask].sum() / (hess[mask].sum() + damp)
                nodes.append((-1, 0, val, val))
                update[mask] = val
        trees.append(((j1, t1), (nodes[0], nodes[1])))
        score += rate * update
    return trees


@st.composite
def boosting_problems(draw):
    """Code matrices with mixed code counts, constant columns and skewed labels."""
    n = draw(st.integers(1, 80))
    sizes = np.array(draw(st.lists(st.sampled_from([2, 3, 4, 5, 32]), min_size=1, max_size=7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for size in sizes.tolist():
        if draw(st.booleans()):
            cols.append(rng.integers(0, size, n))
        else:
            cols.append(np.full(n, draw(st.integers(0, size - 1))))
    y = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    return np.column_stack(cols).astype(np.int64), y, sizes


@given(boosting_problems())
@settings(max_examples=120, deadline=None)
def test_boost_equals_per_feature_reference(problem):
    x, y, sizes = problem
    # tree tuples hold the leaf values, so equality is bit for bit
    assert metrics._boost(x, y, sizes, 25, 0.2, 1.0) == reference_boost(x, y, sizes, 25, 0.2, 1.0)


def test_c2st_equals_per_feature_reference(ref_2k, monkeypatch):
    others = [generate(EcommerceParams(), 1200, seed=5), generate(EcommerceParams(), 2000, seed=12)]
    fast = [c2st_gap(ref_2k, other) for other in others]
    monkeypatch.setattr(metrics, "_boost", reference_boost)
    assert fast == [c2st_gap(ref_2k, other) for other in others]


def test_c2st_single_category_column(rng):
    # a one-code feature offers no split; the other feature still separates
    schema = VariableSchema((Variable("k", Discrete(("only",))),
                             Variable("x", Continuous(-100.0, 100.0))))
    a = Dataset.from_columns(schema, {"k": ["only"] * 300, "x": rng.normal(0, 1, 300)})
    b = Dataset.from_columns(schema, {"k": ["only"] * 300, "x": rng.normal(4, 1, 300)})
    assert c2st_gap(a, b) >= 0.4


def test_metric_suite_layout(ref_2k):
    synth = generate(EcommerceParams(), 400, seed=31)
    out = metric_suite(ref_2k, synth)
    assert set(out["units"]) == set(ref_2k.schema.names)
    for name, vals in out["units"].items():
        assert {"tvd", "jsd", "hellinger", "kl"} <= set(vals)
        cont = name in ("user_age", "price")
        assert ("wasserstein1" in vals) == cont
    assert {"mean_tvd", "energy", "mmd", "c2st_gap"} <= set(out["overall"])
    assert out["overall"]["mean_tvd"] == pytest.approx(
        np.mean([v["tvd"] for v in out["units"].values()]))


def test_metric_suite_self_comparison(ref_2k):
    out = metric_suite(ref_2k, ref_2k)
    for vals in out["units"].values():
        for key in ("tvd", "jsd", "hellinger"):
            assert vals[key] == pytest.approx(0.0, abs=1e-12)
        assert vals["kl"] == pytest.approx(0.0, abs=1e-9)
        if "wasserstein1" in vals:
            assert vals["wasserstein1"] == 0.0
    assert out["overall"]["energy"] == pytest.approx(0.0, abs=1e-9)
    assert out["overall"]["c2st_gap"] <= 0.03


def test_metric_suite_includes_joints(ref_2k):
    from statsynth.summaries import StructuralComponent
    synth = generate(EcommerceParams(), 400, seed=33)
    comps = [StructuralComponent(("gender", "location_tier"))]
    out = metric_suite(ref_2k, synth, components=comps)
    assert "gender+location_tier" in out["units"]
    joint = out["units"]["gender+location_tier"]
    assert "tvd" in joint and "wasserstein1" not in joint
