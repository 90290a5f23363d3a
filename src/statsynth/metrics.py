"""Distribution distance metrics and the combined evaluation suite.

Conventions: JSD uses base-2 logarithms so its range is [0, 1]; KL smooths
both sides additively with eps = 1e-6 and renormalizes, reported in nats;
Wasserstein-1 integrates |F_p - F_q| over the merged sample grid; the
two-sample classifier test trains gradient-boosted depth-2 trees (250
rounds, learning rate 0.2) on integer-coded features with 5-fold
cross-validation and reports |accuracy - 0.5|.

The trees find splits on histograms (as in LightGBM). Feature j's code c
owns bin offset[j] + c, the features grouped by code count so each group's
histograms form one block; gradient bins come first, then hessian bins.
One weighted bincount per tree level fills every histogram of that level,
the right child's bins placed after the left's. Because bincount adds in
row order, each bin equals the sum over that node's rows taken feature by
feature; gains reduce each histogram row with cumsum and pairwise sum, as
a 1-D reduction would, and leaf values sum each leaf's rows in row order.
No child histogram is derived by subtracting its sibling from the parent,
which would round differently. The classifier's trees, and so c2st_gap,
are therefore bit-identical to a per-feature, per-node search.

mmd_rbf takes its median-heuristic bandwidth from the condensed distance
vector (pdist), whose entries equal the upper triangle of the full matrix,
evaluates the kernel on that vector in place and expands it once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import EmptyDataset, UnitMismatch
from .discrepancy import compute_report
from .schema import Continuous, Dataset, Discrete
from .summaries import StructuralComponent, encode, evaluation_summaries, fit_all_bins


def wasserstein1(x: np.ndarray | Sequence[float], y: np.ndarray | Sequence[float]) -> float:
    """First Wasserstein distance between two one-dimensional samples."""
    xs = np.sort(np.asarray(x, dtype=np.float64))
    ys = np.sort(np.asarray(y, dtype=np.float64))
    if len(xs) == 0 or len(ys) == 0:
        raise EmptyDataset("wasserstein1 needs non-empty samples")
    if len(xs) == len(ys):
        # equal sizes: optimal transport pairs order statistics directly
        return float(np.mean(np.abs(xs - ys)))
    grid = np.sort(np.concatenate([xs, ys]))
    widths = np.diff(grid)
    cdf_x = np.searchsorted(xs, grid[:-1], side="right") / len(xs)
    cdf_y = np.searchsorted(ys, grid[:-1], side="right") / len(ys)
    return float(np.sum(np.abs(cdf_x - cdf_y) * widths))


def _check_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise UnitMismatch(f"need two aligned vectors, got shapes {p.shape} and {q.shape}")
    return p, q


def jsd(p: np.ndarray | Sequence[float], q: np.ndarray | Sequence[float]) -> float:
    """Jensen-Shannon divergence, base 2, in [0, 1]."""
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)
    def half(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))
    value = 0.5 * half(p) + 0.5 * half(q)
    return min(max(value, 0.0), 1.0)


def hellinger(p: np.ndarray | Sequence[float], q: np.ndarray | Sequence[float]) -> float:
    p, q = _check_pair(p, q)
    value = float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))
    return min(max(value, 0.0), 1.0)


def kl(p: np.ndarray | Sequence[float], q: np.ndarray | Sequence[float], eps: float = 1e-6) -> float:
    """KL(p || q) with additive smoothing and renormalization, in nats."""
    p, q = _check_pair(p, q)
    ps = (p + eps) / np.sum(p + eps)
    qs = (q + eps) / np.sum(q + eps)
    return float(np.sum(ps * np.log(ps / qs)))


# ---------------------------------------------------------------------------
# multivariate metrics on encoded records


def encode_features(real: Dataset, synth: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """One-hot categories plus z-scored numerics; stats pooled over both sets."""
    if real.schema != synth.schema:
        raise UnitMismatch("datasets must share a schema")
    blocks_r: list[np.ndarray] = []
    blocks_s: list[np.ndarray] = []
    for i, var in enumerate(real.schema):
        cr, cs = real.columns[i], synth.columns[i]
        if isinstance(var.kind, Discrete):
            k = len(var.kind.categories)
            eye = np.eye(k)
            blocks_r.append(eye[cr])
            blocks_s.append(eye[cs])
        else:
            pooled = np.concatenate([cr, cs])
            mu, sd = float(pooled.mean()), float(pooled.std())
            if sd == 0.0:
                blocks_r.append(np.zeros((len(cr), 1)))
                blocks_s.append(np.zeros((len(cs), 1)))
            else:
                blocks_r.append(((cr - mu) / sd)[:, None])
                blocks_s.append(((cs - mu) / sd)[:, None])
    return np.hstack(blocks_r), np.hstack(blocks_s)


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance between two feature matrices (rows are samples)."""
    a = cdist(x, y).mean()
    b = cdist(x, x).mean()
    c = cdist(y, y).mean()
    return float(np.sqrt(max(0.0, 2.0 * a - b - c)))


def mmd_rbf(x: np.ndarray, y: np.ndarray) -> float:
    """Maximum mean discrepancy with an RBF kernel, median-heuristic bandwidth."""
    pooled = np.vstack([x, y])
    dists = pdist(pooled)
    h = float(np.median(dists)) if len(dists) else 0.0
    if h == 0.0:
        return 0.0
    gamma = 1.0 / (2.0 * h * h)
    nx = len(x)
    # exp(-gamma * d**2) in place on the condensed distances, then the full
    # matrix, whose diagonal is exp(-gamma * 0) = 1
    np.square(dists, out=dists)
    dists *= -gamma
    np.exp(dists, out=dists)
    k = squareform(dists)
    np.fill_diagonal(k, 1.0)
    kxx = k[:nx, :nx].mean()
    kyy = k[nx:, nx:].mean()
    kxy = k[:nx, nx:].mean()
    return float(np.sqrt(max(0.0, kxx + kyy - 2.0 * kxy)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def _integer_codes(real: Dataset, synth: Dataset, bins: int = 32) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Code both datasets against shared cut points for tree splits.

    Discrete columns keep their category codes; any with more than two levels
    also contribute one-vs-rest indicators, since an ordinal split on an
    arbitrary category order cannot isolate a middle level. Continuous columns
    are ranked against pooled quantiles. Returns the two code matrices plus
    the number of distinct codes per feature.
    """
    feats_r: list[np.ndarray] = []
    feats_s: list[np.ndarray] = []
    sizes: list[int] = []
    for i, var in enumerate(real.schema):
        col_r, col_s = real.columns[i], synth.columns[i]
        if isinstance(var.kind, Discrete):
            k = len(var.kind.categories)
            feats_r.append(col_r)
            feats_s.append(col_s)
            sizes.append(k)
            if k > 2:
                for code in range(k):
                    feats_r.append((col_r == code).astype(np.int64))
                    feats_s.append((col_s == code).astype(np.int64))
                    sizes.append(2)
        else:
            pooled = np.concatenate([col_r, col_s])
            cuts = np.quantile(pooled, np.linspace(0.0, 1.0, bins + 1)[1:-1])
            feats_r.append(np.searchsorted(cuts, col_r))
            feats_s.append(np.searchsorted(cuts, col_s))
            sizes.append(bins)
    return (
        np.column_stack(feats_r).astype(np.int64),
        np.column_stack(feats_s).astype(np.int64),
        np.asarray(sizes),
    )


def _histogram_layout(sizes: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, int, int]]]:
    """Bin offsets that give every (feature, code) pair its own histogram bin.

    Features are grouped by code count, each group's bins contiguous, so a
    group's histograms form one (features, codes) block. Returns the offset
    per feature and the groups as (feature ids, first bin, codes per feature).
    """
    offsets = np.empty(len(sizes), dtype=np.int64)
    groups = []
    start = 0
    for size in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == size)
        offsets[ids] = start + size * np.arange(len(ids))
        groups.append((ids, start, size))
        start += size * len(ids)
    return offsets, groups


def _best_splits(
    hist: np.ndarray, groups: list[tuple[np.ndarray, int, int]], damp: float
) -> list[tuple[int, int]]:
    """Highest-gain (feature, threshold) split per node.

    hist[0, node] and hist[1, node] are the node's gradient and hessian
    histograms. The first feature reaching a node's largest gain wins; a gain
    not above 1e-12 means no split, returned as feature -1.
    """
    n_nodes = hist.shape[1]
    n_feat = sum(len(ids) for ids, _, _ in groups)
    best_gain = np.full((n_nodes, n_feat), -np.inf)
    best_t = np.zeros((n_nodes, n_feat), dtype=np.int64)
    for ids, start, size in groups:
        if size < 2:
            continue  # a single code offers no threshold
        block = hist[:, :, start:start + size * len(ids)].reshape(2, n_nodes, len(ids), size)
        # along the last axis cumsum adds in order and sum pairwise, exactly
        # as on each feature's 1-D histogram
        left = np.cumsum(block, axis=3)[..., :-1]
        gl, hl = left[0], left[1]
        gt, ht = block.sum(axis=3, keepdims=True)
        gain = gl**2 / (hl + damp) + (gt - gl) ** 2 / (ht - hl + damp) - gt**2 / (ht + damp)
        best_gain[:, ids] = gain.max(axis=2)
        best_t[:, ids] = gain.argmax(axis=2)
    splits = []
    for node, j in enumerate(np.argmax(best_gain, axis=1).tolist()):
        splits.append((j, int(best_t[node, j])) if best_gain[node, j] > 1e-12 else (-1, -1))
    return splits


# one depth-2 tree: root split, then (feature, threshold, left value, right
# value) per side; feature -1 marks an unsplit side holding a single value
_Tree = tuple[tuple[int, int], tuple[tuple[int, int, float, float], tuple[int, int, float, float]]]


def _boost(
    x: np.ndarray, y: np.ndarray, sizes: np.ndarray, rounds: int, rate: float, damp: float
) -> list[_Tree]:
    """Gradient boosting with depth-2 trees and Newton leaf values.

    Codes in column j must lie in [0, sizes[j]). Each round takes two
    bincounts (module docstring): the root's histograms, then both children's.
    """
    n, n_feat = x.shape
    offsets, groups = _histogram_layout(sizes)
    total = int(sizes.sum())
    codes = x + offsets
    # (gradient or hessian, row, feature), flattened like the weights below
    root = np.concatenate([codes.ravel(), codes.ravel() + total])
    score = np.zeros(n)
    trees: list[_Tree] = []
    for _ in range(rounds):
        p = _sigmoid(score)
        grad, hess = y - p, p * (1.0 - p)
        weights = np.repeat(np.concatenate([grad, hess]), n_feat)
        hist = np.bincount(root, weights=weights, minlength=2 * total)
        [(j1, t1)] = _best_splits(hist.reshape(2, 1, total), groups, damp)
        if j1 < 0:
            break
        right = x[:, j1] > t1
        shift = np.where(right, total, 0)
        child = root + np.repeat(np.concatenate([shift, shift + total]), n_feat)
        hist = np.bincount(child, weights=weights, minlength=4 * total)
        splits = _best_splits(hist.reshape(2, 2, total), groups, damp)
        # leaf = 2 * side + sub-side; a side with no split keeps sub-side 0
        sub = [x[:, j2] > t2 if j2 >= 0 else 0 for j2, t2 in splits]
        leaf = np.where(right, 2 + sub[1], sub[0]).astype(np.int8)
        # rows grouped by leaf in row order, so each leaf sums its rows in row order
        order = np.argsort(leaf, kind="stable")
        ends = np.cumsum(np.bincount(leaf, minlength=4)).tolist()
        g, h = grad[order], hess[order]
        vals = [g[a:b].sum() / (h[a:b].sum() + damp) for a, b in zip([0] + ends[:-1], ends)]
        nodes = []
        for k, (j2, t2) in enumerate(splits):
            if j2 >= 0:
                nodes.append((j2, t2, vals[2 * k], vals[2 * k + 1]))
            else:
                nodes.append((-1, 0, vals[2 * k], vals[2 * k]))
        trees.append(((j1, t1), (nodes[0], nodes[1])))
        score += rate * np.array(vals)[leaf]
    return trees


def _boost_scores(trees: list[_Tree], x: np.ndarray, rate: float) -> np.ndarray:
    score = np.zeros(len(x))
    for (j1, t1), nodes in trees:
        left = x[:, j1] <= t1
        for mask, (j2, t2, val_l, val_r) in zip((left, ~left), nodes):
            if j2 < 0:
                score[mask] += rate * val_l
            else:
                side = x[:, j2] <= t2
                score[mask & side] += rate * val_l
                score[mask & ~side] += rate * val_r
    return score


def c2st_gap(
    real: Dataset,
    synth: Dataset,
    seed: int = 0,
    cap: int = 2000,
    rounds: int = 250,
    rate: float = 0.2,
) -> float:
    """Two-sample classifier test: |held-out accuracy - 0.5|.

    Both sides are subsampled to the same size (at most cap) so classes stay
    balanced. The probe is gradient-boosted depth-2 trees over integer-coded
    features, which picks up the variable interactions a linear score misses.
    Accuracy is aggregated over 5-fold cross-validation, so every record is a
    held-out test point exactly once; a single random split at this sample
    size is noisy enough to swamp small gaps.
    """
    if len(real) == 0 or len(synth) == 0:
        raise EmptyDataset("c2st needs non-empty datasets")
    rng = np.random.default_rng(seed)
    take = min(len(real), len(synth), cap)
    idx_r = rng.choice(len(real), take, replace=False) if len(real) > take else np.arange(take)
    if len(synth) == len(real):
        # same-length sides share row positions and fold assignments, so any
        # record present in both datasets sits on both sides of every training
        # split with opposite labels and cancels, instead of being memorized
        # with one label; comparing a dataset to itself then scores 0.5
        idx_s = idx_r
    elif len(synth) > take:
        idx_s = rng.choice(len(synth), take, replace=False)
    else:
        idx_s = np.arange(take)
    sub_r = Dataset(real.schema, tuple(c[idx_r] for c in real.columns))
    sub_s = Dataset(synth.schema, tuple(c[idx_s] for c in synth.columns))
    x_real, x_synth, sizes = _integer_codes(sub_r, sub_s)

    n_folds = min(5, take)
    folds = np.array_split(rng.permutation(take), n_folds)
    correct, total = 0, 0
    for f in range(n_folds):
        tr = np.concatenate([folds[g] for g in range(n_folds) if g != f] or [np.arange(0)])
        x_tr = np.vstack([x_real[tr], x_synth[tr]])
        y_tr = np.concatenate([np.zeros(len(tr)), np.ones(len(tr))])
        trees = _boost(x_tr, y_tr, sizes, rounds, rate, damp=1.0)
        x_te = np.vstack([x_real[folds[f]], x_synth[folds[f]]])
        y_te = np.concatenate([np.zeros(len(folds[f])), np.ones(len(folds[f]))])
        correct += int(np.sum((_boost_scores(trees, x_te, rate) > 0.0) == y_te))
        total += len(y_te)
    return abs(correct / total - 0.5)


# ---------------------------------------------------------------------------
# combined suite


def metric_suite(
    real: Dataset,
    synth: Dataset,
    components: Sequence[StructuralComponent] = (),
    seed: int = 0,
    cap: int = 2000,
) -> dict:
    """Full metric report: per-unit table metrics plus overall sample metrics."""
    if len(real) == 0 or len(synth) == 0:
        raise EmptyDataset("metric_suite needs non-empty datasets")
    if real.schema != synth.schema:
        raise UnitMismatch("real and synth datasets have different schemas")
    specs = fit_all_bins(real)
    real_sum, synth_sum = evaluation_summaries(
        encode(real, specs), encode(synth, specs), specs, components)
    report = compute_report(real_sum, synth_sum)

    units: dict[str, dict[str, float]] = {}
    for name, unit in report.units.items():
        p, q = unit.real, unit.synth
        if name in report.joints:
            # only cells either side occupies: KL's smoothing mass grows with the cell count
            keep = (p > 0.0) | (q > 0.0)
            p, q = p[keep], q[keep]
        units[name] = {
            "tvd": unit.value,
            "jsd": jsd(p, q),
            "hellinger": hellinger(p, q),
            "kl": kl(p, q),
        }
        if name in report.marginals and isinstance(real.schema.kind(name), Continuous):
            units[name]["wasserstein1"] = wasserstein1(real.codes(name), synth.codes(name))

    xr, xs = encode_features(real, synth)
    rng = np.random.default_rng(seed)
    take_r = min(len(xr), cap)
    take_s = min(len(xs), cap)
    sub_r = xr[rng.choice(len(xr), take_r, replace=False)] if len(xr) > cap else xr
    sub_s = xs[rng.choice(len(xs), take_s, replace=False)] if len(xs) > cap else xs
    overall = {
        "mean_tvd": report.mean_tvd,
        "energy": energy_distance(sub_r, sub_s),
        "mmd": mmd_rbf(sub_r, sub_s),
        "c2st_gap": c2st_gap(real, synth, seed=seed, cap=cap),
    }
    return {"units": units, "overall": overall}
