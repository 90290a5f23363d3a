"""Deterministic greedy proposer for hermetic runs.

Each call computes, for every report unit, the batch histogram that moves
the pooled mixture maximally toward the real table subject to feasibility
(proportions cannot go negative), over the unit's dense cell array. A batch
distribution satisfying all of those unit targets at once is fitted by
iterative proportional fitting over the non-empty cells of the real dataset
at main-bin resolution; the unit with the largest discrepancy is fitted
last in every sweep so its correction is exact. The fitted joint is then
realized as integer counts variable by variable, with each variable's
batch-level totals pinned to the fitted marginal, so every marginal and
every component joint (not only the targeted unit) inherits the one-step
descent bound. With the pool matching the real data the fit is the real
lattice itself and the batch reduces to sampling the real distribution.
Continuous mass is allocated at eight-sub-bin resolution inside every main
bin, matching the real within-bin composition (or the corrective
composition, for the currently refined bin), so later refinement of any bin
does not uncover fresh mismatch.

The batch plan is an integer matrix of codes, one row per set of
interchangeable batch slots, plus a count per row: filling a variable
splits every row by category or main-bin code, and the sub-bin stage turns
each continuous column into fine codes 8*main + sub. The plan leaves as
Proposals columns, each fine code as the [lo, hi] of its fine bin.

Integerization uses randomized largest-remainder apportionment (unbiased)
and a transportation rounding that keeps plan rows and code columns
exactly at their integer totals.
"""
from __future__ import annotations

import math

import numpy as np

from . import errors
from .discrepancy import DiscrepancyReport
from .proposals import ComponentContext, Proposals, ProposerContext
from .schema import Continuous, Discrete
from .summaries import (
    SUB_BINS,
    Codes,
    StructuralComponent,
    encode,
    joint_counts,
    main_codes,
    sub_detail,
)


def ideal_batch_histogram(
    real: np.ndarray, synth: np.ndarray, pool_size: int, batch_size: int,
) -> tuple[np.ndarray, float]:
    """Feasible batch histogram moving the pooled mixture closest to real.

    Solving (m*synth + b*h) / (m+b) = real for h and clipping negatives
    gives the minimal-TVD reachable mixture; the clipped negative mass is
    returned so callers can verify the one-step descent bound
    new_tvd = b*neg/(m+b) <= m/(m+b) * old_tvd.
    """
    r = np.asarray(real, dtype=float)
    s = np.asarray(synth, dtype=float)
    m, b = float(pool_size), float(batch_size)
    raw = ((m + b) * r - m * s) / b
    neg = float(np.clip(-raw, 0.0, None).sum())
    h = np.clip(raw, 0.0, None)
    total = h.sum()
    if total <= 0.0:
        h, total = r.copy(), r.sum()
    return h / total, neg


def _apportion(weights: np.ndarray, total: int, rng: np.random.Generator) -> np.ndarray:
    """Integer counts summing to total, E[count] proportional to weights."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    out = np.zeros(len(w), dtype=np.int64)
    if total == 0:
        return out
    s = w.sum()
    if s <= 0.0:
        w = np.ones_like(w)
        s = float(len(w))
    raw = w * (total / s)
    out = np.floor(raw).astype(np.int64)
    rem = int(total - out.sum())
    if rem > 0:
        p = raw - out
        if p.sum() <= 1e-12:
            p = np.ones_like(p)
        if np.count_nonzero(p) < rem:
            p = p + 1e-9
        p = p / p.sum()
        extra = rng.choice(len(w), size=rem, replace=False, p=p)
        out[extra] += 1
    return out


def _transport_round(
    raw: np.ndarray, row_sums: np.ndarray, col_sums: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """Round a non-negative matrix to integers with exact row and col sums.

    row_sums are the actual group sizes; col_sums the desired column totals
    (both integer, equal grand total). After flooring, leftover counts are
    placed by weighted random draws over the fractional remainders. A
    deterministic largest-remainder pass would break ties by position, and
    with many size-1 rows holding identical conditionals that position
    order correlates with already-assigned variables, skewing their joint;
    randomising the draws removes that pairing bias.

    Each leftover unit consumes exactly one uniform double u, all drawn up
    front in one call, and goes to cell searchsorted(cdf, u, side="right")
    of the flattened matrix: cdf is the cumulative sum of the weights over
    their total, divided by its last entry, which is the draw
    Generator.choice(n, p=weights / total) makes. An open cell (row and
    column both short) weighs its fractional remainder until it takes a
    unit, then 0; when every open cell weighs 0 they weigh equally. The
    weights stay at full size with closed rows and columns zeroed:
    shrinking them would regroup their pairwise sum and move its last bits.
    """
    raw = np.asarray(raw, dtype=float)
    rows = np.asarray(row_sums, dtype=np.int64)
    cols = np.asarray(col_sums, dtype=np.int64)
    if rows.sum() != cols.sum():
        raise errors.ProposerError(
            f"row totals sum to {rows.sum()}, column totals to {cols.sum()}")
    out = np.floor(raw).astype(np.int64)
    frac = raw - out
    # floor() can already overshoot a column target when the target was
    # derived from ideal (pre-rounding) masses; shave those columns first
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
    # every placement lowers row_def.sum() by one
    n_left = int(row_def.sum())
    if not n_left:
        return out
    # open cells weigh frac < 1: shaved cells lie in closed columns
    weight = np.where((row_def[:, None] > 0) & (col_def[None, :] > 0), frac, 0.0).ravel()
    row_left, col_left = row_def.tolist(), col_def.tolist()
    n_cols = len(col_left)
    p, cdf = np.empty_like(weight), np.empty_like(weight)
    placed = []
    # ufunc methods, not sum() and cumsum(): at these sizes the wrappers cost
    # more than the work, and the results are the same bits
    for u in rng.random(n_left).tolist():
        total = np.add.reduce(weight)
        if total > 0:
            np.divide(weight, total, out=p)
        else:
            open_cells = np.outer(np.array(row_left) > 0, np.array(col_left) > 0).ravel()
            np.divide(open_cells, np.count_nonzero(open_cells), out=p)
        np.add.accumulate(p, out=cdf)
        cdf /= cdf[-1]
        cell = int(cdf.searchsorted(u, side="right"))
        placed.append(cell)
        weight[cell] = 0.0  # its score is now frac - 1 < 0
        g, l = divmod(cell, n_cols)
        row_left[g] -= 1
        col_left[l] -= 1
        if not row_left[g]:
            weight[g * n_cols:(g + 1) * n_cols] = 0.0
        if not col_left[l]:
            weight[l::n_cols] = 0.0
    out += np.bincount(placed, minlength=out.size).reshape(out.shape)
    return out


# ---------------------------------------------------------------------------
# dependency inference: pairwise mutual information on main-bin tables


def _grouped_mi(counts: np.ndarray, n_left: int) -> float:
    """MI between the first n_left axes (jointly) and the remaining axes."""
    p = counts.reshape(math.prod(counts.shape[:n_left]), -1) / counts.sum()
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))
    nz = p > 0.0
    return max(0.0, float(np.sum(p[nz] * np.log(p[nz] / outer[nz]))))


def pairwise_mi(codes: Codes, a: str, b: str, specs) -> float:
    """Empirical mutual information of two variables at main-bin resolution."""
    return _grouped_mi(joint_counts(codes, specs, (a, b)), 1)


def _table_cells(ctx: ComponentContext, variables) -> int:
    n = 1
    for name in variables:
        kind = ctx.schema.kind(name)
        if isinstance(kind, Discrete):
            n *= len(kind.categories)
        else:
            spec = ctx.bin_specs.get(name)
            if spec is None:
                raise errors.MissingBinSpec(f"continuous variable {name!r} has no bin spec")
            n *= spec.n_main
    return n


def infer_components(ctx: ComponentContext) -> list[StructuralComponent]:
    """Pick the n most dependent variable pairs and grow them greedily.

    Pairs are ranked by empirical MI; a pair already contained in a chosen
    component is skipped. Each seed pair grows by the variable with the
    highest MI against the component's joint, as long as that MI stays at
    least half the seed pair's, up to four variables. Components may share
    variables. When ctx.batch_size is set, components whose contingency
    table would exceed batch_size/2 cells are not formed: a batch that
    small cannot express a correction for them.
    """
    names = list(ctx.schema.names)
    if len(names) < 2:
        raise errors.TooFewVariables("need at least 2 variables to infer components")
    codes = encode(ctx.real_data, ctx.bin_specs)
    scored: list[tuple[float, str, StructuralComponent]] = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            comp = StructuralComponent((names[i], names[j]))
            mi = pairwise_mi(codes, names[i], names[j], ctx.bin_specs)
            scored.append((mi, comp.id, comp))
    scored.sort(key=lambda t: (-t[0], t[1]))
    cap = ctx.batch_size // 2 if ctx.batch_size is not None else None
    if cap is not None and all(_table_cells(ctx, c.variables) > cap for _, _, c in scored):
        cap = None  # budget too small to steer any pair; rank unrestricted
    chosen: list[StructuralComponent] = []
    for mi, _, pair in scored:
        if len(chosen) >= ctx.n_components:
            break
        if cap is not None and _table_cells(ctx, pair.variables) > cap:
            continue
        if any(set(pair.variables) <= set(c.variables) for c in chosen):
            continue
        chosen.append(_grow(ctx, codes, pair, mi, cap))
    return chosen


def _grow(
    ctx: ComponentContext, codes: Codes, pair: StructuralComponent, pair_mi: float,
    cap: int | None = None,
) -> StructuralComponent:
    current = list(pair.variables)
    while len(current) < 4:
        best_var, best_mi = None, -1.0
        for x in ctx.schema.names:
            if x in current:
                continue
            if cap is not None and _table_cells(ctx, tuple(current) + (x,)) > cap:
                continue
            table = joint_counts(codes, ctx.bin_specs, tuple(current) + (x,))
            mi = _grouped_mi(table, len(current))
            if mi >= 0.5 * pair_mi - 1e-12 and mi > best_mi + 1e-12:
                best_var, best_mi = x, mi
        if best_var is None:
            break
        current.append(best_var)
    return StructuralComponent(tuple(current))


# ---------------------------------------------------------------------------
# batch construction


class _Lattice:
    """Non-empty cells of the real dataset at main-bin resolution."""

    __slots__ = ("codes", "weights", "dims", "pos")

    def __init__(self, codes, weights, dims, pos):
        self.codes: np.ndarray = codes          # (n_cells, n_vars) int64
        self.weights: np.ndarray = weights      # (n_cells,) sums to 1
        self.dims: tuple[int, ...] = dims
        self.pos: dict[str, int] = pos


def _real_lattice(ctx: ProposerContext) -> _Lattice:
    names = ctx.schema.names
    cols, dims = zip(*(main_codes(ctx.real_codes, ctx.bin_specs, name) for name in names))
    flat = np.ravel_multi_index(cols, dims)
    uniq, counts = np.unique(flat, return_counts=True)
    codes = np.stack(np.unravel_index(uniq, dims), axis=1).astype(np.int64)
    weights = counts.astype(float) / float(len(ctx.real_codes))
    return _Lattice(codes, weights, dims, {name: i for i, name in enumerate(names)})


def _pick_target(report: DiscrepancyReport) -> str:
    units = report.units
    top = max(u.value for u in units.values())
    if top <= 1e-12:
        return min(units)
    return min(name for name, u in units.items() if u.value == top)


def _unit_constraints(
    ctx: ProposerContext, lattice: _Lattice,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], dict[str, tuple[int, np.ndarray]]]:
    """Corrective target and lattice index array per unit.

    Marginal targets are folded to main-bin resolution; within the refined
    bin the corrective sub-bin composition is returned separately for the
    sub-split stage, so the refined-resolution correction is preserved.
    """
    cons: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    sub_rows: dict[str, tuple[int, np.ndarray]] = {}
    variables = {c.id: c.variables for c in ctx.components}
    for name, unit in ctx.report.units.items():
        h, _ = ideal_batch_histogram(unit.real, unit.synth, ctx.pool_size, ctx.batch_size)
        r = ctx.real_summaries.refined.get(name)
        if r is not None:
            row = h[r:r + SUB_BINS]
            mass = row.sum()
            if mass > 0.0:
                sub_rows[name] = (r, row / mass)
            h = np.concatenate([h[:r], [mass], h[r + SUB_BINS:]])
        axes = [lattice.pos[v] for v in variables.get(name, (name,))]
        idx = np.ravel_multi_index(tuple(lattice.codes[:, a] for a in axes),
                                   tuple(lattice.dims[a] for a in axes))
        cons[name] = (h, idx)
    return cons, sub_rows


def _ipf(lattice: _Lattice, cons, target: str, sweeps: int = 40) -> np.ndarray:
    """Fit lattice weights to all unit targets; the target unit goes last."""
    order = sorted(name for name in cons if name != target) + [target]
    w = lattice.weights.copy()
    for _ in range(sweeps):
        worst = 0.0
        for name in order:
            t, idx = cons[name]
            proj = np.bincount(idx, weights=w, minlength=len(t))
            worst = max(worst, 0.5 * float(np.abs(proj - t).sum()))
            ratio = np.divide(t, proj, out=np.zeros_like(t), where=proj > 0.0)
            w = w * ratio[idx]
        if worst <= 1e-12:
            break
    if w.sum() <= 0.0:
        return lattice.weights.copy()
    return w


def _var_order(ctx: ProposerContext, target: str) -> list[str]:
    """Variables of high-delta units first; the targeted unit leads.

    Early variables are realised over coarse group partitions where
    flooring captures most of the allocation, so the joints that most
    need correcting see the least rounding noise. Within a unit, and for
    anything left over, schema order applies.
    """
    names = list(ctx.schema.names)
    all_units = {**ctx.report.marginals, **ctx.report.joints}

    def unit_vars(name: str) -> list[str]:
        if name in ctx.report.joints:
            comp = next(c for c in ctx.components if c.id == name)
            return [n for n in names if n in comp.variables]
        return [name]

    ranked = sorted(all_units, key=lambda n: (n != target, -all_units[n].value, n))
    order: list[str] = []
    for name in ranked:
        for v in unit_vars(name):
            if v not in order:
                order.append(v)
    return order + [n for n in names if n not in order]


class OracleProposer:
    """Greedy deterministic proposer; ignores k and guidance by design."""

    name = "oracle"

    def __init__(self) -> None:
        self._memo: tuple | None = None  # real, schema, specs, sizes, components

    def infer_components(self, ctx: ComponentContext) -> list[StructuralComponent]:
        """infer_components(ctx), searched once per real table, specs and sizes.

        The search ignores the seed, so a loop asking every iteration gets
        the first answer again. The table, schema and specs are matched by
        identity; each call returns a fresh list.
        """
        sizes = (ctx.n_components, ctx.batch_size)
        m = self._memo
        if not (m and m[0] is ctx.real_data and m[1] is ctx.schema
                and m[2] is ctx.bin_specs and m[3] == sizes):
            m = self._memo = (ctx.real_data, ctx.schema, ctx.bin_specs, sizes,
                              infer_components(ctx))
        return list(m[4])

    def propose(self, ctx: ProposerContext) -> Proposals:
        if ctx.real_codes is None:
            raise errors.ConfigError("oracle needs real_codes for batch composition")
        rng = np.random.default_rng(ctx.seed)
        target = _pick_target(ctx.report)
        lattice = _real_lattice(ctx)
        cons, sub_rows = _unit_constraints(ctx, lattice)
        w = _ipf(lattice, cons, target)
        filled = [lattice.pos[var] for var in _var_order(ctx, target)]
        codes = np.zeros((1, 0), dtype=np.int64)
        counts = np.array([ctx.batch_size], dtype=np.int64)
        for i, col in enumerate(filled):
            codes, counts = _fill_variable(lattice, w, filled[:i], codes, counts, col, rng)
        codes = codes[:, np.argsort(filled)]  # columns in schema order
        for col, var in enumerate(ctx.schema):
            if isinstance(var.kind, Continuous):
                detail = sub_detail(ctx.real_codes, ctx.bin_specs[var.name])
                if var.name in sub_rows:
                    bin_i, row = sub_rows[var.name]
                    detail[bin_i] = row
                codes, counts = _sub_split(codes, counts, col, detail, rng)
        return _decode(ctx, codes, counts)


def _fill_variable(lattice: _Lattice, w: np.ndarray, filled: list[int], codes: np.ndarray,
                   counts: np.ndarray, col: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Split every plan row by the main-bin or category code of lattice column col.

    Plan row g holds codes[g] for the lattice columns filled (in that order)
    and counts[g] batch slots; no two rows hold the same codes. Its code
    distribution is the w-weighted distribution of col over the lattice
    cells that agree with codes[g]; batch-level code totals are apportioned
    from col's fitted marginal.
    """
    n_codes = lattice.dims[col]
    marg = np.bincount(lattice.codes[:, col], weights=w, minlength=n_codes)
    col_totals = _apportion(marg, int(counts.sum()), rng)
    row_keys = np.zeros(len(codes), dtype=np.int64)
    cell_keys = np.zeros(len(lattice.codes), dtype=np.int64)
    for j, c in enumerate(filled):
        row_keys = row_keys * lattice.dims[c] + codes[:, j]
        cell_keys = cell_keys * lattice.dims[c] + lattice.codes[:, c]
    order = np.argsort(row_keys)
    pos = np.searchsorted(row_keys[order], cell_keys).clip(max=len(order) - 1)
    member = row_keys[order[pos]] == cell_keys
    # weights add up in lattice order within every (row, code) bin
    table = np.bincount(order[pos[member]] * n_codes + lattice.codes[member, col],
                        weights=w[member], minlength=len(codes) * n_codes)
    table = table.reshape(len(codes), n_codes)
    total = table.sum(axis=1, keepdims=True)
    fallback = marg / marg.sum() if marg.sum() > 0 else np.full(n_codes, 1.0 / n_codes)
    p = np.divide(table, total, out=np.tile(fallback, (len(codes), 1)), where=total > 0.0)
    alloc = _transport_round(p * counts[:, None], counts, col_totals, rng)
    g, code = np.nonzero(alloc)
    return np.column_stack([codes[g], code]), alloc[g, code]


def _sub_split(codes: np.ndarray, counts: np.ndarray, col: int, detail: np.ndarray,
               rng) -> tuple[np.ndarray, np.ndarray]:
    """Split plan rows by sub-bin inside their main bin of column col.

    Rows are taken main bin by main bin; each bin's slots are apportioned
    over its eight sub-bins by the composition detail[bin]. Column col goes
    from main-bin code to fine code 8*main + sub.
    """
    out_codes, out_counts = [], []
    for i in np.unique(codes[:, col]):
        members = np.flatnonzero(codes[:, col] == i)
        rows = counts[members]
        cols = _apportion(detail[i], int(rows.sum()), rng)
        alloc = _transport_round(np.tile(detail[i], (len(members), 1)) * rows[:, None],
                                 rows, cols, rng)
        g, sub = np.nonzero(alloc)
        split = codes[members[g]]
        split[:, col] = SUB_BINS * i + sub
        out_codes.append(split)
        out_counts.append(alloc[g, sub])
    return np.concatenate(out_codes), np.concatenate(out_counts)


def _decode(ctx: ProposerContext, codes: np.ndarray, counts: np.ndarray) -> Proposals:
    """One proposal per plan row, in row order: a category code passes
    through, a continuous fine code f becomes its bin [grid[f], grid[f + 1]]."""
    columns = []
    for var, col in zip(ctx.schema, codes.T):
        if isinstance(var.kind, Discrete):
            columns.append(col)
        else:
            grid = ctx.bin_specs[var.name].fine_edges()
            columns.append(np.column_stack([grid[col], grid[col + 1]]))
    return Proposals(ctx.schema, columns, counts)
