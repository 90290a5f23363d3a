"""Iterative synthesis loop: component inference, discrepancy, sampling.

Each iteration infers structural components, summarizes the real data and
the cumulative pool, computes the per-unit discrepancy report against the
pool BEFORE the new batch, asks the proposer for a batch plan, samples it,
and accretes. Records are never removed. All randomness derives from
per-iteration seeds spawned as SeedSequence((seed, t, purpose)), so a
resumed run consumes exactly the streams an uninterrupted run would.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import errors
from .discrepancy import compute_report
from .metrics import metric_suite
from .proposals import (
    ComponentContext,
    Proposals,
    ProposerContext,
    validate_proposal,
)
# save_csv is unused here but stays importable: perfbench traces loop.save_csv
from .schema import (  # noqa: F401
    Dataset,
    Discrete,
    VariableSchema,
    concat,
    csv_text,
    load_csv,
    save_csv,
)
# refine_all_bins is unused here but stays importable: perfbench traces loop.refine_all_bins
from .summaries import (  # noqa: F401
    SummarySet,
    compute_summaries,
    encode,
    evaluation_summaries,
    fit_all_bins,
    occupied,
    proportions,
    refine_all_bins,
    unit_labels,
)


@dataclass(frozen=True)
class LoopConfig:
    iterations: int = 100
    proposals_per_iter: int = 5
    batch_size: int = 200
    n_components: int = 3
    seed: int = 0
    full_metrics_every: int = 10

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise errors.ConfigError("iterations must be >= 1")
        if self.proposals_per_iter < 1:
            raise errors.ConfigError("proposals_per_iter must be >= 1")
        if self.batch_size < self.proposals_per_iter:
            raise errors.ConfigError("batch_size must be >= proposals_per_iter")
        if self.n_components < 1:
            raise errors.ConfigError("n_components must be >= 1")
        if self.seed < 0:
            raise errors.ConfigError("seed must be >= 0")
        if self.full_metrics_every < 0:
            raise errors.ConfigError("full_metrics_every must be >= 0")


@dataclass
class LoopState:
    """Mutable progress of one run; the checkpoint payload."""

    iteration: int
    pool: Dataset
    history: list[dict] = field(default_factory=list)
    logs: dict[str, AppendLog] = field(default_factory=dict)  # by file name


def _iteration_seed(seed: int, t: int, purpose: int) -> int:
    return int(np.random.SeedSequence((seed, t, purpose)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# sampling


def sample_batch(proposals: Proposals, rng: np.random.Generator) -> Dataset:
    """Exactly num[i] records for proposal i, in proposal order.

    Category codes are taken verbatim, ranges drawn uniformly. Proposals
    must already be validated: the columns go into the dataset unchecked.

    All draws come from one rng.uniform call, ordered by proposal, then
    variable in schema order, then record: a proposal with num 3 and two
    ranges takes draws 0-2 for the first range and 3-5 for the second. A
    range with lo == hi takes no draw; its records all get lo.
    """
    schema, nums = proposals.schema, proposals.num
    columns: list = [None] * len(schema)
    ranges = []  # schema positions of the continuous variables
    for j, (var, col) in enumerate(zip(schema, proposals.columns)):
        if isinstance(var.kind, Discrete):
            columns[j] = np.repeat(col, nums)
        else:
            ranges.append(j)
    bounds = np.empty((len(nums), len(ranges), 2))
    for i, j in enumerate(ranges):
        bounds[:, i] = proposals.columns[j]
    lo, hi = bounds[..., 0], bounds[..., 1]
    values = np.repeat(lo, nums, axis=0)
    # (proposal, range) entries in draw order, num draws each
    proposal, which = np.nonzero(lo != hi)
    width = nums[proposal]
    draws = rng.uniform(np.repeat(lo[proposal, which], width),
                        np.repeat(hi[proposal, which], width))
    # draw k of an entry goes to record k of its proposal
    start, first = np.cumsum(nums) - nums, np.cumsum(width) - width
    record = np.arange(len(draws)) + np.repeat(start[proposal] - first, width)
    values[record, np.repeat(which, width)] = draws
    for i, j in enumerate(ranges):
        columns[j] = values[:, i]
    return Dataset._from_coded(schema, columns)


def _check_batch(proposals: Proposals, batch_size: int) -> None:
    # last line of defense: nothing unvalidated reaches the pool
    infeasible = validate_proposal(proposals)
    if infeasible:
        row = min(infeasible)
        raise errors.InfeasibleProposal(f"proposal {row}: {infeasible[row]}")
    total = sum(proposals.num.tolist())
    if total != batch_size:
        raise errors.ProposerError(
            f"proposals allocate {total} records, batch needs {batch_size}")


# ---------------------------------------------------------------------------
# checkpointing
#
# The run history is kept once, in fsynced append-only logs: checkpoint/pool.csv
# (CSV rows), metrics.jsonl and identity.jsonl (a JSON line per iteration).
# manifest.json is the one commit point, written by temp file, fsync, rename
# and directory fsync: it holds the iteration, the config echo, and each log's
# committed length and the SHA-256 of that prefix. Resume cuts each log back
# to its length.


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _write_synced(path: Path, data: bytes, mode: str = "wb") -> None:
    with open(path, mode) as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _json_line(row: dict) -> bytes:
    return (json.dumps(row, sort_keys=True) + "\n").encode()


@dataclass
class AppendLog:
    """A file that only grows, committed by length and hash.

    The file holds size bytes and sha is their running SHA-256, so a
    checkpoint never re-reads or re-hashes what earlier appends wrote.
    """

    path: Path
    size: int = 0
    sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    rows: int = 0  # records held, counted for the pool log

    def append(self, data: bytes) -> None:
        """Append and fsync data; an empty log starts the file and syncs its directory."""
        _write_synced(self.path, data, "ab" if self.size else "wb")
        if not self.size:
            _fsync_dir(self.path.parent)
        self.sha.update(data)
        self.size += len(data)


_ECHO_FIELDS = ("proposals_per_iter", "batch_size", "n_components", "seed")


def checkpoint(state: LoopState, directory: str | Path, cfg: LoopConfig) -> None:
    """Append the pool's new records, then commit every log in the manifest.

    The state's pool log is created on first use; same state, same bytes.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        log = state.logs.get("pool.csv")
        if log is None or log.path != directory / "pool.csv":
            log = state.logs["pool.csv"] = AppendLog(directory / "pool.csv")
        log.append(csv_text(state.pool, log.rows).encode("utf-8"))
        log.rows = len(state.pool)
        logs = {os.path.relpath(log.path, directory): log for log in state.logs.values()}
        manifest = {
            "iteration": state.iteration,
            "config": {name: getattr(cfg, name) for name in _ECHO_FIELDS},
            "files": {name: log.sha.hexdigest() for name, log in logs.items()},
            "bytes": {name: log.size for name, log in logs.items()},
        }
        _write_synced(directory / "manifest.json.tmp",
                      json.dumps(manifest, sort_keys=True).encode())
        os.replace(directory / "manifest.json.tmp", directory / "manifest.json")
        _fsync_dir(directory)
    except OSError as exc:
        raise errors.IoFailure(f"cannot write checkpoint to {directory}: {exc}") from exc


def resume(directory: str | Path, schema: VariableSchema, cfg: LoopConfig) -> LoopState:
    """Load and verify a checkpoint; the config must match the stored echo.

    Logs are cut back to their committed lengths and the history is read from
    metrics.jsonl. A missing or mistyped manifest field raises CorruptCheckpoint.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise errors.CorruptCheckpoint(f"no readable checkpoint manifest in {directory}") from exc
    fields = {"iteration": int, "config": dict, "files": dict, "bytes": dict}
    for key, kind in fields.items():
        if type(manifest.get(key) if isinstance(manifest, dict) else None) is not kind:
            raise errors.CorruptCheckpoint(
                f"checkpoint manifest in {directory} has no {key!r} of type {kind.__name__}")
    iteration, echo, hashes, sizes = (manifest[key] for key in fields)
    logs, committed = {}, {}  # each log and its committed bytes, read once
    for name in ("pool.csv", "../metrics.jsonl", "../identity.jsonl"):
        path, size = directory / name, sizes.get(name)
        if not path.exists():
            raise errors.CorruptCheckpoint(f"checkpoint file missing: {name}")
        on_disk = path.stat().st_size
        if type(size) is not int or not 0 <= size <= on_disk:
            raise errors.CorruptCheckpoint(
                f"{name} ({on_disk} bytes) does not hold its committed {size!r} bytes")
        with open(path, "rb") as fh:
            committed[path.name] = fh.read(size)
        logs[path.name] = AppendLog(path, size, hashlib.sha256(committed[path.name]))
        if logs[path.name].sha.hexdigest() != hashes.get(name):
            raise errors.CorruptCheckpoint(f"checkpoint hash mismatch for {name}")
    try:
        history = [json.loads(line) for line in committed["metrics.jsonl"].splitlines()]
        if not all(type(row) is dict for row in history):
            raise ValueError("a row is not a JSON object")
    except ValueError as exc:
        raise errors.CorruptCheckpoint(
            f"committed metrics.jsonl rows in {directory.parent} are not JSON objects") from exc
    for name in _ECHO_FIELDS:
        if echo.get(name) != getattr(cfg, name):
            raise errors.ConfigError(
                f"checkpoint was written with {name}={echo.get(name)!r}, "
                f"resume requested {getattr(cfg, name)!r}")
    if cfg.iterations < iteration:
        raise errors.ConfigError(
            f"checkpoint is at iteration {iteration}, beyond iterations={cfg.iterations}")
    try:
        for log in logs.values():
            os.truncate(log.path, log.size)
    except OSError as exc:
        raise errors.IoFailure(f"cannot cut the logs back in {directory}: {exc}") from exc
    pool = load_csv(logs["pool.csv"].path, schema, committed["pool.csv"])
    if len(pool) != iteration * cfg.batch_size:
        raise errors.CorruptCheckpoint(
            f"pool has {len(pool)} records, expected {iteration * cfg.batch_size}")
    logs["pool.csv"].rows = len(pool)
    return LoopState(iteration=iteration, pool=pool, history=history, logs=logs)


# ---------------------------------------------------------------------------
# run outputs


class _Outputs:
    """Log writers for one output directory.

    metrics.jsonl and identity.jsonl are append logs that each checkpoint
    commits with the pool; convergence.csv and components.json are derived
    from the history and written once, when run exits.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir = self.root / "checkpoint"

    def reset(self, state: LoopState) -> None:
        """Start the run afresh; the state's logs become these outputs' logs."""
        for name in ("metrics.jsonl", "identity.jsonl", "convergence.csv",
                     "components.json", "pool.csv"):
            (self.root / name).unlink(missing_ok=True)
        if self.checkpoint_dir.exists():
            for p in self.checkpoint_dir.iterdir():
                p.unlink()
        self.rewind(state)

    def rewind(self, state: LoopState) -> None:
        """Take over the state's logs."""
        for name in ("metrics.jsonl", "identity.jsonl"):
            state.logs.setdefault(name, AppendLog(self.root / name))
        self.logs = state.logs

    def append_metrics(self, row: dict) -> None:
        self.logs["metrics.jsonl"].append(_json_line(row))

    def append_identity(self, row: dict) -> None:
        self.logs["identity.jsonl"].append(_json_line(row))

    def rewrite_derived(self, history: list[dict]) -> None:
        if not history:
            return
        # units of every iteration (components can change), sorted as in metrics.jsonl
        units = sorted(set().union(*(row["units"] for row in history)))
        lines = ["iteration,mean_tvd," + ",".join(units)]
        for row in history:
            cells = [str(row["iteration"]), repr(row["mean_tvd"])]
            cells += [repr(row["units"][u]) if u in row["units"] else "" for u in units]
            lines.append(",".join(cells))
        _atomic_write(self.root / "convergence.csv", "".join(l + "\n" for l in lines))
        comps = [{"iteration": row["iteration"], "components": row["components"]}
                 for row in history]
        _atomic_write(self.root / "components.json", json.dumps(comps, sort_keys=True))


def _identity_row(t: int, before: SummarySet, batch: SummarySet,
                  after: SummarySet, labels: dict[str, list]) -> dict:
    sets = {"pool_before": before, "batch": batch, "pool_after": after}
    units: dict[str, dict] = {}
    for name in after.marginals:
        units[name] = {"labels": labels[name], **{
            key: proportions(s.marginals[name], s.n).tolist() for key, s in sets.items()}}
    for comp in after.joints:
        keys = labels[comp.id]
        cells = occupied(keys, *(s.joints[comp] for s in sets.values()))
        units[comp.id] = {"labels": [list(keys[i]) for i in cells], **{
            key: proportions(s.joints[comp], s.n).ravel()[cells].tolist()
            for key, s in sets.items()}}
    return {"iteration": t, "w": 1.0 / t, "units": units}


# ---------------------------------------------------------------------------
# the loop


def run(
    real: Dataset,
    cfg: LoopConfig,
    proposer,
    out_dir: str | Path | None = None,
    *,
    guidance: str = "",
    resume_from_checkpoint: bool = False,
) -> tuple[Dataset, list[dict]]:
    """Execute the synthesis loop; returns the final pool and metric history.

    With out_dir set, every iteration appends to the run logs and refreshes
    the checkpoint, so a proposer failure at iteration t leaves iteration
    t-1 fully recoverable; convergence.csv and components.json follow on exit.
    """
    if len(real) == 0:
        raise errors.EmptyDataset("need a non-empty real dataset")
    schema = real.schema
    outputs = _Outputs(out_dir) if out_dir is not None else None
    state = LoopState(iteration=0, pool=Dataset.empty(schema))
    if resume_from_checkpoint:
        if outputs is None:
            raise errors.ConfigError("resume needs an output directory")
        state = resume(outputs.checkpoint_dir, schema, cfg)
        outputs.rewind(state)
    elif outputs is not None:
        outputs.reset(state)

    try:
        specs = fit_all_bins(real)
        real_codes = encode(real, specs)
        pool_codes = encode(state.pool, specs)
        real_marginals = compute_summaries(real_codes, specs)
        for t in range(state.iteration + 1, cfg.iterations + 1):
            components = proposer.infer_components(ComponentContext(
                schema, real, real_marginals, specs,
                n_components=cfg.n_components,
                seed=_iteration_seed(cfg.seed, t, 1),
                batch_size=cfg.batch_size,
            ))
            real_sum, pool_sum = evaluation_summaries(real_codes, pool_codes, specs, components)
            refined = pool_sum.refined
            steering = compute_report(real_sum, pool_sum)
            proposals = proposer.propose(ProposerContext(
                schema=schema,
                real_summaries=real_sum,
                report=steering,
                components=tuple(components),
                k=cfg.proposals_per_iter,
                batch_size=cfg.batch_size,
                pool_size=len(state.pool),
                bin_specs=specs,
                seed=_iteration_seed(cfg.seed, t, 5),
                guidance=guidance,
                real_codes=real_codes,
            ))
            _check_batch(proposals, cfg.batch_size)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, t, 6)))
            batch = sample_batch(proposals, rng)
            batch_codes = encode(batch, specs)
            state.pool = concat(state.pool, batch)
            pool_codes = pool_codes.append(batch_codes)

            real_eval, pool_eval = evaluation_summaries(real_codes, pool_codes, specs, components)
            reported = compute_report(real_eval, pool_eval)
            row: dict = {
                "iteration": t,
                "w": 1.0 / t,
                "mean_tvd": reported.mean_tvd,
                "units": {name: unit.value for name, unit in reported.units.items()},
                "components": [list(c.variables) for c in components],
            }
            # cadence-anchored (not horizon-anchored) so a resumed run logs the
            # same rows an uninterrupted one would
            if cfg.full_metrics_every and t % cfg.full_metrics_every == 0:
                row["full"] = metric_suite(real, state.pool, components)
            state.history.append(row)
            state.iteration = t

            if outputs is not None:
                batch_sum = compute_summaries(batch_codes, specs, components, refined)
                after_sum = compute_summaries(pool_codes, specs, components, refined)
                outputs.append_metrics(row)
                outputs.append_identity(_identity_row(
                    t, pool_sum, batch_sum, after_sum, unit_labels(pool_sum, schema, specs)))
                checkpoint(state, outputs.checkpoint_dir, cfg)
    finally:
        if outputs is not None:
            outputs.rewrite_derived(state.history)

    if outputs is not None:
        try:
            shutil.copyfile(outputs.checkpoint_dir / "pool.csv", outputs.root / "pool.csv")
        except OSError as exc:
            raise errors.IoFailure(f"cannot write {outputs.root / 'pool.csv'}: {exc}") from exc
    return state.pool, state.history
