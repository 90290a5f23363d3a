"""Loop mechanics: sampling, accretion, logging, checkpoint and resume."""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statsynth import errors, loop
from statsynth.loop import (
    LoopConfig,
    LoopState,
    checkpoint,
    resume,
    run,
    sample_batch,
)
from statsynth.oracle import OracleProposer
from statsynth.proposals import Proposals, ProposerContext
from statsynth.reference import EcommerceParams, generate
from statsynth.schema import (
    Continuous,
    Dataset,
    Discrete,
    Variable,
    VariableSchema,
    load_csv,
    save_csv,
    save_schema,
)
from statsynth.summaries import StructuralComponent


@pytest.fixture(scope="module")
def real_small():
    return generate(EcommerceParams(), 400, seed=3)


def small_cfg(**overrides) -> LoopConfig:
    base = dict(iterations=4, proposals_per_iter=3, batch_size=40,
                n_components=2, seed=5)
    base.update(overrides)
    return LoopConfig(**base)


RUN_OUTPUTS = ("pool.csv", "metrics.jsonl", "convergence.csv",
               "identity.jsonl", "components.json")


def assert_same_outputs(a, b) -> None:
    for name in RUN_OUTPUTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# sampling


def proposals_of(schema, rows) -> Proposals:
    """Proposals from (assignments, num) rows: category labels, (lo, hi) ranges."""
    columns = []
    for var in schema:
        values = [assignments[var.name] for assignments, _ in rows]
        if isinstance(var.kind, Discrete):
            columns.append(np.array([var.kind.categories.index(v) for v in values],
                                    dtype=np.int64))
        else:
            columns.append(np.array(values, dtype=np.float64).reshape(len(rows), 2))
    return Proposals(schema, columns, np.array([num for _, num in rows], dtype=np.int64))


def test_sample_all_fixed_yields_identical_records(tiny_schema):
    p = proposals_of(tiny_schema, [({"color": "red", "size": (4.0, 4.0)}, 3)])
    rng = np.random.default_rng(0)
    records = list(sample_batch(p, rng).iter_records())
    assert len(records) == 3
    assert all(r.values == ("red", 4.0) for r in records)


def test_sample_degenerate_range_is_constant(tiny_schema):
    p = proposals_of(tiny_schema, [({"color": "blue", "size": (7.5, 7.5)}, 10)])
    records = sample_batch(p, np.random.default_rng(1)).iter_records()
    assert {r.values[1] for r in records} == {7.5}


def test_sample_uniform_range_mean(tiny_schema):
    # mean of U(0, 10) is 5; with 1e5 draws the error is ~0.01
    p = proposals_of(tiny_schema, [({"color": "red", "size": (0.0, 10.0)}, 100_000)])
    batch = sample_batch(p, np.random.default_rng(2))
    values = np.array([r.values[1] for r in batch.iter_records()])
    assert abs(values.mean() - 5.0) < 0.1
    assert values.min() >= 0.0 and values.max() <= 10.0


def test_sample_batch_orders_proposals(tiny_schema):
    proposals = proposals_of(tiny_schema, [
        ({"color": "red", "size": (1.0, 1.0)}, 2),
        ({"color": "blue", "size": (2.0, 2.0)}, 1),
    ])
    batch = sample_batch(proposals, np.random.default_rng(3))
    assert list(batch.column("color")) == ["red", "red", "blue"]


def reference_sample_batch(proposals, rng):
    """The sampler as first written: one np.full or rng.uniform per cell."""
    columns = [[] for _ in proposals.schema]
    for i, num in enumerate(proposals.num.tolist()):
        for part, var, col in zip(columns, proposals.schema, proposals.columns):
            if isinstance(var.kind, Discrete):
                part.append(np.full(num, col[i], dtype=np.int64))
            elif col[i, 0] == col[i, 1]:
                part.append(np.full(num, col[i, 0], dtype=np.float64))
            else:
                part.append(rng.uniform(col[i, 0], col[i, 1], size=num))
    return [np.concatenate(part) for part in columns]


MIXED_SCHEMA = VariableSchema((
    Variable("x", Continuous(-5.0, 5.0)),
    Variable("c", Discrete(("a", "b", "c"))),
    Variable("y", Continuous(0.0, 1000.0)),
    Variable("d", Discrete(("u", "v"))),
    Variable("z", Continuous(1.0, 2.0)),
))


@st.composite
def mixed_proposals(draw):
    """Proposals over MIXED_SCHEMA with num 1-5; about a third of ranges have lo == hi."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        assignments = {}
        for var in MIXED_SCHEMA:
            kind = var.kind
            if isinstance(kind, Discrete):
                assignments[var.name] = draw(st.sampled_from(kind.categories))
                continue
            ends = sorted(draw(st.lists(st.floats(kind.lower, kind.upper),
                                        min_size=2, max_size=2)))
            if draw(st.integers(0, 2)) == 0:
                ends[1] = ends[0]
            assignments[var.name] = tuple(ends)
        rows.append((assignments, draw(st.integers(1, 5))))
    return proposals_of(MIXED_SCHEMA, rows)


@given(mixed_proposals(), st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_sample_batch_matches_per_cell_reference(proposals, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_batch(proposals, rng_new)
    want = reference_sample_batch(proposals, rng_ref)
    for col, ref in zip(got.columns, want):
        assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# ---------------------------------------------------------------------------
# run basics


def test_pool_grows_by_batch_size_each_iteration(real_small):
    cfg = small_cfg()
    pool, history = run(real_small, cfg, OracleProposer())
    assert len(pool) == cfg.iterations * cfg.batch_size
    assert [row["iteration"] for row in history] == [1, 2, 3, 4]
    for row in history:
        assert row["w"] == 1.0 / row["iteration"]


def test_single_iteration_on_two_binary_schema(two_binary_schema):
    rng = np.random.default_rng(9)
    rows = [("A0" if rng.random() < 0.7 else "A1",
             "B0" if rng.random() < 0.4 else "B1") for _ in range(300)]
    real = Dataset.from_records(two_binary_schema, rows)
    cfg = LoopConfig(iterations=1, proposals_per_iter=2, batch_size=100,
                     n_components=1, seed=1)
    pool, history = run(real, cfg, OracleProposer())
    assert len(pool) == 100
    assert history[-1]["mean_tvd"] <= 0.1


def test_mean_tvd_decreases_over_run(real_small):
    _, history = run(real_small, small_cfg(iterations=6), OracleProposer())
    assert history[-1]["mean_tvd"] < history[0]["mean_tvd"]


def test_full_metrics_follow_cadence(real_small):
    _, history = run(real_small, small_cfg(iterations=4, full_metrics_every=2),
                     OracleProposer())
    assert ["full" in row for row in history] == [False, True, False, True]
    full = history[-1]["full"]
    # the full suite and the per-iteration row share one evaluation pipeline
    assert math.isclose(full["overall"]["mean_tvd"], history[-1]["mean_tvd"],
                        rel_tol=0, abs_tol=1e-12)


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        LoopConfig(iterations=0)
    with pytest.raises(errors.ConfigError):
        LoopConfig(batch_size=3, proposals_per_iter=5)
    with pytest.raises(errors.ConfigError):
        LoopConfig(seed=-1)


def test_batch_contract_enforced(real_small):
    class ShortchangingProposer(OracleProposer):
        def propose(self, ctx: ProposerContext):
            proposals = super().propose(ctx)
            num = proposals.num.copy()
            num[num.argmax()] -= 1
            return Proposals(proposals.schema, proposals.columns, num)

    with pytest.raises(errors.ProposerError):
        run(real_small, small_cfg(iterations=1), ShortchangingProposer())


def _first(schema, discrete: bool) -> int:
    return next(j for j, var in enumerate(schema) if isinstance(var.kind, Discrete) == discrete)


def _unknown_code(schema, columns, num):
    j = _first(schema, True)
    columns[j][0] = len(schema.variables[j].kind.categories)


def _range_past_upper(schema, columns, num):
    j = _first(schema, False)
    columns[j][0, 1] = schema.variables[j].kind.upper + 1.0


def _nan_bound(schema, columns, num):
    columns[_first(schema, False)][0, 0] = math.nan


def _inf_bound(schema, columns, num):
    columns[_first(schema, False)][0, 1] = math.inf


def _num_zero(schema, columns, num):
    num[1] += num[0]
    num[0] = 0


def _one_record_too_many(schema, columns, num):
    num[0] += 1


class SpoilsSecondBatch(OracleProposer):
    """The oracle, with spoil(schema, columns, num) applied to its second batch."""

    def __init__(self, spoil) -> None:
        super().__init__()
        self.spoil = spoil

    def propose(self, ctx: ProposerContext):
        proposals = super().propose(ctx)
        if not ctx.pool_size:
            return proposals
        columns, num = [col.copy() for col in proposals.columns], proposals.num.copy()
        self.spoil(proposals.schema, columns, num)
        return Proposals(proposals.schema, columns, num)


@pytest.mark.parametrize("spoil, error", [
    (_unknown_code, errors.InfeasibleProposal),
    (_range_past_upper, errors.InfeasibleProposal),
    (_nan_bound, errors.InfeasibleProposal),
    (_inf_bound, errors.InfeasibleProposal),
    (_num_zero, errors.InfeasibleProposal),
    (_one_record_too_many, errors.ProposerError),
], ids=lambda v: getattr(v, "__name__", "").lstrip("_"))
def test_loop_refuses_a_spoilt_batch(tmp_path, real_small, spoil, error):
    cfg = small_cfg(iterations=3)
    with pytest.raises(errors.ProposerError) as raised:
        run(real_small, cfg, SpoilsSecondBatch(spoil), tmp_path)
    assert raised.type is error
    # nothing of iteration 2 reached the pool or the logs
    assert len((tmp_path / "metrics.jsonl").read_text().splitlines()) == 1
    pool = load_csv(tmp_path / "checkpoint" / "pool.csv", real_small.schema)
    assert len(pool) == cfg.batch_size
    assert resume(tmp_path / "checkpoint", real_small.schema, cfg).iteration == 1


def test_spoilt_batch_exits_3(tmp_path, real_small, monkeypatch, capsys):
    from statsynth import cli

    monkeypatch.setattr(cli, "OracleProposer", lambda: SpoilsSecondBatch(_num_zero))
    save_csv(real_small, tmp_path / "real.csv")
    save_schema(real_small.schema, tmp_path / "real.schema.json")
    code = cli.main(["synthesize", "--real", str(tmp_path / "real.csv"),
                     "--schema", str(tmp_path / "real.schema.json"),
                     "--out", str(tmp_path / "run"), "--iterations", "2",
                     "--batch-size", "40", "--proposals", "3", "--components", "2"])
    assert code == 3
    assert "num must be a positive integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# logs


def test_run_writes_logs(tmp_path, real_small):
    cfg = small_cfg(iterations=3, full_metrics_every=2)
    pool, history = run(real_small, cfg, OracleProposer(), tmp_path)
    disk_pool = load_csv(tmp_path / "pool.csv", real_small.schema)
    assert disk_pool.equals(pool)
    rows = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert rows == history
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    header = conv[0].split(",")
    assert header[:2] == ["iteration", "mean_tvd"]
    assert set(header[2:]) == set(history[0]["units"])
    assert len(conv) == 1 + cfg.iterations
    comps = json.loads((tmp_path / "components.json").read_text())
    assert [c["iteration"] for c in comps] == [1, 2, 3]
    committed = json.loads((tmp_path / "checkpoint" / "manifest.json").read_text())["bytes"]
    assert committed == {name: (tmp_path / "checkpoint" / name).stat().st_size
                         for name in ("pool.csv", "../metrics.jsonl", "../identity.jsonl")}


def test_convergence_csv_has_every_unit(tmp_path, real_small):
    class SwitchesComponents(OracleProposer):
        calls = 0

        def infer_components(self, ctx):
            self.calls += 1
            pair = (("user_age", "gender") if self.calls == 1
                    else ("location_tier", "product_category"))
            return [StructuralComponent(pair)]

    _, history = run(real_small, small_cfg(iterations=3, n_components=1),
                     SwitchesComponents(), tmp_path)
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["iteration", "mean_tvd"]
    units = sorted(set().union(*(row["units"] for row in history)))
    assert header[2:] == units
    assert {"user_age+gender", "location_tier+product_category"} <= set(units)
    for line, row in zip(lines[1:], history):
        cells = dict(zip(header, line.split(",")))
        assert cells == {"iteration": str(row["iteration"]), "mean_tvd": repr(row["mean_tvd"]),
                         **{u: repr(row["units"][u]) if u in row["units"] else ""
                            for u in units}}
    assert cells["user_age+gender"] == "" and cells["location_tier+product_category"] != ""


def test_identity_rows_mix_exactly(tmp_path, real_small):
    run(real_small, small_cfg(iterations=4), OracleProposer(), tmp_path)
    rows = [json.loads(l) for l in (tmp_path / "identity.jsonl").read_text().splitlines()]
    assert [r["iteration"] for r in rows] == [1, 2, 3, 4]
    for row in rows:
        w = row["w"]
        assert w == 1.0 / row["iteration"]
        for unit in row["units"].values():
            before = np.array(unit["pool_before"])
            batch = np.array(unit["batch"])
            after = np.array(unit["pool_after"])
            np.testing.assert_allclose((1 - w) * before + w * batch, after,
                                       rtol=0, atol=1e-9)


def test_deterministic_reruns_are_byte_identical(tmp_path, real_small):
    cfg = small_cfg(iterations=3)
    run(real_small, cfg, OracleProposer(), tmp_path / "a")
    run(real_small, cfg, OracleProposer(), tmp_path / "b")
    assert_same_outputs(tmp_path / "a", tmp_path / "b")


_HASH_SEED_RUN = """
import sys
from statsynth.loop import LoopConfig, run
from statsynth.oracle import OracleProposer
from statsynth.reference import EcommerceParams, generate
real = generate(EcommerceParams(), 2000, seed=3)
cfg = LoopConfig(iterations=4, batch_size=200, n_components=3, seed=5)
run(real, cfg, OracleProposer(), sys.argv[1])
"""


def test_logs_identical_across_hash_seeds(tmp_path):
    # string hashing must not reach any logged number, e.g. via set order
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-c", _HASH_SEED_RUN, str(tmp_path / hash_seed)],
                       env=env, check=True)
    for name in ("metrics.jsonl", "convergence.csv", "identity.jsonl"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), name


def test_seed_changes_output(tmp_path, real_small):
    run(real_small, small_cfg(iterations=2, seed=5), OracleProposer(), tmp_path / "a")
    run(real_small, small_cfg(iterations=2, seed=6), OracleProposer(), tmp_path / "b")
    assert (tmp_path / "a" / "pool.csv").read_bytes() != \
        (tmp_path / "b" / "pool.csv").read_bytes()


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_twice_is_identical(tmp_path, real_small):
    cfg = small_cfg()
    state = LoopState(iteration=1, pool=real_small,
                      history=[{"iteration": 1, "mean_tvd": 0.5}])
    checkpoint(state, tmp_path, cfg)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    checkpoint(state, tmp_path, cfg)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    # the manifest alone commits: the history lives in metrics.jsonl
    assert set(first) == {"pool.csv", "manifest.json"}
    assert set(json.loads(first["manifest.json"])) == {"iteration", "config", "files", "bytes"}


def test_resume_reproduces_uninterrupted_run(tmp_path, real_small):
    cfg = small_cfg(iterations=6)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")

    half = small_cfg(iterations=3)
    run(real_small, half, OracleProposer(), tmp_path / "resumed")
    pool, history = run(real_small, cfg, OracleProposer(), tmp_path / "resumed",
                        resume_from_checkpoint=True)
    assert len(pool) == 6 * cfg.batch_size
    assert [r["iteration"] for r in history] == [1, 2, 3, 4, 5, 6]
    assert_same_outputs(tmp_path / "straight", tmp_path / "resumed")


def test_resume_accepts_echo_of_removed_fields(tmp_path, real_small):
    # checkpoints once echoed the unused tolerance, threshold, n_bins and
    # cache_components settings
    cfg = small_cfg(iterations=6)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")
    run(real_small, small_cfg(iterations=3), OracleProposer(), tmp_path / "resumed")
    manifest_path = tmp_path / "resumed" / "checkpoint" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update(tolerance=0.01, threshold=0.05, n_bins=6, cache_components=False)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True))
    run(real_small, cfg, OracleProposer(), tmp_path / "resumed", resume_from_checkpoint=True)
    assert_same_outputs(tmp_path / "straight", tmp_path / "resumed")


def test_resume_discards_uncommitted_pool_tail(tmp_path, real_small):
    cfg = small_cfg(iterations=4)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path / "resumed")
    pool_csv = tmp_path / "resumed" / "checkpoint" / "pool.csv"
    committed = pool_csv.read_bytes()
    with open(pool_csv, "ab") as fh:
        fh.write(b"Male,half a row")
    state = resume(pool_csv.parent, real_small.schema, cfg)
    assert state.iteration == 2
    assert pool_csv.read_bytes() == committed
    run(real_small, cfg, OracleProposer(), tmp_path / "resumed", resume_from_checkpoint=True)
    assert_same_outputs(tmp_path / "straight", tmp_path / "resumed")


def test_resume_cuts_torn_log_tails(tmp_path, real_small):
    # a kill during an append leaves half a JSON line past the committed length
    cfg = small_cfg(iterations=4)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path / "resumed")
    for name in ("metrics.jsonl", "identity.jsonl"):
        with open(tmp_path / "resumed" / name, "ab") as fh:
            fh.write(b'{"iteration": 3, "units": {"age": ')
    run(real_small, cfg, OracleProposer(), tmp_path / "resumed", resume_from_checkpoint=True)
    assert_same_outputs(tmp_path / "straight", tmp_path / "resumed")


@pytest.mark.parametrize("name", ["metrics.jsonl", "identity.jsonl"])
def test_resume_detects_lost_committed_rows(tmp_path, real_small, name):
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path)
    log = tmp_path / name
    log.write_bytes(b"".join(log.read_bytes().splitlines(True)[:-1]))
    with pytest.raises(errors.CorruptCheckpoint):
        run(real_small, small_cfg(iterations=4), OracleProposer(), tmp_path,
            resume_from_checkpoint=True)


class _Killed(BaseException):
    """Stands in for the process dying: no handler in the program catches it."""


class _KillSwitch:
    """Kills the run after the nth durable file step (fsync or rename) of one
    iteration, from its first log append to the end of its checkpoint, once."""

    def __init__(self, iteration: int, nth: int) -> None:
        self.iteration, self.nth = iteration, nth
        self.armed = self.fired = False
        self.steps: list[str] = []

    def watch(self, fn, name: str):
        def step(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.armed and not self.fired:
                self.steps.append(name)
                if len(self.steps) == self.nth:
                    self.fired = True
                    raise _Killed(f"killed after {name} #{self.nth}")
            return result
        return step

    def around_first_append(self, original):
        def watched(outputs, row):
            self.armed = self.armed or row["iteration"] == self.iteration
            return original(outputs, row)
        return watched

    def around_checkpoint(self, original):
        def watched(state, directory, cfg):
            try:
                original(state, directory, cfg)
            finally:
                self.armed = False
        return watched


def test_kill_at_every_checkpoint_step_then_resume(tmp_path, real_small, monkeypatch):
    # a resumed leg (iterations 3-4) is killed in iteration 3 after each of
    # its durable steps in turn: the metrics, identity and pool appends, the
    # staged manifest, its rename and the directory sync. Resuming must then
    # finish exactly like an uninterrupted run.
    cfg = small_cfg(iterations=4)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path / "leg1")
    nth = 0
    while True:
        nth += 1
        out = tmp_path / f"kill{nth}"
        shutil.copytree(tmp_path / "leg1", out)
        switch = _KillSwitch(iteration=3, nth=nth)
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", switch.watch(os.fsync, "fsync"))
            m.setattr(os, "replace", switch.watch(os.replace, "replace"))
            m.setattr(loop._Outputs, "append_metrics",
                      switch.around_first_append(loop._Outputs.append_metrics))
            m.setattr(loop, "checkpoint", switch.around_checkpoint(loop.checkpoint))
            try:
                run(real_small, cfg, OracleProposer(), out, resume_from_checkpoint=True)
            except _Killed:
                pass
        if not switch.fired:
            break
        run(real_small, cfg, OracleProposer(), out, resume_from_checkpoint=True)
        assert_same_outputs(tmp_path / "straight", out)
    assert len(switch.steps) == nth - 1
    assert switch.steps == ["fsync", "fsync", "fsync", "fsync", "replace", "fsync"]


def test_final_pool_csv_is_save_csv_of_returned_pool(tmp_path):
    schema = VariableSchema((
        Variable("shipping", Discrete(("ground", "air, express", 'say "fast"'))),
        Variable("weight", Continuous(0.0, 20.0)),
        Variable("tier", Discrete(("a", "b"))),
    ))
    rng = np.random.default_rng(4)
    real = Dataset._from_coded(schema, [rng.integers(0, 3, 300),
                                        rng.uniform(0.0, 20.0, 300),
                                        rng.integers(0, 2, 300)])
    cfg = LoopConfig(iterations=3, proposals_per_iter=3, batch_size=30,
                     n_components=1, seed=2)
    pool, _ = run(real, cfg, OracleProposer(), tmp_path / "run")
    save_csv(pool, tmp_path / "whole.csv")
    written = (tmp_path / "run" / "pool.csv").read_bytes()
    assert written == (tmp_path / "whole.csv").read_bytes()
    assert b'"air, express"' in written and b'"say ""fast"""' in written


def test_resume_from_empty_directory(tmp_path, real_small):
    (tmp_path / "checkpoint").mkdir()
    with pytest.raises(errors.CorruptCheckpoint):
        run(real_small, small_cfg(), OracleProposer(), tmp_path,
            resume_from_checkpoint=True)


def test_resume_detects_tampered_pool(tmp_path, real_small):
    # every committed log, each changed in place at an unchanged length
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path / "run")
    for name in ("checkpoint/pool.csv", "metrics.jsonl", "identity.jsonl"):
        out = tmp_path / name.replace("/", "_")
        shutil.copytree(tmp_path / "run", out)
        data = bytearray((out / name).read_bytes())
        data[len(data) // 2] ^= 1
        (out / name).write_bytes(bytes(data))
        with pytest.raises(errors.CorruptCheckpoint, match="hash mismatch"):
            resume(out / "checkpoint", real_small.schema, small_cfg(iterations=2))


def _recommit_metrics(manifest: dict, run_dir, data: bytes) -> None:
    """Replace metrics.jsonl by data and commit it in the manifest."""
    (run_dir / "metrics.jsonl").write_bytes(data)
    manifest["files"]["../metrics.jsonl"] = hashlib.sha256(data).hexdigest()
    manifest["bytes"]["../metrics.jsonl"] = len(data)


@pytest.mark.parametrize("spoil", [
    lambda m, d: m.update(iteration="2"),
    lambda m, d: m.pop("iteration"),
    lambda m, d: m.update(config=[]),
    lambda m, d: m.update(files=[]),
    lambda m, d: m["bytes"].pop("../identity.jsonl"),
    lambda m, d: m["bytes"].update({"pool.csv": "12"}),
    lambda m, d: _recommit_metrics(m, d, b"not json\n"),
    lambda m, d: _recommit_metrics(m, d, b"[1]\n"),
], ids=["iteration_text", "iteration_missing", "config_list", "files_list",
        "bytes_without_identity", "bytes_text", "metrics_not_json", "metrics_not_object"])
def test_resume_refuses_wrongly_shaped_checkpoint(tmp_path, real_small, spoil):
    # hashes match, but a value resume reads has the wrong type
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path)
    manifest_path = tmp_path / "checkpoint" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    spoil(manifest, tmp_path)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True))
    with pytest.raises(errors.CorruptCheckpoint):
        resume(tmp_path / "checkpoint", real_small.schema, small_cfg())


def test_resume_rejects_config_drift(tmp_path, real_small):
    run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path)
    with pytest.raises(errors.ConfigError):
        run(real_small, small_cfg(iterations=4, seed=99), OracleProposer(),
            tmp_path, resume_from_checkpoint=True)


def test_resume_rejects_shrunk_iteration_budget(tmp_path, real_small):
    run(real_small, small_cfg(iterations=3), OracleProposer(), tmp_path)
    with pytest.raises(errors.ConfigError):
        run(real_small, small_cfg(iterations=2), OracleProposer(), tmp_path,
            resume_from_checkpoint=True)


def test_proposer_failure_leaves_checkpoint_intact(tmp_path, real_small):
    class FailsAtFour(OracleProposer):
        def propose(self, ctx: ProposerContext):
            if ctx.pool_size >= 3 * 40:
                raise errors.LlmUnavailable("endpoint went away")
            return super().propose(ctx)

    cfg = small_cfg(iterations=6)
    with pytest.raises(errors.LlmUnavailable):
        run(real_small, cfg, FailsAtFour(), tmp_path)
    # the derived files hold iterations 1-3
    assert len((tmp_path / "convergence.csv").read_text().splitlines()) == 1 + 3
    assert len(json.loads((tmp_path / "components.json").read_text())) == 3
    state = resume(tmp_path / "checkpoint", real_small.schema, cfg)
    assert state.iteration == 3
    assert len(state.pool) == 3 * cfg.batch_size
    # and the run is continuable once the proposer recovers
    pool, history = run(real_small, cfg, OracleProposer(), tmp_path,
                        resume_from_checkpoint=True)
    assert len(pool) == 6 * cfg.batch_size


def test_resume_at_checkpoint_iteration_writes_derived_files(tmp_path, real_small):
    # a kill after the last checkpoint leaves the derived files stale or
    # missing; a resume with nothing left to run still writes them
    cfg = small_cfg(iterations=3)
    run(real_small, cfg, OracleProposer(), tmp_path / "straight")
    shutil.copytree(tmp_path / "straight", tmp_path / "resumed")
    for name in ("convergence.csv", "components.json"):
        (tmp_path / "resumed" / name).unlink()
    run(real_small, cfg, OracleProposer(), tmp_path / "resumed", resume_from_checkpoint=True)
    assert_same_outputs(tmp_path / "straight", tmp_path / "resumed")


def test_derived_write_failure_replaces_proposer_error(tmp_path, real_small, monkeypatch):
    class FailsAtTwo(OracleProposer):
        def propose(self, ctx: ProposerContext):
            if ctx.pool_size:
                raise errors.LlmUnavailable("endpoint went away")
            return super().propose(ctx)

    def no_space(outputs, history):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(loop._Outputs, "rewrite_derived", no_space)
    with pytest.raises(OSError) as raised:
        run(real_small, small_cfg(), FailsAtTwo(), tmp_path)
    assert isinstance(raised.value.__context__, errors.LlmUnavailable)
    assert resume(tmp_path / "checkpoint", real_small.schema, small_cfg()).iteration == 1
