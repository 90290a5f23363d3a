"""One workload repetition in a fresh process: set-up, timed run, outputs.

Usage: python3 perfbench/workloads.py SPEC.json RESULT.json

run.py writes SPEC (workload, sizes, input paths, whether to trace) and
reads RESULT. The program is driven only through statsynth's Python API,
with the calls the `synthesize` and `evaluate` commands make. A traced
repetition patches the module attributes each caller looks up and wraps the
proposer and chat client in delegating objects passed into `run`. Every time
is measured on SpeedProbe's clock and reported at the reference speed
(speed.py).
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from endpoint import KeepAliveEndpoint, llm_script  # noqa: E402
from spans import Tracer, percentile  # noqa: E402
from speed import SpeedProbe  # noqa: E402


class StampedProposer:
    """Delegates to a proposer, stamping each propose call; spans it if traced."""

    def __init__(self, inner, layer: str, tracer: Tracer | None, clock) -> None:
        self.inner = inner
        self.name = inner.name
        self.layer = layer
        self.tracer = tracer
        self.clock = clock
        self.stamps: list[float] = []

    def infer_components(self, ctx):
        if self.tracer is None:
            return self.inner.infer_components(ctx)
        return self.tracer.call(f"{self.layer}.infer_components",
                                self.inner.infer_components, (ctx,))

    def propose(self, ctx):
        self.stamps.append(self.clock())
        if self.tracer is None:
            return self.inner.propose(ctx)
        self.tracer.iteration += 1
        proposals = self.tracer.call(f"{self.layer}.propose", self.inner.propose, (ctx,))
        self.tracer.counts[f"{self.layer}.proposals"] += len(proposals)
        return proposals


class TracedClient:
    """Delegates to a ChatClient; spans every attempt and classifies failures."""

    def __init__(self, inner, tracer: Tracer, errors, probe: SpeedProbe) -> None:
        self.inner = inner
        self.tracer = tracer
        self.errors = errors
        self.probe = probe
        self.wait_s = 0.0
        self.failures: dict[str, int] = {}

    def complete(self, messages):
        cpu0, probe0 = time.thread_time(), self.probe.total
        idx = self.tracer.begin("llm.complete")
        try:
            return self.inner.complete(messages)
        except self.errors.LlmUnavailable as exc:
            status = str(exc).rpartition("HTTP ")[2]
            self._fail(f"http_{status}" if status.isdigit() else "unreachable")
            raise
        except self.errors.MalformedReply:
            self._fail("malformed")
            raise
        finally:
            self.tracer.end(idx)
            span = self.tracer.spans[idx]
            # the span leaves out probe time; so does the CPU time here
            cpu = time.thread_time() - cpu0 - (self.probe.total - probe0)
            self.wait_s += (span.end - span.start) - cpu

    def _fail(self, cls: str) -> None:
        self.failures[cls] = self.failures.get(cls, 0) + 1


# ---------------------------------------------------------------------------
# layer tracing


def _rows(tracer, args, result) -> None:
    # compute_summaries(data, ...) or refine/evaluation(real, synth, ...)
    data = [a for a in args if hasattr(a, "n_records")]
    tracer.counts["summaries.rows"] += sum(len(d) for d in data)


def _cells(tracer, args, report) -> None:
    tracer.counts["discrepancy.cells"] += sum(len(u.cells) for u in report.units.values())


def _concat_bytes(tracer, args, data) -> None:
    tracer.counts["schema.concat_bytes"] += sum(col.nbytes for col in data.columns)


def _prompt_chars(tracer, args, messages) -> None:
    if args[0] == "proposal":
        tracer.samples["llm.prompt_chars"].append(sum(len(m["content"]) for m in messages))


def install_layer_trace(tracer: Tracer, statsynth) -> None:
    from statsynth import llm, loop, metrics

    patch = tracer.patch
    patch(statsynth, "run", "loop.run")
    patch(statsynth, "load_csv", "schema.load_csv", io=True)
    patch(statsynth, "metric_suite", "metrics.metric_suite")
    patch(loop, "refine_all_bins", "summaries.refine_all_bins", count=_rows)
    patch(loop, "compute_summaries", "summaries.compute_summaries", count=_rows)
    patch(loop, "evaluation_summaries", "summaries.evaluation_summaries", count=_rows)
    patch(loop, "compute_report", "discrepancy.compute_report", count=_cells)
    patch(loop, "concat", "schema.concat", count=_concat_bytes)
    patch(loop, "sample_batch", "loop.sample_batch")
    patch(loop, "validate_proposal", "proposals.validate_proposal")
    patch(loop, "metric_suite", "metrics.metric_suite")
    patch(loop, "checkpoint", "loop.checkpoint", io=True)
    patch(loop, "save_csv", "schema.save_csv", io=True)
    patch(loop, "resume", "loop.resume", io=True)
    patch(loop, "load_csv", "schema.load_csv", io=True)
    patch(loop, "_identity_row", "loop.logs")
    for writer in ("reset", "rewind", "append_metrics", "append_identity", "rewrite_derived"):
        patch(loop._Outputs, writer, "loop.logs", io=True)
    patch(metrics, "evaluation_summaries", "metrics.evaluation_summaries")
    patch(metrics, "compute_report", "discrepancy.compute_report", count=_cells)
    for fn in ("c2st_gap", "mmd_rbf", "energy_distance", "wasserstein1"):
        patch(metrics, fn, f"metrics.{fn}")
    patch(llm, "render_prompt", "llm.render_prompt", count=_prompt_chars)
    patch(llm, "parse_proposal_reply", "llm.parse")
    patch(llm, "parse_copula_reply", "llm.parse")
    patch(llm, "validate_proposal", "proposals.validate_proposal")


def layer_metrics(tracer: Tracer, iterations: int, batch_csv_bytes: int,
                  client: TracedClient | None, endpoint: KeepAliveEndpoint | None,
                  win) -> dict:
    """Per-layer metrics; every time at the reference speed of the run's window."""
    st = tracer.self_times(win.seconds)
    s = lambda name: st.get(name, 0.0)  # noqa: E731
    n = lambda name: len(tracer.durations(name))  # noqa: E731
    per_iter = lambda v: v / iterations if iterations else 0.0  # noqa: E731
    propose_ms = [d * 1e3 for d in tracer.durations("oracle.propose", win.seconds)]
    complete_ms = [d * 1e3 for d in tracer.durations("llm.complete", win.seconds)]
    attempts = len(complete_ms)
    failures = client.failures if client else {}
    failed = sum(failures.values())
    ckpt_w = tracer.wbytes["loop.checkpoint"]
    out = {
        "oracle.propose_s": s("oracle.propose"),
        "oracle.propose_p50_ms": percentile(propose_ms, 0.5),
        "oracle.propose_p90_ms": percentile(propose_ms, 0.9),
        "oracle.infer_components_s": s("oracle.infer_components"),
        "oracle.proposals_per_batch": (tracer.counts["oracle.proposals"] / len(propose_ms)
                                       if propose_ms else 0.0),
        "loop.checkpoint_s": s("loop.checkpoint"),
        "schema.save_csv_s": s("schema.save_csv"),
        "loop.checkpoint_wbytes_per_iter": (ckpt_w / n("loop.checkpoint")
                                            if n("loop.checkpoint") else 0.0),
        "loop.checkpoint_write_amp": ckpt_w / batch_csv_bytes if batch_csv_bytes else 0.0,
        "loop.logs_s": s("loop.logs"),
        "loop.logs_wbytes": tracer.wbytes["loop.logs"],
        "loop.resume_s": s("loop.resume"),
        "loop.resume_rbytes": tracer.rbytes["loop.resume"],
        "schema.load_csv_s": s("schema.load_csv"),
        "summaries.refine_all_bins_s": s("summaries.refine_all_bins"),
        "summaries.compute_summaries_s": s("summaries.compute_summaries"),
        "summaries.compute_summaries_calls": n("summaries.compute_summaries"),
        "summaries.evaluation_summaries_s": s("summaries.evaluation_summaries"),
        "summaries.rows_per_iter": per_iter(tracer.counts["summaries.rows"]),
        "discrepancy.compute_report_s": s("discrepancy.compute_report"),
        "discrepancy.cells_per_iter": per_iter(tracer.counts["discrepancy.cells"]),
        "schema.concat_s": s("schema.concat"),
        "schema.concat_bytes": tracer.counts["schema.concat_bytes"],
        "llm.render_prompt_s": s("llm.render_prompt"),
        "llm.prompt_chars_p50": percentile(tracer.samples["llm.prompt_chars"], 0.5),
        "llm.complete_s": s("llm.complete"),
        "llm.complete_p50_ms": percentile(complete_ms, 0.5),
        "llm.complete_p90_ms": percentile(complete_ms, 0.9),
        "llm.complete_wait_s": client.wait_s * win.mean_factor if client else 0.0,
        "llm.connections_per_request": (endpoint.connections / endpoint.requests
                                        if endpoint and endpoint.requests else 0.0),
        "llm.parse_s": s("llm.parse"),
        "llm.attempts": attempts,
        "llm.attempts_failed": failed,
        "llm.attempts_failed_http": sum(v for k, v in failures.items() if k.startswith("http_")),
        "llm.attempts_failed_malformed": failures.get("malformed", 0),
        "llm.attempt_success_ratio": (attempts - failed) / attempts if attempts else 0.0,
        "metrics.metric_suite_s": s("metrics.metric_suite"),
        "metrics.c2st_gap_s": s("metrics.c2st_gap"),
        "metrics.mmd_rbf_s": s("metrics.mmd_rbf"),
        "metrics.energy_distance_s": s("metrics.energy_distance"),
        "metrics.evaluation_summaries_s": s("metrics.evaluation_summaries"),
        "metrics.wasserstein1_s": s("metrics.wasserstein1"),
        "loop.sample_batch_s": s("loop.sample_batch"),
        "proposals.validate_proposal_s": s("proposals.validate_proposal"),
    }
    out["trace.own_cost_s"] = tracer.own_cost() * win.mean_factor
    return {"metrics": out, "self_times": st, "failures": failures}


# ---------------------------------------------------------------------------
# workloads


def _digest(pool, outputs) -> str:
    """Exact digest of the pool's bytes (if any) and the logged outputs."""
    h = hashlib.sha256()
    for col in pool.columns if pool is not None else ():
        h.update(col.tobytes())
    h.update(json.dumps(outputs, sort_keys=True).encode())
    return h.hexdigest()


def _batch_csv_bytes(out_dir: str | None) -> int:
    """CSV bytes of every batch: the checkpointed pool without its header."""
    pool_csv = Path(out_dir) / "checkpoint" / "pool.csv" if out_dir else None
    if pool_csv is None or not pool_csv.exists():
        return 0
    with open(pool_csv, "rb") as fh:
        header = len(fh.readline())
    return pool_csv.stat().st_size - header


def _loop_config(statsynth, spec: dict, iterations: int):
    return statsynth.LoopConfig(iterations=iterations, batch_size=spec["batch"],
                                n_components=3, seed=spec["seed"], full_metrics_every=0)


def _setup(statsynth, spec: dict, build, probe: SpeedProbe):
    """Load schema and real CSV, then build the proposer; timed, repeated.

    Repeats for half the spec's set-up budget and count, at least once, in a
    speed window of its own: an untraced repetition samples half before and
    half after its run.
    """
    spans: list[tuple[float, float]] = []
    spent = 0.0
    with probe.window() as win:
        while (not spans or spent < spec["setup_budget_s"] / 2
               or len(spans) < spec["setup_min_reps"] / 2):
            t0 = probe.now()
            schema = statsynth.load_schema(spec["schema"])
            real = statsynth.load_csv(spec["real"], schema)
            built = build(schema, real)
            spans.append((t0, probe.now()))
            spent += spans[-1][1] - t0
    return schema, real, built, [win.seconds(a, b) for a, b in spans]


def run_loop(statsynth, spec: dict, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    workload = spec["workload"]
    layer = "llm" if workload == "llm-long" else "oracle"
    if workload == "oracle-durable":
        legs = [spec["oracle_iters"] * (i + 1) // spec["legs"] for i in range(spec["legs"])]
        out_dir = spec["out_dir"]
    else:
        legs = [spec["llm_iters"] if layer == "llm" else spec["oracle_iters"]]
        out_dir = None
    endpoint = client = None
    with contextlib.ExitStack() as stack:
        if layer == "llm":
            from statsynth import errors
            from statsynth.llm import ChatClient

            schema = statsynth.load_schema(spec["schema"])
            endpoint = stack.enter_context(
                KeepAliveEndpoint(llm_script(schema, spec["seed"], spec["llm_iters"])))

            def build(schema, real):
                return statsynth.LlmProposer(statsynth.ProposerConfig(
                    endpoint=endpoint.url, model="scripted", backoff=0.0))
        else:
            def build(schema, real):
                return statsynth.OracleProposer()

        schema, real, inner, setup_times = _setup(statsynth, spec, build, probe)
        if tracer is not None:
            if endpoint is not None:
                client = TracedClient(ChatClient(inner.config), tracer, errors, probe)
                inner = statsynth.LlmProposer(inner.config, client)
            install_layer_trace(tracer, statsynth)
            stack.callback(tracer.restore)
        proposer = StampedProposer(inner, layer, tracer, probe.now)

        legs_run, resumes, intervals = [], [], []
        error = None
        pool, history = None, []
        with probe.window() as win:
            cpu0, probe0 = time.process_time(), probe.total
            for i, iters in enumerate(legs):
                first = len(proposer.stamps)
                t0 = probe.now()
                try:
                    pool, history = statsynth.run(real, _loop_config(statsynth, spec, iters),
                                                  proposer, out_dir, resume_from_checkpoint=i > 0)
                except statsynth.SynthError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    break
                finally:
                    legs_run.append((t0, probe.now()))
                stamps = proposer.stamps[first:]
                if i > 0 and stamps:
                    resumes.append((t0, stamps[0]))
                intervals += list(zip(stamps, stamps[1:]))
            run_cpu_s = time.process_time() - cpu0 - (probe.total - probe0)
        if tracer is None:
            setup_times += _setup(statsynth, spec, build, probe)[3]

    iterations = len(proposer.stamps)
    run_s = sum(win.seconds(a, b) for a, b in legs_run)
    run_wall_s = sum(b - a for a, b in legs_run)
    result = {
        "setup_s": setup_times,
        "run_s": run_s,
        # CPU time at the run's mean speed factor
        "run_cpu_s": run_cpu_s * run_s / run_wall_s,
        "run_wall_s": run_wall_s,
        "probe_s": win.probe_s,
        "intervals_s": [win.seconds(a, b) for a, b in intervals],
        # each resuming run's wait for its first propose
        "resume_s": [win.seconds(a, b) for a, b in resumes],
        "attempted": iterations if error is None else max(iterations, 1),
        "failed": 0 if error is None else 1,
        "error": error,
        "pool_rows": len(pool) if pool is not None else 0,
        "expected_rows": legs[-1] * spec["batch"],
        "final_mean_tvd": history[-1]["mean_tvd"] if history else None,
        "digest": _digest(pool, history) if pool is not None else None,
        "pool_digest": _digest(pool, None) if pool is not None else None,
        "outputs": history,
    }
    if spec.get("save_pool") and pool is not None:
        statsynth.save_csv(pool, spec["save_pool"])
    if out_dir is not None:
        result["pool_csv"] = str(Path(out_dir) / "pool.csv")
    if endpoint is not None:
        result["endpoint"] = {"requests": endpoint.requests, "scripted": len(endpoint.script),
                              "connections": endpoint.connections}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, iterations, _batch_csv_bytes(out_dir),
                                         client, endpoint, win)
    return result


def run_evaluate(statsynth, spec: dict, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    from statsynth.proposals import ComponentContext
    from statsynth.summaries import compute_summaries, fit_all_bins

    def build(schema, real):
        # the components the oracle would track on the real data
        base = fit_all_bins(real, 6)
        return statsynth.OracleProposer().infer_components(ComponentContext(
            schema, real, compute_summaries(real, base), base,
            n_components=3, seed=0, batch_size=spec["batch"]))

    schema, real, components, setup_times = _setup(statsynth, spec, build, probe)
    if tracer is not None:
        install_layer_trace(tracer, statsynth)
    calls, suites = [], []
    error = None
    try:
        with probe.window() as win:
            cpu0, probe0 = time.process_time(), probe.total
            for path in spec["synth"]:
                t0 = probe.now()
                try:
                    synth = statsynth.load_csv(path, schema)
                    suites.append(statsynth.metric_suite(real, synth, components))
                except statsynth.SynthError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    break
                finally:
                    calls.append((t0, probe.now()))
            run_cpu_s = time.process_time() - cpu0 - (probe.total - probe0)
    finally:
        if tracer is not None:
            tracer.restore()

    run_s = sum(win.seconds(a, b) for a, b in calls)
    run_wall_s = sum(b - a for a, b in calls)
    repeat_identical = None
    if tracer is None:
        setup_times += _setup(statsynth, spec, build, probe)[3]
    if suites and tracer is None:
        # untimed repeat of the first call: scoring must be deterministic
        again = statsynth.metric_suite(real, statsynth.load_csv(spec["synth"][0], schema),
                                       components)
        repeat_identical = json.dumps(again, sort_keys=True) == json.dumps(suites[0],
                                                                          sort_keys=True)
    values = [v for s in suites for unit in s["units"].values() for v in unit.values()]
    values += [v for s in suites for v in s["overall"].values()]
    result = {
        "setup_s": setup_times,
        "run_s": run_s,
        # CPU time at the run's mean speed factor
        "run_cpu_s": run_cpu_s * run_s / run_wall_s,
        "run_wall_s": run_wall_s,
        "probe_s": win.probe_s,
        "intervals_s": [win.seconds(a, b) for a, b in calls],
        "attempted": len(suites) + (error is not None),
        "failed": int(error is not None),
        "error": error,
        "final_mean_tvd": suites[-1]["overall"]["mean_tvd"] if suites else None,
        "digest": _digest(None, suites),
        "outputs": suites,
        "finite": all(math.isfinite(v) for v in values),
        "repeat_identical": repeat_identical,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, 0, 0, None, None, win)
    return result


def main(argv: list[str]) -> int:
    # One CPU for the whole process: the llm-long endpoint thread then answers
    # on the CPU its client just left, instead of waiting for another vCPU to
    # wake, which on a shared host takes from microseconds to milliseconds.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads(Path(argv[0]).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import statsynth

    if not Path(statsynth.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"statsynth imported from {statsynth.__file__}, not {src}")
    probe = SpeedProbe()
    tracer = Tracer(probe.now) if spec["trace"] else None
    body = run_evaluate if spec["workload"] == "evaluate" else run_loop
    result = body(statsynth, spec, tracer, probe)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
