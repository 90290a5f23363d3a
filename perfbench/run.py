#!/usr/bin/env python3
"""statsynth benchmark: four closed-loop workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-mem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The benchmark writes the real (and, for `evaluate`, synthetic) CSVs from
`statsynth.generate` under the workload seed, then runs each repetition of
the workload in a fresh child process (workloads.py) that reads them back.
Untraced repetitions repeat while their timed runs fit in --seconds and give
the end-to-end metrics as medians; --trace 1 adds one traced repetition that
gives the per-layer metrics. Output checks run every time. The last line of
stdout is the result object; the line before it holds the output digest,
check results and machine facts. The exit code is 1 if any check fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from spans import percentile  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("oracle-mem", "oracle-durable", "evaluate", "llm-long")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "iter_p50_ms": "ms",
    "iter_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "oracle.propose_s": "s",
    "oracle.propose_p50_ms": "ms",
    "oracle.propose_p90_ms": "ms",
    "oracle.infer_components_s": "s",
    "oracle.proposals_per_batch": "count",
    "loop.checkpoint_s": "s",
    "schema.save_csv_s": "s",
    "loop.checkpoint_wbytes_per_iter": "bytes",
    "loop.checkpoint_write_amp": "ratio",
    "loop.logs_s": "s",
    "loop.logs_wbytes": "bytes",
    "loop.resume_s": "s",
    "loop.resume_rbytes": "bytes",
    "schema.load_csv_s": "s",
    "summaries.refine_all_bins_s": "s",
    "summaries.compute_summaries_s": "s",
    "summaries.compute_summaries_calls": "count",
    "summaries.evaluation_summaries_s": "s",
    "summaries.rows_per_iter": "count",
    "discrepancy.compute_report_s": "s",
    "discrepancy.cells_per_iter": "count",
    "schema.concat_s": "s",
    "schema.concat_bytes": "bytes",
    "llm.render_prompt_s": "s",
    "llm.prompt_chars_p50": "count",
    "llm.complete_s": "s",
    "llm.complete_p50_ms": "ms",
    "llm.complete_p90_ms": "ms",
    "llm.complete_wait_s": "s",
    "llm.connections_per_request": "ratio",
    "llm.parse_s": "s",
    "llm.attempts": "count",
    "llm.attempts_failed": "count",
    "llm.attempts_failed_http": "count",
    "llm.attempts_failed_malformed": "count",
    "llm.attempt_success_ratio": "ratio",
    "metrics.metric_suite_s": "s",
    "metrics.c2st_gap_s": "s",
    "metrics.mmd_rbf_s": "s",
    "metrics.energy_distance_s": "s",
    "metrics.evaluation_summaries_s": "s",
    "metrics.wasserstein1_s": "s",
    "loop.sample_batch_s": "s",
    "proposals.validate_proposal_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_cpu_s": "s",
    "trace.own_cost_s": "s",
    "trace.run_s": "s",
    "resume_s": "s",
    "final_mean_tvd": "tvd",
}

SIZES = {
    # real table n, batch b, loop iterations, durable legs, evaluate tables
    "full": {"n_real": 2000, "batch": 200, "oracle_iters": 100, "legs": 5,
             "llm_iters": 300, "eval_rows": 20000, "eval_tables": 4},
    "smoke": {"n_real": 300, "batch": 20, "oracle_iters": 10, "legs": 5,
              "llm_iters": 20, "eval_rows": 600, "eval_tables": 4},
}
# set-up repeats in every untraced repetition for this long, at least this often
SETUP_SAMPLING = {"full": (2.0, 20), "smoke": (0.0, 2)}

# One child at a time, with one BLAS thread, pinned to one CPU (workloads.py).
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NO_PROXY": "127.0.0.1,localhost"}
DEADLINE_S = 170.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# machine facts


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 (older numpy has no dict mode)
        blas = "unknown"
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        # a checkout that is not itself a repository has no commit of its own
        if len(out) == 2 and Path(out[0]).resolve() == ROOT.resolve():
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in CHILD_ENV.items() if k.endswith("THREADS")},
        # each workload process runs pinned to this CPU (workloads.py)
        "child_cpu": max(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# inputs and repetitions


def write_inputs(statsynth, workload: str, seed: int, size: dict, work: Path) -> dict:
    """The only data the program sees: CSVs generated under the workload seed."""
    params = statsynth.EcommerceParams()
    real = statsynth.generate(params, size["n_real"], seed=seed)
    paths = {"real": str(work / "real.csv"), "schema": str(work / "real.schema.json")}
    statsynth.save_csv(real, paths["real"])
    statsynth.save_schema(real.schema, paths["schema"])
    if workload == "evaluate":
        paths["synth"] = []
        for k in range(size["eval_tables"]):
            synth = statsynth.generate(params, size["eval_rows"], seed=seed * 100 + k + 1)
            path = work / f"synth{k}.csv"
            statsynth.save_csv(synth, path)
            paths["synth"].append(str(path))
    return paths


def run_child(spec: dict, work: Path, tag: str, deadline: float, hash_seed: int) -> dict:
    """Run workloads.py on spec in a fresh process with the given PYTHONHASHSEED."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **CHILD_ENV, "PYTHONHASHSEED": str(hash_seed % 2**32)}
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), str(spec_path),
                               str(result_path)], env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return {"error": f"{tag}: timed out after {timeout:.0f} s", "attempted": 1, "failed": 1}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"{tag}: exit {proc.returncode}: " + " | ".join(tail),
                "attempted": 1, "failed": 1}
    return json.loads(result_path.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
            started: float) -> tuple[dict, dict]:
    """Run one workload; returns (result object, detail object)."""
    sys.path.insert(0, str(SRC))
    import statsynth

    size = SIZES[size_name]
    deadline = started + DEADLINE_S
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = {"root": str(ROOT), "workload": workload, "seed": seed, "trace": False,
                **size, **write_inputs(statsynth, workload, seed, size, work)}

        # Each process gets its own hash seed, as separate runs of the program
        # would; the traced one shares the first repetition's, so the two
        # differ only in tracing.
        def child(tag: str, hash_seed: int, budget_s: float = 0.0, min_reps: int = 1,
                  **extra) -> dict:
            out_dir = work / tag / "out"
            return run_child({**spec, "out_dir": str(out_dir), "setup_budget_s": budget_s,
                              "setup_min_reps": min_reps, **extra}, work, tag, deadline,
                             hash_seed)

        reps: list[dict] = []
        while True:
            t0 = time.monotonic()
            reps.append(child(f"rep{len(reps)}", seed * 1000 + len(reps),
                              *SETUP_SAMPLING[size_name]))
            if trace or reps[-1].get("error"):
                break
            # another repetition only if its run still fits in the measuring time
            measured = sum(r["run_wall_s"] for r in reps)
            if (measured + measured / len(reps) > seconds
                    or time.monotonic() + 2 * (time.monotonic() - t0) > deadline):
                break
        traced = child("traced", seed * 1000, trace=True) if trace else None
        reference = None
        if workload == "oracle-durable":
            reference = child("reference", seed * 1000 + 999, workload="oracle-mem",
                              save_pool=str(work / "reference.csv"))
        checks = check_outputs(workload, reps, traced, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()

    runs = reps + [r for r in (traced, reference) if r is not None]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [r["error"] for r in runs if r.get("error")]
    correct = not errors and all(checks.values())
    good = [r for r in reps if not r.get("error")]
    if trace:
        metrics = per_layer(traced, good)
    else:
        metrics = end_to_end(good, attempted, failed)
    detail = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "repetitions": len(reps),
        "samples": {"setup": sum(len(r.get("setup_s", [])) for r in good),
                    "iterations": sum(len(r.get("intervals_s", [])) for r in good),
                    "resumes": sum(len(r.get("resume_s", [])) for r in good)},
        "digest": reps[0].get("digest"),
        # measured wall time and median probe time of each run, before scaling
        "speed": [{"run_wall_s": r["run_wall_s"], "probe_ms": r["probe_s"] * 1e3}
                  for r in good + ([traced] if traced and not traced.get("error") else [])],
        "final_mean_tvd": reps[0].get("final_mean_tvd"),
        "checks": checks,
        "errors": errors,
    }
    untraced = [r for r in good + [reference] if r is not None and not r.get("error")]
    if len(untraced) > 1:
        # Logged floats that differ only by rounding pass the checks; this
        # says whether processes with different hash seeds logged the same bits.
        detail["bit_identical_across_processes"] = len({r["digest"] for r in untraced}) == 1
    if traced is not None and "layers" in traced:
        detail.update(layer_detail(workload, traced))
        # one traced and one untraced run, so machine speed swings show in the difference
        detail["trace_overhead_negative"] = metrics["trace.overhead_s"]["value"] < 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def check_outputs(workload: str, reps: list[dict], traced: dict | None,
                  reference: dict | None, work: Path) -> dict:
    runs = reps + ([traced] if traced is not None else [])
    checks: dict[str, bool] = {
        "no_errors": all(not r.get("error") for r in runs),
        # repetitions run under different hash seeds
        "repetitions_agree": (len({r.get("pool_digest") for r in reps}) == 1
                              and all(_close(r.get("outputs"), reps[0].get("outputs"))
                                      for r in reps)),
    }
    if traced is not None:
        # same hash seed as the first repetition: bit for bit
        checks["traced_equals_untraced"] = traced.get("digest") == reps[0].get("digest")
    if workload == "evaluate":
        checks["suite_finite"] = all(r.get("finite") for r in runs)
        checks["suite_repeat_identical"] = all(r.get("repeat_identical") for r in reps)
    else:
        checks["pool_rows"] = all(r.get("pool_rows") == r.get("expected_rows") for r in runs)
    if workload == "llm-long":
        checks["endpoint_requests"] = all(
            r.get("endpoint", {}).get("requests") == r.get("endpoint", {}).get("scripted")
            for r in runs)
    if workload == "oracle-durable":
        ok = reference is not None and not reference.get("error") and checks["no_errors"]
        if ok:
            expected = (work / "reference.csv").read_bytes()
            ok = all(Path(r["pool_csv"]).read_bytes() == expected
                     and _close(r["outputs"], reference["outputs"]) for r in runs)
        checks["resume_equals_uninterrupted"] = ok
    return checks


def _close(a, b) -> bool:
    """Equal, except that floats may differ by rounding (relative 1e-9).

    Summing the same floats in another order changes the last bits, and the
    program sums some joint-table cells in set order, which follows the hash
    seed.
    """
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k])
                                                                    for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    return a == b


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    def pooled(key: str) -> list[float]:
        return [v for r in reps for v in r.get(key, [])]

    iter_ms = [v * 1e3 for v in pooled("intervals_s")]
    values = {
        "setup_s": _median(pooled("setup_s")),
        "run_s": _median([r["run_s"] for r in reps]),
        "iter_p50_ms": percentile(iter_ms, 0.5),
        "iter_p90_ms": percentile(iter_ms, 0.9),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "success_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced: dict | None, reps: list[dict]) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    if traced is not None and "layers" in traced:
        values.update(traced["layers"]["metrics"])
        values["trace.run_s"] = traced["run_s"]
        values["trace.overhead_s"] = traced["run_s"] - _median([r["run_s"] for r in reps])
        values["trace.overhead_cpu_s"] = (traced["run_cpu_s"]
                                          - _median([r["run_cpu_s"] for r in reps]))
        values["resume_s"] = _median([v for r in reps for v in r.get("resume_s", [])])
        values["final_mean_tvd"] = traced["final_mean_tvd"] or 0.0
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


# each workload's predicted dominant layers and the share of run_s they take
PREDICTIONS = {
    "oracle-mem": [(("oracle.propose",), 0.60)],
    "oracle-durable": [(("loop.checkpoint", "schema.save_csv"), 0.30)],
    "evaluate": [(("metrics.c2st_gap", "metrics.mmd_rbf"), 0.85)],
    "llm-long": [(("summaries.refine_all_bins", "summaries.compute_summaries",
                   "summaries.evaluation_summaries"), 0.45), (("llm.complete",), 0.10)],
}


def layer_detail(workload: str, traced: dict) -> dict:
    self_times = traced["layers"]["self_times"]
    run_s = traced["run_s"]
    shares = {name: t / run_s for name, t in sorted(self_times.items(), key=lambda kv: -kv[1])}
    predictions = {}
    for names, floor in PREDICTIONS[workload]:
        share = sum(shares.get(n, 0.0) for n in names)
        predictions["+".join(names)] = {"share": share, "at_least": floor,
                                        "met": share >= floor}
    return {
        "dominant_layer": next(iter(shares)),
        "self_time_shares": shares,
        "predictions": predictions,
        "llm_failures_by_class": traced["layers"]["failures"],
    }


# ---------------------------------------------------------------------------
# smoke mode


def smoke(seed: int) -> int:
    """Every workload at tiny size, traced and untraced, through the same code."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, detail = measure(workload, seed, 1.0, bool(trace), "smoke",
                                     time.monotonic())
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            failing = [name for name, ok in detail["checks"].items() if not ok]
            if not result["correct"] or failing:
                problems.append(f"{workload} trace={trace}: checks failed {failing} "
                                f"{detail['errors']}")
            print(f"{workload:15s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"digest={str(detail['digest'])[:12]}", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time: untraced repetitions repeat while their "
                             "runs fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run all workloads at tiny sizes and check metrics and outputs")
    args = parser.parse_args(argv)
    if not (SRC / "statsynth" / "__init__.py").is_file():
        print(f"error: no statsynth sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    started = time.monotonic()
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full",
                             started)
    detail["machine"] = machine_facts(args.seed)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
