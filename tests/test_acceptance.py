"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

Every test prints exactly one [PASS]/[FAIL] line to the real stdout, so the
gate stays readable regardless of pytest's capture mode.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from statsynth import errors  # noqa: F401  (import guards package health)
from statsynth.discrepancy import tvd
from statsynth.llm import TOKEN_ENV
from statsynth.loop import LoopConfig, run
from statsynth.metrics import hellinger, jsd, metric_suite, wasserstein1
from statsynth.oracle import OracleProposer
from statsynth.reference import (
    AGE_BANDS,
    CATEGORIES,
    GENDERS,
    LOCATIONS,
    PAYMENTS,
    EcommerceParams,
    category_stats,
    derived_labels,
    generate,
)
from statsynth.schema import Dataset, load_csv, save_csv, save_schema
from statsynth.summaries import SUB_BINS, encode, fit_all_bins, marginal_counts, refine_all_bins


def record(criterion: str, passed: bool, detail: str) -> None:
    # plain print: visible with pytest -s and in the report on failure
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line, flush=True)
    assert passed, line


PARAMS = EcommerceParams()


@pytest.fixture(scope="module")
def reference_2k():
    return generate(PARAMS, 2000, seed=11)


def acceptance_cfg(seed: int, iterations: int = 100) -> LoopConfig:
    # full_metrics_every=0: the per-unit deltas are logged every iteration
    # regardless; the multivariate suite is exercised by criterion 10
    return LoopConfig(iterations=iterations, proposals_per_iter=5,
                      batch_size=200, n_components=3, seed=seed,
                      full_metrics_every=0)


@pytest.fixture(scope="module")
def convergence_runs(reference_2k):
    """Five seeded oracle runs at the benchmark scale, with wall time."""
    histories = []
    start = time.perf_counter()
    for seed in range(5):
        _, history = run(reference_2k, acceptance_cfg(seed), OracleProposer())
        histories.append(history)
    elapsed = time.perf_counter() - start
    return histories, elapsed


@pytest.fixture(scope="module")
def logged_run(reference_2k, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    pool, history = run(reference_2k, acceptance_cfg(0), OracleProposer(), out)
    return out, pool, history


# ---------------------------------------------------------------------------
# 1. reference-generator fidelity


def _normal_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def _expected_band_masses(params: EcommerceParams) -> np.ndarray:
    lo, hi = params.age_bounds
    cuts = (lo, 35.0, 55.0, hi)
    masses = np.zeros(len(AGE_BANDS))
    for w, mu, sd in zip(params.age_weights, params.age_means, params.age_stds):
        z = _normal_cdf(hi, mu, sd) - _normal_cdf(lo, mu, sd)
        for i in range(len(AGE_BANDS)):
            share = _normal_cdf(cuts[i + 1], mu, sd) - _normal_cdf(cuts[i], mu, sd)
            masses[i] += w * share / z
    return masses


def _empirical(data: Dataset, name: str, n_cells: int) -> np.ndarray:
    return np.bincount(data.codes(name), minlength=n_cells) / len(data)


def test_criterion_01_generator_fidelity():
    start = time.perf_counter()
    data = generate(PARAMS, 100_000, seed=123)
    elapsed = time.perf_counter() - start

    bands = _expected_band_masses(PARAMS)
    expected = {
        "gender": np.array(PARAMS.gender_weights),
        "location_tier": np.array(PARAMS.location_weights),
        "payment_method": sum(
            PARAMS.location_weights[li] * np.array(PARAMS.payment_cpt[loc])
            for li, loc in enumerate(LOCATIONS)),
        "product_category": sum(
            bands[bi] * PARAMS.gender_weights[gi] * np.array(PARAMS.category_cpt[(band, g)])
            for bi, band in enumerate(AGE_BANDS) for gi, g in enumerate(GENDERS)),
    }
    worst = 0.0
    for name, want in expected.items():
        got = _empirical(data, name, len(want))
        worst = max(worst, 0.5 * float(np.abs(got - want).sum()))

    developed = data.codes("location_tier") == LOCATIONS.index("Developed")
    online = data.codes("payment_method") == PAYMENTS.index("Online Payment")
    p_online = float(online[developed].mean())

    passed = worst <= 0.01 and abs(p_online - 0.70) <= 0.01 and elapsed < 10.0
    record("criterion 1 generator fidelity", passed,
           f"worst marginal TVD {worst:.4f} (<=0.01), "
           f"Pr(Online|Developed)={p_online:.4f} (0.70±0.01), {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. conditional independence


def test_criterion_02_conditional_independence(ref_100k):
    data = ref_100k
    loc = data.codes("location_tier")
    pay = data.codes("payment_method")
    cat = data.codes("product_category")
    worst = 0.0
    for li in range(len(LOCATIONS)):
        mask = loc == li
        joint = np.zeros((len(PAYMENTS), len(CATEGORIES)))
        np.add.at(joint, (pay[mask], cat[mask]), 1.0)
        joint /= mask.sum()
        product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        worst = max(worst, 0.5 * float(np.abs(joint - product).sum()))
    record("criterion 2 payment independent of category given location",
           worst <= 0.02, f"worst per-location TVD {worst:.4f} (<=0.02)")


# ---------------------------------------------------------------------------
# 3. derived variables vs brute force


def _brute_discount(age, price, cat, pay, loc, stats) -> str:
    mean, std = stats[cat]
    score = (-math.tanh((price - mean) / std)
             + 0.01 * (age - 35.0) ** 2 / 100.0
             + (0.5 if pay == "Cash on Delivery" else 0.0)
             + (0.3 if loc == "Developing" else 0.0))
    if score > 1.0:
        return "High"
    if score < -1.0:
        return "Low"
    return "Mid"


def _brute_ltv(age, price, cat, pay) -> str:
    channel = 1.2 if pay == "Online Payment" else 0.85
    weight = {"Electronics": 1.3, "Apparel": 1.1, "Food & Beverages": 0.9,
              "Furniture & Appliances": 1.4}[cat]
    value = math.sqrt(price) * channel / (math.log(1.0 + abs(age - 35.0)) + 1.0) * weight
    if value > 20.0:
        return "High"
    if value < 10.0:
        return "Low"
    return "Mid"


def test_criterion_03_derived_variables():
    data = generate(PARAMS, 10_000, seed=31)
    stats = category_stats(data)
    disc, ltv = derived_labels(data, stats)
    age = data.codes("user_age")
    price = data.codes("price")
    cat = data.column("product_category")
    pay = data.column("payment_method")
    loc = data.column("location_tier")
    mismatches = 0
    for i in range(len(data)):
        if disc[i] != _brute_discount(age[i], price[i], cat[i], pay[i], loc[i], stats):
            mismatches += 1
        if ltv[i] != _brute_ltv(age[i], price[i], cat[i], pay[i]):
            mismatches += 1
    record("criterion 3 derived variables match brute force", mismatches == 0,
           f"{mismatches} mismatches over {len(data)} records x 2 variables")


# ---------------------------------------------------------------------------
# 4. quantile binning


def test_criterion_04_quantile_bins(reference_2k):
    real = reference_2k
    base = fit_all_bins(real, 6)
    synth = generate(PARAMS, 500, seed=99)
    codes = encode(real, base)
    refined = refine_all_bins(base, codes, encode(synth, base))

    bad_counts = []
    worst_gap = 0.0
    for name in ("user_age", "price"):
        counts = marginal_counts(codes, base, name)
        bad_counts += [int(c) for c in counts if c not in (333, 334)]
        parent_idx = refined[name]
        table = marginal_counts(codes, base, name, parent_idx) / len(real)
        sub_sum = table[parent_idx:parent_idx + SUB_BINS].sum()
        parent = counts[parent_idx] / len(real)
        worst_gap = max(worst_gap, abs(sub_sum - parent))
    passed = not bad_counts and worst_gap <= 1e-9
    record("criterion 4 quantile bins and sub-bin sums", passed,
           f"off-quantile counts {bad_counts or 'none'}, "
           f"worst sub-bin sum gap {worst_gap:.2e} (<=1e-9)")


# ---------------------------------------------------------------------------
# 5. metric properties


def _random_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n = int(rng.integers(2, 13))
    alpha = float(rng.uniform(0.2, 3.0))
    p = rng.dirichlet(np.full(n, alpha))
    q = rng.dirichlet(np.full(n, alpha))
    if rng.random() < 0.3:  # exercise zero cells
        p[rng.integers(0, n)] = 0.0
        p = p / p.sum()
    return p, q


def _brute_w1(x: np.ndarray, y: np.ndarray) -> float:
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        cost = sum(abs(x[i] - y[j]) for i, j in enumerate(perm)) / len(x)
        best = min(best, cost)
    return best


def test_criterion_05_metric_properties():
    rng = np.random.default_rng(17)
    failures = []
    for _ in range(1000):
        p, q = _random_pair(rng)
        for name, d_pq, d_qp, d_pp in (
                ("tvd", tvd(p, q), tvd(q, p), tvd(p, p)),
                ("jsd", jsd(p, q), jsd(q, p), jsd(p, p)),
                ("hellinger", hellinger(p, q), hellinger(q, p), hellinger(p, p))):
            if d_pp != 0.0:
                failures.append(f"{name} identity {d_pp}")
            if d_pq != d_qp:
                failures.append(f"{name} symmetry {d_pq} vs {d_qp}")
            if not 0.0 <= d_pq <= 1.0:
                failures.append(f"{name} range {d_pq}")

    worst_w1 = 0.0
    pairs = 0
    for n in range(1, 9):
        for _ in range(12 if n <= 6 else 4):
            x = rng.uniform(-5.0, 5.0, size=n)
            y = rng.uniform(-5.0, 5.0, size=n)
            worst_w1 = max(worst_w1, abs(wasserstein1(x, y) - _brute_w1(x, y)))
            pairs += 1
    if worst_w1 > 1e-12:
        failures.append(f"w1 off brute force by {worst_w1}")
    record("criterion 5 metric properties and W1 brute force", not failures,
           f"1000 table pairs, {pairs} W1 pairs, worst W1 gap {worst_w1:.1e}; "
           + (failures[0] if failures else "all properties hold"))


# ---------------------------------------------------------------------------
# 6. oracle convergence at benchmark scale


DISCRETE_MARGINALS = ("gender", "location_tier", "product_category", "payment_method")


def test_criterion_06_oracle_convergence(convergence_runs):
    histories, elapsed = convergence_runs
    final_means = []
    final_max_units = []
    for history in histories:
        last = history[-1]["units"]
        final_means.append(np.mean([last[n] for n in DISCRETE_MARGINALS]))
        final_max_units.append(max(last.values()))

    units = sorted({name for h in histories for row in h for name in row["units"]})
    worst_increase = -math.inf
    for name in units:
        seq = np.mean([[row["units"][name] for row in h] for h in histories], axis=0)
        worst_increase = max(worst_increase, float(np.diff(seq).max()))

    passed = (max(final_means) < 0.05 and max(final_max_units) < 0.05
              and worst_increase <= 0.01 and elapsed < 60.0)
    record("criterion 6 oracle convergence (5 seeds, T=100, b=200)", passed,
           f"(a) mean discrete TVD @100 {max(final_means):.4f} (<0.05), "
           f"max unit delta @100 {max(final_max_units):.4f} (<0.05); "
           f"(b) worst seed-averaged increase {worst_increase:.4f} (<=0.01); "
           f"{elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 7. mixture identity from the logs


def test_criterion_07_mixture_identity(logged_run):
    out, _, _ = logged_run
    rows = [json.loads(l) for l in (out / "identity.jsonl").read_text().splitlines()]
    worst = 0.0
    for row in rows:
        w = row["w"]
        if w != 1.0 / row["iteration"]:
            worst = math.inf
        for unit in row["units"].values():
            mix = ((1.0 - w) * np.array(unit["pool_before"])
                   + w * np.array(unit["batch"]))
            worst = max(worst, float(np.abs(mix - np.array(unit["pool_after"])).max()))
    passed = len(rows) == 100 and worst <= 1e-9
    record("criterion 7 batch/pool mixture identity", passed,
           f"{len(rows)} iterations, worst decomposition gap {worst:.2e} (<=1e-9)")


# ---------------------------------------------------------------------------
# 8. determinism and checkpoint-resume


LOG_FILES = ("pool.csv", "metrics.jsonl", "convergence.csv",
             "identity.jsonl", "components.json")


def test_criterion_08_determinism_and_resume(reference_2k, logged_run, tmp_path_factory):
    straight_dir, _, _ = logged_run

    rerun_dir = tmp_path_factory.mktemp("acceptance_rerun")
    run(reference_2k, acceptance_cfg(0), OracleProposer(), rerun_dir)
    rerun_equal = all(
        (straight_dir / n).read_bytes() == (rerun_dir / n).read_bytes()
        for n in LOG_FILES)

    resumed_dir = tmp_path_factory.mktemp("acceptance_resume")
    run(reference_2k, acceptance_cfg(0, iterations=50), OracleProposer(), resumed_dir)
    run(reference_2k, acceptance_cfg(0), OracleProposer(), resumed_dir,
        resume_from_checkpoint=True)
    resume_equal = all(
        (straight_dir / n).read_bytes() == (resumed_dir / n).read_bytes()
        for n in LOG_FILES)

    record("criterion 8 determinism and checkpoint-resume",
           rerun_equal and resume_equal,
           f"rerun byte-identical: {rerun_equal}; "
           f"resume at t=50 byte-identical: {resume_equal}")


# ---------------------------------------------------------------------------
# 9. LLM-mode robustness against a scripted server


def _run_cli(*args: str, token: str = "acceptance-dummy") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env[TOKEN_ENV] = token
    return subprocess.run([sys.executable, "-m", "statsynth", *args],
                          capture_output=True, text=True, env=env)


def _scripted_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_llm")
    real = generate(PARAMS, 200, seed=7)
    save_csv(real, root / "real.csv")
    save_schema(real.schema, root / "real.schema.json")
    assignments = {}
    for name in real.schema.names:
        kind = real.schema.kind(name)
        if hasattr(kind, "categories"):
            assignments[name] = kind.categories[0]
        else:
            assignments[name] = [kind.lower, kind.upper]
    proposal = json.dumps([{"assignments": assignments, "num": 20, "rationale": "fill"}])
    copula = json.dumps({"components": [
        {"variables": ["location_tier", "payment_method"]}]})
    return root, copula, proposal


def _synthesize_via(server, root, out: str, iterations: int) -> subprocess.CompletedProcess:
    return _run_cli(
        "synthesize", "--real", str(root / "real.csv"),
        "--schema", str(root / "real.schema.json"), "--out", str(root / out),
        "--iterations", str(iterations), "--batch-size", "20",
        "--proposals", "2", "--components", "1", "--seed", "3",
        "--proposer", "llm", "--endpoint", server.endpoint, "--model", "scripted")


def test_criterion_09_llm_robustness(tmp_path_factory):
    from statsynth.testing import ScriptedChatServer

    root, copula, proposal = _scripted_inputs(tmp_path_factory)
    problems = []

    with ScriptedChatServer([copula, proposal, copula, proposal]) as server:
        result = _synthesize_via(server, root, "valid", 2)
        if result.returncode != 0:
            problems.append(f"valid replies exited {result.returncode}")

    with ScriptedChatServer(["this is not JSON", copula, proposal,
                             copula, proposal]) as server:
        result = _synthesize_via(server, root, "retry", 2)
        if result.returncode != 0:
            problems.append(f"malformed-then-valid exited {result.returncode}")
        if len(server.requests) != 5:
            problems.append(f"expected 5 requests with one retry, saw {len(server.requests)}")

    with ScriptedChatServer([copula, proposal, "still not JSON"]) as server:
        result = _synthesize_via(server, root, "abort", 3)
        if result.returncode != 3:
            problems.append(f"always-malformed exited {result.returncode}, wanted 3")
        manifest_path = root / "abort" / "checkpoint" / "manifest.json"
        if not manifest_path.exists():
            problems.append("no checkpoint after abort")
        else:
            manifest = json.loads(manifest_path.read_text())
            if manifest["iteration"] != 1:
                problems.append(f"checkpoint at iteration {manifest['iteration']}, wanted 1")
            schema_doc = load_csv(root / "abort" / "checkpoint" / "pool.csv",
                                  generate(PARAMS, 1, seed=0).schema)
            if len(schema_doc) != 20:
                problems.append(f"checkpoint pool has {len(schema_doc)} records")

    record("criterion 9 scripted-server robustness", not problems,
           "; ".join(problems) if problems else
           "valid succeeds, malformed-then-valid retries, always-malformed "
           "aborts with exit 3 and an intact t=1 checkpoint")


# ---------------------------------------------------------------------------
# 10. C2ST sanity


def test_criterion_10_c2st_sanity(reference_2k):
    self_gap = metric_suite(reference_2k, reference_2k)["overall"]["c2st_gap"]

    rng = np.random.default_rng(41)
    n = len(reference_2k)
    columns = {}
    for name in reference_2k.schema.names:
        kind = reference_2k.schema.kind(name)
        if hasattr(kind, "categories"):
            columns[name] = [kind.categories[i] for i in
                             rng.integers(0, len(kind.categories), size=n)]
        else:
            columns[name] = rng.uniform(kind.lower, kind.upper, size=n).tolist()
    noise = Dataset.from_columns(reference_2k.schema, columns)
    noise_gap = metric_suite(reference_2k, noise)["overall"]["c2st_gap"]

    passed = self_gap <= 0.03 and noise_gap >= 0.3
    record("criterion 10 C2ST sanity", passed,
           f"self gap {self_gap:.4f} (<=0.03), noise gap {noise_gap:.4f} (>=0.3)")
