"""End-to-end command-line behavior, driven through subprocesses."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from statsynth.llm import TOKEN_ENV
from statsynth.schema import load_csv, load_schema
from statsynth.testing import ScriptedChatServer


def run_cli(*args: str, env_extra: dict | None = None, drop_token: bool = False):
    env = dict(os.environ)
    env.pop(TOKEN_ENV, None)
    if drop_token:
        pass
    elif env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "statsynth", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def ref_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("refdata")
    csv = root / "ref.csv"
    result = run_cli("gen-ref", "--n", "300", "--seed", "7", "--out", str(csv))
    assert result.returncode == 0, result.stderr
    return csv, root / "ref.schema.json"


# ---------------------------------------------------------------------------
# gen-ref


def test_gen_ref_default_size(tmp_path):
    out = tmp_path / "ref.csv"
    result = run_cli("gen-ref", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert sum(1 for _ in open(out)) == 2001  # header + 2000 records


def test_gen_ref_sidecar_contents(ref_paths):
    csv, sidecar = ref_paths
    doc = json.loads(sidecar.read_text())
    assert {v["name"] for v in doc["variables"]} == {
        "user_age", "gender", "location_tier", "product_category", "price",
        "payment_method"}
    stats = doc["category_stats"]
    assert all(len(pair) == 2 and pair[1] > 0 for pair in stats.values())
    schema = load_schema(sidecar)
    data = load_csv(csv, schema)
    assert len(data) == 300


def test_gen_ref_zero_rows(tmp_path):
    out = tmp_path / "empty.csv"
    result = run_cli("gen-ref", "--n", "0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("user_age,")
    doc = json.loads((tmp_path / "empty.schema.json").read_text())
    assert "category_stats" not in doc


def test_gen_ref_requires_out():
    result = run_cli("gen-ref", "--n", "5")
    assert result.returncode == 2
    assert "--out" in result.stderr


# ---------------------------------------------------------------------------
# synthesize (oracle)


def synthesize_args(ref_paths, out_dir, **kw) -> list[str]:
    csv, sidecar = ref_paths
    settings = {"iterations": 3, "batch-size": 30, "proposals": 3,
                "components": 2, "seed": 4}
    settings.update(kw)
    argv = ["synthesize", "--real", str(csv), "--schema", str(sidecar),
            "--out", str(out_dir)]
    for key, value in settings.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_synthesize_oracle_run(tmp_path, ref_paths):
    result = run_cli(*synthesize_args(ref_paths, tmp_path / "run"))
    assert result.returncode == 0, result.stderr
    assert "final mean TVD:" in result.stdout
    out = tmp_path / "run"
    for name in ("pool.csv", "metrics.jsonl", "convergence.csv",
                 "identity.jsonl", "components.json"):
        assert (out / name).exists(), name
    assert (out / "checkpoint" / "manifest.json").exists()
    schema = load_schema(ref_paths[1])
    pool = load_csv(out / "pool.csv", schema)
    assert len(pool) == 90


def test_synthesize_guidance_warns_in_oracle_mode(tmp_path, ref_paths):
    result = run_cli(*synthesize_args(ref_paths, tmp_path / "run", iterations=1),
                     "--guidance", "more electronics")
    assert result.returncode == 0, result.stderr
    assert "ignores --guidance" in result.stderr


def test_synthesize_requires_real(tmp_path):
    result = run_cli("synthesize", "--out", str(tmp_path / "x"))
    assert result.returncode == 2
    assert "--real is required" in result.stderr


def test_synthesize_resume_completes_run(tmp_path, ref_paths):
    out = tmp_path / "run"
    first = run_cli(*synthesize_args(ref_paths, out, iterations=2))
    assert first.returncode == 0, first.stderr
    second = run_cli(*synthesize_args(ref_paths, out, iterations=5), "--resume")
    assert second.returncode == 0, second.stderr
    schema = load_schema(ref_paths[1])
    assert len(load_csv(out / "pool.csv", schema)) == 5 * 30
    rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["iteration"] for r in rows] == [1, 2, 3, 4, 5]


def test_synthesize_resume_refuses_older_checkpoint_layout(tmp_path, ref_paths):
    # the layout whose state.json held the iteration and the config echo
    out = tmp_path / "run"
    first = run_cli(*synthesize_args(ref_paths, out, iterations=2))
    assert first.returncode == 0, first.stderr
    manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
    state = json.dumps({key: manifest.pop(key) for key in ("iteration", "config")},
                       sort_keys=True).encode()
    (out / "checkpoint" / "state.json").write_bytes(state)
    manifest["files"]["state.json"] = hashlib.sha256(state).hexdigest()
    (out / "checkpoint" / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
    result = run_cli(*synthesize_args(ref_paths, out, iterations=3), "--resume")
    assert result.returncode == 2
    assert "'iteration'" in result.stderr and "Traceback" not in result.stderr


def test_synthesize_resume_without_checkpoint(tmp_path, ref_paths):
    result = run_cli(*synthesize_args(ref_paths, tmp_path / "fresh"), "--resume")
    assert result.returncode == 2
    assert "checkpoint" in result.stderr


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_settings(tmp_path, ref_paths):
    csv, sidecar = ref_paths
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"# synthesis settings\nreal={csv}\nschema={sidecar}\n"
        f"out={tmp_path / 'from_config'}\niterations=2\nbatch-size=30\n"
        "proposals=3\ncomponents=2\nseed=4\n")
    result = run_cli("synthesize", "--config", str(cfg))
    assert result.returncode == 0, result.stderr

    flags = run_cli(*synthesize_args(ref_paths, tmp_path / "from_flags",
                                     iterations=2))
    assert flags.returncode == 0, flags.stderr
    assert (tmp_path / "from_config" / "pool.csv").read_bytes() == \
        (tmp_path / "from_flags" / "pool.csv").read_bytes()


def test_flags_override_config_file(tmp_path, ref_paths):
    csv, sidecar = ref_paths
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"real={csv}\nschema={sidecar}\nout={tmp_path / 'a'}\n"
                   "iterations=1\nbatch-size=30\nseed=1\n")
    result = run_cli("synthesize", "--config", str(cfg),
                     "--seed", "4", "--out", str(tmp_path / "b"),
                     "--proposals", "3", "--components", "2")
    assert result.returncode == 0, result.stderr
    baseline = run_cli(*synthesize_args(ref_paths, tmp_path / "c", iterations=1))
    assert baseline.returncode == 0, baseline.stderr
    assert (tmp_path / "b" / "pool.csv").read_bytes() == \
        (tmp_path / "c" / "pool.csv").read_bytes()


def test_config_file_rejects_unknown_key(tmp_path, ref_paths):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batchsize=30\n")
    result = run_cli("synthesize", "--config", str(cfg))
    assert result.returncode == 2
    assert "unknown key" in result.stderr


@pytest.mark.parametrize("fault", ["csv-not-utf8", "schema-not-utf8", "config-not-utf8",
                                   "csv-field-too-long", "schema-too-deep",
                                   "components-too-deep"])
def test_unreadable_input_file_exits_2(tmp_path, ref_paths, fault):
    csv, sidecar = ref_paths
    bad = tmp_path / "bad"
    args = ["evaluate", "--real", str(csv), "--synth", str(csv), "--schema", str(sidecar)]
    if fault == "csv-not-utf8":
        bad.write_bytes(csv.read_bytes().replace(b"Male", b"M\xffale", 1))
        args[2] = str(bad)
    elif fault == "schema-not-utf8":
        bad.write_bytes(sidecar.read_bytes().replace(b"Male", b"M\xffale", 1))
        args[6] = str(bad)
    elif fault == "config-not-utf8":
        bad.write_bytes(f"real={csv}\nschema={sidecar}\nout={tmp_path / 'run'}\n".encode()
                        + b"# \xff\n")
        args = ["synthesize", "--config", str(bad)]
    elif fault == "schema-too-deep":
        bad.write_text("[" * 100_000)
        args[6] = str(bad)
    elif fault == "components-too-deep":
        bad.write_text("[" * 100_000)
        args += ["--components", str(bad)]
    else:
        header = csv.read_bytes().splitlines(True)[0]
        bad.write_bytes(header + b'"' + b"a" * 200_000 + b'",1,2,3,4,5\n')
        args[2] = str(bad)
    result = run_cli(*args)
    assert result.returncode == 2, result.stderr
    assert str(bad) in result.stderr
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# synthesize (llm)


def test_llm_requires_token_env(tmp_path, ref_paths):
    result = run_cli(*synthesize_args(ref_paths, tmp_path / "run"),
                     "--proposer", "llm", "--endpoint", "http://127.0.0.1:1/v1",
                     "--model", "m", drop_token=True)
    assert result.returncode == 2
    assert TOKEN_ENV in result.stderr


def test_llm_non_finite_temperature_is_a_config_error(tmp_path, ref_paths):
    result = run_cli(*synthesize_args(ref_paths, tmp_path / "run"),
                     "--proposer", "llm", "--endpoint", "http://127.0.0.1:1/v1",
                     "--model", "m", "--temperature", "nan",
                     env_extra={TOKEN_ENV: "dummy-token"})
    assert result.returncode == 2, result.stderr
    assert "temperature must be a finite number" in result.stderr


def _copula_reply() -> str:
    return json.dumps({"components": [
        {"variables": ["location_tier", "payment_method"]},
    ]})


def _proposal_reply(schema, batch_size: int) -> str:
    assignments = {}
    for name in schema.names:
        kind = schema.kind(name)
        if hasattr(kind, "categories"):
            assignments[name] = kind.categories[0]
        else:
            assignments[name] = [kind.lower, kind.upper]
    return json.dumps([{"assignments": assignments, "num": batch_size,
                        "rationale": "fill"}])


def test_llm_run_against_scripted_server(tmp_path, ref_paths):
    schema = load_schema(ref_paths[1])
    proposal = _proposal_reply(schema, 30)
    replies = [_copula_reply(), proposal, _copula_reply(), proposal]
    with ScriptedChatServer(replies) as server:
        result = run_cli(*synthesize_args(ref_paths, tmp_path / "run",
                                          iterations=2, components=1),
                         "--proposer", "llm", "--endpoint", server.endpoint,
                         "--model", "scripted",
                         env_extra={TOKEN_ENV: "dummy-token"})
        assert result.returncode == 0, result.stderr
        assert len(server.requests) == 4
        auth = server.request_headers[0].get("authorization")
        assert auth == "Bearer dummy-token"
    pool = load_csv(tmp_path / "run" / "pool.csv", schema)
    assert len(pool) == 60


def test_llm_failure_exits_3_and_keeps_checkpoint(tmp_path, ref_paths):
    schema = load_schema(ref_paths[1])
    replies = [_copula_reply(), _proposal_reply(schema, 30), "not json at all"]
    with ScriptedChatServer(replies) as server:
        result = run_cli(*synthesize_args(ref_paths, tmp_path / "run",
                                          iterations=3, components=1),
                         "--proposer", "llm", "--endpoint", server.endpoint,
                         "--model", "scripted",
                         env_extra={TOKEN_ENV: "dummy-token"})
    assert result.returncode == 3, result.stderr
    manifest = json.loads(
        (tmp_path / "run" / "checkpoint" / "manifest.json").read_text())
    assert manifest["iteration"] == 1
    pool = load_csv(tmp_path / "run" / "checkpoint" / "pool.csv", schema)
    assert len(pool) == 30


def test_llm_client_error_exits_3_after_one_request(tmp_path, ref_paths):
    with ScriptedChatServer([401]) as server:
        result = run_cli(*synthesize_args(ref_paths, tmp_path / "run", components=1),
                         "--proposer", "llm", "--endpoint", server.endpoint,
                         "--model", "scripted",
                         env_extra={TOKEN_ENV: "dummy-token"})
        assert len(server.requests) == 1
    assert result.returncode == 3, result.stderr
    assert "HTTP 401" in result.stderr
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_self_is_near_zero(tmp_path, ref_paths):
    csv, sidecar = ref_paths
    out = tmp_path / "report.json"
    result = run_cli("evaluate", "--real", str(csv), "--synth", str(csv),
                     "--schema", str(sidecar),
                     "--components", "location_tier+payment_method",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    suite = json.loads(out.read_text())
    assert suite["overall"]["mean_tvd"] == 0.0
    assert suite["overall"]["c2st_gap"] <= 0.03
    assert suite["units"]["location_tier+payment_method"]["tvd"] == 0.0
    assert "overall:" in result.stdout


def test_evaluate_json_on_stdout_without_out_flag(ref_paths):
    csv, sidecar = ref_paths
    result = run_cli("evaluate", "--real", str(csv), "--synth", str(csv),
                     "--schema", str(sidecar))
    assert result.returncode == 0, result.stderr
    suite = json.loads(result.stdout)
    assert suite["overall"]["mean_tvd"] == 0.0


def test_evaluate_schema_mismatch(tmp_path, ref_paths):
    csv, sidecar = ref_paths
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n1,2\n")
    result = run_cli("evaluate", "--real", str(csv), "--synth", str(bad),
                     "--schema", str(sidecar))
    assert result.returncode == 2


def test_evaluate_mirrors_final_metrics_row(tmp_path, ref_paths):
    csv, sidecar = ref_paths
    out = tmp_path / "run"
    synth = run_cli(*synthesize_args(ref_paths, out, iterations=4),
                    "--proposals", "3")
    assert synth.returncode == 0, synth.stderr
    # full suite rows land on the cadence; re-run evaluate on the pool
    result = run_cli("evaluate", "--real", str(csv),
                     "--synth", str(out / "pool.csv"), "--schema", str(sidecar),
                     "--components", str(out / "components.json"),
                     "--out", str(tmp_path / "report.json"))
    assert result.returncode == 0, result.stderr
    suite = json.loads((tmp_path / "report.json").read_text())
    rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    final = rows[-1]
    assert abs(suite["overall"]["mean_tvd"] - final["mean_tvd"]) <= 1e-9
    for unit, value in final["units"].items():
        assert abs(suite["units"][unit]["tvd"] - value) <= 1e-9
