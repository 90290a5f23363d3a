"""Command-line interface: reference generation, synthesis runs, evaluation.

Exit codes: 0 success, 2 configuration or validation failure, 3 proposer
failure (retries exhausted, or the endpoint rejected the request). A run
aborted with exit 3 keeps its last checkpoint, so `synthesize --resume` can
continue it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import errors
from .llm import TOKEN_ENV, LlmProposer, ProposerConfig
from .loop import LoopConfig, run
from .metrics import metric_suite
from .oracle import OracleProposer
from .reference import EcommerceParams, category_stats, generate
from .schema import load_csv, load_schema, save_csv, save_schema
from .summaries import StructuralComponent

# keys a synthesize config file may set; flags always win
_CONFIG_KEYS = frozenset({
    "real", "schema", "out", "iterations", "batch_size", "proposals",
    "components", "seed", "proposer", "endpoint", "model", "temperature",
    "guidance", "resume",
})


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise errors.ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise errors.ConfigError(f"{path}:{ln}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def _coerce_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise errors.ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _coerce_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise errors.ConfigError(f"{key}: expected a number, got {value!r}") from None


def _coerce_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise errors.ConfigError(f"{key}: expected true/false, got {value!r}")


def _setting(args: argparse.Namespace, config: dict[str, str], key: str,
             coerce, default):
    """Flag if given, else config-file entry, else default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if key in config:
        return coerce(key, config[key])
    return default


# ---------------------------------------------------------------------------
# gen-ref


def cmd_gen_ref(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise errors.ConfigError("--n must be >= 0")
    params = EcommerceParams()
    data = generate(params, args.n, seed=args.seed)
    out = Path(args.out)
    save_csv(data, out)
    extra: dict = {}
    if args.n > 0:
        try:
            extra["category_stats"] = {
                cat: list(pair) for cat, pair in category_stats(data).items()}
        except errors.SynthError as exc:
            print(f"warning: category_stats omitted ({exc})", file=sys.stderr)
    sidecar = out.with_suffix(".schema.json")
    save_schema(data.schema, sidecar, extra=extra)
    print(f"wrote {out} ({len(data)} records) and {sidecar}")
    return 0


# ---------------------------------------------------------------------------
# synthesize


def _build_proposer(proposer: str, endpoint: str, model: str,
                    temperature: float | None):
    if proposer == "oracle":
        return OracleProposer()
    if proposer != "llm":
        raise errors.ConfigError(f"proposer: expected oracle or llm, got {proposer!r}")
    if not os.environ.get(TOKEN_ENV):
        raise errors.ConfigError(
            f"--proposer llm requires the {TOKEN_ENV} environment variable")
    if not endpoint:
        raise errors.ConfigError("--proposer llm requires --endpoint")
    if not model:
        raise errors.ConfigError("--proposer llm requires --model")
    kwargs = {} if temperature is None else {"temperature": temperature}
    return LlmProposer(ProposerConfig(endpoint=endpoint, model=model, **kwargs))


def cmd_synthesize(args: argparse.Namespace) -> int:
    config = _read_config(args.config) if args.config else {}
    real_path = _setting(args, config, "real", lambda k, v: v, None)
    schema_path = _setting(args, config, "schema", lambda k, v: v, None)
    out_dir = _setting(args, config, "out", lambda k, v: v, None)
    for key, value in (("real", real_path), ("schema", schema_path), ("out", out_dir)):
        if not value:
            raise errors.ConfigError(f"--{key} is required")

    loop_cfg = LoopConfig(
        iterations=_setting(args, config, "iterations", _coerce_int, 100),
        proposals_per_iter=_setting(args, config, "proposals", _coerce_int, 5),
        batch_size=_setting(args, config, "batch_size", _coerce_int, 200),
        n_components=_setting(args, config, "components", _coerce_int, 3),
        seed=_setting(args, config, "seed", _coerce_int, 0),
    )
    proposer_name = _setting(args, config, "proposer", lambda k, v: v, "oracle")
    guidance = _setting(args, config, "guidance", lambda k, v: v, "")
    resume_flag = args.resume or _coerce_bool("resume", config.get("resume", "false"))
    proposer = _build_proposer(
        proposer_name,
        _setting(args, config, "endpoint", lambda k, v: v, ""),
        _setting(args, config, "model", lambda k, v: v, ""),
        _setting(args, config, "temperature", _coerce_float, None),
    )
    if guidance and proposer_name == "oracle":
        print("warning: the oracle proposer ignores --guidance", file=sys.stderr)

    schema = load_schema(schema_path)
    real = load_csv(real_path, schema)
    pool, history = run(real, loop_cfg, proposer, out_dir,
                        guidance=guidance, resume_from_checkpoint=resume_flag)
    print(f"wrote {Path(out_dir) / 'pool.csv'} "
          f"({len(pool)} records over {history[-1]['iteration']} iterations)")
    print(f"final mean TVD: {history[-1]['mean_tvd']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _parse_components(value: str, schema) -> tuple[StructuralComponent, ...]:
    """Accept a components.json written by a run, or inline a+b,c+d syntax."""
    path = Path(value)
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise errors.ConfigError(f"cannot parse components file {value}: {exc}") from exc
        if isinstance(doc, list) and doc and isinstance(doc[-1], dict):
            groups = doc[-1].get("components")
        else:
            groups = doc
        if not isinstance(groups, list):
            raise errors.ConfigError(f"{value}: expected a component list")
    else:
        groups = [part.split("+") for part in value.split(",") if part]
    components = []
    for group in groups:
        if not isinstance(group, list) or not all(isinstance(g, str) for g in group):
            raise errors.ConfigError(f"component entries must be variable names: {group!r}")
        for name in group:
            if name not in schema.names:
                raise errors.ConfigError(f"component names unknown variable {name!r}")
        components.append(StructuralComponent(tuple(group)))
    return tuple(components)


def _metric_table(suite: dict) -> str:
    metrics = ("tvd", "jsd", "hellinger", "kl", "wasserstein1")
    width = max(len(name) for name in suite["units"]) if suite["units"] else 4
    width = max(width, 4)
    lines = ["unit".ljust(width) + "".join(m.rjust(14) for m in metrics)]
    for name, values in suite["units"].items():
        cells = [f"{values[m]:.6f}".rjust(14) if m in values else "-".rjust(14)
                 for m in metrics]
        lines.append(name.ljust(width) + "".join(cells))
    overall = suite["overall"]
    lines.append("")
    lines.append("overall: " + "  ".join(
        f"{key}={overall[key]:.6f}" for key in sorted(overall)))
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    real = load_csv(args.real, schema)
    synth = load_csv(args.synth, schema)
    components = _parse_components(args.components, schema) if args.components else ()
    suite = metric_suite(real, synth, components)
    payload = json.dumps(suite, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(_metric_table(suite))
    else:
        print(_metric_table(suite), file=sys.stderr)
        print(payload)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statsynth",
        description="Distribution-guided synthetic data: generate a reference "
                    "dataset, run the synthesis loop, evaluate the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    ref = sub.add_parser("gen-ref", help="generate the e-commerce reference dataset")
    ref.add_argument("--n", type=int, default=2000, help="number of records")
    ref.add_argument("--seed", type=int, default=7)
    ref.add_argument("--out", required=True, help="output CSV path")
    ref.set_defaults(func=cmd_gen_ref)

    syn = sub.add_parser("synthesize", help="run the iterative synthesis loop")
    syn.add_argument("--config", help="flat key=value config file; flags win")
    syn.add_argument("--real", help="real dataset CSV")
    syn.add_argument("--schema", help="schema JSON")
    syn.add_argument("--out", help="output directory")
    syn.add_argument("--iterations", type=int)
    syn.add_argument("--batch-size", type=int, dest="batch_size")
    syn.add_argument("--proposals", type=int, help="proposals per iteration")
    syn.add_argument("--components", type=int, help="structural components to track")
    syn.add_argument("--seed", type=int)
    syn.add_argument("--proposer", choices=("oracle", "llm"))
    syn.add_argument("--endpoint", help="chat-completion URL (llm proposer)")
    syn.add_argument("--model", help="model name (llm proposer)")
    syn.add_argument("--temperature", type=float)
    syn.add_argument("--guidance", help="extra instruction text for the llm proposer")
    syn.add_argument("--resume", action="store_true",
                     help="continue from the checkpoint in --out")
    syn.set_defaults(func=cmd_synthesize)

    ev = sub.add_parser("evaluate", help="score a synthetic dataset against a real one")
    ev.add_argument("--real", required=True)
    ev.add_argument("--synth", required=True)
    ev.add_argument("--schema", required=True)
    ev.add_argument("--components",
                    help="components.json from a run, or inline a+b,c+d")
    ev.add_argument("--out", help="write the JSON report here instead of stdout")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.ProposerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except errors.SynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
