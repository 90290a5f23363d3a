"""Chat-completion proposer: prompt rendering, wire client, reply validation.

Summaries and the discrepancy report are serialized to JSON, embedded in
editable text templates, and POSTed to a chat-completion endpoint. The
reply is parsed as JSON (component sets or proposals), validated against
the schema, and counts are rescaled so every accepted batch sums to the
requested size. Invalid replies never reach the sampler: structural
problems raise MalformedReply and are retried, single infeasible proposals
are dropped and the remainder rescaled. Each template is read from the
package once per process.
"""
from __future__ import annotations

import functools
import http.client
import json
import logging
import math
import os
import ssl
import time
import urllib.request
from dataclasses import dataclass
from importlib import resources
from string import Template

import numpy as np

from . import errors
from .proposals import ComponentContext, Proposals, ProposerContext, validate_proposal
from .discrepancy import DiscrepancyReport
from .schema import Continuous, Discrete, Variable, schema_to_json
from .summaries import StructuralComponent, occupied, summary_payload, unit_labels

log = logging.getLogger(__name__)

TOKEN_ENV = "STATSYNTH_API_TOKEN"

# cells kept per report unit at the second truncation stage
TOP_GAP_CELLS = 10

# largest num a reply may ask for: counts are rescaled in float64, which
# holds every integer up to 2**53 exactly, and k of them sum without overflow
MAX_NUM = 2 ** 53


@dataclass(frozen=True)
class ProposerConfig:
    """Wire settings for the chat-completion endpoint.

    The bearer token is read from the STATSYNTH_API_TOKEN environment
    variable, never from configuration, so it cannot leak into logs or
    checkpoint files. prompt_budget caps the total rendered prompt length
    in characters; render_prompt truncates toward it in stages.
    """

    endpoint: str
    model: str
    temperature: float = 0.8
    max_retries: int = 3
    backoff: float = 1.0
    timeout: float = 30.0
    prompt_budget: int = 40_000

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise errors.ConfigError("endpoint must be a non-empty URL")
        if not self.model:
            raise errors.ConfigError("model must be a non-empty name")
        for name in ("temperature", "backoff", "timeout"):
            # NaN would slip past the range checks below: every comparison with it is false
            if not math.isfinite(getattr(self, name)):
                raise errors.ConfigError(f"{name} must be a finite number")
        if self.temperature < 0:
            raise errors.ConfigError("temperature must be >= 0")
        if self.max_retries < 0:
            raise errors.ConfigError("max_retries must be >= 0")
        if self.backoff < 0:
            raise errors.ConfigError("backoff must be >= 0")
        if self.timeout <= 0:
            raise errors.ConfigError("timeout must be positive")
        if self.prompt_budget < 1000:
            raise errors.ConfigError("prompt_budget must be >= 1000 characters")


# ---------------------------------------------------------------------------
# prompt rendering


@functools.cache
def _template(name: str) -> Template:
    text = resources.files("statsynth").joinpath("templates", f"{name}.txt").read_text()
    return Template(text)


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def report_payload(report: DiscrepancyReport, labels: dict[str, list],
                   top_cells: int | None = None) -> dict:
    """Report as JSON-ready dict; top_cells keeps only the largest gaps.

    A marginal lists every cell, a joint the cells either side occupies.
    """
    units = []
    for name, unit in report.units.items():
        keys = labels[name]
        gap = unit.cells
        cells = (occupied(keys, unit.real, unit.synth) if name in report.joints
                 else range(len(keys)))
        entry: dict = {"unit": name, "delta": unit.value}
        if unit.empty_synth:
            entry["empty_synth"] = True
        if top_cells is not None and len(cells) > top_cells:
            cells = sorted(cells, key=lambda i: (-abs(gap[i]), str(keys[i])))[:top_cells]
            entry["truncated"] = True
        entry["cells"] = [
            {
                "label": list(keys[i]) if isinstance(keys[i], tuple) else keys[i],
                "real": float(unit.real[i]),
                "synth": float(unit.synth[i]),
                "gap": float(gap[i]),
            }
            for i in cells
        ]
        units.append(entry)
    return {"units": units}


def _proposal_stages(ctx):
    """Template fields per truncation stage; each stage replaces one field of
    the stage before, and is built only when the one before is too large."""
    labels = unit_labels(ctx.real_summaries, ctx.schema, ctx.bin_specs)
    fields = {"summaries": _dumps(summary_payload(ctx.real_summaries, labels)),
              "report": _dumps(report_payload(ctx.report, labels)),
              "components": _dumps([{"variables": list(c.variables)} for c in ctx.components]),
              "k": str(ctx.k), "batch_size": str(ctx.batch_size), "guidance": ctx.guidance}
    yield fields
    brief = summary_payload(ctx.real_summaries, labels, include_detail=False)
    fields["summaries"] = _dumps({**brief, "truncated_detail": True})
    yield fields
    fields["report"] = _dumps(report_payload(ctx.report, labels, TOP_GAP_CELLS))
    yield fields


def _copula_stages(ctx):
    labels = unit_labels(ctx.real_marginals, ctx.schema, ctx.bin_specs)
    marginals = summary_payload(ctx.real_marginals, labels)["marginals"]
    yield {"summaries": _dumps({"marginals": marginals}), "n_components": str(ctx.n_components)}


_STAGES = {"proposal": _proposal_stages, "copula": _copula_stages}


def render_prompt(template: str, ctx, budget: int = 40_000) -> list[dict]:
    """Render the named prompt to a chat message list, byte-deterministic.

    When the rendered proposal prompt exceeds budget, sub-bin detail rows
    leave the summaries first, then report units keep only their
    TOP_GAP_CELLS largest gaps; the copula prompt has no smaller form. A
    prompt still too large raises PromptTooLarge.
    """
    if template not in _STAGES:
        raise errors.ConfigError(f"unknown prompt template {template!r}")
    system = _template(f"{template}_system").substitute()
    user = _template(f"{template}_user")
    schema = _dumps(schema_to_json(ctx.schema))
    for stage, fields in enumerate(_STAGES[template](ctx)):
        content = user.substitute(schema=schema, **fields)
        if len(system) + len(content) <= budget:
            if stage:
                log.warning("prompt truncated to fit %d character budget", budget)
            return [{"role": "system", "content": system}, {"role": "user", "content": content}]
    after = " after truncation" if stage else ""
    raise errors.PromptTooLarge(f"{template} prompt exceeds {budget} characters{after}")


# ---------------------------------------------------------------------------
# reply parsing


def _strip_fences(text: str) -> str:
    s = text.strip()
    if s.startswith("```") and s.endswith("```"):
        first = s.find("\n")
        if first != -1:
            s = s[first + 1:-3].strip()
    return s


def _reply_json(text: str) -> object:
    # ValueError also covers integer literals past Python's digit limit,
    # RecursionError arrays or objects nested too deep to parse
    try:
        return json.loads(_strip_fences(text))
    except (ValueError, RecursionError) as exc:
        raise errors.MalformedReply(f"reply is not JSON: {type(exc).__name__}") from exc


def _rescale_counts(weights, total: int) -> np.ndarray:
    """Proportional largest-remainder allocation keeping every entry >= 1."""
    raw = np.asarray(weights, dtype=float)
    raw = raw / raw.sum() * total
    out = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - out), kind="stable")
    for i in order[: total - int(out.sum())]:
        out[i] += 1
    while (out == 0).any():
        out[int(out.argmax())] -= 1
        out[int(np.flatnonzero(out == 0)[0])] += 1
    return out


def _assignment_from_json(var: Variable, value: object):
    """A category code (-1 for a string naming no category) or a (lo, hi) pair."""
    kind = var.kind
    if isinstance(kind, Discrete):
        if not isinstance(value, str):
            raise errors.MalformedReply(
                f"{var.name}: discrete assignment must be a string, got {value!r}")
        return kind.categories.index(value) if value in kind.categories else -1
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise errors.MalformedReply(
            f"{var.name}: continuous assignment must be [lo, hi], got {value!r}")
    try:
        return float(value[0]), float(value[1])
    except OverflowError:
        raise errors.MalformedReply(f"{var.name}: range bound too large for a float") from None


def parse_proposal_reply(text: str, ctx: ProposerContext) -> Proposals:
    """Validate a proposal reply; drop infeasible entries, rescale counts.

    Shape violations (wrong JSON, missing variables, bad num) raise
    MalformedReply so the caller can re-ask. Schema violations inside an
    otherwise well-formed proposal (unknown category, range out of bounds)
    drop just that proposal. Categories become codes here, as the JSON is read.
    """
    doc = _reply_json(text)
    if not isinstance(doc, list) or not doc:
        raise errors.MalformedReply("reply must be a non-empty JSON array of proposals")
    if len(doc) > ctx.k:
        raise errors.MalformedReply(f"{len(doc)} proposals returned, at most {ctx.k} requested")
    rows, nums = [], []
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise errors.MalformedReply(f"proposal {i} is not an object")
        assignments = item.get("assignments")
        if not isinstance(assignments, dict):
            raise errors.MalformedReply(f"proposal {i} lacks an assignments object")
        missing = set(ctx.schema.names) - set(assignments)
        if missing:
            raise errors.MalformedReply(f"proposal {i} misses variables {sorted(missing)}")
        extra = set(assignments) - set(ctx.schema.names)
        if extra:
            raise errors.MalformedReply(f"proposal {i} names unknown variables {sorted(extra)}")
        num = item.get("num")
        if not isinstance(num, int) or isinstance(num, bool) or not 1 <= num <= MAX_NUM:
            raise errors.MalformedReply(
                f"proposal {i} needs an integer num in [1, 2**53], got {num!r:.40}")
        if not isinstance(item.get("rationale", ""), str):
            raise errors.MalformedReply(f"proposal {i} rationale must be a string")
        rows.append([_assignment_from_json(var, assignments[var.name]) for var in ctx.schema])
        nums.append(num)
    columns = [np.array(col, dtype=np.float64 if isinstance(var.kind, Continuous) else np.int64)
               for var, col in zip(ctx.schema, zip(*rows))]
    proposals = Proposals(ctx.schema, columns, np.array(nums, dtype=np.int64))
    infeasible = validate_proposal(proposals)
    for i in sorted(infeasible):
        log.warning("dropping infeasible proposal %d: %s", i, infeasible[i])
    kept = np.array([i for i in range(len(proposals)) if i not in infeasible], dtype=np.int64)
    if not len(kept):
        raise errors.MalformedReply("every proposal in the reply was infeasible")
    return Proposals(ctx.schema, [col[kept] for col in proposals.columns],
                     _rescale_counts(proposals.num[kept], ctx.batch_size))


def _max_components(n_vars: int) -> int:
    return sum(math.comb(n_vars, size) for size in (2, 3, 4))


def parse_copula_reply(text: str, ctx: ComponentContext) -> list[StructuralComponent]:
    doc = _reply_json(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("components"), list):
        raise errors.MalformedReply('reply must be {"components": [...]}')
    needed = min(ctx.n_components, _max_components(len(ctx.schema.names)))
    out: list[StructuralComponent] = []
    seen: set[frozenset[str]] = set()
    for i, item in enumerate(doc["components"]):
        if not isinstance(item, dict) or not isinstance(item.get("variables"), list):
            raise errors.MalformedReply(f'component {i} must be {{"variables": [...]}}')
        names = item["variables"]
        if not all(isinstance(n, str) for n in names):
            raise errors.MalformedReply(f"component {i} variables must be strings")
        unknown = set(names) - set(ctx.schema.names)
        if unknown:
            raise errors.MalformedReply(f"component {i} names unknown variables {sorted(unknown)}")
        try:
            comp = StructuralComponent(tuple(names))
        except errors.SchemaError as exc:
            raise errors.MalformedReply(f"component {i}: {exc}") from exc
        key = frozenset(comp.variables)
        if key in seen:
            raise errors.MalformedReply(f"component {i} repeats {comp.id}")
        seen.add(key)
        out.append(comp)
        if len(out) == needed:
            break
    if len(out) < needed:
        raise errors.MalformedReply(f"{len(out)} components returned, {needed} required")
    return out


# ---------------------------------------------------------------------------
# wire client and proposer


class ChatClient:
    """One POST per complete() call; retries live in LlmProposer.

    A 3xx (never followed, so the token reaches no other host) and a 4xx other
    than 408 and 429 raise RequestRejected, which is not retried; other
    failures raise LlmUnavailable or MalformedReply. TLS uses the system trust store.
    """

    def __init__(self, config: ProposerConfig) -> None:
        self.config = config
        # loading the trust store takes tens of ms, so only an https endpoint pays for it
        tls = ssl.create_default_context() if config.endpoint.lower().startswith("https:") else None
        # http(s) only, and no error processor: every status comes back, no redirect is followed
        self._opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                        urllib.request.HTTPHandler(), urllib.request.HTTPSHandler(context=tls)):
            self._opener.add_handler(handler)

    def complete(self, messages: list[dict]) -> str:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }, allow_nan=False).encode()
        try:
            with self._opener.open(urllib.request.Request(self.config.endpoint, body, headers),
                                   timeout=self.config.timeout) as resp:
                status, location, raw = resp.status, resp.headers["Location"], resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise errors.LlmUnavailable(f"endpoint unreachable: {exc}") from exc
        if 300 <= status < 400:
            raise errors.RequestRejected(f"endpoint redirected to {location!r}, not followed: HTTP {status}")
        if 400 <= status < 500 and status not in (408, 429):
            raise errors.RequestRejected(f"endpoint rejected the request: HTTP {status}")
        if status != 200:
            raise errors.LlmUnavailable(f"endpoint returned HTTP {status}")
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise errors.MalformedReply(f"reply envelope is not chat-shaped: {exc!r}") from exc
        if not isinstance(content, str):
            raise errors.MalformedReply("reply content is not text")
        return content


class LlmProposer:
    """Proposer backed by a chat-completion endpoint."""

    name = "llm"

    def __init__(self, config: ProposerConfig, client: ChatClient | None = None) -> None:
        self.config = config
        self.client = client if client is not None else ChatClient(config)

    def _ask(self, messages: list[dict], parse):
        last: errors.ProposerError | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                delay = self.config.backoff * 2 ** (attempt - 1)
                if delay:
                    time.sleep(delay)
            try:
                result = parse(self.client.complete(messages))
            except (errors.LlmUnavailable, errors.MalformedReply) as exc:
                last = exc
                log.warning("attempt %d/%d failed: %s",
                            attempt + 1, self.config.max_retries + 1, exc)
                continue
            if attempt:
                log.info("succeeded after %d retries", attempt)
            return result
        assert last is not None
        raise last

    def infer_components(self, ctx: ComponentContext) -> list[StructuralComponent]:
        if len(ctx.schema.names) < 2:
            raise errors.TooFewVariables("need at least 2 variables to infer components")
        messages = render_prompt("copula", ctx, self.config.prompt_budget)
        return self._ask(messages, lambda text: parse_copula_reply(text, ctx))

    def propose(self, ctx: ProposerContext) -> Proposals:
        messages = render_prompt("proposal", ctx, self.config.prompt_budget)
        return self._ask(messages, lambda text: parse_proposal_reply(text, ctx))
