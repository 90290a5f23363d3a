from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statsynth import errors
from statsynth.discrepancy import compute_report
from statsynth.llm import (
    ChatClient,
    LlmProposer,
    ProposerConfig,
    _rescale_counts,
    parse_copula_reply,
    parse_proposal_reply,
    render_prompt,
)
from statsynth.loop import LoopConfig, run
from statsynth.proposals import ComponentContext, ProposerContext, validate_proposal
from statsynth.reference import EcommerceParams, ecommerce_schema, generate
from statsynth.schema import Dataset, Discrete
from statsynth.summaries import (
    StructuralComponent,
    compute_summaries,
    encode,
    fit_all_bins,
    refine_all_bins,
)
from statsynth.testing import ScriptedChatServer


def make_ctx(guidance: str = "", k: int = 2, batch_size: int = 10) -> ProposerContext:
    real = generate(EcommerceParams(), 300, seed=7)
    pool = generate(EcommerceParams(), 120, seed=8)
    specs = fit_all_bins(real)
    real_codes, pool_codes = encode(real, specs), encode(pool, specs)
    refined = refine_all_bins(specs, real_codes, pool_codes)
    comps = (StructuralComponent(("location_tier", "payment_method")),)
    real_sum = compute_summaries(real_codes, specs, comps, refined)
    pool_sum = compute_summaries(pool_codes, specs, comps, refined)
    return ProposerContext(
        schema=real.schema,
        real_summaries=real_sum,
        report=compute_report(real_sum, pool_sum),
        components=comps,
        k=k,
        batch_size=batch_size,
        pool_size=len(pool),
        bin_specs=specs,
        seed=0,
        guidance=guidance,
    )


def full_assignments(schema) -> dict:
    out = {}
    for var in schema:
        if hasattr(var.kind, "categories"):
            out[var.name] = var.kind.categories[0]
        else:
            out[var.name] = [var.kind.lower, var.kind.upper]
    return out


def config(endpoint: str, **kw) -> ProposerConfig:
    kw.setdefault("backoff", 0.0)
    kw.setdefault("timeout", 5.0)
    return ProposerConfig(endpoint=endpoint, model="test-model", **kw)


# ---------------------------------------------------------------------------
# prompt rendering


def test_render_is_deterministic():
    ctx = make_ctx()
    a = render_prompt("proposal", ctx)
    b = render_prompt("proposal", make_ctx())
    assert a == b
    assert [m["role"] for m in a] == ["system", "user"]


def test_guidance_appears_verbatim():
    guidance = "There will be a concert from 20-24 at Tokyo Dome"
    messages = render_prompt("proposal", make_ctx(guidance=guidance))
    assert guidance in messages[1]["content"]
    assert str(10) in messages[1]["content"]


def test_truncation_ladder():
    ctx = make_ctx()
    full = render_prompt("proposal", ctx)
    full_len = sum(len(m["content"]) for m in full)
    assert '"detail": true' in full[1]["content"]

    stage1 = render_prompt("proposal", ctx, budget=full_len - 1)
    assert '"truncated_detail": true' in stage1[1]["content"]
    assert '"truncated": true' not in stage1[1]["content"]
    stage1_len = sum(len(m["content"]) for m in stage1)
    assert stage1_len < full_len

    stage2 = render_prompt("proposal", ctx, budget=stage1_len - 1)
    assert '"truncated": true' in stage2[1]["content"]
    # every report unit now carries at most ten cells
    report = json.loads(stage2[1]["content"].split(
        "Discrepancy report (per cell: real proportion, synthetic proportion, gap = real - synthetic):\n")[1].split(
        "\n\nJoint structural components:")[0])
    assert all(len(u["cells"]) <= 10 for u in report["units"])

    with pytest.raises(errors.PromptTooLarge):
        render_prompt("proposal", ctx, budget=500)


def test_copula_prompt_renders(ref_2k):
    base = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k,
                            compute_summaries(ref_2k, base), base)
    messages = render_prompt("copula", cctx)
    assert "3" in messages[1]["content"]
    assert "user_age" in messages[1]["content"]
    assert render_prompt("copula", cctx) == messages


# ---------------------------------------------------------------------------
# reply parsing


def test_parse_valid_reply_rescales_to_batch():
    ctx = make_ctx(k=2, batch_size=10)
    reply = json.dumps([
        {"assignments": full_assignments(ctx.schema), "num": 1, "rationale": "r"},
        {"assignments": full_assignments(ctx.schema), "num": 1},
    ])
    out = parse_proposal_reply(reply, ctx)
    assert out.num.tolist() == [5, 5]
    assert out.num.sum() == ctx.batch_size


def test_parse_accepts_fenced_json():
    ctx = make_ctx(k=1, batch_size=4)
    inner = json.dumps([{"assignments": full_assignments(ctx.schema), "num": 4}])
    out = parse_proposal_reply(f"```json\n{inner}\n```", ctx)
    assert out.num.tolist() == [4]


def test_parse_missing_variable_is_malformed():
    ctx = make_ctx(k=1, batch_size=4)
    bad = full_assignments(ctx.schema)
    bad.pop("gender")
    with pytest.raises(errors.MalformedReply):
        parse_proposal_reply(json.dumps([{"assignments": bad, "num": 4}]), ctx)


def test_parse_bad_num_is_malformed():
    ctx = make_ctx(k=2, batch_size=4)
    good = full_assignments(ctx.schema)
    for num in (0, -1, 1.5, "3", True, None):
        with pytest.raises(errors.MalformedReply):
            parse_proposal_reply(json.dumps([{"assignments": good, "num": num}]), ctx)


def test_parse_too_many_proposals_is_malformed():
    ctx = make_ctx(k=1, batch_size=4)
    item = {"assignments": full_assignments(ctx.schema), "num": 2}
    with pytest.raises(errors.MalformedReply):
        parse_proposal_reply(json.dumps([item, item]), ctx)


def test_infeasible_proposal_dropped_and_rescaled(caplog):
    ctx = make_ctx(k=2, batch_size=9)
    good = {"assignments": full_assignments(ctx.schema), "num": 3, "rationale": "ok"}
    bad = {"assignments": {**full_assignments(ctx.schema), "price": [0.0, 1e9]},
           "num": 6, "rationale": "out of bounds"}
    out = parse_proposal_reply(json.dumps([good, bad]), ctx)
    assert "dropping infeasible proposal 1: price: range [0.0, 1000000000.0]" in caplog.text
    assert len(out) == 1
    assert out.num.tolist() == [9]
    price = ctx.schema.index("price")
    assert out.columns[price].tolist() == [good["assignments"]["price"]]


def test_all_infeasible_is_malformed():
    ctx = make_ctx(k=1, batch_size=4)
    bad = {"assignments": {**full_assignments(ctx.schema), "gender": "Robot"}, "num": 4}
    with pytest.raises(errors.MalformedReply):
        parse_proposal_reply(json.dumps([bad]), ctx)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=8), st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_rescale_counts_conserves_total(nums, extra):
    total = len(nums) + extra
    out = _rescale_counts(nums, total)
    assert sum(out) == total
    assert all(c >= 1 for c in out)


def test_parse_copula_reply(ref_2k):
    base = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k,
                            compute_summaries(ref_2k, base), base, n_components=2)
    reply = json.dumps({"components": [
        {"variables": ["user_age", "price"]},
        {"variables": ["gender", "product_category", "price"]},
        {"variables": ["location_tier", "payment_method"]},
    ]})
    comps = parse_copula_reply(reply, cctx)
    assert [c.id for c in comps] == ["user_age+price", "gender+product_category+price"]
    with pytest.raises(errors.MalformedReply):
        parse_copula_reply(json.dumps({"components": [
            {"variables": ["user_age", "nope"]}]}), cctx)
    with pytest.raises(errors.MalformedReply):
        parse_copula_reply(json.dumps({"components": [
            {"variables": ["user_age", "price"]},
            {"variables": ["price", "user_age"]},
        ]}), cctx)


def test_copula_two_variable_schema_needs_single_component(two_binary_schema):
    rows = [("A0", "B0"), ("A1", "B1"), ("A0", "B1"), ("A1", "B0")] * 5
    data = Dataset.from_records(two_binary_schema, rows)
    base = fit_all_bins(data)
    cctx = ComponentContext(two_binary_schema, data,
                            compute_summaries(data, base), base, n_components=3)
    comps = parse_copula_reply(json.dumps({"components": [
        {"variables": ["a", "b"]}]}), cctx)
    assert [c.id for c in comps] == ["a+b"]


# ---------------------------------------------------------------------------
# hostile replies: every text is either MalformedReply or a valid batch

SCHEMA = ecommerce_schema()
NAMES = list(SCHEMA.names)
CATEGORIES = [c for v in SCHEMA if isinstance(v.kind, Discrete) for c in v.kind.categories]
HUGE = "1" + "0" * 309  # an integer literal past the largest float


def _valid_item_text(**replace: str) -> str:
    """A one-proposal reply; replace swaps a value for a raw JSON literal."""
    item = {"assignments": full_assignments(SCHEMA), "num": 4}
    text = json.dumps([item])
    for key, literal in replace.items():
        old = json.dumps(item["assignments"][key] if key in item["assignments"] else item[key])
        text = text.replace(f'"{key}": {old}', f'"{key}": {literal}', 1)
    return text


_numbers = st.one_of(st.integers(-10, 100), st.integers(-10**400, 10**400),
                     st.floats(), st.floats(0.0, 2000.0))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6),
              st.sampled_from(NAMES + CATEGORIES)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(NAMES) | st.text(max_size=4), kids, max_size=3),
    max_leaves=10)


def _assignment(var):
    if isinstance(var.kind, Discrete):
        return st.sampled_from(var.kind.categories)
    inside = st.floats(var.kind.lower, var.kind.upper)
    return st.tuples(inside, inside).map(sorted)


@st.composite
def _proposal(draw) -> dict:
    """A valid proposal, or one with a single field spoilt."""
    item: dict = {"assignments": {v.name: draw(_assignment(v)) for v in SCHEMA},
                  "num": draw(st.integers(1, 50)), "rationale": "r"}
    spoil = draw(st.sampled_from([None, "num", "value", "field"]))
    if spoil == "num":
        item["num"] = draw(st.integers(-2, 0) | st.integers(2**53 - 1, 2**53 + 1)
                           | st.integers(10**300, 10**400))
    elif spoil == "value":
        item["assignments"][draw(st.sampled_from(NAMES))] = draw(
            st.lists(_numbers, min_size=2, max_size=2) | _json)
    elif spoil == "field":
        item[draw(st.sampled_from(["assignments", "num", "rationale"]))] = draw(_json)
    return item


@st.composite
def _components(draw) -> dict:
    """Valid components, possibly with a spoilt or repeated one."""
    comps = [{"variables": draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=4,
                                         unique=True))} for _ in range(draw(st.integers(0, 4)))]
    if comps and draw(st.booleans()):
        comps[draw(st.integers(0, len(comps) - 1))] = draw(
            st.fixed_dictionaries({"variables": st.lists(st.sampled_from(NAMES) | _json,
                                                         max_size=5)}) | _json)
    return {"components": comps}


_proposal_texts = st.one_of(
    st.text(),
    st.lists(_proposal(), min_size=1, max_size=4).map(json.dumps),
    st.lists(_proposal() | _json, max_size=4).map(json.dumps),
    _json.map(json.dumps))
_copula_texts = st.one_of(st.text(), _components().map(json.dumps), _json.map(json.dumps))

# replies that once escaped as OverflowError, ValueError and RecursionError
HOSTILE = [_valid_item_text(num=HUGE), _valid_item_text(price=f"[0, {HUGE}]"),
           _valid_item_text(num="1" + "0" * 5000), "[" * 100_000]


@pytest.fixture(scope="module")
def fuzz_contexts() -> tuple[ProposerContext, ComponentContext]:
    real = generate(EcommerceParams(), 300, seed=7)
    base = fit_all_bins(real)
    cctx = ComponentContext(real.schema, real, compute_summaries(real, base), base,
                            n_components=2)
    return make_ctx(k=3, batch_size=10), cctx


@given(_proposal_texts)
@example(HOSTILE[0])
@example(HOSTILE[1])
@example(HOSTILE[2])
@example(HOSTILE[3])
@settings(max_examples=300, deadline=None)
def test_proposal_reply_is_malformed_or_a_valid_batch(fuzz_contexts, text):
    ctx = fuzz_contexts[0]
    try:
        out = parse_proposal_reply(text, ctx)
    except errors.MalformedReply:
        return
    assert validate_proposal(out) == {}
    assert out.num.sum() == ctx.batch_size


@given(_copula_texts)
@example(HOSTILE[2])
@example(HOSTILE[3])
@example(json.dumps({"components": [{"variables": ["user_age", "price"]}]})
         .replace('"price"', HUGE))
@settings(max_examples=300, deadline=None)
def test_copula_reply_is_malformed_or_valid_components(fuzz_contexts, text):
    cctx = fuzz_contexts[1]
    try:
        comps = parse_copula_reply(text, cctx)
    except errors.MalformedReply:
        return
    assert len(comps) == cctx.n_components
    assert len({frozenset(c.variables) for c in comps}) == len(comps)
    assert all(set(c.variables) <= set(NAMES) for c in comps)


# ---------------------------------------------------------------------------
# wire client and retries (hermetic local server)


def valid_reply(ctx: ProposerContext) -> str:
    return json.dumps([{"assignments": full_assignments(ctx.schema),
                        "num": ctx.batch_size, "rationale": "fill"}])


def test_client_posts_model_and_messages(monkeypatch):
    monkeypatch.delenv("STATSYNTH_API_TOKEN", raising=False)
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([valid_reply(ctx)]) as server:
        proposer = LlmProposer(config(server.endpoint, temperature=0.4))
        out = proposer.propose(ctx)
        assert out.num.sum() == 4
        body = server.requests[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.4
        assert body["messages"][0]["role"] == "system"
        assert "authorization" not in server.request_headers[0]


def test_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv("STATSYNTH_API_TOKEN", "sk-test-123")
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([valid_reply(ctx)]) as server:
        LlmProposer(config(server.endpoint)).propose(ctx)
        assert server.request_headers[0]["authorization"] == "Bearer sk-test-123"


def test_malformed_then_valid_succeeds_with_retry():
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer(["not json at all", valid_reply(ctx)]) as server:
        out = LlmProposer(config(server.endpoint)).propose(ctx)
        assert out.num.sum() == 4
        assert len(server.requests) == 2


def test_always_malformed_exhausts_retries():
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer(["still not json"]) as server:
        proposer = LlmProposer(config(server.endpoint, max_retries=2))
        with pytest.raises(errors.MalformedReply):
            proposer.propose(ctx)
        assert len(server.requests) == 3


def test_http_error_then_valid_recovers():
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([500, valid_reply(ctx)]) as server:
        out = LlmProposer(config(server.endpoint)).propose(ctx)
        assert out.num.sum() == 4


@pytest.mark.parametrize("status", [408, 429, 503])
def test_retryable_status_then_valid_recovers(status):
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([status, valid_reply(ctx)]) as server:
        out = LlmProposer(config(server.endpoint)).propose(ctx)
        assert out.num.sum() == 4
        assert len(server.requests) == 2


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_client_error_fails_fast(status):
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([status, valid_reply(ctx)]) as server:
        proposer = LlmProposer(config(server.endpoint, backoff=30.0))
        with pytest.raises(errors.RequestRejected):
            proposer.propose(ctx)
        assert len(server.requests) == 1


def test_persistent_http_error_is_unavailable():
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([503]) as server:
        with pytest.raises(errors.LlmUnavailable):
            LlmProposer(config(server.endpoint, max_retries=1)).propose(ctx)


@pytest.mark.parametrize("backoff, delays", [(1.0, [1.0, 2.0, 4.0]), (0.0, [])])
def test_backoff_doubles_per_retry(monkeypatch, backoff, delays):
    slept = []
    monkeypatch.setattr("statsynth.llm.time.sleep", slept.append)
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([503]) as server:
        proposer = LlmProposer(config(server.endpoint, backoff=backoff, max_retries=3))
        with pytest.raises(errors.LlmUnavailable):
            proposer.propose(ctx)
        assert len(server.requests) == 4
    assert slept == delays


def test_unreachable_endpoint_is_unavailable():
    ctx = make_ctx(k=1, batch_size=4)
    proposer = LlmProposer(config("http://127.0.0.1:9/v1/chat", max_retries=0,
                                  timeout=0.5))
    with pytest.raises(errors.LlmUnavailable):
        proposer.propose(ctx)


def test_bad_envelope_is_malformed_reply():
    ctx = make_ctx(k=1, batch_size=4)
    with ScriptedChatServer([{"unexpected": "shape"}]) as server:
        with pytest.raises(errors.MalformedReply):
            LlmProposer(config(server.endpoint, max_retries=0)).propose(ctx)


def test_missing_variable_retried_then_ok():
    ctx = make_ctx(k=1, batch_size=4)
    bad = full_assignments(ctx.schema)
    bad.pop("price")
    replies = [json.dumps([{"assignments": bad, "num": 4}]), valid_reply(ctx)]
    with ScriptedChatServer(replies) as server:
        out = LlmProposer(config(server.endpoint)).propose(ctx)
        assert len(server.requests) == 2
        assert out.num.sum() == 4


def test_infer_components_over_http(ref_2k):
    base = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k,
                            compute_summaries(ref_2k, base), base, n_components=1)
    reply = json.dumps({"components": [{"variables": ["product_category", "price"]}]})
    with ScriptedChatServer([reply]) as server:
        comps = LlmProposer(config(server.endpoint)).infer_components(cctx)
        assert [c.id for c in comps] == ["product_category+price"]


class RawReplyServer:
    """Answers one connection with fixed bytes, after reading the whole request.

    The reply goes out `delay` seconds after the request arrived, or at
    once when the server stops; then the connection closes.
    """

    def __init__(self, reply: bytes, delay: float = 0.0) -> None:
        self.reply, self.delay = reply, delay
        self._stop = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def _serve(self) -> None:
        try:
            conn, _ = self._sock.accept()
            with conn:
                conn.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += self._recv(conn)
                head, _, body = data.partition(b"\r\n\r\n")
                length = next(int(line.split(b":")[1]) for line in head.split(b"\r\n")
                              if line.lower().startswith(b"content-length:"))
                while len(body) < length:
                    body += self._recv(conn)
                self._stop.wait(self.delay)
                conn.sendall(self.reply)
        except OSError:
            pass

    @staticmethod
    def _recv(conn: socket.socket) -> bytes:
        chunk = conn.recv(65536)
        if not chunk:
            raise ConnectionError("client closed the connection mid-request")
        return chunk

    def __enter__(self) -> "RawReplyServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=15)
        self._sock.close()


MESSAGES = [{"role": "user", "content": "hi"}]


@pytest.mark.parametrize("reply, message", [
    (b"HTTP/1.1 204 No Content\r\n\r\n", "endpoint returned HTTP 204"),
    # a body shorter than its Content-Length
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
     b'{"choices": [', "endpoint unreachable"),
    # the connection closes before any status line
    (b"", "endpoint unreachable"),
])
def test_client_raw_failure_is_unavailable(reply, message):
    with RawReplyServer(reply) as server:
        with pytest.raises(errors.LlmUnavailable, match=message):
            ChatClient(config(server.endpoint)).complete(MESSAGES)


def test_client_slow_reply_times_out():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
    with RawReplyServer(reply, delay=30.0) as server:
        start = time.monotonic()
        with pytest.raises(errors.LlmUnavailable, match="endpoint unreachable"):
            ChatClient(config(server.endpoint, timeout=0.5)).complete(MESSAGES)
        assert time.monotonic() - start < 2.5


@pytest.mark.parametrize("url", ["localhost/v1/chat/completions", "file:///dev/null"])
def test_client_url_not_http_is_unavailable(url):
    with pytest.raises(errors.LlmUnavailable, match="endpoint unreachable"):
        ChatClient(config(url)).complete(MESSAGES)


def test_client_redirect_is_rejected_and_not_followed(monkeypatch):
    monkeypatch.setenv("STATSYNTH_API_TOKEN", "sk-test-123")
    with ScriptedChatServer(["elsewhere"]) as target:
        reply = (f"HTTP/1.1 307 Temporary Redirect\r\nLocation: {target.endpoint}\r\n"
                 "Content-Length: 0\r\n\r\n").encode()
        with RawReplyServer(reply) as server:
            with pytest.raises(errors.RequestRejected, match=re.escape(target.endpoint)):
                ChatClient(config(server.endpoint)).complete(MESSAGES)
        assert target.requests == []


@pytest.mark.parametrize("field", ["temperature", "backoff", "timeout"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(errors.ConfigError, match=f"{field} must be a finite number"):
        ProposerConfig(endpoint="http://x", model="m", **{field: value})


def test_config_validation():
    with pytest.raises(errors.ConfigError):
        ProposerConfig(endpoint="", model="m")
    with pytest.raises(errors.ConfigError):
        ProposerConfig(endpoint="http://x", model="m", temperature=-0.1)
    with pytest.raises(errors.ConfigError):
        ProposerConfig(endpoint="http://x", model="m", timeout=0.0)
    cfg = ProposerConfig(endpoint="http://x", model="m")
    assert cfg.temperature == 0.8
    assert cfg.max_retries == 3


# ---------------------------------------------------------------------------
# request bytes, end to end

# SHA-256 of every request body of a 30-iteration llm run, the prompts rendered
# at each truncation stage, the PromptTooLarge texts and the llm warnings: a
# change to any byte the endpoint sees, or to a warning or error text, fails here
REQUEST_BYTES_SHA256 = "29ab98f5ec0ba5dd6ae3885f846ace15837fe84b34242b99b7bb7c8cf73d175c"


def _walking_replies(schema, iterations: int, k: int) -> list:
    """Per iteration a copula reply, then k proposals whose assignments walk
    the categories and five slices of each range; every ten iterations one
    proposal request first gets a 503 and one a malformed reply."""
    copula = json.dumps({"components": [
        {"variables": ["location_tier", "payment_method"]},
        {"variables": ["product_category", "price"]}]})
    replies: list = []
    for t in range(iterations):
        items = []
        for j in range(k):
            assignments = {}
            for var in schema:
                if isinstance(var.kind, Discrete):
                    cats = var.kind.categories
                    assignments[var.name] = cats[(t + j) % len(cats)]
                else:
                    lo, step = var.kind.lower, (var.kind.upper - var.kind.lower) / 5
                    i = (t + 2 * j) % 5
                    assignments[var.name] = [lo + i * step, lo + (i + 1) * step]
            items.append({"assignments": assignments, "num": j + 1, "rationale": f"t{t}"})
        replies.append(copula)
        if t % 10 == 3:
            replies.append(503)
        if t % 10 == 7:
            replies.append("not json")
        replies.append(json.dumps(items))
    return replies


def test_request_bytes_are_pinned(caplog, ref_2k):
    caplog.set_level(logging.WARNING, logger="statsynth.llm")
    real = generate(EcommerceParams(), 300, seed=5)
    cfg = LoopConfig(iterations=30, proposals_per_iter=3, batch_size=20,
                     n_components=2, seed=9, full_metrics_every=0)
    with ScriptedChatServer(_walking_replies(real.schema, 30, 3)) as server:
        run(real, cfg, LlmProposer(config(server.endpoint)), guidance="favour $k cheap items")
    doc: dict = {"requests": server.requests}

    ctx = make_ctx(guidance="weekend sale")
    full = render_prompt("proposal", ctx)
    stage2 = render_prompt("proposal", ctx, budget=sum(len(m["content"]) for m in full) - 1)
    stage3 = render_prompt("proposal", ctx, budget=sum(len(m["content"]) for m in stage2) - 1)
    base = fit_all_bins(ref_2k)
    cctx = ComponentContext(ref_2k.schema, ref_2k, compute_summaries(ref_2k, base), base)
    doc["renders"] = [full, stage2, stage3, render_prompt("copula", cctx)]
    doc["errors"] = []
    for template, c, budget in (("proposal", ctx, 500), ("copula", cctx, 1000)):
        with pytest.raises(errors.PromptTooLarge) as exc:
            render_prompt(template, c, budget=budget)
        doc["errors"].append(str(exc.value))
    doc["logs"] = [r.getMessage() for r in caplog.records if r.name == "statsynth.llm"]

    assert len(server.requests) == 66
    assert len(doc["logs"]) == 8
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == REQUEST_BYTES_SHA256
