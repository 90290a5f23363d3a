"""Scripted chat-completion endpoint speaking HTTP/1.1 with keep-alive.

Real chat endpoints keep connections open, so a client that reuses them
saves a connect per request. The endpoint counts accepted connections as
well as requests, so `connections / requests` shows whether the client
reuses them. Replies are served strictly in script order; a client that
asks more or fewer times than scripted shows up as a count mismatch.

Script entries are ("chat", text) for an assistant message, ("status", n)
for an empty HTTP error reply, or ("raw", bytes) for a 200 reply whose body
is sent verbatim. Past the end of the script every request gets HTTP 410.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


class KeepAliveEndpoint:
    def __init__(self, script: list[tuple[str, object]]) -> None:
        self.script = script
        self.requests = 0
        self.connections = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10  # closes a kept-alive connection left idle this long

            def setup(self) -> None:
                with outer._lock:
                    outer.connections += 1
                super().setup()

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with outer._lock:
                    i = outer.requests
                    outer.requests += 1
                kind, value = outer.script[i] if i < len(outer.script) else ("status", 410)
                if kind == "status":
                    self.send_response(value)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if kind == "chat":
                    value = json.dumps({"choices": [{"message": {
                        "role": "assistant", "content": value}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(value)))
                self.end_headers()
                self.wfile.write(value)

            def log_message(self, *args) -> None:
                pass

        # A thread per connection: a client that leaves a used connection open
        # until garbage collection (as requests.post does) must not stall the
        # next one. The loop's single caller still waits for every reply, so
        # at most one request is in flight.
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.block_on_close = False
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "KeepAliveEndpoint":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


MALFORMED = b'{"choices": ['  # a truncated envelope: the client cannot parse it

# The dependencies EcommerceParams builds in, as OracleProposer infers them on
# most seeds. Fixed, so that the summaries' joint tables, and with them the
# work per iteration, do not change with the workload seed.
COMPONENTS = [("user_age", "product_category"), ("product_category", "price"),
              ("location_tier", "payment_method")]


def llm_script(schema, seed: int, iterations: int, k: int = 5) -> list[tuple[str, object]]:
    """Replies for `iterations` loop iterations of an uncached llm run.

    Every iteration asks for components, then for a plan. Iteration t with
    t % 10 == 3 first gets a 503 to its component request; t % 10 == 7 first
    gets a malformed reply to its plan request. Both are retried at once when
    the proposer's backoff is 0. Components are COMPONENTS; plans are seeded
    k-proposal plans.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    copula = json.dumps({"components": [{"variables": list(c)} for c in COMPONENTS]})
    script: list[tuple[str, object]] = []
    for t in range(1, iterations + 1):
        if t % 10 == 3:
            script.append(("status", 503))
        script.append(("chat", copula))
        if t % 10 == 7:
            script.append(("raw", MALFORMED))
        script.append(("chat", json.dumps(_plan(schema, rng, k))))
    return script


def _plan(schema, rng: np.random.Generator, k: int) -> list[dict]:
    plan = []
    for _ in range(k):
        assignments: dict[str, object] = {}
        for var in schema:
            kind = var.kind
            if hasattr(kind, "categories"):
                assignments[var.name] = str(rng.choice(kind.categories))
            else:
                lo, hi = sorted(rng.uniform(kind.lower, kind.upper, size=2).tolist())
                assignments[var.name] = [lo, hi]
        plan.append({"assignments": assignments, "num": int(rng.integers(1, 100)),
                     "rationale": "scripted plan"})
    return plan
