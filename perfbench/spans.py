"""In-memory span tracer that wraps statsynth's functions from outside.

A span records its name, start, end, parent span and iteration id, where the
iteration id is the number of `propose` calls seen so far. Spans nest because
the traced program calls every wrapped function from one thread, so a span's
self time is its duration minus the durations of its direct children.

Wrappers go on the module attribute each caller looks up: the loop imports
with `from ... import`, so `statsynth.loop.compute_summaries` is patched, not
`statsynth.summaries.compute_summaries`.
"""
from __future__ import annotations

import functools
import os
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _length(start: float, end: float) -> float:
    return end - start


@dataclass
class Span:
    name: str
    start: float
    parent: int
    iteration: int
    end: float = 0.0


class ProcIo:
    """This process's cumulative read and written bytes from /proc/self/io.

    `rchar` also counts the bytes of each earlier read of the file itself,
    so those are subtracted and deltas repeat exactly from run to run.
    """

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/io", os.O_RDONLY)
        self._own_reads = 0

    def read(self) -> tuple[int, int]:
        text = os.pread(self._fd, 4096, 0)
        fields = dict(line.split(b":", 1) for line in text.splitlines())
        rchar = int(fields[b"rchar"]) - self._own_reads
        self._own_reads += len(text)
        return rchar, int(fields[b"wchar"])

    def close(self) -> None:
        os.close(self._fd)


class Tracer:
    """Collects spans, counters, samples and per-name I/O bytes in memory.

    Span times come from `clock`, which may leave out time the benchmark
    spends on its own between the program's calls (see speed.py).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rbytes: dict[str, int] = defaultdict(int)
        self.wbytes: dict[str, int] = defaultdict(int)
        self.io_spans = 0
        self._stack: list[int] = []
        self._io = ProcIo()
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.iteration))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, args=(), kwargs=None, io: bool = False):
        """Run fn inside a span; with io, add its read/written bytes to name.

        Bytes are counted once per outermost span of a name, so a log writer
        that calls another log writer is not counted twice.
        """
        outer = io and all(self.spans[i].name != name for i in self._stack)
        if outer:
            self.io_spans += 1
            r0, w0 = self._io.read()
        idx = self.begin(name)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end(idx)
            if outer:
                r1, w1 = self._io.read()
                self.rbytes[name] += r1 - r0
                self.wbytes[name] += w1 - w0

    def patch(self, owner, attr: str, name: str, io: bool = False, count=None) -> None:
        """Replace owner.attr by a traced wrapper; count(tracer, args, result)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, args, kwargs, io)
            if count is not None:
                count(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._io.close()

    # -- reading the trace ---------------------------------------------------

    def self_times(self, measure=_length) -> dict[str, float]:
        """Self time per span name; measure(start, end) gives a span's duration."""
        duration = [measure(s.start, s.end) for s in self.spans]
        covered = [0.0] * len(self.spans)
        for s, d in zip(self.spans, duration):
            if s.parent >= 0:
                covered[s.parent] += d
        out: dict[str, float] = defaultdict(float)
        for s, d, c in zip(self.spans, duration, covered):
            out[s.name] += d - c
        return dict(out)

    def durations(self, name: str, measure=_length) -> list[float]:
        return [measure(s.start, s.end) for s in self.spans if s.name == name]

    def own_cost(self, n: int = 5000) -> float:
        """Estimated time the wrappers themselves added: calls x cost per call.

        The cost per call is measured now, by a second tracer wrapping a
        no-op with and without I/O byte counting, less the bare no-op.
        """
        probe = Tracer(self.clock)
        target = types.SimpleNamespace(plain=lambda: None, io=lambda: None, bare=lambda: None)
        probe.patch(target, "plain", "plain")
        probe.patch(target, "io", "io", io=True)
        per_call = {}
        for attr in ("bare", "plain", "io"):
            fn = getattr(target, attr)
            t0 = self.clock()
            for _ in range(n):
                fn()
            per_call[attr] = (self.clock() - t0) / n
        probe.restore()
        return (len(self.spans) * (per_call["plain"] - per_call["bare"])
                + self.io_spans * (per_call["io"] - per_call["plain"]))


def percentile(values, q: float) -> float:
    """numpy's q-quantile of values; 0 if there are none."""
    return float(np.percentile(values, q * 100)) if len(values) else 0.0
