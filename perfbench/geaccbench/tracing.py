"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into the
program's layers: each carries a name, start and end (``perf_counter``
seconds), the id of the span that was open on the same thread when it
started (its parent), and a request id -- the user id for a command or
assignment request, the batch number for an engine batch. A child
without an explicit request id inherits its parent's. Spans stay in
memory until the run ends and are then written out as JSON lines.

The untraced run uses :data:`NULL_TRACER`, whose spans and counters do
nothing, so the end-to-end figures are measured without instrumentation.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts`` (clipped to it)."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a)
    )
    total = 0.0
    run_start: float | None = None
    run_end = lo
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    return span.duration - covered_length(
        (span.start, span.end), ((c.start, c.end) for c in children)
    )


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        request = inherited if request is None else request
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent, request,
                threading.current_thread().name,
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * s.duration for s in self.named(name)]

    def self_times_ms(self, name: str, subtract: tuple[str, ...] = ()) -> list[float]:
        """Self time of every ``name`` span, less its children named in ``subtract``.

        With ``subtract`` empty, every direct child is subtracted.
        """
        kids = self.children_of()
        out = []
        for s in self.named(name):
            children = [
                c for c in kids.get(s.id, ()) if not subtract or c.name in subtract
            ]
            out.append(1000.0 * self_time(s, children))
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(s), sort_keys=True) + "\n")


class NullTracer:
    """The untraced run's tracer: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        yield

    def count(self, name: str, amount: float = 1) -> None:
        return None


NULL_TRACER = NullTracer()
