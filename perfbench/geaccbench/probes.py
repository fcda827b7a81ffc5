"""Timing probes the traced run wraps around the program's public seams.

Nothing here edits the program. The probes are

* :class:`TimingFS` -- a :class:`repro.service.journal.FileSystem`
  handed to ``Journal.create`` / ``Journal.recover`` that times every
  fsync;
* wrappers set on one live object over its public methods
  (``Journal.append``, ``ArrangementStore.digest``,
  ``MicroBatchEngine.run_pending_batch``), built with
  :func:`timed_function` or by the workload;
* :class:`Patches` -- temporary replacements of module or class
  attributes the program looks up at call time (``compact`` as the
  front-end calls it, ``load_snapshot`` as recovery calls it,
  ``neighbor_orders_for`` as Greedy calls it, ``CandidatePairHeap``
  push/pop, ``DenseBipartiteMinCostFlow`` run/augment,
  ``ArrangementStore.apply``), undone when the traced phase ends;
* :func:`ladder_solver` -- a ``batch_solver=`` for the engine that wraps
  :func:`repro.robustness.harness.solve_with_ladder`.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from typing import IO, Any

from repro.core.algorithms.neighbors import NeighborOrders
from repro.robustness.harness import solve_with_ladder
from repro.service.journal import FileSystem, Journal

from geaccbench.tracing import Tracer


class TimingFS(FileSystem):
    """The real filesystem, with every fsync recorded as a span."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def fsync(self, handle: IO[bytes]) -> None:
        with self._tracer.span("fs.fsync"):
            super().fsync(handle)


def instrument_journal(journal: Journal, tracer: Tracer) -> None:
    """Record a span and the bytes written for every ``journal.append``."""
    append = journal.append

    def timed_append(cmd: str, args: dict) -> dict:
        before = journal.size_bytes
        with tracer.span("journal.append"):
            record = append(cmd, args)
        tracer.count("journal.bytes", journal.size_bytes - before)
        return record

    journal.append = timed_append  # type: ignore[method-assign]


class Patches:
    """Temporarily replaced attributes, restored in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def timed_function(tracer: Tracer, span_name: str) -> Callable[[Any], Any]:
    """A :meth:`Patches.wrap` factory recording one span per call."""

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def call(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(span_name):
                return original(*args, **kwargs)

        return call

    return make


def counted_function(tracer: Tracer, counter: str) -> Callable[[Any], Any]:
    """A :meth:`Patches.wrap` factory counting calls (no span: hot paths)."""

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def call(*args: Any, **kwargs: Any) -> Any:
            tracer.count(counter)
            return original(*args, **kwargs)

        return call

    return make


class CountingOrders(NeighborOrders):
    """Neighbour-order provider that counts streams opened and items pulled."""

    def __init__(self, inner: NeighborOrders, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def _count(self, stream: Iterator[tuple[int, float]]) -> Iterator[tuple[int, float]]:
        self._tracer.count("neighbors.streams_opened")
        pulled = 0
        try:
            for item in stream:
                pulled += 1
                yield item
        finally:
            self._tracer.count("neighbors.items_pulled", pulled)

    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        return self._count(self._inner.event_stream(event))

    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        return self._count(self._inner.user_stream(user))


def patch_greedy(patches: Patches, tracer: Tracer) -> None:
    """Count Greedy's candidate streams and heap work; time its provider build."""
    from repro.core.algorithms import greedy as greedy_module
    from repro.index.pairheap import CandidatePairHeap

    def make_orders(original: Callable[..., NeighborOrders]) -> Callable[..., NeighborOrders]:
        def build(*args: Any, **kwargs: Any) -> NeighborOrders:
            with tracer.span("index.build"):
                orders = original(*args, **kwargs)
            return CountingOrders(orders, tracer)

        return build

    patches.wrap(greedy_module, "neighbor_orders_for", make_orders)
    patches.wrap(CandidatePairHeap, "push", counted_function(tracer, "pairheap.pushes"))
    patches.wrap(CandidatePairHeap, "pop", counted_function(tracer, "pairheap.pops"))


def patch_flow(patches: Patches, tracer: Tracer) -> None:
    """Time the dense flow kernel and count the units it routes."""
    from repro.flow.dense_bipartite import DenseBipartiteMinCostFlow

    def make_run(original: Callable[..., int]) -> Callable[..., int]:
        @functools.wraps(original)
        def run(self: Any, *args: Any, **kwargs: Any) -> int:
            with tracer.span("flow.run"):
                routed = original(self, *args, **kwargs)
            tracer.count("flow.augmentations", routed)
            return routed

        return run

    def make_augment(original: Callable[..., float | None]) -> Callable[..., float | None]:
        @functools.wraps(original)
        def augment(self: Any) -> float | None:
            with tracer.span("flow.run"):
                cost = original(self)
            if cost is not None:
                tracer.count("flow.augmentations")
            return cost

        return augment

    patches.wrap(DenseBipartiteMinCostFlow, "run", make_run)
    patches.wrap(DenseBipartiteMinCostFlow, "augment", make_augment)


def ladder_solver(tracer: Tracer) -> Callable[..., Any]:
    """A ``batch_solver=`` that records each ladder solve and its outcome."""

    def solve(instance: Any, ladder: Any, *, timeout: float | None = None) -> Any:
        with tracer.span("ladder.solve"):
            result = solve_with_ladder(instance, ladder, timeout=timeout)
        tracer.count("ladder.solves")
        tracer.count("ladder.nodes", result.nodes)
        fallback = result.solver != ladder[0] or result.outcome.value != "optimal"
        tracer.count("ladder.fallbacks", 1 if fallback else 0)
        if result.solver == "greedy" and result.arrangement is not None:
            tracer.count("greedy.nodes", result.nodes)
            tracer.count("greedy.pairs", len(result.arrangement))
        return result

    return solve
