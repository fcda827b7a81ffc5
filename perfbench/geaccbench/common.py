"""What every workload shares: its context, its result, set-up timing, and
the translation of a timeline into service commands."""

from __future__ import annotations

import gc
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from repro.exceptions import ServiceError

from geaccbench.tracing import NULL_TRACER, NullTracer, Tracer

T = TypeVar("T")

#: How many times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Kinds of timeline moment, in the order they sort at equal times.
POST, ARRIVE, FREEZE = 0, 1, 2

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("served_frac", "ratio"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("maxsum", "maxsum"),
)


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    tracer: Tracer | NullTracer = NULL_TRACER

    @property
    def traced(self) -> bool:
        return self.tracer.enabled


@dataclass
class Result:
    """What one workload run measured and checked.

    ``e2e`` holds the end-to-end metrics named in ``BENCHMARK.json``;
    ``detail`` holds the workload's own named figures (printed, not
    gated); ``layers`` holds the per-layer metrics of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    e2e: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float | str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)


class Tally:
    """Operations attempted and failed. A refusal (``ServiceOverloadedError``,
    a :class:`~repro.exceptions.ServiceError`) counts as a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, fn: Callable[..., object], *args: object, **kwargs: object) -> object:
        """``fn(*args, **kwargs)``, or None when the service refused or failed it."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except ServiceError:
            self.failed += 1
            return None


def timed_setup(build: Callable[[], T]) -> tuple[float, T]:
    """Collect garbage, then run ``build()``; return its seconds and its product."""
    gc.collect()
    start = time.perf_counter()
    product = build()
    return time.perf_counter() - start, product


def timed_setups(
    build: Callable[[int], T], repeats: int = SETUP_REPEATS
) -> tuple[list[float], list[T]]:
    """Run ``build(i)`` ``repeats`` times; return the seconds of each and the products."""
    timed = [timed_setup(lambda: build(i)) for i in range(repeats)]
    return [seconds for seconds, _ in timed], [product for _, product in timed]


def peak_rss_mb() -> float:
    """High-water resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timeline_moments(timeline) -> list[tuple[float, int, int]]:
    """A timeline's posts, arrivals and freezes as sorted ``(t, kind, entity)``.

    At equal times posts come before arrivals and arrivals before freezes.
    """
    moments = [(float(t), POST, v) for v, t in enumerate(timeline.post_times)]
    moments += [(float(t), ARRIVE, u) for u, t in enumerate(timeline.arrival_times)]
    moments += [(float(t), FREEZE, v) for v, t in enumerate(timeline.start_times)]
    moments.sort()
    return moments


class TimelineSender:
    """Sends an instance's timeline moments to a service as commands.

    ``command(fn, *args, request=None, **kwargs)`` is the caller's timed
    call: it returns ``fn``'s result, or None when the service refused it.
    Events get the service's ids as they post, and a post's conflicts are
    remapped to the ids of the conflicting events already posted.
    """

    def __init__(self, service, instance, command: Callable[..., object]) -> None:
        self.service = service
        self.instance = instance
        self.command = command
        self.event_ids: dict[int, int] = {}

    def send(self, kind: int, entity: int) -> object:
        """Issue one moment's commands; an arrival returns its pending request or None."""
        instance, service, command = self.instance, self.service, self.command
        if kind == POST:
            conflicts = [
                self.event_ids[w] for w in sorted(instance.conflicts.conflicts_with(entity))
                if w in self.event_ids
            ]
            event = command(
                service.post_event,
                capacity=int(instance.event_capacities[entity]),
                attributes=instance.event_attributes[entity].tolist(),
                conflicts=conflicts,
            )
            if event is not None:
                self.event_ids[entity] = event
        elif kind == ARRIVE:
            user = command(
                service.register_user,
                capacity=int(instance.user_capacities[entity]),
                attributes=instance.user_attributes[entity].tolist(),
            )
            if user is not None:
                return command(service.request_assignment, user, wait=False, request=user)
        elif entity in self.event_ids:
            command(service.freeze_event, self.event_ids[entity])
        return None
