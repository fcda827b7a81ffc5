"""Open-loop load generation: fire each action when it is due.

An open loop sends on a schedule whatever the system does, so a stall
makes the queue grow instead of slowing the sender. Every action is
handed its absolute due time, and latency is measured from that due
time, not from when the generator got round to sending -- so a stall is
charged to every request that was due during it. How late the generator
itself ran is returned alongside, as a validity check.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import TypeVar

T = TypeVar("T")


def drive(
    schedule: Sequence[tuple[float, T]],
    fire: Callable[[float, T], None],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[float, list[float]]:
    """Call ``fire(due, item)`` for each ``(offset_s, item)`` at ``origin + offset_s``.

    ``schedule`` must be sorted by offset. Returns the origin and, per
    item, how late the generator fired it (seconds, >= 0).
    """
    origin = clock()
    lateness = []
    for offset, item in schedule:
        due = origin + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        lateness.append(max(0.0, now - due))
        fire(due, item)
    return origin, lateness


def latency_from_due(due: float, resolved_at: float) -> float:
    """Seconds from when a request was due until it resolved."""
    return resolved_at - due
