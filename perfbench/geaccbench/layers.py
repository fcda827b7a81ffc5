"""Per-layer metrics of a traced run, computed from its spans and counters.

Every workload reports every metric; a layer a workload does not load
reports zero work. Which end-to-end metric each one should move is
written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

from bisect import bisect_left

from geaccbench.stats import median, nearest_rank
from geaccbench.tracing import Tracer

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("frontend.command_p95_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("engine.batches", "count"),
    ("engine.requests_per_batch", "count"),
    ("engine.batch_p50_ms", "ms"),
    ("engine.batch_p99_ms", "ms"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.remainder_self_p50_ms", "ms"),
    ("ladder.solve_p50_ms", "ms"),
    ("ladder.fallback_frac", "ratio"),
    ("ladder.nodes_per_batch", "count"),
    ("journal.appends", "count"),
    ("journal.append_p50_ms", "ms"),
    ("journal.fsyncs", "count"),
    ("journal.fsync_p50_ms", "ms"),
    ("journal.bytes_per_record", "B"),
    ("store.digest_p50_ms", "ms"),
    ("store.apply_calls", "count"),
    ("store.apply_ms", "ms"),
    ("snapshot.compactions", "count"),
    ("snapshot.compact_p50_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("snapshot.load_ms", "ms"),
    ("recovery.tail_records", "count"),
    ("recovery.rung", "rung"),
    ("greedy.nodes", "count"),
    ("greedy.solve_ms", "ms"),
    ("neighbors.streams_opened", "count"),
    ("neighbors.items_pulled", "count"),
    ("greedy.useful_frac", "ratio"),
    ("pairheap.pushes", "count"),
    ("pairheap.pops", "count"),
    ("index.build_ms", "ms"),
    ("flow.augmentations", "count"),
    ("flow.run_ms", "ms"),
    ("mincostflow.solve_ms", "ms"),
    ("mincostflow.resolve_self_ms", "ms"),
)

#: Recovery ladder rungs, fastest first (``recovery.rung`` reports the index).
RUNGS = ("snapshot+tail", "snapshot-only", "full-replay", "recreate")


def _pct(values: list[float], p: float) -> float:
    return nearest_rank(values, p) if values else 0.0


def queue_waits_ms(submitted: list[float], batch_starts: list[float]) -> list[float]:
    """Wait from each request's submission to the start of the batch that took it.

    A batch drains the queue when it starts, so a request belongs to the
    first batch that starts after it was submitted.
    """
    starts = sorted(batch_starts)
    waits = []
    for t in submitted:
        i = bisect_left(starts, t)
        if i < len(starts):
            waits.append(1000.0 * (starts[i] - t))
    return waits


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Fold spans and counters into :data:`PER_LAYER`; ``extra`` overrides."""
    c = tracer.counters
    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    out["frontend.command_p95_ms"] = _pct(tracer.durations_ms("frontend.command"), 95)

    kids = tracer.children_of()
    solving = [
        s for s in tracer.named("engine.batch")
        if any(k.name == "ladder.solve" for k in kids.get(s.id, ()))
    ]
    batch_ms = [1000.0 * s.duration for s in solving]
    out["engine.batches"] = float(len(solving))
    out["engine.batch_p50_ms"] = median(batch_ms)
    out["engine.batch_p99_ms"] = _pct(batch_ms, 99)
    if solving:
        out["engine.requests_per_batch"] = c.get("engine.requests", 0) / len(solving)
    solving_ids = {s.id for s in solving}
    remainder = [
        v for s, v in zip(
            tracer.named("engine.batch"),
            tracer.self_times_ms("engine.batch", subtract=("ladder.solve", "journal.append")),
        )
        if s.id in solving_ids
    ]
    out["engine.remainder_self_p50_ms"] = median(remainder)

    solves = c.get("ladder.solves", 0)
    out["ladder.solve_p50_ms"] = median(tracer.durations_ms("ladder.solve"))
    if solves:
        out["ladder.fallback_frac"] = c.get("ladder.fallbacks", 0) / solves
        out["ladder.nodes_per_batch"] = c.get("ladder.nodes", 0) / solves

    appends = tracer.durations_ms("journal.append")
    out["journal.appends"] = float(len(appends))
    out["journal.append_p50_ms"] = median(appends)
    fsyncs = tracer.durations_ms("fs.fsync")
    out["journal.fsyncs"] = float(len(fsyncs))
    out["journal.fsync_p50_ms"] = median(fsyncs)
    if appends:
        out["journal.bytes_per_record"] = c.get("journal.bytes", 0) / len(appends)

    out["store.digest_p50_ms"] = median(tracer.durations_ms("store.digest"))
    out["store.apply_calls"] = c.get("store.apply_calls", 0)
    out["store.apply_ms"] = sum(tracer.durations_ms("store.apply"))

    compactions = tracer.durations_ms("snapshot.compact")
    out["snapshot.compactions"] = float(len(compactions))
    out["snapshot.compact_p50_ms"] = median(compactions)
    out["snapshot.load_ms"] = median(tracer.durations_ms("snapshot.load"))

    out["greedy.nodes"] = c.get("greedy.nodes", 0)
    out["greedy.solve_ms"] = median(tracer.durations_ms("greedy.solve"))
    out["neighbors.streams_opened"] = c.get("neighbors.streams_opened", 0)
    pulled = c.get("neighbors.items_pulled", 0)
    out["neighbors.items_pulled"] = pulled
    if pulled:
        out["greedy.useful_frac"] = c.get("greedy.pairs", 0) / pulled
    out["pairheap.pushes"] = c.get("pairheap.pushes", 0)
    out["pairheap.pops"] = c.get("pairheap.pops", 0)
    out["index.build_ms"] = median(tracer.durations_ms("index.build"))

    out["flow.augmentations"] = c.get("flow.augmentations", 0)
    out["flow.run_ms"] = sum(tracer.durations_ms("flow.run"))
    out["mincostflow.solve_ms"] = median(tracer.durations_ms("mincostflow.solve"))
    out["mincostflow.resolve_self_ms"] = median(tracer.self_times_ms("mincostflow.solve"))

    out.update(extra)
    return out
