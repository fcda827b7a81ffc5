"""``arrivals``: the paper's instance arriving as users would send it.

A Table III-shaped instance (|V|=100, d=20, CF ratio 0.25, with 750
users) gets a ``random_timeline`` over a horizon of 100, compressed so
the horizon spans the run (at 30 s, 25 arrivals per second). The
threaded in-process :class:`~repro.service.frontend.ArrangementService`
runs with ``geacc replay``'s engine settings. Posts, register+request
pairs and freezes fire on schedule from one load thread (an open loop:
nothing waits for an answer before sending the next command), and every
request is timed from when it was due. A second load thread reads
``state_summary()`` -- the body of ``GET /state`` -- twice a second."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from repro.core.bounds import relaxation_bound
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.exceptions import ServiceError
from repro.service.engine import PendingRequest
from repro.service.frontend import ArrangementService
from repro.service.journal import Journal
from repro.service.journal import replay as replay_journal
from repro.service.store import ArrangementStore, StoreConfig
from repro.simulation.workload import random_timeline

from geaccbench import probes
from geaccbench.common import (
    Context,
    Result,
    Tally,
    TimelineSender,
    peak_rss_mb,
    timed_setups,
    timeline_moments,
)
from geaccbench.layers import layer_metrics, queue_waits_ms
from geaccbench.openloop import drive, latency_from_due
from geaccbench.stats import median, nearest_rank, tail_percentile

#: ``geacc replay``'s engine settings.
BATCH_MS = 10.0
SOLVE_TIMEOUT = 0.25
LADDER = ("greedy", "random-u")
#: Large enough that the open loop is never refused at this rate.
MAX_PENDING = 1024

HORIZON = 100.0
#: Table III defaults but for |U|: with 1000 users at 50 arrivals/s the
#: batches outgrew the gaps the single load thread needs to issue its
#: commands, and its backlog grew without bound on a two-core machine.
INSTANCE = SyntheticConfig(n_users=750)
POLL_INTERVAL_S = 0.5
#: How long a request may stay unresolved after the schedule ends.
DRAIN_S = 60.0

def _schedule(timeline, seconds: float) -> list[tuple[float, tuple[int, int]]]:
    """Time-ordered ``(offset_s, (kind, entity))``, the horizon scaled to ``seconds``."""
    scale = seconds / HORIZON
    return [(t * scale, (kind, entity)) for t, kind, entity in timeline_moments(timeline)]


def _build_service(ctx: Context, config: StoreConfig, name: str) -> ArrangementService:
    path = ctx.workdir / f"{name}.jsonl"
    kwargs = dict(
        batch_ms=BATCH_MS,
        solve_timeout=SOLVE_TIMEOUT,
        max_pending=MAX_PENDING,
        ladder=LADDER,
        threaded=True,
    )
    if not ctx.traced:
        return ArrangementService.create(path, config, **kwargs)
    tracer = ctx.tracer
    journal = Journal.create(path, config, fs=probes.TimingFS(tracer))
    service = ArrangementService(
        ArrangementStore(config), journal,
        batch_solver=probes.ladder_solver(tracer), **kwargs,
    )
    _instrument(service, tracer)
    return service


def _instrument(service: ArrangementService, tracer) -> None:
    batches = itertools.count(1)
    run_pending_batch = service.engine.run_pending_batch

    def run_batch() -> int:
        with tracer.span("engine.batch", request=next(batches)):
            served = run_pending_batch()
        tracer.count("engine.requests", served)
        return served

    service.engine.run_pending_batch = run_batch
    probes.instrument_journal(service.journal, tracer)
    service.store.digest = probes.timed_function(tracer, "store.digest")(service.store.digest)


def run(ctx: Context) -> Result:
    tracer = ctx.tracer
    instance = generate_instance(INSTANCE, ctx.seed)
    timeline = random_timeline(instance, np.random.default_rng([ctx.seed, 1]), horizon=HORIZON)
    schedule = _schedule(timeline, ctx.seconds)
    config = StoreConfig(
        dimension=instance.event_attributes.shape[1], t=instance.t, metric=instance.metric
    )

    patches = probes.Patches()
    if ctx.traced:
        probes.patch_greedy(patches, tracer)
    try:
        return _measure(ctx, instance, schedule, config)
    finally:
        patches.restore()


def _measure(ctx: Context, instance, schedule, config: StoreConfig) -> Result:
    result = Result()
    tracer = ctx.tracer
    setup_times, services = timed_setups(lambda i: _build_service(ctx, config, f"journal-{i}"))
    for spare in services[:-1]:
        spare.close()
    service = services[-1]
    journal_path = service.journal.path

    requests: list[tuple[float, PendingRequest]] = []
    command_s: list[float] = []
    state_s: list[float] = []
    commands, reads = Tally(), Tally()
    stop = threading.Event()

    def command(fn, *args, request=None, **kwargs):
        start = time.perf_counter()
        with tracer.span("frontend.command", request=request):
            out = commands.call(fn, *args, **kwargs)
        command_s.append(time.perf_counter() - start)
        return out

    sender = TimelineSender(service, instance, command)

    def fire(due: float, item: tuple[int, int]) -> None:
        pending = sender.send(*item)
        if pending is not None:
            requests.append((due, pending))

    def poll() -> None:
        next_at = time.perf_counter()
        while not stop.is_set():
            start = time.perf_counter()
            with tracer.span("state.read"):
                reads.call(service.state_summary)
            state_s.append(time.perf_counter() - start)
            next_at += POLL_INTERVAL_S
            stop.wait(max(0.0, next_at - time.perf_counter()))

    poller = threading.Thread(target=poll, name="state-poller")
    poller.start()
    try:
        origin, lateness = drive(schedule, fire)
        unresolved = 0
        for _, pending in requests:
            try:
                pending.wait(DRAIN_S)
            except ServiceError:
                unresolved += 1
    finally:
        stop.set()
        poller.join(timeout=10.0)
    result.check("poller stopped", not poller.is_alive())
    result.e2e["peak_rss_mb"] = peak_rss_mb()

    try:
        service.check_invariants()
        invariants_ok = True
    except ServiceError:
        invariants_ok = False
    live_digest = service.store.digest()
    achieved = service.store.max_sum()
    batches = service.engine.batches_solved
    service.close()
    result.check("check_invariants() passes", invariants_ok)
    replayed, _ = replay_journal(journal_path)
    result.check("journal replay digest equals live digest", replayed.digest() == live_digest)

    served = [
        (due, p.resolved_at) for due, p in requests
        if p.resolved_at is not None and p.error is None
    ]
    latencies = [latency_from_due(due, resolved_at) for due, resolved_at in served]
    # A request that was admitted but never resolved fails its admission.
    result.attempted = commands.attempted + reads.attempted
    result.failed = commands.failed + reads.failed + len(requests) - len(latencies)
    result.check("every admitted request resolved", unresolved == 0 and len(latencies) > 0)
    if not latencies:
        return result

    latencies_ms = [1000.0 * x for x in latencies]
    tail_p, tail_ms = tail_percentile(latencies_ms)
    result.e2e.update(
        setup_s=median(setup_times),
        op_p50_ms=median(latencies_ms),
        op_tail_ms=tail_ms,
        # Goodput: in an open loop it holds at the offered rate until the
        # service falls behind and the last requests resolve late.
        throughput_per_s=len(served) / (max(at for _, at in served) - origin),
        maxsum=achieved,
    )
    bound = relaxation_bound(instance)
    result.detail.update(
        requests=len(latencies),
        request_p50_ms=median(latencies_ms),
        request_tail_pct=tail_p,
        request_tail_ms=tail_ms,
        command_per_s=len(command_s) / sum(command_s),
        state_p50_ms=1000.0 * median(state_s),
        state_reads=len(state_s),
        maxsum_ratio=achieved / bound if bound > 0 else 1.0,
        batches=batches,
        generator_late_p99_ms=1000.0 * nearest_rank(lateness, 99),
    )
    if ctx.traced:
        result.layers = layer_metrics(
            tracer,
            {
                "loadgen.late_p99_ms": 1000.0 * nearest_rank(lateness, 99),
                "engine.queue_wait_p50_ms": median(
                    queue_waits_ms(
                        [p.submitted_at for _, p in requests],
                        [s.start for s in tracer.named("engine.batch")],
                    )
                ),
            },
        )
    return result
