"""``restart``: the durability layers' write path, then their read path.

The universe: 100 events and 8000 users, about 16k journal records --
events post with conflicts, users register and request, events freeze,
and the queued requests are resolved in four explicit batches, so the
journal and snapshots carry real ``commit_batch`` deltas. A synchronous
service with a snapshot directory and 1 MiB auto-compaction ingests it.

Before the clock starts, the universe is ingested once through a
filesystem that skips fsync, to give the recoveries their input. The
timed phase then ingests the same universe into a fresh service with
real fsyncs and, between slices of that ingest, recovers the prepared
universe through ``ArrangementService.recover``, keeping pace with the
clock. Both figures are so sampled across the whole run rather than one
after the other, and a slow spell of the machine lands on both. Only the
time inside command calls counts for the ingest (compaction included,
the batch calls excluded), so no solver runs on the clock; each recovery
is timed until the service is ready to serve.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.service import frontend as frontend_module
from repro.service import snapshot as snapshot_module
from repro.service.frontend import ArrangementService
from repro.service.journal import FileSystem, Journal
from repro.service.snapshot import list_snapshots
from repro.service.store import ArrangementStore, StoreConfig
from repro.simulation.workload import random_timeline

from geaccbench import probes
from geaccbench.common import (
    ARRIVE,
    Context,
    Result,
    Tally,
    TimelineSender,
    peak_rss_mb,
    timed_setup,
    timed_setups,
    timeline_moments,
)
from geaccbench.layers import RUNGS, layer_metrics
from geaccbench.stats import median, nearest_rank
from geaccbench.tracing import NULL_TRACER

CONFIG = SyntheticConfig(n_events=100, n_users=8_000)
#: The recovery tail is p75 whatever the machine's speed: 40 recoveries
#: leave 10 beyond it, and on a slow machine the run goes on recovering
#: after the ingest until it has them.
TAIL_PCT = 75.0
MIN_RECOVERIES = 40
COMPACT_BYTES = 1 << 20
#: Requests queue between the explicit batches; never refuse them.
MAX_PENDING = 1 << 16
BATCHES = 4
#: The batches are explicit and off the clock; a deadline they never reach
#: lets every solve finish, so a seed always journals the same arrangement.
SOLVE_TIMEOUT = 60.0
#: The timed ingest is cut into this many slices, with recoveries between.
SLICES = 20
TIMELINE_SEED = 0


def _commands(instance) -> list[tuple[int, int]]:
    """The ingest order: a random timeline's posts, arrivals and freezes.

    The timeline is one fixed draw, so every seed interleaves posts,
    freezes and batches the same way and only the universe's attributes,
    capacities and conflicts vary. Otherwise how many events freeze before
    a batch serves them swings MaxSum by up to 30% from seed to seed.
    """
    timeline = random_timeline(instance, np.random.default_rng(TIMELINE_SEED))
    return [(kind, entity) for _, kind, entity in timeline_moments(timeline)]


class NoSyncFS(FileSystem):
    """The real filesystem without fsync: prepares recovery input quickly."""

    def fsync(self, handle) -> None:
        return None

    def fsync_dir(self, directory) -> None:
        return None


class _Ingest:
    """Feeds the universe's commands to one service, timing each call."""

    def __init__(self, service: ArrangementService, instance, commands, tracer=NULL_TRACER) -> None:
        self.service = service
        self.commands = commands
        self.tracer = tracer
        self.position = 0
        self.tally = Tally()
        self.command_s: list[float] = []
        self._sender = TimelineSender(service, instance, self._command)
        self._arrivals = sum(1 for kind, _ in commands if kind == ARRIVE)
        self._batch_every = -(-self._arrivals // BATCHES)
        self._seen = 0

    @property
    def done(self) -> bool:
        return self.position >= len(self.commands)

    def _command(self, fn, *args, request=None, **kwargs):
        t0 = time.perf_counter()
        with self.tracer.span("frontend.command", request=request):
            out = self.tally.call(fn, *args, **kwargs)
        self.command_s.append(time.perf_counter() - t0)
        return out

    def advance(self, count: int) -> None:
        for kind, entity in self.commands[self.position:self.position + count]:
            self._sender.send(kind, entity)
            if kind == ARRIVE:
                self._seen += 1
                if self._seen % self._batch_every == 0 or self._seen == self._arrivals:
                    self.service.run_pending_batch()
        self.position += count


def _service_kwargs(snapshots) -> dict:
    return dict(
        threaded=False,
        snapshot_dir=snapshots,
        compact_bytes=COMPACT_BYTES,
        max_pending=MAX_PENDING,
        solve_timeout=SOLVE_TIMEOUT,
    )


def _create(
    ctx: Context, config: StoreConfig, name: str, fs: FileSystem | None = None
) -> ArrangementService:
    path = ctx.workdir / name / "journal.jsonl"
    path.parent.mkdir(parents=True)
    kwargs = _service_kwargs(ctx.workdir / name / "snapshots")
    if fs is None and not ctx.traced:
        return ArrangementService.create(path, config, **kwargs)
    journal = Journal.create(path, config, fs=fs or probes.TimingFS(ctx.tracer))
    service = ArrangementService(ArrangementStore(config), journal, **kwargs)
    if fs is None:
        probes.instrument_journal(journal, ctx.tracer)
    return service


def _recover(ctx: Context, path, snapshots) -> ArrangementService:
    kwargs = _service_kwargs(snapshots)
    if not ctx.traced:
        return ArrangementService.recover(path, **kwargs)
    tracer = ctx.tracer
    with probes.Patches() as patches:
        patches.wrap(snapshot_module, "load_snapshot", probes.timed_function(tracer, "snapshot.load"))
        patches.wrap(ArrangementStore, "apply", probes.timed_function(tracer, "store.apply"))
        journal, store = Journal.recover(
            path, snapshot_dir=snapshots, fs=probes.TimingFS(tracer)
        )
    return ArrangementService(store, journal, **kwargs)


def run(ctx: Context) -> Result:
    result = Result()
    tracer = ctx.tracer
    instance = generate_instance(CONFIG, ctx.seed)
    commands = _commands(instance)
    config = StoreConfig(
        dimension=instance.event_attributes.shape[1], t=instance.t, metric=instance.metric
    )

    source = _create(ctx, config, "source", fs=NoSyncFS())
    _Ingest(source, instance, commands).advance(len(commands))
    source_digest = source.store.digest()
    maxsum = source.store.max_sum()
    records = source.store.seq
    source_path, source_snapshots = source.journal.path, source.snapshot_dir
    newest = list_snapshots(source_snapshots)
    snapshot_bytes = newest[0][1].stat().st_size if newest else 0
    source.close()
    del source

    # Service creation takes about a millisecond, half of it two fsyncs. It
    # is timed before the timed phase and again before every recovery, so
    # ``setup_s`` is a median over the whole run, like the recovery figures.
    def create(name: str) -> ArrangementService:
        return _create(ctx, config, name)

    setup_times, services = timed_setups(lambda i: create(f"universe-{i}"))
    for spare in services[:-1]:
        spare.close()
    ingest = _Ingest(services[-1], instance, commands, tracer)
    del services

    recoveries = Tally()
    recover_s: list[float] = []
    rungs: list[str] = []
    tails: list[int] = []
    digests_match = True
    per_slice = math.ceil(len(commands) / SLICES)
    patches = probes.Patches()
    if ctx.traced:
        patches.wrap(frontend_module, "compact", probes.timed_function(tracer, "snapshot.compact"))

    def recover_once() -> bool:
        nonlocal digests_match
        seconds, spare = timed_setup(lambda: create(f"spare-{len(setup_times)}"))
        setup_times.append(seconds)
        spare.close()
        # A restarted process starts with an empty heap. Freezing the
        # objects alive now (the collection ran in the set-up above) keeps
        # the collector from rescanning the half-ingested service during
        # the recovery, whose cost would otherwise grow with the ingest.
        gc.freeze()
        try:
            t0 = time.perf_counter()
            with tracer.span("recovery", request=len(recover_s)):
                recovered = recoveries.call(_recover, ctx, source_path, source_snapshots)
            elapsed = time.perf_counter() - t0
        finally:
            gc.unfreeze()
        if recovered is None:
            return False
        recover_s.append(elapsed)
        report = recovered.journal.last_recovery
        rungs.append(report.rung if report is not None else "")
        tails.append(report.records_replayed if report is not None else 0)
        digests_match &= recovered.store.digest() == source_digest
        recovered.close()
        return True

    started = time.perf_counter()
    try:
        for k in range(1, SLICES + 1):
            ingest.advance(per_slice)
            # Recover at least once per slice, then until the clock reaches
            # this slice's share of the run.
            while recover_once():
                if time.perf_counter() >= started + ctx.seconds * k / SLICES:
                    break
        while len(recover_s) < MIN_RECOVERIES and recover_once():
            pass
        wall = time.perf_counter() - started
        ingested = ingest.service
        ingest_digest = ingested.store.digest()
        compactions = ingested.compactions
        ingested.close()
    finally:
        patches.restore()
    result.e2e["peak_rss_mb"] = peak_rss_mb()

    result.attempted = ingest.tally.attempted + recoveries.attempted
    result.failed = ingest.tally.failed + recoveries.failed
    result.check("ingest journaled every command", ingest.done and ingest.tally.failed == 0)
    result.check("re-ingest reproduces the universe's digest", ingest_digest == source_digest)
    result.check(
        "every recovered digest equals the pre-close digest", digests_match and bool(recover_s)
    )
    result.check("recovery rung recorded", bool(rungs) and all(r in RUNGS for r in rungs))
    if not recover_s:
        return result

    recover_ms = [1000.0 * x for x in recover_s]
    ingest_rate = len(ingest.command_s) / sum(ingest.command_s)
    result.e2e.update(
        setup_s=median(setup_times),
        op_p50_ms=median(recover_ms),
        op_tail_ms=nearest_rank(recover_ms, TAIL_PCT),
        throughput_per_s=ingest_rate,
        maxsum=maxsum,
    )
    result.detail.update(
        records=records,
        ingest_cmds_per_s=ingest_rate,
        compactions=compactions,
        timed_wall_s=wall,
        recoveries=len(recover_s),
        recovery_s=median(recover_s),
        recovery_rung=rungs[-1],
        recovery_tail_records=tails[-1],
    )
    if ctx.traced:
        n = len(recover_s)
        result.layers = layer_metrics(
            tracer,
            {
                "snapshot.bytes": float(snapshot_bytes),
                "recovery.tail_records": float(tails[-1]),
                "recovery.rung": float(RUNGS.index(rungs[-1])),
                "store.apply_calls": len(tracer.named("store.apply")) / n,
                "store.apply_ms": sum(tracer.durations_ms("store.apply")) / n,
            },
        )
    return result
