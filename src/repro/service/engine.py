"""The micro-batching arrangement engine.

Assignment requests do not each pay for a solve: they queue, and every
``batch_ms`` the engine drains the queue and re-solves the *un-frozen
remainder* of the live instance in one shot -- the
:class:`~repro.simulation.policies.RebatchPolicy` idea applied at batch
granularity, under a :class:`~repro.robustness.budget.Budget` with the
degradation ladder (:func:`repro.robustness.harness.solve_with_ladder`)
as the deadline fallback. The solved arrangement is compared against the
standing one and committed only if it is at least as good, as a
journaled ``commit_batch`` delta -- so replay never re-solves anything
and the recovered state is independent of batch boundaries.

Admission control: the pending queue is bounded. A full queue rejects
with :class:`~repro.exceptions.ServiceOverloadedError` *before* anything
is journaled -- the service degrades by shedding load explicitly, never
by stalling every in-flight request behind an unbounded backlog.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.core.conflicts import DisjointSet
from repro.core.model import Instance
from repro.exceptions import ServiceError, ServiceOverloadedError
from repro.robustness.harness import SolveResult, solve_with_ladder
from repro.service.store import ArrangementStore, Delta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.frontend import ArrangementService


class BatchSolver(Protocol):
    """The solver signature a batch engine drives (ladder-compatible)."""

    def __call__(
        self,
        instance: Instance,
        ladder: Sequence[object],
        *,
        timeout: float | None = None,
    ) -> SolveResult: ...

#: Default micro-batch coalescing window.
DEFAULT_BATCH_MS = 25.0

#: Default per-batch solve deadline (seconds).
DEFAULT_SOLVE_TIMEOUT = 0.25

#: Default admission-control bound on queued assignment requests.
DEFAULT_MAX_PENDING = 1024

#: Default degradation ladder for batch solves: the scalable
#: approximation first, the cheapest feasible answer as the floor.
DEFAULT_LADDER: tuple[str, ...] = ("greedy", "random-u")


class PendingRequest:
    """One queued assignment request: a tiny single-use future.

    The engine resolves it with the user's standing event list after
    the batch containing it commits; :attr:`latency_s` is the submit ->
    resolve wall time (what ``geacc replay`` aggregates into
    percentiles).
    """

    __slots__ = ("user", "submitted_at", "resolved_at", "events", "error", "_done")

    def __init__(self, user: int) -> None:
        self.user = user
        self.submitted_at = time.perf_counter()
        self.resolved_at: float | None = None
        self.events: tuple[int, ...] | None = None
        self.error: Exception | None = None
        self._done = threading.Event()

    def resolve(self, events: tuple[int, ...]) -> None:
        self.events = events
        self.resolved_at = time.perf_counter()
        self._done.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.resolved_at = time.perf_counter()
        self._done.set()

    def wait(self, timeout: float | None = None) -> tuple[int, ...]:
        """Block until the batch commits; returns the assigned events."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"assignment request for user {self.user} still pending "
                f"after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.events is not None
        return self.events

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_s(self) -> float | None:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at


class MicroBatchEngine:
    """Coalesces pending requests and re-solves the open remainder.

    Args:
        service: The owning :class:`~repro.service.frontend.
            ArrangementService` (holds the store, journal and state
            lock; the engine journals its commits through it).
        batch_ms: Coalescing window. Requests arriving within one window
            share one solve.
        solve_timeout: Per-batch ladder deadline (seconds).
        max_pending: Admission-control queue bound.
        ladder: Solver names for :func:`solve_with_ladder`, best first.
        solver: Optional replacement for :func:`solve_with_ladder` with
            the same ``(instance, ladder, *, timeout)`` signature, e.g. a
            wrapper that times or counts each batch solve.
    """

    def __init__(
        self,
        service: "ArrangementService",
        batch_ms: float = DEFAULT_BATCH_MS,
        solve_timeout: float = DEFAULT_SOLVE_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
        ladder: tuple[str, ...] = DEFAULT_LADDER,
        solver: "BatchSolver | None" = None,
    ) -> None:
        if batch_ms < 0:
            raise ServiceError(f"batch_ms must be >= 0, got {batch_ms}")
        if solve_timeout <= 0:
            raise ServiceError(f"solve_timeout must be > 0, got {solve_timeout}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self._service = service
        self.batch_ms = batch_ms
        self.solve_timeout = solve_timeout
        self.max_pending = max_pending
        self.ladder = tuple(ladder)
        self._solve = solver if solver is not None else solve_with_ladder
        self.batches_solved = 0
        self.requests_served = 0
        self.last_outcome: str | None = None
        self._pending: list[PendingRequest] = []
        self._cond = threading.Condition()
        self._stop = False
        self._dirty = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Admission + queueing
    # ------------------------------------------------------------------

    def admit(self, user: int) -> PendingRequest:
        """Queue one assignment request (admission-controlled).

        Raises:
            ServiceOverloadedError: If the queue is at ``max_pending``.
                Nothing is journaled for a rejected request.
        """
        with self._cond:
            if len(self._pending) >= self.max_pending:
                raise ServiceOverloadedError(
                    f"assignment queue full ({self.max_pending} pending); "
                    "retry after the next batch"
                )
            request = PendingRequest(user)
            self._pending.append(request)
            self._cond.notify_all()
            return request

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)

    def mark_dirty(self) -> None:
        """Request a re-solve even when no assignment request is queued.

        Mutations that change the feasible region (a freeze, a cancel, a
        new event) leave the standing arrangement stale without putting
        anything in the queue. The shard coordinator marks the affected
        shard dirty; the next batch -- background-thread or synchronous
        -- re-solves the open remainder even if the request list is
        empty. The unsharded service never calls this, so its batch
        cadence is unchanged.
        """
        with self._cond:
            self._dirty = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background batch thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="geacc-batch-engine", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread, solving one final batch for stragglers."""
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        thread.join()
        self._thread = None
        self.run_pending_batch()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._dirty and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
            # Coalescing window: let a burst of requests pile into this
            # batch instead of paying one solve each.
            if self.batch_ms > 0:
                time.sleep(self.batch_ms / 1000.0)
            self.run_pending_batch()

    def run_pending_batch(self) -> int:
        """Drain the queue and solve one batch synchronously.

        Returns the number of requests resolved (0 when the queue was
        empty). Exposed for deterministic tests and the synchronous
        (no-thread) mode.
        """
        with self._cond:
            batch = self._pending
            self._pending = []
            dirty = self._dirty
            self._dirty = False
        if not batch and not dirty:
            return 0
        try:
            self._solve_and_commit(batch)
        except Exception as exc:
            for request in batch:
                request.fail(exc)
            raise
        return len(batch)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _solve_and_commit(self, batch: list[PendingRequest]) -> None:
        service = self._service
        with service._lock:
            store = service.store
            delta = self._solve_open_remainder(store)
            if delta:
                service._journal_and_apply(
                    "commit_batch",
                    {**delta.to_json(), "users": sorted({r.user for r in batch})},
                )
            self.batches_solved += 1
            self.requests_served += len(batch)
            results = {
                request.user: tuple(sorted(store.events_of(request.user)))
                for request in batch
            }
        for request in batch:
            request.resolve(results[request.user])

    def _solve_open_remainder(self, store: ArrangementStore) -> Delta:
        """Re-solve the un-frozen remainder; never worsen the standing state.

        Builds the restricted instance (:func:`open_remainder`), then
        runs the degradation ladder under the batch deadline. The solved
        arrangement replaces the standing open assignment only if it
        does not lower the open MaxSum, so a deadline-starved rung can
        never regress the arrangement.
        """
        if not store.open_events() or store.n_users == 0:
            return Delta()
        sub_instance = open_remainder(store)
        sims = sub_instance.sims
        result = self._solve(
            sub_instance, self.ladder, timeout=self.solve_timeout
        )
        self.last_outcome = result.outcome.value
        if result.arrangement is None:
            return Delta()  # every rung failed: keep the standing state

        current = {
            (e, u)
            for e, u in store.pairs()
            if store.is_open(e)
        }
        candidate = set(result.arrangement.pairs())
        if current == candidate:
            return Delta()

        # Keep-better is decided per *user-linked conflict cluster*, not
        # globally: conflict-graph components are independent on the
        # event side, so a deadline-starved rung that regressed one
        # region must not veto a genuine improvement in another. But a
        # user holding seats in several components couples them through
        # its capacity -- applying one component's candidate while
        # keeping another's current seats could over-commit that user --
        # so components sharing any user (in either arrangement) are
        # merged into one accept/reject unit first.
        clusters = DisjointSet()
        for event in range(store.n_events):
            clusters.add(event)
            for other in store.event_conflicts(event):
                clusters.union(event, other)
        anchor_of_user: dict[int, int] = {}
        for event, user in current | candidate:
            anchor = anchor_of_user.setdefault(user, event)
            clusters.union(anchor, event)
        current_of: dict[int, set[tuple[int, int]]] = {}
        candidate_of: dict[int, set[tuple[int, int]]] = {}
        for pair in current:
            current_of.setdefault(clusters.find(pair[0]), set()).add(pair)
        for pair in candidate:
            candidate_of.setdefault(clusters.find(pair[0]), set()).add(pair)
        assigns: list[tuple[int, int]] = []
        unassigns: list[tuple[int, int]] = []
        for root in sorted(set(current_of) | set(candidate_of)):
            kept = current_of.get(root, set())
            solved = candidate_of.get(root, set())
            if kept == solved:
                continue
            kept_sum = float(sum(sims[e, u] for e, u in kept))
            solved_sum = float(sum(sims[e, u] for e, u in solved))
            if solved_sum < kept_sum:
                continue  # this cluster keeps its standing seats
            assigns.extend(solved - kept)
            unassigns.extend(kept - solved)
        return Delta(
            assigns=tuple(sorted(assigns)),
            unassigns=tuple(sorted(unassigns)),
        )


def open_remainder(store: ArrangementStore) -> Instance:
    """The restricted instance a batch re-solves.

    It is the instance :class:`~repro.simulation.policies.RebatchPolicy`
    would build: open events keep their capacity, frozen/cancelled ones
    drop to zero, user capacities shrink by frozen commitments, and a
    pair's similarity is zeroed when the user's frozen commitments
    conflict with the event. Built from the cached similarity rows of
    the open events with array operations, so the Python work is
    O(|V| + |CF|) rather than O(|V| * |U|). The store must hold at least
    one open event.
    """
    n_events = store.n_events
    open_events = store.open_events()
    sims = np.zeros((n_events, store.n_users))
    sims[open_events] = np.vstack([store.sim_row(e) for e in open_events])
    event_capacities = np.zeros(n_events, dtype=np.int64)
    event_capacities[open_events] = [store.event_capacity(e) for e in open_events]
    user_capacities = store.user_capacities()
    # Seats on closed events stay fixed for this batch: they use up
    # capacity, and they block their users from every event in conflict
    # with the closed one (the conflict x frozen-seat product, one
    # closed event at a time; closed rows are zero already).
    for event in range(n_events):
        if store.is_open(event) or not store.users_of(event):
            continue
        seated = list(store.users_of(event))
        user_capacities[seated] -= 1
        sims[np.ix_(list(store.event_conflicts(event)), seated)] = 0.0
    return Instance(
        event_capacities, user_capacities, store.conflict_graph(), sims=sims
    )
