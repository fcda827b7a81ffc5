"""Greedy-GEACC (Algorithm 2): the paper's scalable approximation.

The algorithm maintains a heap ``H`` of candidate (event, user) pairs --
at most one "frontier" pair per unfinished node -- and repeatedly pops the
globally most similar pair, adding it to the matching when feasible. After
every pop, the popped pair's event and user each advance to their *next
feasible unvisited nearest neighbour* and push that pair into H unless it
is already there. Conflicts are avoided from the start (unlike
MinCostFlow-GEACC, which repairs them afterwards).

Guarantee: ``MaxSum(M) >= MaxSum(M_OPT) / (1 + max c_u)`` (Theorem 3).

Two monotonicity facts keep the neighbour scan amortised-linear:
capacities only decrease and matched-event sets only grow, so a pair that
is infeasible now is infeasible forever and can be skipped permanently.
Pairs currently sitting in H, however, must *not* be skipped -- the paper
keeps the node's frontier pointing at them until they are popped
(Example 3) -- so each cursor distinguishes "advance past" from "hold".
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.core.algorithms.base import Solver, register_solver
from repro.core.algorithms.neighbors import NeighborOrders, neighbor_orders_for
from repro.core.model import Arrangement, Instance
from repro.exceptions import BudgetExceededError
from repro.index.pairheap import CandidatePairHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.budget import Budget


class _Cursor:
    """Frontier over one node's descending-similarity neighbour stream.

    Each :meth:`peek` with no held candidate reads exactly one item from
    the stream. The streams compute their order lazily in top-k chunks
    (:func:`repro.core.similarity.descending_stream`), and Algorithm 2's
    initialisation peeks every cursor once, so reading ahead here would
    only add work for nodes that saturate early.
    """

    __slots__ = ("_stream", "current", "done")

    def __init__(self, stream: Iterator[tuple[int, float]]) -> None:
        self._stream = stream
        self.current: tuple[int, float] | None = None
        self.done = False

    def peek(self) -> tuple[int, float] | None:
        """Current candidate, reading the next one from the stream if none."""
        if self.done:
            return None
        if self.current is None:
            self.current = next(self._stream, None)
            if self.current is None:
                self.finish()  # releases the exhausted stream's state
        return self.current

    def skip(self) -> None:
        """Advance permanently past the current candidate."""
        self.current = None

    def finish(self) -> None:
        """Mark the stream exhausted and release its resources."""
        self.current = None
        self.done = True
        self._stream = iter(())


@register_solver("greedy")
class GreedyGEACC(Solver):
    """Algorithm 2 of the paper.

    Args:
        index_kind: Force index-backed neighbour streams of this
            :mod:`repro.index` kind; None auto-selects (similarity-matrix
            top-k streams for ordinary sizes, chunked index streams for
            scalability-scale attribute instances).
    """

    def __init__(self, index_kind: str | None = None) -> None:
        self._index_kind = index_kind

    def solve(self, instance: Instance, budget: "Budget | None" = None) -> Arrangement:
        orders = neighbor_orders_for(instance, self._index_kind, budget=budget)
        return self._run(instance, orders, budget)

    def solve_with_orders(
        self,
        instance: Instance,
        orders: NeighborOrders,
        budget: "Budget | None" = None,
    ) -> Arrangement:
        """Solve with a caller-provided neighbour-order provider.

        Prune-GEACC reuses this to share one provider between its greedy
        warm start and its own NN scans.
        """
        return self._run(instance, orders, budget)

    def _run(
        self,
        instance: Instance,
        orders: NeighborOrders,
        budget: "Budget | None" = None,
    ) -> Arrangement:
        arrangement = Arrangement(instance)
        heap = CandidatePairHeap()
        visited: set[tuple[int, int]] = set()
        event_cursors = [
            _Cursor(orders.event_stream(v)) for v in range(instance.n_events)
        ]
        user_cursors = [_Cursor(orders.user_stream(u)) for u in range(instance.n_users)]

        # Candidate generation itself may hold a zero-weight handle on the
        # budget (chunked matrix streams probe the deadline per chunk), so
        # every refill below can raise; any whole arrangement state is
        # feasible, making "return what we have" correct everywhere.
        try:
            # Initialisation (Algorithm 2, lines 1-9): each side's first NN.
            for v in range(instance.n_events):
                if instance.event_capacities[v] > 0:
                    self._refill_event(v, arrangement, heap, visited, event_cursors)
            for u in range(instance.n_users):
                if instance.user_capacities[u] > 0:
                    self._refill_user(u, arrangement, heap, visited, user_cursors)

            # Iteration (lines 11-23). Saturated nodes' cursors are closed
            # eagerly so their stream state (index scans, sorted columns) is
            # released -- at scalability sizes that is most of the footprint.
            # One checkpoint per pop; every intermediate arrangement is
            # feasible, so on exhaustion the current matching is the answer.
            while heap:
                if budget is not None:
                    budget.checkpoint()
                v, u, sim = heap.pop()
                visited.add((v, u))
                if sim > 0 and arrangement.can_add(v, u):
                    arrangement.add(v, u)
                if arrangement.event_remaining(v) > 0:
                    self._refill_event(v, arrangement, heap, visited, event_cursors)
                else:
                    event_cursors[v].finish()
                if arrangement.user_remaining(u) > 0:
                    self._refill_user(u, arrangement, heap, visited, user_cursors)
                else:
                    user_cursors[u].finish()
        except BudgetExceededError:
            return arrangement
        return arrangement

    def _refill_event(
        self,
        v: int,
        arrangement: Arrangement,
        heap: CandidatePairHeap,
        visited: set[tuple[int, int]],
        cursors: list[_Cursor],
    ) -> None:
        """Push {v, v's next feasible unvisited NN} into H if not present."""
        cursor = cursors[v]
        if cursor.done:
            return  # v is a finished node; don't touch heap or conflicts
        conflicts = arrangement.instance.conflicts
        while True:
            candidate = cursor.peek()
            if candidate is None:
                return  # v is a finished node
            u, sim = candidate
            if sim <= 0:
                cursor.finish()
                return
            if (v, u) in visited:
                cursor.skip()
                continue
            if arrangement.user_remaining(u) <= 0 or conflicts.conflicts_with_any(
                v, arrangement.events_of(u)
            ):
                # Infeasible now implies infeasible forever; skip for good.
                cursor.skip()
                continue
            # A pair ever pushed and no longer in H was popped, and every
            # popped pair is in `visited` -- so reaching here, push() only
            # dedups against pairs still sitting in H, which is exactly
            # the old contains() pre-check in one heap probe. Whether
            # pushed or already present, the frontier stays here until
            # the pair is popped.
            heap.push(v, u, sim)
            return

    def _refill_user(
        self,
        u: int,
        arrangement: Arrangement,
        heap: CandidatePairHeap,
        visited: set[tuple[int, int]],
        cursors: list[_Cursor],
    ) -> None:
        """Push {u's next feasible unvisited NN, u} into H if not present."""
        cursor = cursors[u]
        if cursor.done:
            return
        conflicts = arrangement.instance.conflicts
        matched: frozenset[int] | None = None
        while True:
            candidate = cursor.peek()
            if candidate is None:
                return
            v, sim = candidate
            if sim <= 0:
                cursor.finish()
                return
            if (v, u) in visited:
                cursor.skip()
                continue
            if matched is None:
                # Deferred past the peek: an exhausted stream never pays
                # for u's matched-event snapshot. The arrangement is
                # frozen for the duration of the call, so once is enough.
                matched = arrangement.events_of(u)
            if arrangement.event_remaining(v) <= 0 or conflicts.conflicts_with_any(
                v, matched
            ):
                cursor.skip()
                continue
            heap.push(v, u, sim)
            return
