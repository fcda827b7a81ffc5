"""Property: the engine's open-remainder instance is built bit-exactly.

:func:`repro.service.engine.open_remainder` builds the instance every
micro-batch re-solves from stacked similarity rows and a conflict x
frozen-seat product. It must equal, bit for bit, the per-(event, user)
scalar construction kept below as the reference: the same similarity
floats, both capacity vectors, and the same conflict pairs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import Instance
from repro.service.engine import open_remainder
from repro.service.store import ArrangementStore, Delta, StoreConfig

OPS = ("post", "register", "assign", "freeze", "cancel")

#: Attribute values on the grid corners and centre, so some pairs sit at
#: the maximum distance and score a similarity of exactly zero.
VALUES = (0.0, 5.0, 10.0)


def scalar_remainder(store: ArrangementStore) -> Instance:
    """The reference: one Python step per (open event, user) pair."""
    open_events = store.open_events()
    n_events, n_users = store.n_events, store.n_users
    sims = np.zeros((n_events, n_users))
    frozen_of_user = [
        frozenset(e for e in store.events_of(u) if not store.is_open(e))
        for u in range(n_users)
    ]
    for event in open_events:
        row = store.sim_row(event)
        for user in range(n_users):
            if row[user] <= 0:
                continue
            if store.conflicts_with_any(event, frozen_of_user[user]):
                continue
            sims[event, user] = row[user]
    event_capacities = np.zeros(n_events, dtype=np.int64)
    for event in open_events:
        event_capacities[event] = store.event_capacity(event)
    user_capacities = np.asarray(
        [store.user_capacity(u) - len(frozen_of_user[u]) for u in range(n_users)],
        dtype=np.int64,
    )
    conflicts = store.snapshot_instance().conflicts
    return Instance(event_capacities, user_capacities, conflicts, sims=sims)


def apply(store: ArrangementStore, cmd: str, **args: object) -> None:
    store.apply({"seq": store.seq + 1, "cmd": cmd, **args})


def build_store(metric: str, ops: list[str], seed: int) -> ArrangementStore:
    """A store after ``ops``, with a user first and an open event last.

    The engine builds a remainder only when there is something to solve:
    at least one user and one open event.
    """
    rng = np.random.default_rng(seed)
    store = ArrangementStore(StoreConfig(dimension=2, t=10.0, metric=metric))
    for op in ["register", *ops, "post"]:
        if op == "post":
            apply(
                store,
                "post_event",
                capacity=int(rng.integers(0, 4)),
                attributes=[float(rng.choice(VALUES)) for _ in range(2)],
                conflicts=[e for e in range(store.n_events) if rng.random() < 0.4],
            )
        elif op == "register":
            apply(
                store,
                "register_user",
                capacity=int(rng.integers(0, 3)),
                attributes=[float(rng.choice(VALUES)) for _ in range(2)],
            )
        elif op == "assign":
            feasible = [
                (e, u)
                for e in range(store.n_events)
                for u in range(store.n_users)
                if store.can_assign(e, u)
            ]
            if feasible:
                pair = feasible[int(rng.integers(0, len(feasible)))]
                store.apply_delta(Delta(assigns=(pair,)))
        elif store.open_events():
            candidates = store.open_events()
            event = candidates[int(rng.integers(0, len(candidates)))]
            cmd = "freeze_event" if op == "freeze" else "cancel_event"
            apply(store, cmd, event=event)
    return store


def assert_bit_identical(built: Instance, expected: Instance) -> None:
    assert built.sims.dtype == expected.sims.dtype
    assert built.sims.shape == expected.sims.shape
    assert built.sims.tobytes() == expected.sims.tobytes()
    for mine, theirs in (
        (built.event_capacities, expected.event_capacities),
        (built.user_capacities, expected.user_capacities),
    ):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)
    assert built.conflicts.pairs == expected.conflicts.pairs


@settings(max_examples=60, deadline=None)
@given(
    metric=st.sampled_from(("euclidean", "cosine")),
    ops=st.lists(st.sampled_from(OPS), max_size=40),
    seed=st.integers(0, 2**16),
)
def test_open_remainder_matches_the_scalar_construction(
    metric: str, ops: list[str], seed: int
) -> None:
    store = build_store(metric, ops, seed)
    assert_bit_identical(open_remainder(store), scalar_remainder(store))


def test_a_frozen_seat_blocks_later_conflicting_events() -> None:
    # User 0 holds a seat on event 0, which freezes; event 1 is posted
    # afterwards in conflict with it, so the pair (1, 0) must drop out of
    # the remainder and user 0 keeps one seat of capacity fewer.
    store = ArrangementStore(StoreConfig(dimension=2, t=10.0))
    apply(store, "post_event", capacity=2, attributes=[1.0, 1.0], conflicts=[])
    apply(store, "register_user", capacity=2, attributes=[1.0, 2.0])
    apply(store, "register_user", capacity=1, attributes=[2.0, 1.0])
    store.apply_delta(Delta(assigns=((0, 0),)))
    apply(store, "freeze_event", event=0)
    apply(store, "post_event", capacity=2, attributes=[1.0, 1.5], conflicts=[0])
    built = open_remainder(store)
    assert_bit_identical(built, scalar_remainder(store))
    assert built.sims[1, 0] == 0.0 and built.sims[1, 1] > 0.0
    assert list(built.user_capacities) == [1, 1]
    assert list(built.event_capacities) == [0, 2]
