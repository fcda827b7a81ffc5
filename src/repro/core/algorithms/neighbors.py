"""Neighbour-order providers for Greedy-GEACC and Prune-GEACC.

Both algorithms consume, per event and per user, the counterpart side in
non-increasing similarity order ("find its next feasible unvisited NN").
The paper abstracts this as a k-NN oracle with per-query cost sigma(S) and
names iDistance / VA-file as candidate indexes.

Two providers implement the oracle:

* :class:`MatrixNeighborOrders` -- chunked vectorised top-k over
  rows/columns of the materialised similarity matrix
  (:func:`repro.core.similarity.descending_stream`). Exact and fastest
  at benchmark scales.
* :class:`IndexNeighborOrders` -- wraps a :mod:`repro.index` structure
  over the raw attribute vectors and converts ascending-distance streams
  to descending-similarity streams via the monotone Eq. (1) map. Never
  materialises the |V| x |U| matrix, which is what makes the Fig. 5
  scalability runs possible.

:func:`neighbor_orders_for` picks a sensible default for an instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from typing import TYPE_CHECKING

from repro.core.model import Instance
from repro.core.similarity import descending_stream
from repro.index import make_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.budget import Budget

# Above this many cells, prefer index streams over materialising the matrix.
_MATRIX_CELL_LIMIT = 20_000_000


class NeighborOrders(ABC):
    """Produces per-node descending-similarity neighbour streams."""

    @abstractmethod
    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        """Yield ``(user, sim)`` for one event, sim non-increasing."""

    @abstractmethod
    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        """Yield ``(event, sim)`` for one user, sim non-increasing."""


class MatrixNeighborOrders(NeighborOrders):
    """Chunked top-k provider over the instance's similarity matrix.

    Streams are produced by :func:`descending_stream`: identical order
    to a stable argsort of the row/column (value desc, index asc under
    ties) but computed as vectorised top-k blocks, so Greedy-GEACC's
    candidate generation scores whole user chunks per event instead of
    walking a fully sorted permutation it mostly never consumes.

    Args:
        budget: Optional solver budget threaded into chunk computation
            (zero-weight deadline probes; node accounting is untouched).
    """

    def __init__(self, instance: Instance, budget: "Budget | None" = None) -> None:
        self._sims = instance.sims
        self._budget = budget

    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        return descending_stream(self._sims[event], self._budget)

    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        return descending_stream(self._sims[:, user], self._budget)


class IndexNeighborOrders(NeighborOrders):
    """Index-backed provider over attribute vectors (matrix-free).

    The *user* side of an instance is typically two to three orders of
    magnitude larger than the event side, so the two stream directions
    get different machinery: event streams (over the big user set) come
    from a lazy :mod:`repro.index` structure, while user streams (over
    the small event set) materialise one similarity column, on first
    pull, and feed it to :func:`descending_stream` -- O(|V|) memory per
    live stream. Both remain matrix-free.

    Args:
        instance: Must be attribute-backed with the Euclidean metric --
            the distance-to-similarity conversion relies on Eq. (1)'s
            monotonicity.
        index_kind: A :mod:`repro.index` kind name (for event streams).
    """

    def __init__(self, instance: Instance, index_kind: str = "chunked") -> None:
        if instance.event_attributes is None or instance.user_attributes is None:
            raise ValueError("IndexNeighborOrders requires attribute-backed instances")
        if instance.metric != "euclidean":
            raise ValueError(
                "index-backed neighbour streams require the Euclidean metric, "
                f"instance uses {instance.metric!r}"
            )
        self._instance = instance
        d = instance.event_attributes.shape[1]
        self._max_dist = float(np.sqrt(d) * instance.t)
        self._user_index = make_index(index_kind, instance.user_attributes)
        self._event_attrs = instance.event_attributes

    def _to_sim(self, dist: float) -> float:
        return max(0.0, min(1.0, 1.0 - dist / self._max_dist))

    def event_stream(self, event: int) -> Iterator[tuple[int, float]]:
        for user, dist in self._user_index.stream(self._event_attrs[event]):
            yield user, self._to_sim(dist)

    def user_stream(self, user: int) -> Iterator[tuple[int, float]]:
        yield from descending_stream(self._instance.sim_col(user))


def neighbor_orders_for(
    instance: Instance,
    index_kind: str | None = None,
    budget: "Budget | None" = None,
) -> NeighborOrders:
    """Choose a provider for ``instance``.

    Args:
        index_kind: Force an index-backed provider of this kind; None
            picks the matrix provider unless the matrix would be huge and
            the instance is attribute-backed.
        budget: Optional solver budget threaded into the matrix
            provider's chunked candidate generation.
    """
    if index_kind is not None:
        return IndexNeighborOrders(instance, index_kind)
    cells = instance.n_events * instance.n_users
    attribute_backed = (
        instance.event_attributes is not None
        and instance.user_attributes is not None
        and instance.metric == "euclidean"
    )
    if attribute_backed and not instance.has_matrix and cells > _MATRIX_CELL_LIMIT:
        return IndexNeighborOrders(instance, "chunked")
    return MatrixNeighborOrders(instance, budget)
