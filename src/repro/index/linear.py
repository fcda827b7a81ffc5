"""Linear-scan nearest-neighbour indexes.

Two variants: a full argsort per query (simplest possible exact oracle,
used as ground truth in tests) and a chunked variant that materialises the
sorted order lazily in top-k chunks. Greedy-GEACC usually
consumes only a short prefix of each node's neighbour stream before the
node saturates, so the chunked variant avoids the O(n log n) full sort in
the common case.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.similarity import descending_stream
from repro.index.base import NNIndex


def _distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class LinearScanIndex(NNIndex):
    """Exact brute-force index: one vectorised distance pass + argsort."""

    def stream(self, query: np.ndarray) -> Iterator[tuple[int, float]]:
        query = self._validate_query(query)
        dists = _distances(self._points, query)
        order = np.argsort(dists, kind="stable")
        for idx in order:
            yield int(idx), float(dists[idx])


class ChunkedLinearScanIndex(NNIndex):
    """Brute-force index that defers the full sort until actually needed.

    Distances are computed once per query and streamed through
    :func:`repro.core.similarity.descending_stream` over their negation:
    geometrically growing top-k chunks, the first a single argmin. Most
    Greedy-GEACC streams are consumed only a few entries deep, so they
    never pay for the O(n log n) sort. The sequence equals
    :class:`LinearScanIndex`'s item for item, ties included.
    """

    def stream(self, query: np.ndarray) -> Iterator[tuple[int, float]]:
        query = self._validate_query(query)
        for idx, neg in descending_stream(-_distances(self._points, query)):
            yield idx, -neg
