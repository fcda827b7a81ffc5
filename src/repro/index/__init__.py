"""Nearest-neighbour index substrate.

Greedy-GEACC and Prune-GEACC consume neighbours of each event/user in
non-increasing similarity order. The paper abstracts this as a k-NN oracle
with per-query cost ``sigma(S)`` and cites iDistance [7] and the VA-file
[8] as concrete indexes. Because the paper's similarity (Eq. 1) is a
monotone decreasing function of Euclidean distance, any ascending-distance
stream is a descending-similarity stream.

This subpackage implements the oracle five ways, all exposing the same
:class:`repro.index.base.NNIndex` interface with *incremental* streams:

* :class:`repro.index.linear.LinearScanIndex` -- exact argsort per query.
* :class:`repro.index.linear.ChunkedLinearScanIndex` -- the same order
  from :func:`repro.core.similarity.descending_stream`'s lazy top-k
  chunks; cheap when only a prefix of the stream is consumed (the common
  case inside Greedy-GEACC).
* :class:`repro.index.kdtree.KDTreeIndex` -- from-scratch kd-tree with
  best-first incremental traversal.
* :class:`repro.index.idistance.IDistanceIndex` -- the paper's cited
  iDistance scheme: reference-point partitions with sorted one-dimensional
  keys and an expanding search radius.
* :class:`repro.index.vafile.VAFileIndex` -- the paper's cited VA-File:
  quantised approximations filter candidates by distance bounds before
  exact distances are computed.

:class:`repro.index.pairheap.CandidatePairHeap` is the max-similarity heap
with membership tracking that Algorithm 2 maintains ("no pair is pushed
into H more than once").
"""

from repro.index.base import NNIndex
from repro.index.linear import ChunkedLinearScanIndex, LinearScanIndex
from repro.index.kdtree import KDTreeIndex
from repro.index.idistance import IDistanceIndex
from repro.index.vafile import VAFileIndex
from repro.index.pairheap import CandidatePairHeap

INDEX_CLASSES = {
    "linear": LinearScanIndex,
    "chunked": ChunkedLinearScanIndex,
    "kdtree": KDTreeIndex,
    "idistance": IDistanceIndex,
    "vafile": VAFileIndex,
}


def make_index(kind: str, points) -> NNIndex:
    """Build an index of the named kind over a 2-D point array.

    Args:
        kind: One of ``linear``, ``chunked``, ``kdtree``, ``idistance``,
            ``vafile``.
        points: Array of shape ``(n, d)``.
    """
    try:
        cls = INDEX_CLASSES[kind]
    except KeyError:
        known = ", ".join(sorted(INDEX_CLASSES))
        raise ValueError(f"unknown index kind {kind!r}; expected one of: {known}")
    return cls(points)


__all__ = [
    "NNIndex",
    "LinearScanIndex",
    "ChunkedLinearScanIndex",
    "KDTreeIndex",
    "IDistanceIndex",
    "VAFileIndex",
    "CandidatePairHeap",
    "INDEX_CLASSES",
    "make_index",
]
