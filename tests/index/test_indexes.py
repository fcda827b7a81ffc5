"""Tests common to all nearest-neighbour indexes, plus per-kind cases."""

import numpy as np
import pytest

from repro.exceptions import EmptyIndexError
from repro.index import INDEX_CLASSES, make_index
from repro.index.kdtree import KDTreeIndex
from repro.index.linear import ChunkedLinearScanIndex, LinearScanIndex

ALL_KINDS = sorted(INDEX_CLASSES)


def brute_force_order(points, query):
    dists = np.linalg.norm(points - query, axis=1)
    return dists[np.argsort(dists, kind="stable")]


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestAllIndexes:
    def test_stream_is_ascending_and_complete(self, kind):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 100, (60, 5))
        query = rng.uniform(0, 100, 5)
        index = make_index(kind, points)
        stream = list(index.stream(query))
        assert len(stream) == 60
        assert {i for i, _ in stream} == set(range(60))
        dists = [d for _, d in stream]
        assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))
        np.testing.assert_allclose(
            sorted(dists), brute_force_order(points, query), atol=1e-9
        )

    def test_reported_distances_are_true_distances(self, kind):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 10, (25, 3))
        query = rng.uniform(0, 10, 3)
        index = make_index(kind, points)
        for idx, dist in index.stream(query):
            assert dist == pytest.approx(np.linalg.norm(points[idx] - query))

    def test_query_top_k(self, kind):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, (30, 4))
        query = points[7]  # exact duplicate of an indexed point
        index = make_index(kind, points)
        top = index.query(query, k=3)
        assert len(top) == 3
        assert top[0][1] == pytest.approx(0.0)

    def test_query_k_larger_than_index(self, kind):
        points = np.zeros((2, 2))
        index = make_index(kind, points)
        assert len(index.query(np.zeros(2), k=10)) == 2

    def test_empty_index_query_raises(self, kind):
        index = make_index(kind, np.zeros((0, 3)))
        with pytest.raises(EmptyIndexError):
            index.query(np.zeros(3))

    def test_empty_index_stream_is_empty(self, kind):
        index = make_index(kind, np.zeros((0, 3)))
        assert list(index.stream(np.zeros(3))) == []

    def test_duplicate_points_all_returned(self, kind):
        points = np.ones((10, 2))
        index = make_index(kind, points)
        stream = list(index.stream(np.zeros(2)))
        assert len(stream) == 10
        assert all(d == pytest.approx(np.sqrt(2)) for _, d in stream)

    def test_dimension_mismatch(self, kind):
        index = make_index(kind, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="dimension"):
            next(iter(index.stream(np.zeros(2))))

    def test_invalid_k(self, kind):
        index = make_index(kind, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            index.query(np.zeros(2), k=0)

    def test_single_point(self, kind):
        index = make_index(kind, np.array([[1.0, 2.0]]))
        assert list(index.stream(np.array([1.0, 2.0]))) == [(0, 0.0)]


def test_make_index_unknown_kind():
    with pytest.raises(ValueError, match="unknown index kind"):
        make_index("lsh", np.zeros((1, 1)))


def test_points_must_be_2d():
    with pytest.raises(ValueError, match="2-D"):
        LinearScanIndex(np.zeros(5))


def test_chunked_equals_linear_under_ties():
    # Integer-grid points and queries put many points at equal distance;
    # the chunked stream must still match the stable-argsort oracle item
    # for item, indices and distances alike.
    rng = np.random.default_rng(4)
    points = rng.integers(0, 4, (300, 2)).astype(np.float64)
    linear = LinearScanIndex(points)
    chunked = ChunkedLinearScanIndex(points)
    for query in rng.integers(0, 4, (20, 2)).astype(np.float64):
        assert list(chunked.stream(query)) == list(linear.stream(query))


def test_kdtree_invalid_leaf_size():
    with pytest.raises(ValueError):
        KDTreeIndex(np.zeros((2, 2)), leaf_size=0)


def test_kdtree_handles_degenerate_axis():
    """All points share one coordinate; splits must still terminate."""
    rng = np.random.default_rng(5)
    points = np.column_stack([np.zeros(50), rng.uniform(0, 1, 50)])
    index = KDTreeIndex(points, leaf_size=4)
    stream = list(index.stream(np.array([0.0, 0.5])))
    assert len(stream) == 50


def test_kdtree_many_duplicates_at_median():
    points = np.array([[0.0, 0.0]] * 20 + [[1.0, 1.0]] * 20)
    index = KDTreeIndex(points, leaf_size=2)
    stream = list(index.stream(np.array([0.1, 0.1])))
    assert len(stream) == 40
    assert stream[0][0] < 20  # a (0,0) point comes first


def test_idistance_partitions_cover_all_points():
    from repro.index.idistance import IDistanceIndex

    rng = np.random.default_rng(6)
    points = rng.normal(size=(200, 4))
    index = IDistanceIndex(points, n_refs=5, seed=1)
    total = sum(p.keys.shape[0] for p in index._partitions)
    assert total == 200


def test_idistance_more_refs_than_points():
    from repro.index.idistance import IDistanceIndex

    points = np.random.default_rng(7).uniform(0, 1, (3, 2))
    index = IDistanceIndex(points, n_refs=10)
    assert len(list(index.stream(np.zeros(2)))) == 3


class TestVAFile:
    def test_invalid_bits(self):
        from repro.index.vafile import VAFileIndex

        with pytest.raises(ValueError):
            VAFileIndex(np.zeros((2, 2)), bits=0)
        with pytest.raises(ValueError):
            VAFileIndex(np.zeros((2, 2)), bits=20)

    def test_selectivity_in_unit_interval_and_filters(self):
        from repro.index.vafile import VAFileIndex

        rng = np.random.default_rng(11)
        points = rng.uniform(0, 100, (500, 4))
        index = VAFileIndex(points, bits=6)
        selectivity = index.selectivity(rng.uniform(0, 100, 4), k=5)
        assert 0 < selectivity <= 1
        # With 6 bits on uniform data, most points are filtered out.
        assert selectivity < 0.5

    def test_more_bits_never_less_selective(self):
        from repro.index.vafile import VAFileIndex

        rng = np.random.default_rng(12)
        points = rng.uniform(0, 1, (300, 3))
        query = rng.uniform(0, 1, 3)
        coarse = VAFileIndex(points, bits=2).selectivity(query, k=3)
        fine = VAFileIndex(points, bits=8).selectivity(query, k=3)
        assert fine <= coarse + 1e-12

    def test_selectivity_empty_index(self):
        from repro.index.vafile import VAFileIndex

        index = VAFileIndex(np.zeros((0, 3)))
        assert index.selectivity(np.zeros(3)) == 0.0

    def test_bounds_sandwich_true_distances(self):
        from repro.index.vafile import VAFileIndex

        rng = np.random.default_rng(13)
        points = rng.normal(size=(100, 5))
        index = VAFileIndex(points, bits=3)
        query = rng.normal(size=5)
        lower_sq, upper_sq = index._bounds(query)
        true_sq = ((points - query) ** 2).sum(axis=1)
        assert np.all(lower_sq <= true_sq + 1e-9)
        assert np.all(true_sq <= upper_sq + 1e-9)
