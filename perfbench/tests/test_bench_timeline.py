"""Timeline moments: sorted by time, posts before arrivals before freezes."""

from types import SimpleNamespace

from geaccbench.common import ARRIVE, FREEZE, POST, timeline_moments


def test_moments_sort_by_time_then_kind():
    timeline = SimpleNamespace(
        post_times=[2.0, 0.0], arrival_times=[2.0, 1.0], start_times=[3.0, 2.0]
    )
    assert timeline_moments(timeline) == [
        (0.0, POST, 1),
        (1.0, ARRIVE, 1),
        (2.0, POST, 0),
        (2.0, ARRIVE, 0),
        (2.0, FREEZE, 1),
        (3.0, FREEZE, 0),
    ]
