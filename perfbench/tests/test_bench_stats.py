"""Self-tests for the benchmark's statistics helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import pytest

from geaccbench.layers import queue_waits_ms
from geaccbench.stats import nearest_rank, samples_beyond, served_fraction, tail_percentile


def test_tail_is_p99_with_exactly_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(values) == (99.0, 990)


def test_tail_drops_to_the_highest_percentile_the_sample_supports():
    assert tail_percentile(list(range(500)))[0] == 95.0
    assert tail_percentile(list(range(20)))[0] == 50.0
    # 1010 samples: p99 leaves 10 beyond it, p99.5 only 5.
    assert tail_percentile(list(range(1010)))[0] == 99.0


def test_tail_falls_back_to_the_maximum_below_eleven_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_nearest_rank_and_empty_input():
    assert nearest_rank([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        tail_percentile([])


def test_queue_wait_is_charged_to_the_first_batch_starting_after_submission():
    # Batches start at 1.0 and 2.0 s; requests at 0.5, 1.5 and 2.5 s.
    waits = queue_waits_ms([0.5, 1.5, 2.5], [2.0, 1.0])
    assert waits == pytest.approx([500.0, 500.0])


def test_served_fraction_needs_attempts():
    assert served_fraction(4, 1) == 0.75
    with pytest.raises(ValueError):
        served_fraction(0, 0)
