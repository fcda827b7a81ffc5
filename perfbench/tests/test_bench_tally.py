"""Failure counting: refusals count against the attempts."""

from repro.exceptions import ServiceError, ServiceOverloadedError

from geaccbench.common import Tally
from geaccbench.stats import served_fraction


def test_overload_rejections_count_as_failures():
    tally = Tally()

    def refuse():
        raise ServiceOverloadedError("assignment queue full")

    assert tally.call(lambda: 3) == 3
    assert tally.call(refuse) is None
    assert tally.call(refuse) is None
    assert tally.call(lambda: None) is None
    assert (tally.attempted, tally.failed) == (4, 2)
    assert served_fraction(tally.attempted, tally.failed) == 0.5


def test_other_service_errors_count_and_programming_errors_propagate():
    tally = Tally()

    def fail():
        raise ServiceError("unknown user")

    tally.call(fail)
    assert (tally.attempted, tally.failed) == (1, 1)
    try:
        tally.call(lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("a bug in the benchmark must not be counted as a refusal")
