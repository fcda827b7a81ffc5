"""Open-loop timing: latency runs from the due time, so stalls are charged."""

from geaccbench.openloop import drive, latency_from_due


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_a_stall_is_charged_to_every_request_due_during_it():
    clock = FakeClock()
    schedule = [(0.1 * i, i) for i in range(6)]
    resolved: dict[int, tuple[float, float]] = {}

    def fire(due: float, item: int) -> None:
        if item == 1:
            clock.now += 0.35  # the service blocks the sender for 350 ms
        clock.now += 0.01  # each request then takes 10 ms to resolve
        resolved[item] = (due, clock.now)

    origin, lateness = drive(schedule, fire, clock=clock, sleep=clock.sleep)

    latencies = {i: latency_from_due(*resolved[i]) for i in resolved}
    assert origin == 100.0
    # Request 1 pays the stall itself; 2, 3 and 4 were due during it and
    # are charged what is left of it, though each took 10 ms once sent.
    assert round(latencies[0], 6) == 0.01
    assert round(latencies[1], 6) == 0.36
    assert round(latencies[2], 6) == 0.27
    assert round(latencies[3], 6) == 0.18
    assert round(latencies[4], 6) == 0.09
    assert round(latencies[5], 6) == 0.01
    # The generator itself ran late for exactly those requests.
    assert [round(x, 6) for x in lateness] == [0.0, 0.0, 0.26, 0.17, 0.08, 0.0]


def test_an_idle_generator_sleeps_until_each_due_time():
    clock = FakeClock()
    fired = []
    drive([(0.5, "a"), (2.0, "b")], lambda due, item: fired.append((due, clock.now)),
          clock=clock, sleep=clock.sleep)
    assert fired == [(100.5, 100.5), (102.0, 102.0)]
