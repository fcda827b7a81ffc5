"""Span records and self-time arithmetic."""

import threading

import pytest

from geaccbench.tracing import Span, Tracer, covered_length, self_time


def _span(start, end, span_id=1, parent=None):
    return Span(span_id, "s", start, end, parent, None, "t")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 3.0), _span(2.0, 4.0), _span(8.0, 12.0)]
    # Covered: [1, 4] (overlap counted once) and [8, 10] (clipped).
    assert covered_length((0.0, 10.0), [(c.start, c.end) for c in children]) == 5.0
    assert self_time(parent, children) == 5.0


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(2.0, 7.5), []) == 5.5
    assert self_time(_span(0.0, 1.0), [_span(1.0, 2.0)]) == 1.0


def test_spans_carry_parent_and_inherited_request_id():
    tracer = Tracer()
    with tracer.span("engine.batch", request=7):
        with tracer.span("ladder.solve"):
            pass
        with tracer.span("journal.append", request=9):
            pass
    by_name = {s.name: s for s in tracer.spans}
    batch, solve, append = by_name["engine.batch"], by_name["ladder.solve"], by_name["journal.append"]
    assert batch.parent is None and batch.request == 7
    assert solve.parent == batch.id and solve.request == 7
    assert append.parent == batch.id and append.request == 9
    assert batch.start <= solve.start <= solve.end <= append.start <= append.end <= batch.end
    children = tracer.children_of()[batch.id]
    assert tracer.self_times_ms("engine.batch") == pytest.approx(
        [1000.0 * self_time(batch, children)]
    )
    assert tracer.self_times_ms("engine.batch", subtract=("ladder.solve",)) == pytest.approx(
        [1000.0 * self_time(batch, [solve])]
    )


def test_parents_do_not_leak_across_threads():
    tracer = Tracer()
    ready = threading.Event()

    def other():
        with tracer.span("state.read"):
            ready.set()

    with tracer.span("frontend.command", request=1):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive() and ready.is_set()
    read = tracer.named("state.read")[0]
    assert read.parent is None and read.request is None
