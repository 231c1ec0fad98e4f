import asyncio
import types

import pytest

from perfbench.tracer import Tracer, covered_length, self_time


def span(start, end, parent=-1):
    return ("x", start, end, parent, None)


def test_self_time_without_children_is_the_duration():
    assert self_time(span(1.0, 4.0), []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    children = [span(1.5, 2.0), span(3.0, 3.5)]
    assert self_time(span(1.0, 4.0), children) == pytest.approx(2.0)


def test_overlapping_children_are_counted_once():
    # [1.5, 2.5] and [2.0, 3.0] overlap on [2.0, 2.5]: covered 1.5 s.
    children = [span(2.0, 3.0), span(1.5, 2.5)]
    assert self_time(span(1.0, 4.0), children) == pytest.approx(1.5)


def test_nested_and_identical_children():
    children = [span(1.0, 3.0), span(1.5, 2.0), span(1.0, 3.0)]
    assert self_time(span(1.0, 4.0), children) == pytest.approx(1.0)


def test_children_are_clipped_to_the_parent():
    children = [span(0.0, 1.5), span(3.5, 9.0)]
    assert self_time(span(1.0, 4.0), children) == pytest.approx(2.0)
    assert covered_length([(5.0, 6.0)], 1.0, 4.0) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Engine:
    def __init__(self, clock):
        self.clock = clock

    def tick(self):
        self.clock.now += 1.0
        self.query()
        self.clock.now += 1.0

    def query(self):
        self.clock.now += 3.0
        return "rows"


def test_wrapping_an_instance_records_parents_and_self_time():
    clock = FakeClock()
    engine = Engine(clock)
    tracer = Tracer(clock=clock)
    assert tracer.wrap(engine, "tick", "tick")
    assert tracer.wrap(engine, "query", "query")
    engine.tick()
    assert [s[0] for s in tracer.spans] == ["tick", "query"]
    assert tracer.spans[1][3] == 0  # query's parent is the tick span
    assert tracer.durations("tick") == [5.0]
    assert tracer.self_times("tick") == [2.0]
    tracer.restore()
    assert "tick" not in vars(engine) and "query" not in vars(engine)
    engine.tick()
    assert len(tracer.spans) == 2


def test_wrapping_a_module_attribute_and_restoring_it():
    module = types.SimpleNamespace(encode=lambda reply: f"<{reply}>")
    original = module.encode
    tracer = Tracer()
    tracer.wrap(module, "encode", "encode", rid_of=lambda a, k: a[0])
    assert module.encode("r7") == "<r7>"
    assert tracer.spans[0][4] == "r7"
    tracer.restore()
    assert module.encode is original


def test_a_callable_that_is_gone_is_reported_not_raised():
    tracer = Tracer()
    assert not tracer.wrap(object(), "round_prefetch_views", "api.view")
    assert tracer.missing == ["api.view"]


def test_only_public_callables_are_wrapped():
    with pytest.raises(ValueError):
        Tracer().wrap(Engine(FakeClock()), "_private", "x")


def test_async_callables_get_spans_and_request_ids():
    class Rounds:
        async def submit(self, request):
            await asyncio.sleep(0)
            return request[1]

    rounds = Rounds()
    tracer = Tracer()
    tracer.wrap(rounds, "submit", "submit", rid_of=lambda a, k: a[0][0])

    async def main():
        return await asyncio.gather(
            rounds.submit(("b1", 1)), rounds.submit(("b2", 2))
        )

    assert asyncio.run(main()) == [1, 2]
    assert sorted(s[4] for s in tracer.spans) == ["b1", "b2"]
    assert all(s[3] == -1 and s[2] >= s[1] for s in tracer.spans)
