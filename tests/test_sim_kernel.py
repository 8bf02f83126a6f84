"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Environment, Event, SimulationError
from repro.sim.kernel import AllOf


def test_timeout_ordering_and_values():
    env = Environment()
    log = []

    def proc(name, delay):
        got = yield env.timeout(delay, value=delay * 10)
        log.append((env.now, name, got))

    env.process(proc("a", 3.0))
    env.process(proc("b", 1.0))
    env.process(proc("c", 2.0))
    env.run()
    assert log == [(1.0, "b", 10.0), (2.0, "c", 20.0), (3.0, "a", 30.0)]


def test_tie_break_is_fifo_deterministic():
    env = Environment()
    order = []

    def proc(i):
        yield env.timeout(5.0)
        order.append(i)

    for i in range(10):
        env.process(proc(i))
    env.run()
    assert order == list(range(10))


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    p = env.process(parent())
    assert env.run(p) == 43
    assert env.now == 2.0


def test_waiting_on_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    env.run()  # processes ev
    results = []

    def proc():
        got = yield ev
        results.append((env.now, got))

    env.process(proc())
    env.run()
    assert results == [(0.0, "x")]


def test_failed_event_raises_in_process():
    env = Environment()

    def proc():
        ev = env.event()
        ev.fail(ValueError("boom"))
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(proc())
    assert env.run(p) == "caught boom"


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc():
        evs = [env.timeout(3.0, "a"), env.timeout(1.0, "b"), env.timeout(2.0, "c")]
        values = yield env.all_of(evs)
        return values

    p = env.process(proc())
    assert env.run(p) == ["a", "b", "c"]
    assert env.now == 3.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        values = yield AllOf(env, [])
        return values

    p = env.process(proc())
    assert env.run(p) == []
    assert env.now == 0.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.process(iter_timeouts(env))
    env.run(until=2.5)
    assert env.now == 2.5


def iter_timeouts(env):
    for _ in range(10):
        yield env.timeout(1.0)


def test_run_until_past_deadline_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 3

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Events"):
        env.run()


def test_deadlock_detection_when_awaiting_event():
    env = Environment()

    def stuck():
        yield env.event()  # never triggered

    p = env.process(stuck())
    with pytest.raises(SimulationError, match="dry"):
        env.run(p)
