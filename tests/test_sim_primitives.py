"""Unit tests for Resource / Barrier."""

import pytest

from repro.sim import Barrier, Environment, Resource
from repro.sim.kernel import SimulationError


def test_resource_serializes_capacity_one():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(name, hold):
        req = yield res.request()
        log.append(("start", name, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("end", name, env.now))

    env.process(worker("a", 2.0))
    env.process(worker("b", 3.0))
    env.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 5.0),
    ]


def test_resource_parallel_within_capacity():
    env = Environment()
    res = Resource(env, capacity=3)
    starts = []

    def worker(i):
        req = yield res.request()
        starts.append((i, env.now))
        yield env.timeout(1.0)
        res.release(req)

    for i in range(6):
        env.process(worker(i))
    env.run()
    assert [t for _, t in starts] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_resource_fifo_no_small_request_overtaking():
    env = Environment()
    res = Resource(env, capacity=4)
    order = []

    def worker(name, amount, delay):
        yield env.timeout(delay)
        req = yield res.request(amount)
        order.append(name)
        yield env.timeout(10.0)
        res.release(req)

    env.process(worker("big_first", 3, 0.0))
    env.process(worker("bigger_blocked", 4, 0.1))   # must wait for big_first
    env.process(worker("small_later", 1, 0.2))      # fits now, but FIFO says no
    env.run()
    assert order == ["big_first", "bigger_blocked", "small_later"]


def test_resource_request_validation():
    env = Environment()
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.request(0)
    with pytest.raises(ValueError):
        res.request(3)
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_unknown_request_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req.value)
    with pytest.raises(SimulationError):
        res.release(req.value)


def test_mutex_context_manager_style():
    env = Environment()
    lock = Resource(env, capacity=1)
    inside = []

    def proc(i):
        req = yield lock.request()
        with req:
            inside.append((i, "in", env.now))
            yield env.timeout(1.0)
        inside.append((i, "out", env.now))

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    assert inside == [(0, "in", 0.0), (0, "out", 1.0), (1, "in", 1.0), (1, "out", 2.0)]


def test_barrier_releases_all_at_once_and_reuses():
    env = Environment()
    bar = Barrier(env, parties=3)
    releases = []

    def party(i, delay):
        yield env.timeout(delay)
        gen = yield bar.wait()
        releases.append((i, env.now, gen))
        yield env.timeout(1.0)
        gen = yield bar.wait()
        releases.append((i, env.now, gen))

    env.process(party(0, 1.0))
    env.process(party(1, 2.0))
    env.process(party(2, 3.0))
    env.run()
    first = [r for r in releases if r[2] == 0]
    second = [r for r in releases if r[2] == 1]
    assert all(t == 3.0 for _, t, _ in first)
    assert all(t == 4.0 for _, t, _ in second)
    assert len(first) == len(second) == 3


def test_barrier_callback_runs_once_per_generation():
    env = Environment()
    fired = []
    bar = Barrier(env, parties=2, on_release=fired.append)

    def party():
        yield bar.wait()

    env.process(party())
    env.process(party())
    env.run()
    assert fired == [0]
