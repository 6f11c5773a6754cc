"""Tests of the per-rank environment (compute, sleep, wait_until semantics)."""

import pytest

from repro.simulator import Cluster, NetworkParams
from repro.simulator.errors import RankFailedError


def test_now_tracks_virtual_time():
    def program(env):
        times = [env.now]
        yield from env.sleep(4.0)
        times.append(env.now)
        yield from env.sleep(0.0)
        times.append(env.now)
        return times

    assert Cluster(1).run(program).results[0] == [0.0, 4.0, 4.0]


def test_compute_scales_with_gamma():
    params = NetworkParams(alpha=1.0, beta=0.1, gamma=2.0)

    def program(env):
        yield from env.compute(7)
        return env.now

    assert Cluster(1, params).run(program).results[0] == pytest.approx(14.0)


def test_compute_zero_is_free_and_does_not_yield_time():
    def program(env):
        yield from env.compute(0)
        yield from env.compute_time(0.0)
        return env.now

    cluster = Cluster(1)
    assert cluster.run(program).results[0] == 0.0
    assert cluster.tracer.stats.compute_time == [0.0]


def test_compute_is_recorded_in_trace():
    def program(env):
        yield from env.compute(100)
        return None

    cluster = Cluster(2)
    cluster.run(program)
    recorded = cluster.tracer.stats.compute_time
    assert all(value > 0 for value in recorded)


@pytest.mark.parametrize("method", ["compute", "compute_time"])
@pytest.mark.parametrize("amount", [float("nan"), -1.0, -1e-300,
                                    float("inf"), float("-inf")])
def test_compute_rejects_non_finite_and_negative_amounts(method, amount):
    """A bad amount raises ValueError naming it, before the tracer adds it:
    the per-rank compute totals stay untouched (NaN used to leak into them
    because the ``cost > 0`` guard skipped ``Sleep``'s own check)."""

    def program(env):
        try:
            yield from getattr(env, method)(amount)
        except ValueError as exc:
            return str(exc)
        return None

    cluster = Cluster(2)
    messages = cluster.run(program).results
    assert all(message is not None and repr(amount) in message
               and "finite and non-negative" in message
               for message in messages)
    assert cluster.tracer.stats.compute_time == [0.0, 0.0]


def test_compute_rejection_fails_the_rank():
    def program(env):
        yield from env.compute(float("nan"))

    with pytest.raises(RankFailedError) as excinfo:
        Cluster(2).run(program)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert "nan" in str(excinfo.value.__cause__)


def test_wait_until_with_side_effecting_predicate():
    """The predicate is re-evaluated on every notification and may progress state."""

    def program(env):
        if env.rank == 0:
            for index in range(3):
                yield from env.sleep(10.0)
                env.transport.post_send(0, 1, tag=index, context="c", payload=index)
            return None

        seen = []

        def predicate():
            message = env.transport.any_arrived(1)
            if message is not None:
                env.transport.take_match(1, message.src, message.tag, message.context)
                seen.append(message.payload)
            return len(seen) == 3

        yield from env.wait_until(predicate)
        return seen

    assert Cluster(2).run(program).results[1] == [0, 1, 2]


def test_wait_until_true_predicate_returns_immediately():
    def program(env):
        yield from env.wait_until(lambda: True)
        return env.now

    assert Cluster(1).run(program).results[0] == 0.0


def test_wait_notify_low_level():
    def program(env):
        if env.rank == 0:
            yield from env.wait_notify()
            return env.now
        yield from env.sleep(25.0)
        env.transport.post_send(1, 0, tag=0, context="c", payload=None)
        return None

    params = NetworkParams(alpha=5.0, beta=0.0, gamma=0.0)
    assert Cluster(2, params).run(program).results[0] == pytest.approx(30.0)


def test_repr_contains_rank():
    def program(env):
        yield from env.sleep(0.0)
        return repr(env)

    assert "rank=1" in Cluster(2).run(program).results[1]
