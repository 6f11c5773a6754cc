"""Point-to-point communication and probing on simulated MPI communicators."""

import re

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, PROC_NULL, init_mpi
from repro.mpi.request import test_all as request_test_all
from repro.mpi.request import wait_all, wait_any
from repro.simulator import Cluster


def test_blocking_send_recv_ring(run_ranks):
    def program(env):
        world = init_mpi(env)
        right = (world.rank + 1) % world.size
        left = (world.rank - 1) % world.size
        request = world.isend(np.array([world.rank]), right, tag=3)
        data = yield from world.recv(left, tag=3)
        yield from request.wait()
        return int(data[0])

    assert run_ranks(6, program) == [5, 0, 1, 2, 3, 4]


def test_recv_returns_status_when_asked(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            yield from world.send(np.zeros(11), 1, tag=42)
            return None
        if world.rank == 1:
            data, status = yield from world.recv(0, 42, return_status=True)
            return (status.source, status.tag, status.count, data.size)
        yield from env.sleep(0.0)

    results = run_ranks(3, program)
    assert results[1] == (0, 42, 11, 11)


def test_any_source_and_any_tag(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            received = []
            for _ in range(2):
                data, status = yield from world.recv(ANY_SOURCE, ANY_TAG,
                                                     return_status=True)
                received.append((status.source, data))
            return sorted(received)
        yield from world.send(f"from-{world.rank}", 0, tag=world.rank)

    results = run_ranks(3, program)
    assert results[0] == [(1, "from-1"), (2, "from-2")]


def test_proc_null_operations_complete_immediately(run_ranks):
    def program(env):
        world = init_mpi(env)
        send_request = world.isend("ignored", PROC_NULL)
        recv_request = world.irecv(PROC_NULL)
        assert send_request.test() and recv_request.test()
        data = yield from world.recv(PROC_NULL)
        assert data is None
        return True

    assert all(run_ranks(2, program))


def test_iprobe_and_probe(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            flag, status = world.iprobe(1, 5)
            assert not flag and status is None
            status = yield from world.probe(ANY_SOURCE, 5)
            assert status.source == 1 and status.count == 4
            # Probe does not consume: the receive still matches.
            data = yield from world.recv(1, 5)
            return data.size
        if world.rank == 1:
            yield from env.sleep(20.0)
            yield from world.send(np.zeros(4), 0, tag=5)
        return None

    assert run_ranks(2, program)[0] == 4


def test_messages_from_same_sender_arrive_in_order(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            for index in range(10):
                world.isend(index, 1, tag=9)
            yield from env.sleep(0.0)
            return None
        values = []
        for _ in range(10):
            value = yield from world.recv(0, 9)
            values.append(value)
        return values

    assert run_ranks(2, program)[1] == list(range(10))


def test_sendrecv_exchanges_simultaneously(run_ranks):
    def program(env):
        world = init_mpi(env)
        partner = world.size - 1 - world.rank
        received = yield from world.sendrecv(world.rank * 11, partner,
                                             partner, sendtag=1, recvtag=1)
        return received

    assert run_ranks(4, program) == [33, 22, 11, 0]


def test_payload_is_copied_on_send(run_ranks):
    """Mutating the send buffer after isend must not corrupt the message."""

    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            buffer = np.ones(4)
            world.isend(buffer, 1, tag=0)
            buffer[:] = -1  # mutate after the nonblocking send
            yield from env.sleep(50.0)
            return None
        data = yield from world.recv(0, 0)
        return float(data.sum())

    assert run_ranks(2, program)[1] == pytest.approx(4.0)


def test_wait_all_and_wait_any_helpers(run_ranks):
    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            requests = [world.irecv(source, tag=1) for source in (1, 2, 3)]
            index = yield from wait_any(env, requests)
            assert index in (0, 1, 2)
            values = yield from wait_all(env, requests)
            assert request_test_all(requests)
            return sorted(values)
        yield from env.sleep(float(world.rank) * 5)
        yield from world.send(world.rank * 100, 0, tag=1)
        return None

    assert run_ranks(4, program)[0] == [100, 200, 300]


def test_communication_respects_context_separation(run_ranks):
    """Messages on different communicators never match each other."""

    def program(env):
        world = init_mpi(env)
        duplicate = yield from world.dup()
        if world.rank == 0:
            world.isend("on-world", 1, tag=7)
            duplicate.isend("on-dup", 1, tag=7)
            yield from env.sleep(0.0)
            return None
        from_dup = yield from duplicate.recv(0, 7)
        from_world = yield from world.recv(0, 7)
        return (from_world, from_dup)

    results = run_ranks(2, program)
    assert results[1] == ("on-world", "on-dup")


@pytest.mark.parametrize("words", [-10, -10**6, 2.5, "3"])
def test_bad_explicit_words_rejected(run_cluster, words):
    """A negative or non-integer ``words`` raises ValueError naming the value,
    from isend and send alike (also towards PROC_NULL), and sends nothing."""
    expected = re.escape(repr(words))

    def program(env):
        world = init_mpi(env)
        if world.rank == 0:
            with pytest.raises(ValueError, match=expected):
                world.isend(None, 1, words=words)
            with pytest.raises(ValueError, match=expected):
                world.isend(None, PROC_NULL, words=words)
            with pytest.raises(ValueError, match=expected):
                yield from world.send(None, 1, words=words)
        yield from env.sleep(0.0)
        return True

    result = run_cluster(2, program)
    assert all(result.results)
    assert result.stats.messages_sent == 0
    assert result.stats.words_sent == 0


def test_explicit_words_price_the_message(run_cluster):
    """A valid explicit ``words`` overrides the measured size; zero words is
    the cheapest message, and nothing arrives earlier than it."""
    def program(env, words):
        world = init_mpi(env)
        if world.rank == 0:
            yield from world.send(np.zeros(100), 1, words=words)
            return None
        data, status = yield from world.recv(0, return_status=True)
        return env.now, status.count, data.size

    arrivals = {}
    for words in (0, 7):
        result = run_cluster(2, program, words=words)
        arrivals[words], count, size = result.results[1]
        assert (count, size) == (words, 100)
        assert result.stats.words_sent == words
    assert arrivals[0] < arrivals[7]
