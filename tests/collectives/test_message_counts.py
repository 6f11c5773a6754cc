"""Message-count invariants of the collective algorithms.

The trace statistics of the simulator count every message the transport
carries, so the communication volume of each algorithm can be checked exactly:
binomial trees send one message per non-root rank, dissemination patterns send
one message per rank per round, ring algorithms send one message per rank per
step.  These invariants pin down the cost model the benchmarks rely on.
"""

import numpy as np
import pytest

from repro.collectives.hierarchical import SubgroupEndpoint
from repro.collectives.topology import ceil_log2, dissemination_rounds
from repro.mpi import SUM, init_mpi
from repro.mpi.vendor import get_vendor
from repro.rbc import collectives as coll
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster, HierarchicalParams
from repro.simulator.network import Transport, payload_words


def _messages_for(p, body):
    """Run ``body(world)`` (a generator taking the RBC world) on p ranks and
    return the total number of messages sent."""

    def program(env):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        yield from body(env, world)
        return None

    result = Cluster(p).run(program)
    return result.stats.messages_sent, result.stats


SIZES = [2, 3, 5, 8, 13, 16]


@pytest.mark.parametrize("p", SIZES)
def test_binomial_bcast_sends_p_minus_one_messages(p):
    def body(env, world):
        yield from coll.bcast(world, 1.0 if world.rank == 0 else None, 0)

    messages, stats = _messages_for(p, body)
    assert messages == p - 1
    # No rank sends more than its binomial-tree degree (<= ceil(log2 p)).
    assert stats.max_messages_sent() <= ceil_log2(p)


@pytest.mark.parametrize("p", SIZES)
def test_binomial_reduce_and_gather_send_p_minus_one_messages(p):
    def body(env, world):
        yield from coll.reduce(world, 1.0, SUM, root=0)
        yield from coll.gather(world, world.rank, root=p - 1)

    messages, _ = _messages_for(p, body)
    assert messages == 2 * (p - 1)


@pytest.mark.parametrize("p", SIZES)
def test_scatter_sends_p_minus_one_messages(p):
    def body(env, world):
        values = list(range(p)) if world.rank == 0 else None
        yield from coll.scatter(world, values, root=0)

    messages, _ = _messages_for(p, body)
    assert messages == p - 1


@pytest.mark.parametrize("p", SIZES)
def test_dissemination_barrier_message_count(p):
    def body(env, world):
        yield from coll.barrier(world)

    messages, _ = _messages_for(p, body)
    assert messages == p * len(dissemination_rounds(p))


@pytest.mark.parametrize("p", SIZES)
def test_ring_allgather_sends_p_times_p_minus_one_messages(p):
    def body(env, world):
        yield from coll.allgatherv(world, float(world.rank))

    messages, stats = _messages_for(p, body)
    assert messages == p * (p - 1)
    assert stats.max_messages_sent() == p - 1


@pytest.mark.parametrize("p", SIZES)
def test_ring_reduce_scatter_message_count(p):
    def body(env, world):
        yield from coll.reduce_scatter(world, np.ones(4 * p), SUM)

    messages, _ = _messages_for(p, body)
    assert messages == p * (p - 1)


@pytest.mark.parametrize("p", SIZES)
def test_alltoallv_sends_a_full_square(p):
    def body(env, world):
        payloads = [np.zeros(1) for _ in range(p)]
        yield from coll.alltoallv(world, payloads)

    messages, _ = _messages_for(p, body)
    assert messages == p * (p - 1)


@pytest.mark.parametrize("p", SIZES)
def test_scatter_allgather_bcast_message_count(p):
    def body(env, world):
        value = np.zeros(64 * p) if world.rank == 0 else None
        yield from coll.bcast(world, value, root=0, algorithm="scatter_allgather")

    messages, _ = _messages_for(p, body)
    # Binomial scatter (p - 1) followed by a ring allgather (p * (p - 1)).
    assert messages == (p - 1) + p * (p - 1)


def test_pipeline_bcast_message_count():
    p = 6
    segments = 8

    def body(env, world):
        value = np.zeros(segments * 32) if world.rank == 0 else None
        yield from coll.bcast(world, value, root=0, algorithm="pipeline",
                              segment_words=32)

    messages, _ = _messages_for(p, body)
    # Every chain edge (p - 1 of them) carries every segment exactly once.
    assert messages == (p - 1) * segments


@pytest.mark.parametrize("p", SIZES)
def test_bcast_word_volume_is_tree_edges_times_payload(p):
    words = 50

    def body(env, world):
        value = np.zeros(words) if world.rank == 0 else None
        yield from coll.bcast(world, value, root=0)

    def run(body):
        def program(env):
            world_mpi = init_mpi(env)
            world = yield from create_rbc_comm(world_mpi)
            yield from body(env, world)

        return Cluster(p).run(program).stats

    stats = run(body)
    assert stats.words_sent == (p - 1) * words


def test_ring_allreduce_moves_less_data_per_rank_than_reduce_bcast():
    """The ring allreduce is bandwidth-optimal: the busiest rank sends about
    2n(p-1)/p words, whereas with reduce+bcast the root forwards ~n log p."""
    p = 8
    words = 4096

    def run(algorithm):
        def program(env):
            world_mpi = init_mpi(env)
            world = yield from create_rbc_comm(world_mpi)
            yield from coll.allreduce(world, np.ones(words), SUM,
                                      algorithm=algorithm)

        return Cluster(p).run(program).stats

    ring = run("ring")
    tree = run("reduce_bcast")
    assert max(ring.per_rank_words_sent) < max(tree.per_rank_words_sent)


# ---------------------------------------------------------------------------
# Forwarded payloads keep their measured word count.
# ---------------------------------------------------------------------------

FORWARD_P = 11
HIER = HierarchicalParams.two_tier(ranks_per_node=4)
FORWARD_MACHINES = {"flat": None, "hierarchical": HIER}


def _split_entries(n):
    """A comm_split-like payload: nested tuples and arrays of mixed size."""
    return [(i % 3, float(i), (i, np.zeros(i % 4))) for i in range(n)]


def _mpi_program(operation, vendor):
    def program(env):
        world = init_mpi(env, vendor=vendor)
        if operation == "bcast":
            value = _split_entries(9) if world.rank == 2 else None
            result = yield from world.bcast(value, root=2)
        elif operation == "allgather":
            result = yield from world.allgather((world.rank % 2, -world.rank,
                                                 world.rank))
        else:
            result = yield from world.allreduce(np.arange(5.0) + world.rank, SUM)
        return result
    return program


def _rbc_bcast_program(env):
    world = yield from create_rbc_comm(init_mpi(env))
    value = _split_entries(7) if world.rank == 3 else None
    result = yield from coll.bcast(world, value, root=3)
    return result


def _run_priced_by_oracle(monkeypatch, program, params, factor, *, force):
    """Run ``program``; log every message with its oracle wire size
    ``round(payload_words(payload) * factor)``.  With ``force`` the transport
    prices every message at the oracle size, whatever the sender passed."""
    original = Transport.post_send
    log = []

    def post_send(self, src, dst, tag, context, payload, words=None,
                  local_delay=0.0, *rest):
        oracle = round(payload_words(payload) * factor)
        log.append((src, dst, words, oracle))
        if force:
            return original(self, src, dst, tag, context, payload, oracle,
                            local_delay)
        return original(self, src, dst, tag, context, payload, words,
                        local_delay, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(Transport, "post_send", post_send)
        result = Cluster(FORWARD_P, params).run(program)
    return result, log


def _assert_matches_oracle(monkeypatch, program, params, factor):
    result, log = _run_priced_by_oracle(monkeypatch, program, params, factor,
                                        force=False)
    assert log, "the collective must send messages"
    assert [words for *_, words, _ in log] == [oracle for *_, oracle in log]
    sent = [0] * FORWARD_P
    received = [0] * FORWARD_P
    for src, dst, _, oracle in log:
        sent[src] += oracle
        received[dst] += oracle
    assert result.stats.per_rank_words_sent == sent
    assert result.stats.per_rank_words_received == received
    forced, _ = _run_priced_by_oracle(monkeypatch, program, params, factor,
                                      force=True)
    assert result.total_time == forced.total_time
    return result


@pytest.mark.parametrize("machine", sorted(FORWARD_MACHINES))
@pytest.mark.parametrize("vendor", ["generic", "intel", "ibm"])
@pytest.mark.parametrize("operation", ["bcast", "allgather", "allreduce"])
def test_mpi_forwarded_word_counts_match_oracle(monkeypatch, operation, vendor,
                                                machine):
    """Every message of an MPI collective is priced at the vendor-scaled size
    of the payload it carries, including payloads forwarded down a tree
    (flat endpoints and the node-leader schedules' subgroup endpoints)."""
    factor = get_vendor(vendor).word_factor(operation)
    result = _assert_matches_oracle(
        monkeypatch, _mpi_program(operation, vendor),
        FORWARD_MACHINES[machine], factor)
    for value in result.results:
        if operation == "bcast":
            assert repr(value) == repr(_split_entries(9))
        elif operation == "allgather":
            assert value == [(r % 2, -r, r) for r in range(FORWARD_P)]
        else:
            np.testing.assert_array_equal(
                value, FORWARD_P * np.arange(5.0) + sum(range(FORWARD_P)))


@pytest.mark.parametrize("machine", sorted(FORWARD_MACHINES))
def test_rbc_bcast_forwarded_word_counts_match_oracle(monkeypatch, machine):
    result = _assert_matches_oracle(monkeypatch, _rbc_bcast_program,
                                    FORWARD_MACHINES[machine], 1.0)
    assert all(repr(value) == repr(_split_entries(7))
               for value in result.results)


def test_node_aware_vendor_bcast_runs_on_subgroup_endpoints(monkeypatch):
    """Guard for the test above: on the hierarchical machine a node-aware
    vendor's bcast really forwards through SubgroupEndpoint."""
    calls = []
    original = SubgroupEndpoint.isend

    def isend(self, *args, **kwargs):
        calls.append(kwargs.get("words"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SubgroupEndpoint, "isend", isend)
    Cluster(FORWARD_P, HIER).run(_mpi_program("bcast", "intel"))
    assert len(calls) == FORWARD_P - 1
    assert set(calls) == {payload_words(_split_entries(9))}
