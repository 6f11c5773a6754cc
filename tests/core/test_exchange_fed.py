"""The analytic exchange phase: live joins and the fed pass agree.

:func:`repro.core.spmd.join_exchange` prices an irregular point-to-point
exchange from one join per member; the jquick level phase feeds the same
phase class every member at once (``_feed_all``), replaying the join-order
loop over plain lists.  Members joining in member order must therefore get
the same finish times, inbound counts, port state and tracer statistics
either way, and a disagreeing assignment must be refused by both.
"""

import pytest

from repro.core import spmd
from repro.core.spmd import ExchangeEndpoint, LockstepError, join_exchange
from repro.simulator import Cluster
from repro.simulator.errors import RankFailedError

P = 6
#: Member m's outgoing (dest, words) messages, in posting order.
PIECES = [
    [(1, 3), (2, 5)],
    [(0, 2)],
    [],
    [(2, 4), (5, 1), (0, 6)],
    [(3, 2)],
    [(4, 7), (1, 1)],
]
#: Join times, increasing with the member so live joins arrive in order.
DELAYS = [0.5 * m for m in range(P)]


def _expected_counts(pieces):
    expected = [0] * P
    for sends in pieces:
        for dest, _words in sends:
            expected[dest] += 1
    return expected


def _live(pieces, expected):
    def program(env):
        yield from env.sleep(DELAYS[env.rank])
        ep = ExchangeEndpoint(env, ("x",), 7, env.rank, P, 0)
        request = join_exchange(ep, pieces[env.rank], expected[env.rank],
                                cap_words=3 + env.rank, charge=True)
        yield from env.wait_until(request.test)
        return env.now, request.result()

    cluster = Cluster(P)
    result = cluster.run(program)
    return result.results, cluster


def _fed(pieces, expected):
    cluster = Cluster(P)
    ep = ExchangeEndpoint(cluster.envs[0], ("x",), 7, 0, P, 0)
    coordinator = spmd.SpmdCoordinator()
    phase = spmd._ExchangePhase(ep, None, 0, coordinator)
    finish, counts = phase._feed_all(
        DELAYS, [(pieces[m], expected[m], 3 + m, True) for m in range(P)])
    return list(zip(finish, counts)), cluster


def test_fed_exchange_matches_live_joins():
    expected = _expected_counts(PIECES)
    live, live_cluster = _live(PIECES, expected)
    fed, fed_cluster = _fed(PIECES, expected)
    assert fed == live
    assert [count for _finish, count in fed] == expected
    live_stats, fed_stats = live_cluster.tracer.stats, fed_cluster.tracer.stats
    for field in ("messages_sent", "words_sent", "per_rank_messages_sent",
                  "per_rank_messages_received", "per_rank_words_sent",
                  "per_rank_words_received"):
        assert getattr(fed_stats, field) == getattr(live_stats, field)
    transport = live_cluster.transport
    assert fed_cluster.transport._recv_port_free == transport._recv_port_free
    assert fed_cluster.transport._send_port_free == transport._send_port_free


def test_disagreeing_assignment_is_refused_on_both_paths():
    expected = _expected_counts(PIECES)
    # Member 5 hears from member 3 before it joins, but expects nothing.
    expected[5] -= 1
    with pytest.raises(LockstepError, match="member 5 expected 0"):
        _fed(PIECES, expected)
    with pytest.raises(RankFailedError) as excinfo:
        _live(PIECES, expected)
    assert isinstance(excinfo.value.__cause__, LockstepError)
    assert "member 5 expected 0" in str(excinfo.value.__cause__)
