"""Dispatch guard for the batched JQuick tier (counts, not time).

A batched level used to drive each of its five sub-steps (sample gather,
pivot bcast, count scan, totals bcast, exchange) through one join, one
``LockstepRequest`` and one cascade per member: about six request objects
per member and level.  The fed sub-phases price the gather, both bcasts and
the exchange over plain lists, so only the level's own join and the count
scan's per-member joins (kept for its deferred flush event) construct
requests: about two per member-level, plus the world-level size agreement.
"""

import numpy as np
import pytest

from repro.core import spmd
from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.sorting import JQuickConfig, RbcBackend, jquick

MAX_REQUESTS_PER_MEMBER_LEVEL = 2.5


def _sort_program(env, *, local_data, config):
    world_mpi = init_mpi(env)
    world_rbc = yield from create_rbc_comm(world_mpi)
    output, stats = yield from jquick(env, RbcBackend(world_rbc),
                                      local_data, config)
    return output, stats.batched_levels


@pytest.mark.parametrize("p", [256, 512])
def test_lockstep_requests_per_batched_member_level(p, monkeypatch):
    constructed = [0]
    original = spmd.LockstepRequest.__init__

    def counting(self, env):
        constructed[0] += 1
        original(self, env)

    monkeypatch.setattr(spmd.LockstepRequest, "__init__", counting)
    values = np.random.default_rng(p).random(p)
    result = Cluster(p).run(
        _sort_program, config=JQuickConfig(seed=1, batch_levels=True),
        rank_kwargs=[dict(local_data=values[r:r + 1].copy())
                     for r in range(p)])
    member_levels = sum(levels for _output, levels in result.results)
    assert member_levels > p
    merged = np.concatenate([output for output, _levels in result.results])
    assert np.array_equal(merged, np.sort(values))
    ratio = constructed[0] / member_levels
    assert ratio <= MAX_REQUESTS_PER_MEMBER_LEVEL, (
        f"{constructed[0]} LockstepRequests for {member_levels} batched "
        f"member-levels ({ratio:.2f} each) at p={p}")
