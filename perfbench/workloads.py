"""The benchmark's four workloads: inputs from a seed, rank programs, checks.

Each workload is a list of simulations.  A simulation is built in three
host-timed steps: ``prepare`` makes the inputs from the seed (outside any
cluster), ``build`` constructs the :class:`~repro.simulator.Cluster` and
calls ``init_mpi`` on every rank (so per-rank runtime construction is set-up
time, not run time), and ``Cluster.run`` executes the rank program.  The
output check sees only the per-rank results and the prepared inputs.

``init_mpi`` charges no simulated time, so calling it before ``Cluster.run``
instead of at the top of the rank program leaves ``simulated_us``, event and
message counts unchanged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.bench.workloads import generate
from repro.mpi import MpiGroup, init_mpi
from repro.rbc import barrier, create_rbc_comm, ibcast, iscan
from repro.simulator import Cluster, HierarchicalParams
from repro.sorting import JQuickConfig, RbcBackend, jquick, verify_sort

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")

#: Words per rank in the paper-scale collectives (as in the p = 2^15 gate).
COLLECTIVE_WORDS = 16


class CheckFailed(Exception):
    """A simulation produced a wrong output."""


@dataclass
class Simulation:
    """One simulated run of a workload."""

    label: str
    num_ranks: int
    program: Callable
    #: seed -> prepared inputs (anything the rank kwargs and check need).
    prepare: Callable[[int], Any]
    #: prepared inputs -> list of per-rank keyword arguments (without the
    #: ``world`` communicator, which ``build`` adds).
    rank_kwargs: Callable[[Any], list]
    #: (prepared inputs, per-rank results) -> None, raising CheckFailed.
    check: Callable[[Any, list], None]
    vendor: str = "generic"
    params_factory: Optional[Callable[[], Any]] = None

    def build(self, prepared) -> tuple[Cluster, list]:
        """Construct the cluster and every rank's COMM_WORLD."""
        params = self.params_factory() if self.params_factory else None
        cluster = Cluster(self.num_ranks, params)
        kwargs = self.rank_kwargs(prepared)
        for env, rank_kwargs in zip(cluster.envs, kwargs):
            rank_kwargs["world"] = init_mpi(env, vendor=self.vendor)
        return cluster, kwargs


# ---------------------------------------------------------------- JQuick


def jquick_program(env, world, local_data, config):
    """Rank program: JQuick on the RBC backend; returns the sorted slice."""
    world_rbc = yield from create_rbc_comm(world)
    result, _stats = yield from jquick(env, RbcBackend(world_rbc), local_data,
                                       config)
    return result


def _jquick_simulation(num_ranks: int, per_rank: int) -> Simulation:
    def prepare(seed):
        input_seed, config_seed = np.random.default_rng(seed).integers(
            0, 2**31, size=2)
        parts = generate("uniform", num_ranks * per_rank, num_ranks,
                         seed=int(input_seed))
        return parts, JQuickConfig(seed=int(config_seed))

    def rank_kwargs(prepared):
        parts, config = prepared
        return [dict(local_data=part, config=config) for part in parts]

    return Simulation("jquick", num_ranks, jquick_program, prepare, rank_kwargs,
                      check_sort)


def check_sort(prepared, results) -> None:
    """Permutation of the input, globally sorted, perfectly balanced."""
    try:
        verify_sort(prepared[0], results)
    except AssertionError as exc:
        raise CheckFailed(str(exc)) from None


# ----------------------------------------------------------- comm split


def create_group_program(env, world):
    """Rank program: MPI_Comm_create_group of this rank's half."""
    half = world.size // 2
    first, last = (0, half - 1) if world.rank < half else (half, world.size - 1)
    group = MpiGroup.range_incl([(world.to_world(first), world.to_world(last), 1)])
    comm = yield from world.create_group(group, tag=1)
    return comm.size, comm.rank


def split_program(env, world):
    """Rank program: MPI_Comm_split into halves (color by half, key = rank)."""
    half = world.size // 2
    comm = yield from world.split(color=0 if world.rank < half else 1,
                                  key=world.rank)
    return comm.size, comm.rank


def _halves(label: str, program, num_ranks: int) -> Simulation:
    # No randomness: the prepared input is just p.
    return Simulation(label, num_ranks, program, lambda _seed: num_ranks,
                      lambda p: [{} for _ in range(p)], check_halves,
                      vendor="intel")


def check_halves(num_ranks: int, results) -> None:
    """Each rank got a communicator of size p/2 with rank = world rank mod p/2."""
    half = num_ranks // 2
    for rank, got in enumerate(results):
        if got != (half, rank % half):
            raise CheckFailed(
                f"rank {rank}: communicator (size, rank) = {got}, "
                f"expected {(half, rank % half)}")


# ------------------------------------------------ paper-scale collectives


def scan_program(env, world, value):
    """Rank program: flat RBC inclusive scan (fast-forward lockstep tier)."""
    env.lockstep_collectives = True
    world_rbc = yield from create_rbc_comm(world)
    yield from barrier(world_rbc)
    request = iscan(world_rbc, value)
    yield from env.wait_until(request.test)
    return request.result()


def bcast_program(env, world, value, root):
    """Rank program: RBC broadcast on a two-tier machine (schedule-IR replay)."""
    env.lockstep_collectives = True
    world_rbc = yield from create_rbc_comm(world)
    yield from barrier(world_rbc)
    request = ibcast(world_rbc, value if world.rank == root else None, root)
    yield from env.wait_until(request.test)
    return request.result()


def _integer_rows(rng, num_ranks: int) -> np.ndarray:
    # Integer-valued doubles: every prefix sum is exact, whatever the
    # operand order of the reduction tree.
    return rng.integers(0, 1000, size=(num_ranks, COLLECTIVE_WORDS)).astype(
        np.float64)


def _scan_simulation(num_ranks: int) -> Simulation:
    def prepare(seed):
        return _integer_rows(np.random.default_rng([seed, 0]), num_ranks)

    def rank_kwargs(rows):
        return [dict(value=row) for row in rows]

    return Simulation("iscan", num_ranks, scan_program, prepare, rank_kwargs,
                      check_scan)


def check_scan(rows, results) -> None:
    """Rank r holds the exact sum of rows 0..r."""
    expected = np.cumsum(rows, axis=0)
    for rank, got in enumerate(results):
        if not np.array_equal(got, expected[rank]):
            raise CheckFailed(f"rank {rank}: wrong scan prefix")


def _bcast_simulation(num_ranks: int) -> Simulation:
    def prepare(seed):
        rng = np.random.default_rng([seed, 1])
        root = int(rng.integers(0, num_ranks))
        return root, _integer_rows(rng, 1)[0]

    def rank_kwargs(prepared):
        root, value = prepared
        return [dict(value=value, root=root) for _ in range(num_ranks)]

    return Simulation("two_tier_ibcast", num_ranks, bcast_program, prepare,
                      rank_kwargs, check_bcast,
                      params_factory=lambda: HierarchicalParams.two_tier(
                          ranks_per_node=8))


def check_bcast(prepared, results) -> None:
    """Every rank holds the root's payload."""
    _root, value = prepared
    for rank, got in enumerate(results):
        if not np.array_equal(got, value):
            raise CheckFailed(f"rank {rank}: wrong broadcast value")


# ------------------------------------------------------------- registry


#: name -> its simulations in run order (why each workload is in the
#: benchmark is recorded in BENCHMARK.json).
WORKLOADS = {
    "jquick_rbc": lambda: [_jquick_simulation(512, 64)],
    "comm_split": lambda: [_halves("create_group", create_group_program, 2048),
                           _halves("comm_split", split_program, 2048)],
    "collectives_2p15": lambda: [_scan_simulation(1 << 15),
                                 _bcast_simulation(1 << 15)],
    "jquick_batched": lambda: [_jquick_simulation(4096, 1)],
}


def simulations(name: str) -> list[Simulation]:
    """The simulations of workload ``name`` (KeyError if unknown)."""
    return WORKLOADS[name]()


def load_pinned() -> dict:
    """workload -> [{simulated_us, events, messages}] per simulation, as
    recorded from one run of every workload at ``spec.DEFAULT_SEED``."""
    with open(PINNED_PATH) as handle:
        return json.load(handle)
