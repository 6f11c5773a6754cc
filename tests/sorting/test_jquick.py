"""End-to-end tests of Janus Quicksort: correctness, balance, statistics."""

import numpy as np
import pytest

from repro.mpi import init_mpi
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster
from repro.sorting import (
    JQuickConfig,
    NativeMpiBackend,
    PivotConfig,
    RbcBackend,
    capacity,
    is_globally_sorted,
    is_perfectly_balanced,
    is_permutation_of_input,
    jquick,
    verify_sort,
)
from repro.bench.workloads import generate


def _run_jquick(p, n, *, backend="rbc", vendor="generic", workload="uniform",
                config=None, seed=5):
    parts = generate(workload, n, p, seed=seed)
    config = config or JQuickConfig(seed=seed)

    def program(env, local_data):
        world_mpi = init_mpi(env, vendor=vendor)
        if backend == "rbc":
            world = yield from create_rbc_comm(world_mpi)
            jq_backend = RbcBackend(world)
        else:
            jq_backend = NativeMpiBackend(world_mpi)
        output, stats = yield from jquick(env, jq_backend, local_data, config)
        return output, stats

    result = Cluster(p).run(
        program, rank_kwargs=[dict(local_data=parts[r]) for r in range(p)])
    outputs = [r[0] for r in result.results]
    stats = [r[1] for r in result.results]
    return parts, outputs, stats


GRID = [(1, 7), (2, 9), (3, 3), (4, 64), (5, 23), (8, 8), (9, 120), (16, 256)]


@pytest.mark.parametrize("p,n", GRID)
def test_rbc_backend_sorts_and_balances(p, n):
    parts, outputs, _ = _run_jquick(p, n)
    verify_sort(parts, outputs)


@pytest.mark.parametrize("p,n", [(4, 40), (7, 91), (12, 144)])
def test_native_mpi_backend_sorts_and_balances(p, n):
    parts, outputs, _ = _run_jquick(p, n, backend="mpi", vendor="intel")
    verify_sort(parts, outputs)


@pytest.mark.parametrize("workload", ["uniform", "gaussian", "sorted", "reverse",
                                      "duplicates", "few_distinct", "all_equal",
                                      "zipf", "staggered"])
def test_every_workload_is_sorted_with_perfect_balance(workload):
    parts, outputs, _ = _run_jquick(8, 96, workload=workload)
    verify_sort(parts, outputs)


@pytest.mark.parametrize("schedule", ["alternating", "cascaded"])
@pytest.mark.parametrize("backend,vendor", [("rbc", "generic"), ("mpi", "ibm")])
def test_schedules_and_backends_agree_on_the_result(schedule, backend, vendor):
    parts, outputs, _ = _run_jquick(
        8, 64, backend=backend, vendor=vendor,
        config=JQuickConfig(schedule=schedule, seed=2))
    verify_sort(parts, outputs)


def test_random_element_pivot_strategy():
    config = JQuickConfig(pivot=PivotConfig(strategy="random_element"), seed=11)
    parts, outputs, _ = _run_jquick(8, 128, config=config)
    verify_sort(parts, outputs)


def test_uneven_n_not_divisible_by_p():
    parts, outputs, _ = _run_jquick(7, 65)
    verify_sort(parts, outputs)
    sizes = [o.size for o in outputs]
    assert max(sizes) - min(sizes) <= 1


def test_n_smaller_than_p():
    parts, outputs, _ = _run_jquick(6, 4)
    verify_sort(parts, outputs)
    assert [o.size for o in outputs] == [1, 1, 1, 1, 0, 0]


def test_balance_holds_even_with_all_equal_keys():
    parts, outputs, _ = _run_jquick(8, 80, workload="all_equal")
    assert is_perfectly_balanced(outputs, 80)
    assert is_globally_sorted(outputs)


def test_stats_are_plausible():
    p, n = 16, 256
    _, _, stats = _run_jquick(p, n)
    # Distributed steps and communicator creations happen on every rank.
    assert all(s.distributed_steps >= 1 for s in stats)
    assert all(s.comm_creations >= 1 for s in stats)
    # Every element ends up in some base case.
    assert sum(s.base_cases_one + s.base_cases_two for s in stats) >= p // 2
    # The recursion depth stays in the O(log p) regime of Theorem 1.
    assert max(s.levels for s in stats) <= 6 * np.log2(p) + 4
    # Janus processes occurred (n/p > 1 and splits fall inside slot ranges).
    assert sum(s.janus_episodes for s in stats) >= 1


def test_exchange_message_bound():
    p, n_per_proc = 16, 8
    _, _, stats = _run_jquick(p, p * n_per_proc)
    worst = max(s.max_exchange_messages_per_step for s in stats)
    assert worst <= min(p, n_per_proc) + 4


def test_charge_local_work_flag_changes_time_only():
    def run(charge):
        parts, outputs, _ = _run_jquick(
            4, 64, config=JQuickConfig(charge_local_work=charge, seed=3))
        return outputs

    fast = run(False)
    slow = run(True)
    for a, b in zip(fast, slow):
        np.testing.assert_array_equal(a, b)


def test_rejects_unbalanced_input_layout():
    p, n = 4, 16
    parts = generate("uniform", n, p, seed=1)
    parts[0] = np.concatenate([parts[0], [1.0]])   # rank 0 has one element too many
    parts[1] = parts[1][:-1]

    def program(env, local_data):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        output, stats = yield from jquick(env, RbcBackend(world), local_data)
        return output

    from repro.simulator import RankFailedError
    with pytest.raises(RankFailedError):
        Cluster(p).run(program,
                       rank_kwargs=[dict(local_data=parts[r]) for r in range(p)])


@pytest.mark.parametrize("backend,n,batch_levels", [
    ("rbc", 4, True),      # batched tier (n == p)
    ("rbc", 4, False),     # scalar frontier, same input
    ("rbc", 16, None),
    ("mpi", 4, None),
    ("mpi", 16, None),
])
def test_rejects_nan_keys_naming_the_rank(backend, n, batch_levels):
    """NaN has no order: no pivot ever splits it off, so the recursion used
    to spin until ``max_levels`` ("exceeded 300 levels").  Every tier and
    backend now rejects it up front, naming the offending rank."""
    p = 4
    parts = generate("uniform", n, p, seed=1)
    parts[2] = parts[2].copy()
    parts[2][0] = np.nan
    config = JQuickConfig(seed=1, batch_levels=batch_levels)

    def program(env, local_data):
        world_mpi = init_mpi(env, vendor="intel")
        if backend == "rbc":
            world = yield from create_rbc_comm(world_mpi)
            jq_backend = RbcBackend(world)
        else:
            jq_backend = NativeMpiBackend(world_mpi)
        output, _stats = yield from jquick(env, jq_backend, local_data, config)
        return output

    from repro.simulator import RankFailedError
    with pytest.raises(RankFailedError) as excinfo:
        Cluster(p).run(program,
                       rank_kwargs=[dict(local_data=parts[r]) for r in range(p)])
    cause = excinfo.value.__cause__
    assert isinstance(cause, ValueError)
    assert "rank 2" in str(cause) and "NaN" in str(cause)


def test_config_validation():
    with pytest.raises(ValueError):
        JQuickConfig(schedule="zigzag")


def test_empty_input():
    parts, outputs, _ = _run_jquick(4, 0)
    assert all(o.size == 0 for o in outputs)


def test_rbc_is_faster_than_native_mpi_for_small_inputs():
    """The core claim of Fig. 8 at unit-test scale."""

    def timed(backend, vendor):
        parts = generate("uniform", 64, 64, seed=9)

        def program(env, local_data):
            world_mpi = init_mpi(env, vendor=vendor)
            if backend == "rbc":
                world = yield from create_rbc_comm(world_mpi)
                jq_backend = RbcBackend(world)
            else:
                jq_backend = NativeMpiBackend(world_mpi)
            start = env.now
            yield from jquick(env, jq_backend, local_data, JQuickConfig(seed=9))
            return env.now - start

        result = Cluster(64).run(
            program, rank_kwargs=[dict(local_data=parts[r]) for r in range(64)])
        return max(result.results)

    rbc_time = timed("rbc", "generic")
    ibm_time = timed("mpi", "ibm")
    assert ibm_time > 3 * rbc_time


def test_integration_with_strided_rbc_subcommunicator():
    """JQuick also runs on an RBC communicator that is itself a sub-range."""
    p_total, p_sort, n = 12, 8, 64
    parts = generate("uniform", n, p_sort, seed=4)

    def program(env, local_data):
        world_mpi = init_mpi(env)
        world = yield from create_rbc_comm(world_mpi)
        sub = yield from world.split(2, 2 + p_sort - 1)   # MPI ranks 2..9
        if sub.rank is None:
            return None
        output, _ = yield from jquick(env, RbcBackend(sub), local_data,
                                      JQuickConfig(seed=4))
        return output

    rank_kwargs = []
    for rank in range(p_total):
        if 2 <= rank <= 9:
            rank_kwargs.append(dict(local_data=parts[rank - 2]))
        else:
            rank_kwargs.append(dict(local_data=None))
    result = Cluster(p_total).run(program, rank_kwargs=rank_kwargs)
    outputs = [r for r in result.results if r is not None]
    verify_sort(parts, outputs)
