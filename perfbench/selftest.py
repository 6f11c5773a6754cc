"""Self-tests of the benchmark (small sizes, a few seconds).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

#: Small versions of every simulation the benchmark runs.
SMALL = {
    "jquick_rbc": lambda: workloads._jquick_simulation(16, 8),
    "jquick_batched": lambda: workloads._jquick_simulation(64, 1),
    "create_group": lambda: workloads._halves(
        "create_group", workloads.create_group_program, 16),
    "comm_split": lambda: workloads._halves(
        "comm_split", workloads.split_program, 16),
    "iscan": lambda: workloads._scan_simulation(64),
    "two_tier_ibcast": lambda: workloads._bcast_simulation(64),
}


def _outputs(sim, seed=5):
    prepared = sim.prepare(seed)
    cluster, rank_kwargs = sim.build(prepared)
    result = cluster.run(sim.program, rank_kwargs=rank_kwargs)
    return prepared, result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_accepts_correct_output(name):
    sim = SMALL[name]()
    prepared, result = _outputs(sim)
    sim.check(prepared, result.results)


def test_sort_check_rejects_swapped_element():
    sim = SMALL["jquick_rbc"]()
    prepared, result = _outputs(sim)
    outputs = [part.copy() for part in result.results]
    outputs[0][0], outputs[-1][-1] = outputs[-1][-1], outputs[0][0]
    with pytest.raises(CheckFailed, match="sorted"):
        sim.check(prepared, outputs)


def test_sort_check_rejects_unbalanced_and_lost_elements():
    sim = SMALL["jquick_rbc"]()
    prepared, result = _outputs(sim)
    moved = [part.copy() for part in result.results]
    moved[1] = np.concatenate([moved[0][-1:], moved[1]])
    moved[0] = moved[0][:-1]
    with pytest.raises(CheckFailed, match="balanced"):
        sim.check(prepared, moved)
    lost = [part.copy() for part in result.results]
    lost[2][0] = lost[2][1]
    with pytest.raises(CheckFailed, match="permutation"):
        sim.check(prepared, lost)


def test_scan_check_rejects_off_by_one():
    sim = SMALL["iscan"]()
    prepared, result = _outputs(sim)
    outputs = [row.copy() for row in result.results]
    outputs[37][3] += 1.0
    with pytest.raises(CheckFailed, match="rank 37"):
        sim.check(prepared, outputs)


def test_bcast_check_rejects_wrong_value():
    sim = SMALL["two_tier_ibcast"]()
    prepared, result = _outputs(sim)
    outputs = [row.copy() for row in result.results]
    outputs[5][0] += 1.0
    with pytest.raises(CheckFailed, match="rank 5"):
        sim.check(prepared, outputs)


@pytest.mark.parametrize("name", ["create_group", "comm_split"])
def test_halves_check_rejects_wrong_size(name):
    sim = SMALL[name]()
    prepared, result = _outputs(sim)
    outputs = list(result.results)
    size, rank = outputs[3]
    outputs[3] = (size + 1, rank)
    with pytest.raises(CheckFailed, match="rank 3"):
        sim.check(prepared, outputs)


def test_rank_failure_counts_as_failed_op():
    def failing(env, world):
        raise RuntimeError("boom")
        yield  # pragma: no cover - keeps this a generator

    sim = SMALL["comm_split"]()
    sim.program = failing
    record = worker.run_simulation(sim, seed=1)
    assert record["error"].startswith("RankFailedError")


def test_pinned_mismatch_is_a_failure():
    records = [{"label": "x", "simulated_us": 1.0, "events": 2, "messages": 3}]
    worker.mark_pinned_mismatches("jquick_rbc", spec.DEFAULT_SEED, records)
    assert "pinned mismatch" in records[0]["error"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_equal_untraced(name):
    plain = worker.run_simulation(SMALL[name](), seed=3)
    recorder = layers.Recorder()
    with layers.installed(recorder, extra_modules=[workloads]):
        sim = SMALL[name]()
        traced = worker.run_simulation(
            sim, seed=3,
            program=recorder.wrap(sim.program, "program", how="gen"))
    for record in (plain, traced):
        assert "error" not in record, record
    for key in ("simulated_us", "events", "messages"):
        assert traced[key] == plain[key], key
    assert recorder.self_s["engine"] > 0.0
    assert recorder.counts["spmd.joins"] + recorder.counts[
        "collectives.scalar"] > 0


@pytest.mark.parametrize("name", ["create_group", "comm_split", "iscan"])
def test_transport_words_count_only_transport_messages(name):
    sim = SMALL[name]()
    prepared = sim.prepare(3)
    recorder = layers.Recorder()
    with layers.installed(recorder, extra_modules=[workloads]):
        cluster, rank_kwargs = sim.build(prepared)
        result = cluster.run(sim.program, rank_kwargs=rank_kwargs)
    # The halves run every message through the transport; the scan is
    # priced by the SPMD tier, which counts words without sending any.
    expected = 0 if name == "iscan" else result.stats.words_sent
    assert result.stats.words_sent > 0
    assert recorder.counts["transport.words"] == expected


def test_installed_restores_every_original():
    import repro.rbc
    import repro.simulator.engine
    before = (repro.rbc.ibcast, workloads.create_rbc_comm,
              repro.simulator.engine.Engine.__dict__["run"])
    with layers.installed(layers.Recorder(), extra_modules=[workloads]):
        during = (repro.rbc.ibcast, workloads.create_rbc_comm,
                  repro.simulator.engine.Engine.__dict__["run"])
        assert all(a is not b for a, b in zip(before, during))
    after = (repro.rbc.ibcast, workloads.create_rbc_comm,
             repro.simulator.engine.Engine.__dict__["run"])
    assert all(a is b for a, b in zip(before, after))


NAME = re.compile(r"[A-Za-z0-9_.-]+")

BENCH = spec.load()


def test_metric_and_workload_names():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for name in names + [workload["name"] for workload in BENCH["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for workload in BENCH["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_benchmark_json_workloads_are_the_runnable_ones():
    names = [workload["name"] for workload in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(spec.ITERATION_SECONDS)


def test_every_per_layer_metric_is_computed():
    spans = {"self_s": {}, "counts": {}}
    record = {"label": "x", "run_s": 1.0, "simulated_us": 1.0, "events": 1,
              "messages": 1,
              "obs": {key: 0 for key in (
                  "phases_lockstep", "phases_fastforward", "phases_batched",
                  "lockstep_refusals", "fastforward_fallbacks",
                  "mailboxes_materialized")}}
    import run
    values = run.layer_metrics([record], spans, 1.0)
    assert set(values) == {metric["name"] for metric in BENCH["per_layer"]}


def test_worker_timeout_covers_the_longest_run():
    for name, per_iteration in spec.ITERATION_SECONDS.items():
        for seconds in (1, BENCH["run_seconds"], 60):
            longest = spec.OVERRUN * seconds + per_iteration
            assert spec.worker_timeout(name, seconds, traced=False) > longest
        assert spec.worker_timeout(name, 0, traced=True) > 2 * per_iteration


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jquick_rbc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
