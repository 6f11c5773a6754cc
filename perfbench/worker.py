"""Runs one workload in this (fresh) interpreter and prints its measurements.

``run.py`` starts one worker per measurement, so every workload gets its own
interpreter and ``ru_maxrss`` is that workload's own peak.  The last line of
standard output is one JSON object: per-iteration host times, per-simulation
exact counts, the failures and, with ``--traced``, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from repro.core.spmd import LockstepError
from repro.simulator import DeadlockError, RankFailedError

import layers
import spec
import workloads

#: Errors of a simulation that count as a failed operation.
SIMULATION_ERRORS = (RankFailedError, LockstepError, DeadlockError)


def run_simulation(sim, seed: int, program=None) -> dict:
    """Set up, run and check one simulation; host times and exact counts."""
    start = time.perf_counter()
    prepared = sim.prepare(seed)
    cluster, rank_kwargs = sim.build(prepared)
    ready = time.perf_counter()
    record = {"label": sim.label, "setup_s": ready - start}
    try:
        result = cluster.run(program or sim.program, rank_kwargs=rank_kwargs)
    except SIMULATION_ERRORS as exc:
        record["run_s"] = time.perf_counter() - ready
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["run_s"] = time.perf_counter() - ready
    record.update(simulated_us=result.total_time,
                  events=result.events_processed,
                  messages=result.stats.messages_sent,
                  obs=result.obs)
    try:
        sim.check(prepared, result.results)
    except workloads.CheckFailed as exc:
        record["error"] = f"check failed: {exc}"
    return record


def run_iteration(name: str, seed: int, wrap_program=None) -> list:
    """Every simulation of workload ``name`` once, in order."""
    records = []
    for sim in workloads.simulations(name):
        program = wrap_program(sim.program) if wrap_program else None
        records.append(run_simulation(sim, seed, program))
        gc.collect()
    return records


def mark_pinned_mismatches(name: str, seed: int, records: list) -> None:
    """At the default seed, exact counts must equal the pinned ones."""
    if seed != spec.DEFAULT_SEED:
        return
    pinned = workloads.load_pinned().get(name)
    if pinned is None:
        for record in records:
            record.setdefault("error", "no pinned values for this workload")
        return
    for record, expected in zip(records, pinned):
        if "error" in record:
            continue
        got = {key: record[key] for key in expected}
        if got != expected:
            record["error"] = f"pinned mismatch: got {got}, expected {expected}"


def measure(name: str, seed: int, seconds: float) -> list:
    """Untraced iterations of the workload: ``spec.iterations`` of them, or
    fewer when the host is so slow that the next one would end after
    ``spec.OVERRUN`` times ``seconds``."""
    runs = []
    start = time.perf_counter()
    for _ in range(spec.iterations(name, seconds)):
        began = time.perf_counter()
        records = run_iteration(name, seed)
        mark_pinned_mismatches(name, seed, records)
        runs.append(records)
        now = time.perf_counter()
        if now - start + (now - began) > spec.OVERRUN * seconds:
            break
    return runs


def extra_setups(name: str, seed: int, rounds: int) -> list:
    """Host seconds of ``rounds`` more set-ups of every simulation of the
    workload, each summed over the simulations like an iteration's."""
    totals = []
    for _ in range(rounds):
        total = 0.0
        for sim in workloads.simulations(name):
            start = time.perf_counter()
            sim.build(sim.prepare(seed))
            total += time.perf_counter() - start
            gc.collect()
        totals.append(total)
    return totals


def traced(name: str, seed: int) -> tuple[list, dict]:
    """One iteration with every layer wrapper installed."""
    recorder = layers.Recorder()
    with layers.installed(recorder, extra_modules=[workloads]):
        records = run_iteration(
            name, seed,
            wrap_program=lambda program: recorder.wrap(program, "program",
                                                       how="gen"))
    mark_pinned_mismatches(name, seed, records)
    return records, {"self_s": dict(recorder.self_s),
                     "counts": dict(recorder.counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    if args.traced:
        records, spans = traced(args.workload, args.seed)
        out = {"iterations": [records], "spans": spans}
    else:
        runs = measure(args.workload, args.seed, args.seconds)
        out = {"iterations": runs,
               "extra_setups_s": extra_setups(
                   args.workload, args.seed, spec.MIN_SETUPS - len(runs))}
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
