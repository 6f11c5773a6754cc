"""Host-time and memory benchmark of the simulator on four paper workloads.

Run from the repository root::

    python3 perfbench/run.py --workload jquick_rbc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced + traced

Each measurement runs in its own fresh, single-threaded interpreter
(``perfbench/worker.py``), one after another.  ``--trace 0`` runs the
workload untraced for a fixed number of iterations sized to ``--seconds``
(``spec.iterations``) and reports the end-to-end metrics: medians over the
iterations, for ``setup_s`` over at least ``spec.MIN_SETUPS`` set-ups.
``--trace 1`` runs one untraced and one traced iteration, each in its own
interpreter, and reports the per-layer metrics, requiring the exact
simulated counts of both to agree.  Every simulation's output is checked;
at the default seed its ``simulated_us``, event and message counts must
equal ``perfbench/pinned.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  All times are host times unless a name says ``simulated_``.
Workloads, metric units and ``--seconds``' default come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402  (after the path set-up above)

#: Counts that must be bit-identical between the traced and untraced run.
EXACT_KEYS = ("simulated_us", "events", "messages")


class BenchmarkError(Exception):
    """The benchmark could not run (not a wrong simulation output)."""


def run_worker(workload: str, seed: int, *, seconds: float = 0.0,
               traced: bool = False) -> dict:
    """One fresh single-threaded interpreter running ``worker.py``."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed string-hash seed: the same dict and set layouts in every
    # interpreter, one source of run-to-run host-time variation less.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=spec.worker_timeout(workload, seconds, traced))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker for {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker for {workload} exited with {done.returncode}:\n"
            f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _records(out: dict) -> list:
    return [record for iteration in out["iterations"] for record in iteration]


def _tally(records: list) -> tuple[int, int]:
    return len(records), sum(1 for record in records if "error" in record)


def _report_simulations(title: str, records: list) -> None:
    for record in records:
        if "error" in record:
            print(f"  {title} {record['label']}: FAILED {record['error']}")
        else:
            print(f"  {title} {record['label']}: " + ", ".join(
                f"{key}={record[key]!r}" for key in EXACT_KEYS))


def end_to_end(workload: str, seed: int, seconds: float, units: dict) -> dict:
    """Untraced run: medians of per-iteration set-up and run time, peak RSS."""
    out = run_worker(workload, seed, seconds=seconds)
    records = _records(out)
    _report_simulations("untraced", records)
    setup = [sum(r["setup_s"] for r in it) for it in out["iterations"]]
    setup += out["extra_setups_s"]
    run = [sum(r["run_s"] for r in it) for it in out["iterations"]]
    values = {"setup_s": statistics.median(setup),
              "run_s": statistics.median(run),
              "peak_rss_mib": out["peak_rss_mib"]}
    attempted, failed = _tally(records)
    return _result(attempted, failed, values, units)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced_records: list, spans: dict, untraced_run_s: float) -> dict:
    """Per-layer values from one traced iteration (the ``per_layer``
    metrics of BENCHMARK.json)."""
    self_s = spans["self_s"]
    counts = spans["counts"]
    ok = [r for r in traced_records if "error" not in r]

    def total(key):
        return sum(r[key] for r in ok)

    def obs(key):
        return sum(r["obs"][key] for r in ok)

    def seconds(layer):
        return self_s.get(layer, 0.0)

    def count(name):
        return counts.get(name, 0)

    fastforward = obs("phases_fastforward")
    fallbacks = obs("fastforward_fallbacks")
    return {
        "cluster.init_s": seconds("cluster.init"),
        "mpi.init_s": seconds("mpi.init"),
        "mpi.context_s": seconds("mpi.context"),
        "engine.self_s": seconds("engine"),
        "engine.events": total("events"),
        "engine.notify_calls": count("engine.notify_calls"),
        "transport.sends": count("transport.sends"),
        "transport.words": count("transport.words"),
        "transport.post_send_s": seconds("transport.post_send"),
        "transport.match_s": seconds("transport.match"),
        "transport.mailboxes": obs("mailboxes_materialized"),
        "messaging.test_calls": count("messaging.test_calls"),
        "messaging.test_true_ratio": _ratio(count("messaging.test_calls.true"),
                                            count("messaging.test_calls")),
        "messaging.self_s": seconds("messaging"),
        "collectives.scalar": count("collectives.scalar"),
        "collectives.test_calls": count("collectives.test_calls"),
        "collectives.test_true_ratio": _ratio(
            count("collectives.test_calls.true"), count("collectives.test_calls")),
        "collectives.self_s": seconds("collectives"),
        "collectives.hierarchy_s": seconds("collectives.hierarchy"),
        "spmd.joins": count("spmd.joins"),
        "spmd.self_s": seconds("spmd"),
        "spmd.phases_lockstep": obs("phases_lockstep"),
        "spmd.phases_fastforward": fastforward,
        "spmd.phases_batched": obs("phases_batched"),
        "spmd.refusals": obs("lockstep_refusals"),
        "spmd.fallbacks": fallbacks,
        "spmd.ff_success_ratio": _ratio(fastforward, fastforward + fallbacks),
        "mpi.creates": count("mpi.creates"),
        "mpi.create_s": seconds("mpi.create"),
        "mpi.group_calls": count("mpi.group_calls"),
        "mpi.group_s": seconds("mpi.group"),
        "rbc.creates": count("rbc.creates"),
        "rbc.create_s": seconds("rbc.create"),
        "rbc.collective_calls": count("rbc.collective_calls"),
        "rbc.self_s": seconds("rbc"),
        "sorting.self_s": seconds("sorting"),
        "sorting.kernel_calls": count("sorting.kernel_calls"),
        "sorting.kernel_elems": count("sorting.kernel_elems"),
        "sorting.kernel_s": seconds("sorting.kernel"),
        "sorting.batched_s": seconds("sorting.batched"),
        "rand.s": seconds("rand"),
        "program.self_s": seconds("program"),
        "gc.s": seconds("gc"),
        "gc.collections": count("gc.collections"),
        "unattributed_s": seconds("unattributed"),
        "trace_overhead": _ratio(total("run_s"), untraced_run_s),
        "simulated_us": total("simulated_us"),
        "messages": total("messages"),
    }


def per_layer(workload: str, seed: int, units: dict) -> dict:
    """One untraced and one traced iteration, each in a fresh interpreter."""
    plain = run_worker(workload, seed)
    traced = run_worker(workload, seed, traced=True)
    plain_records, traced_records = _records(plain), _records(traced)
    _report_simulations("untraced", plain_records)
    _report_simulations("traced", traced_records)
    for before, after in zip(plain_records, traced_records):
        if "error" in before or "error" in after:
            continue
        got = {key: after[key] for key in EXACT_KEYS}
        expected = {key: before[key] for key in EXACT_KEYS}
        if got != expected:
            after["error"] = (f"traced counts {got} differ from untraced "
                              f"{expected}")
    values = layer_metrics(traced_records, traced["spans"],
                           sum(r["run_s"] for r in plain_records))
    attempted, failed = _tally(plain_records + traced_records)
    return _result(attempted, failed, values, units)


def _result(attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def _print_table(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")


def _units(metrics: list) -> dict:
    return {metric["name"]: metric["unit"] for metric in metrics}


def main(argv=None) -> int:
    bench = spec.load()
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "default: both")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py must be started from the repository root "
              "(src/repro not found)", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    try:
        for workload in workloads:
            for mode in modes:
                print(f"{workload} trace={mode}", flush=True)
                if mode == 0:
                    result = end_to_end(workload, args.seed, args.seconds,
                                        _units(bench["end_to_end"]))
                else:
                    result = per_layer(workload, args.seed,
                                       _units(bench["per_layer"]))
                results[(workload, mode)] = result
                if len(workloads) * len(modes) > 1:
                    _print_table(workload, result)
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1

    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({f"{workload}/trace{mode}": result
                          for (workload, mode), result in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
