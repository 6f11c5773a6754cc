"""Run parameters of the benchmark that ``BENCHMARK.json`` does not hold.

Workloads, metric names, units, directions, bounds and ``run_seconds`` live
only in ``BENCHMARK.json`` at the repository root; :func:`load` reads it.
Importing this module needs neither numpy nor ``repro``.
"""

from __future__ import annotations

import json
import os

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")

#: Default ``--seed``; the simulated counts at this seed are pinned in
#: ``pinned.json``.
DEFAULT_SEED = 1

#: A run starts no iteration it expects to end after this many times its
#: seconds, so a slow host cannot stretch a run much past them.
OVERRUN = 1.2

#: An untraced run sets every simulation up at least this often, so that
#: ``setup_s`` is a median of several set-ups even when only two full
#: iterations fit in the run.
MIN_SETUPS = 5

#: Host seconds of one iteration of each workload on a 2-vCPU Xeon VM.  A
#: run makes a fixed number of iterations (see ``iterations``), so its
#: median is always taken over the same mix of cold and warm iterations.
ITERATION_SECONDS = {
    "jquick_rbc": 2.8,
    "comm_split": 7.0,
    "collectives_2p15": 13.5,
    "jquick_batched": 9.3,
}

#: Host seconds one worker interpreter needs besides its iterations
#: (start-up, imports, extra set-ups), used only for its timeout.
WORKER_MARGIN_S = 30.0


def load() -> dict:
    """The content of ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def iterations(workload: str, seconds: float) -> int:
    """Untraced iterations one run of ``workload`` makes in ``seconds``."""
    return max(1, int(seconds // ITERATION_SECONDS[workload]))


def worker_timeout(workload: str, seconds: float, traced: bool) -> float:
    """Longest one worker may take before the run is abandoned.

    An untraced worker may start iterations until ``OVERRUN`` times its
    seconds and then finish one more; a traced iteration takes at most
    about three untraced ones.
    """
    per_iteration = ITERATION_SECONDS[workload]
    if traced:
        return 3 * per_iteration + WORKER_MARGIN_S
    return OVERRUN * seconds + 2 * per_iteration + WORKER_MARGIN_S
