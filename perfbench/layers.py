"""Per-layer host-time spans, recorded from outside the simulator.

The traced run wraps the public entry points of each layer of ``repro`` and
times every call.  Spans nest on one stack, so a layer's *self* time is its
span minus the spans of the wrapped calls made inside it.  Generator entry
points (communicator creation, the JQuick rank program, blocking waits) are
timed per resumption: one span for each ``send``/``next`` the engine or a
caller makes.

Cyclic garbage collections are spans of their own ("gc", through
``gc.callbacks``): at 2^15 ranks they take about half of the run time, and
without this they would land in whichever layer happened to allocate.

Wrappers are installed by patching class attributes and every module-level
name in ``repro`` (and the benchmark's own modules) that refers to a wrapped
function, since ``from x import f`` copies escape a patch of ``x`` alone.
:func:`installed` restores everything on exit.  Nothing is changed on disk.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

from repro.simulator.network import payload_words

#: (module, attribute path, layer, counter, how).  ``how`` is "call" for a
#: plain call, "gen" for a function returning a generator (timed per
#: resumption), "test" for a poll whose truthy results are also counted,
#: "kernel" for a sorting kernel whose array arguments' sizes are counted,
#: "send" for ``Transport.post_send``, whose message words are counted.
#: ``counter`` names a call counter or is None.
ENTRY_POINTS = (
    ("repro.simulator.cluster", "Cluster.__init__", "cluster.init", None, "call"),
    ("repro.simulator.cluster", "Cluster.run", "unattributed", None, "call"),
    ("repro.simulator.engine", "Engine.run", "engine", None, "call"),
    ("repro.simulator.engine", "Engine.notify", "engine", "engine.notify_calls", "call"),
    ("repro.simulator.engine", "Engine.add_process", "engine", None, "call"),
    ("repro.simulator.process", "RankEnv.wait_until", "engine", None, "gen"),
    ("repro.simulator.network", "Transport.post_send", "transport.post_send",
     "transport.sends", "send"),
    ("repro.simulator.network", "Transport.take_match", "transport.match", None, "call"),
    ("repro.simulator.network", "Transport.find_match", "transport.match", None, "call"),
    ("repro.simulator.network", "Transport.take_match_where", "transport.match",
     None, "call"),
    ("repro.simulator.network", "Transport.find_match_where", "transport.match",
     None, "call"),
    ("repro.messaging", "RecvRequest.test", "messaging", "messaging.test_calls", "test"),
    ("repro.messaging", "SendRequest.test", "messaging", "messaging.test_calls", "test"),
    ("repro.messaging", "wait_all", "messaging", None, "gen"),
    ("repro.messaging", "wait_any", "messaging", None, "gen"),
    ("repro.collectives.machines", "CollectiveRequest.__init__", "collectives",
     "collectives.scalar", "call"),
    ("repro.collectives.machines", "CollectiveRequest.test", "collectives",
     "collectives.test_calls", "test"),
    ("repro.collectives.hierarchical", "build_hierarchy", "collectives.hierarchy",
     None, "call"),
    ("repro.collectives.hierarchical", "hierarchy_of", "collectives.hierarchy",
     None, "call"),
    ("repro.collectives.hierarchical", "barrier_hierarchy_of",
     "collectives.hierarchy", None, "call"),
    ("repro.collectives.ir", "schedule_for", "collectives.hierarchy", None, "call"),
    ("repro.core.spmd", "join_lockstep", "spmd", None, "call"),
    ("repro.core.spmd", "join_exchange", "spmd", None, "call"),
    ("repro.core.spmd", "SpmdCoordinator.join", "spmd", "spmd.joins", "call"),
    ("repro.core.spmd", "LockstepRequest.test", "spmd", None, "call"),
    # Engine events that enter the SPMD pricer directly (deferred
    # fast-forward flushes and schedule-IR stage drains); without them that
    # work would count as engine self time.
    ("repro.core.spmd", "_ScanPhase._flush_event", "spmd", None, "call"),
    ("repro.core.spmd", "_SchedulePhase._drain", "spmd", None, "call"),
    ("repro.mpi.runtime", "init_mpi", "mpi.init", None, "call"),
    ("repro.mpi.runtime", "MpiRuntime.__init__", "mpi.init", None, "call"),
    ("repro.mpi.context", "ContextIdPool.acquire", "mpi.context", None, "call"),
    ("repro.mpi.comm_create", "comm_create_group", "mpi.create", "mpi.creates", "gen"),
    ("repro.mpi.comm_create", "comm_split", "mpi.create", "mpi.creates", "gen"),
    ("repro.rbc.comm", "create_rbc_comm", "rbc.create", "rbc.creates", "gen"),
    ("repro.rbc.comm", "RbcComm.split", "rbc.create", "rbc.creates", "gen"),
    ("repro.rbc.comm", "split_rbc_comm", "rbc.create", None, "gen"),
    ("repro.sorting.jquick", "jquick", "sorting", None, "gen"),
    ("repro.sorting.kernels", "fused_partition", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.kernels", "fused_partition_rows", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.kernels", "select_splitters", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.kernels", "select_splitters_rows", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.pivot", "median_of_samples", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.assignment", "greedy_assignment", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.assignment", "greedy_assignment_rows", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.sorting.basecase", "sort_local", "sorting.kernel",
     "sorting.kernel_calls", "kernel"),
    ("repro.core.rand", "sample_key", "rand", None, "call"),
    ("repro.core.rand", "sample_keys", "rand", None, "call"),
    ("repro.core.rand", "sample_indices", "rand", None, "call"),
    ("repro.core.rand", "sample_indices_rows", "rand", None, "call"),
)

#: Classes all of whose public methods (and constructor) are one layer.
WHOLE_CLASSES = (
    ("repro.mpi.group", "MpiGroup", "mpi.group", "mpi.group_calls"),
    ("repro.sorting.batched", "LevelBatcher", "sorting.batched", None),
)

#: The nonblocking RBC collectives, counted in ``rbc.collective_calls``.
RBC_COLLECTIVES = (
    "ibcast", "ireduce", "iscan", "iexscan", "igather", "igatherv", "ibarrier",
    "iallreduce", "iallgather", "iallgatherv", "ialltoallv", "iscatter",
    "iscatterv", "ireduce_scatter",
)

#: The blocking RBC collectives (generators around the nonblocking ones).
RBC_BLOCKING = tuple(name[1:] for name in RBC_COLLECTIVES)


def _array_elements(args, kwargs) -> int:
    total = 0
    for value in args:
        if isinstance(value, np.ndarray):
            total += value.size
    for value in kwargs.values():
        if isinstance(value, np.ndarray):
            total += value.size
    return total


def _send_words(args, kwargs) -> int:
    """Words of one ``Transport.post_send(self, src, dst, tag, context,
    payload, words=None, ...)`` call, as the transport itself counts them."""
    words = args[6] if len(args) > 6 else kwargs.get("words")
    if words is None:
        words = payload_words(args[5] if len(args) > 5 else kwargs["payload"])
    return words


class Recorder:
    """Self time per layer and call counters of one traced run."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        # One slot per open span: the time its wrapped children took.
        self._stack = [0.0]
        self._gc_start = None

    def wrap(self, fn, layer: str, counter=None, how: str = "call"):
        """A timed stand-in for ``fn`` (see ENTRY_POINTS for ``how``)."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        if how == "gen":
            recorder = self

            def gen_wrapper(*args, **kwargs):
                if counter is not None:
                    counts[counter] += 1
                return TimedGenerator(fn(*args, **kwargs), layer, recorder)
            return gen_wrapper

        true_counter = None if counter is None else counter + ".true"
        elems_counter = "sorting.kernel_elems"
        words_counter = "transport.words"

        # The span bookkeeping of timed(), inlined: some wrappers run millions
        # of times in one traced run.
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if how == "kernel":
                counts[elems_counter] += _array_elements(args, kwargs)
            elif how == "send":
                counts[words_counter] += _send_words(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
            if how == "test" and result:
                counts[true_counter] += 1
            return result
        return wrapper

    def gc_callback(self, phase: str, _info) -> None:
        """``gc.callbacks`` hook: a cyclic collection inside a span is a span
        of "gc"; explicit collections between simulations are not counted."""
        stack = self._stack
        if phase == "start":
            if len(stack) == 1:
                self._gc_start = None
                return
            stack.append(0.0)
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        elapsed = time.perf_counter() - self._gc_start
        self.self_s["gc"] += elapsed - stack.pop()
        stack[-1] += elapsed
        self.counts["gc.collections"] += 1

    def timed(self, layer: str, fn, *args):
        """``fn(*args)`` as one span of ``layer``."""
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[layer] += elapsed - stack.pop()
            stack[-1] += elapsed


class TimedGenerator:
    """Generator proxy timing each resumption of ``gen`` as a span.

    Supports the protocol both the engine (``send``) and ``yield from``
    (``__next__``, ``send``, ``throw``, ``close``) use, and passes the
    return value through ``StopIteration`` unchanged.
    """

    __slots__ = ("_gen", "_layer", "_recorder")

    def __init__(self, gen, layer: str, recorder: Recorder):
        self._gen = gen
        self._layer = layer
        self._recorder = recorder

    def __iter__(self):
        return self

    def __next__(self):
        return self._recorder.timed(self._layer, self._gen.send, None)

    def send(self, value):
        return self._recorder.timed(self._layer, self._gen.send, value)

    def throw(self, *args):
        return self._recorder.timed(self._layer, self._gen.throw, *args)

    def close(self):
        return self._gen.close()


def _replace_everywhere(original, wrapper, modules) -> list:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    undo = []
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = wrapper
                undo.append((namespace, name, original))
    return undo


def _wrap_class_attr(recorder, cls, name, layer, counter, how):
    raw = cls.__dict__[name]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(recorder.wrap(raw.__func__, layer, counter, how))
    elif isinstance(raw, property):
        wrapped = property(recorder.wrap(raw.fget, layer, counter, how),
                           raw.fset, raw.fdel, raw.__doc__)
    else:
        wrapped = recorder.wrap(raw, layer, counter, how)
    setattr(cls, name, wrapped)
    return cls, name, raw


@contextlib.contextmanager
def installed(recorder: Recorder, extra_modules=()):
    """Install every wrapper for the duration of the ``with`` block."""
    targets = [(importlib.import_module(module), path, layer, counter, how)
               for module, path, layer, counter, how in ENTRY_POINTS]
    rbc_collectives = importlib.import_module("repro.rbc.collectives")
    targets += [(rbc_collectives, name, "rbc", "rbc.collective_calls", "call")
                for name in RBC_COLLECTIVES]
    targets += [(rbc_collectives, name, "rbc", None, "gen")
                for name in RBC_BLOCKING]
    modules = [module for name, module in list(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    modules += list(extra_modules)

    class_undo = []
    name_undo = []
    gc.callbacks.append(recorder.gc_callback)
    try:
        for module, path, layer, counter, how in targets:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                class_undo.append(
                    _wrap_class_attr(recorder, cls, attr, layer, counter, how))
            else:
                original = getattr(module, attr)
                wrapper = recorder.wrap(original, layer, counter, how)
                name_undo += _replace_everywhere(original, wrapper, modules)
        for module_name, cls_name, layer, counter in WHOLE_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in list(vars(cls)):
                if attr.startswith("__") and attr != "__init__":
                    continue
                raw = cls.__dict__[attr]
                if callable(raw) or isinstance(
                        raw, (classmethod, staticmethod, property)):
                    class_undo.append(_wrap_class_attr(
                        recorder, cls, attr, layer, counter, "call"))
        yield recorder
    finally:
        gc.callbacks.remove(recorder.gc_callback)
        for namespace, name, original in reversed(name_undo):
            namespace[name] = original
        for cls, name, raw in reversed(class_undo):
            setattr(cls, name, raw)
