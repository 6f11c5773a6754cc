"""Host-work scaling guard for native communicator creation.

Native ``MPI_Comm_create_group`` and ``MPI_Comm_split`` cost O(p) simulated
work per rank, and their host work should be O(p) per rank with small
constants, too.  Two host costs used to grow faster:

* re-measuring the allgathered (color, key, rank) list on every edge of the
  broadcast tree (``payload_words`` visits O(p) items per edge);
* translating O(p) ranks per process one ``MpiGroup`` call at a time.

This test counts both deterministically — every ``payload_words`` call
(one per item visited, the function recurses through its module global) and
every ``MpiGroup`` method call — for a create_group plus a split at p and 2p.
Quadratic growth gives a ratio of about 4; the bound of 2.5 leaves room for
the O(p log p) of the binomial gather.
"""

import sys

import pytest

from repro.mpi import MpiGroup, init_mpi
from repro.simulator import Cluster
from repro.simulator import network

MAX_GROWTH = 2.5


def _halves_program(env):
    world = init_mpi(env, vendor="intel")
    half = world.size // 2
    first, last = (0, half - 1) if world.rank < half else (half, world.size - 1)
    group = MpiGroup.range_incl([(world.to_world(first), world.to_world(last), 1)])
    created = yield from world.create_group(group, tag=1)
    split = yield from world.split(color=0 if world.rank < half else 1,
                                   key=world.rank)
    return (created.size, created.rank), (split.size, split.rank)


def _counted(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _install_counters(monkeypatch, counts):
    """Count ``payload_words`` through every module binding it (``from x
    import f`` copies escape a patch of ``x`` alone) and every ``MpiGroup``
    method, property and constructor call."""
    original = network.payload_words
    wrapper = _counted(original, counts, "payload_words")
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    for attr, raw in list(vars(MpiGroup).items()):
        if attr.startswith("__") and attr != "__init__":
            continue
        if isinstance(raw, property):
            monkeypatch.setattr(MpiGroup, attr, property(
                _counted(raw.fget, counts, "group_calls")))
        elif isinstance(raw, classmethod):
            monkeypatch.setattr(MpiGroup, attr, classmethod(
                _counted(raw.__func__, counts, "group_calls")))
        elif callable(raw):
            monkeypatch.setattr(MpiGroup, attr,
                                _counted(raw, counts, "group_calls"))


def _creation_counts(num_ranks):
    counts = {"payload_words": 0, "group_calls": 0}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _install_counters(monkeypatch, counts)
        results = Cluster(num_ranks).run(_halves_program).results
    half = num_ranks // 2
    assert results == [((half, r % half), (half, r % half))
                       for r in range(num_ranks)]
    return counts


def test_native_creation_host_work_grows_at_most_p_log_p():
    small = _creation_counts(128)
    large = _creation_counts(256)
    for key in small:
        assert small[key] > 0, key
        growth = large[key] / small[key]
        assert growth <= MAX_GROWTH, (
            f"{key}: {small[key]} at p=128, {large[key]} at p=256 "
            f"(x{growth:.2f} > x{MAX_GROWTH})")
