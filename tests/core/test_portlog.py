"""The columnar receive-port logs against a list-of-entries oracle.

:class:`~repro.core.portlog.PortLogs` keeps every port's write log in flat
columns.  ``ListLogs`` below is the earlier representation — one Python
list of ``[post, leave, transfer, free, arrival, cap, owner, flag]``
entries per port — kept as an independent oracle of the same algorithm.
Hypothesis drives both with the same write sequences (in-order and
out-of-order writes, flat and schedule-replay ties, cap commits, exchange-
style deferred caps, vector round commits, and prunes at a moving live-phase
bound) and requires the same arrivals, port frees, log contents, vector
tails and :class:`LockstepError` on the same write.
"""

import gc
import random
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import spmd
from repro.core.portlog import NO_CAP, PRUNE_AT, LockstepError, PortLogs
from repro.mpi import init_mpi
from repro.rbc import collectives as rbc
from repro.rbc import create_rbc_comm
from repro.simulator import Cluster

class _Field:
    """``logs.arrival[handle]``-style access to one field of list entries."""

    def __init__(self, index):
        self.index = index

    def __getitem__(self, entry):
        return entry[self.index]

    def __setitem__(self, entry, value):
        entry[self.index] = value


class ListLogs:
    """Oracle: per-port lists of per-entry lists (same API as PortLogs)."""

    arrival = _Field(4)
    cap = _Field(5)

    def __init__(self, recv_free, bound):
        self.recv_free = recv_free
        self.bound = bound
        self.logs = {}

    def recv(self, phase, port, post, leave, transfer):
        log = self.logs.setdefault(port, [])
        hier = phase._hier_sub
        tail = log[-1] if log else None
        tied = tail is not None and post == tail[0]
        if tail is None or post > tail[0] or (tied and (
                (not hier and not tail[7])
                or self._tie_commutes(phase, log, len(log), post, leave,
                                      transfer, port))):
            free = self.recv_free[port]
            arrival = free + transfer
            if leave > arrival:
                arrival = leave
            self.recv_free[port] = arrival
            entry = [post, leave, transfer, free, arrival, None, phase._owner,
                     hier or (tied and tail[7])]
            if len(log) >= PRUNE_AT:
                self.prune(log)
            log.append(entry)
        else:
            index = len(log)
            while index > 0 and log[index - 1][0] > post:
                index -= 1
            if index > 0 and log[index - 1][0] == post \
                    and (hier or log[index - 1][7]):
                self._tie_commutes(phase, log, index, post, leave, transfer,
                                   port)
            free = log[index][3]
            arrival = free + transfer
            if leave > arrival:
                arrival = leave
            entry = [post, leave, transfer, free, arrival, None, phase._owner,
                     hier or (index > 0 and log[index - 1][0] == post
                              and log[index - 1][7])]
            value = arrival
            changed_to_end = True
            for later in log[index:]:
                later[3] = value
                refold = value + later[2]
                if later[1] > refold:
                    refold = later[1]
                if refold == later[4]:
                    changed_to_end = False
                    break
                if later[5] is None or refold > later[5]:
                    raise LockstepError(
                        f"lockstep {phase.kind}: receive-port contention on "
                        f"world rank {port} spans overlapping collective "
                        f"phases (a write posted at {post} changes the "
                        f"arrival of a later write posted at {later[0]} "
                        f"beyond what its phase observed); run this "
                        f"workload with lockstep disabled")
                later[4] = refold
                value = refold
            if changed_to_end:
                self.recv_free[port] = value
            log.insert(index, entry)
        phase._cap_pending.append(entry)
        return arrival

    def _tie_commutes(self, phase, log, end, post, leave, transfer, port):
        run_start = end
        while run_start > 0 and log[run_start - 1][0] == post:
            run_start -= 1
        if run_start == end:
            return True
        if not phase._hier_sub and not log[end - 1][7]:
            return True
        if all(log[k][6] == phase._owner for k in range(run_start, end)):
            return True
        front = log[run_start][3] + transfer
        if leave > front:
            front = leave
        value = front
        commutes = True
        for k in range(run_start, end):
            refold = value + log[k][2]
            if log[k][1] > refold:
                refold = log[k][1]
            if refold != log[k][4]:
                commutes = False
                break
            value = refold
        if commutes:
            back = (log[end][3] if end < len(log) else self.recv_free[port]) \
                + transfer
            if leave > back:
                back = leave
            commutes = front == back
        if not commutes:
            raise LockstepError(
                f"lockstep {phase.kind}: receive-port contention on world "
                f"rank {port} — writes from overlapping collective phases "
                f"posted at exactly {post} and their fold depends on the "
                f"native tie order; run this workload with lockstep "
                f"disabled")
        return True

    def prune(self, log):
        bound = self.bound()
        drop = 0
        for entry in log:
            if entry[0] >= bound:
                break
            drop += 1
        del log[:drop]

    def commit_caps(self, pending, cap):
        for entry in pending:
            entry[5] = cap
        del pending[:]

    def tails(self, ports, hier):
        tails, hazards = [], []
        for port in ports:
            log = self.logs.get(port)
            tail = log[-1][0] if log else float("-inf")
            tails.append(tail)
            hazards.append(tail if log and (hier or log[-1][7])
                           else float("-inf"))
        return tails, hazards

    def commit_rounds(self, ports, rounds, owner, hier):
        for member, port in enumerate(ports):
            log = self.logs.setdefault(port, [])
            for offset, posts, leaves, transfer, frees, arrivals, caps \
                    in rounds:
                index = member - offset
                if index < 0:
                    continue
                if len(log) >= PRUNE_AT:
                    self.prune(log)
                post = posts[index]
                log.append([post, leaves[index],
                            transfer[index] if transfer.__class__ is list
                            else transfer, frees[index],
                            arrivals[index], caps[index], owner,
                            hier or (bool(log) and log[-1][0] == post
                                     and log[-1][7])])

    # -- comparison views ---------------------------------------------------

    def entries(self, port):
        return [tuple(entry) for entry in self.logs.get(port, [])]


def store_entries(logs, port):
    """A PortLogs port log as oracle-shaped tuples (pending cap = None)."""
    entries = []
    slot = logs.head[port]
    while slot >= 0:
        cap = logs.cap[slot]
        entries.append((logs.post[slot], logs.leave[slot],
                        logs.transfer[slot], logs.free[slot],
                        logs.arrival[slot], None if cap == NO_CAP
                        else cap, logs.owner[slot], logs.flag[slot]))
        slot = logs.nxt[slot]
    assert len(entries) == logs.length[port]
    return entries


class Phase:
    """The attributes the logs read off a writing phase."""

    kind = "test"

    def __init__(self, owner, hier):
        self._owner = owner
        self._hier_sub = hier
        self._cap_pending = []


PORTS = 2
TIMES = st.integers(0, 12).map(lambda t: t / 2)
DELTAS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])

#: A write posted ``offset`` after the prune bound (``"clock"``: often
#: out of order) or after its port's tail (``"tail"``: in order), then
#: (unless None) its phase's cap commit at arrival + delta, as a scalar
#: pricer commits right after folding.
RECV = st.tuples(st.just("recv"), st.integers(0, 3),
                 st.integers(0, PORTS - 1), TIMES, DELTAS, DELTAS,
                 st.one_of(st.none(), DELTAS, DELTAS),
                 st.sampled_from(["clock", "tail"]))
CAPS = st.tuples(st.just("caps"), st.integers(0, 3), DELTAS)
OPS = st.one_of(
    RECV, RECV, RECV, CAPS, CAPS,
    st.tuples(st.just("hold"), st.integers(0, 3)),
    st.tuples(st.just("release"), DELTAS),
    st.tuples(st.just("rounds"), st.integers(0, 3),
              st.permutations(range(PORTS)), st.integers(1, PORTS),
              st.lists(st.integers(0, PORTS - 1), min_size=1, max_size=4),
              st.lists(DELTAS, min_size=3, max_size=3)),
    st.tuples(st.just("advance"), DELTAS),
)


def _phases(hier_flags):
    return [Phase(owner, hier) for owner, hier in enumerate(hier_flags)]


@settings(max_examples=300, deadline=None)
@given(hier_flags=st.lists(st.booleans(), min_size=4, max_size=4),
       ops=st.lists(OPS, min_size=10, max_size=120))
def test_store_matches_list_oracle(hier_flags, ops):
    _drive(hier_flags, ops)


@settings(max_examples=60, deadline=None)
@given(hier_flags=st.lists(st.booleans(), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_long_runs_match_list_oracle(hier_flags, seed):
    """Long write sequences that mostly commit their caps, so the logs
    outgrow the prune threshold and prune at the moving bound."""
    rng = random.Random(seed)
    deltas = [0.0, 0.25, 0.5, 1.0, 3.0]
    slack = [0.0, 3.0, float("inf"), float("inf")]
    ops = []
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("recv", rng.randrange(4), rng.randrange(PORTS),
                        rng.randrange(5) / 2, rng.choice(deltas),
                        rng.choice(deltas),
                        None if roll < 0.05 else rng.choice(slack),
                        "clock" if roll < 0.03 else "tail"))
        elif roll < 0.65:
            ops.append(("caps", rng.randrange(4), rng.choice(deltas)))
        elif roll < 0.7:
            ops.append(("hold", rng.randrange(4)))
        elif roll < 0.75:
            ops.append(("release", rng.choice(deltas)))
        elif roll < 0.85:
            ops.append(("rounds", rng.randrange(4),
                        rng.sample(range(PORTS), PORTS),
                        rng.randrange(1, PORTS + 1),
                        [rng.randrange(PORTS) for _ in range(3)],
                        [rng.choice(deltas) for _ in range(3)]))
        else:
            ops.append(("advance", rng.choice(deltas)))
    _drive(hier_flags, ops)


def _drive(hier_flags, ops):
    """Apply ``ops`` to a PortLogs and a ListLogs; compare after each."""
    clock = [0.0]
    bound = lambda: clock[0]  # noqa: E731 - the live-phase prune bound
    store_free = [0.0] * PORTS
    oracle_free = [0.0] * PORTS
    store = PortLogs(store_free, bound)
    oracle = ListLogs(oracle_free, bound)
    sides = ((store, _phases(hier_flags), []),
             (oracle, _phases(hier_flags), []))
    next_owner = len(hier_flags)
    for op in ops:
        kind = op[0]
        if kind == "recv":
            _, who, port, post, leave, transfer, commit, anchor = op
            tail = oracle.tails([port], False)[0][0]
            post += clock[0] if anchor == "clock" else max(tail, clock[0])
            outcomes = []
            for logs, phases, _held in sides:
                try:
                    outcomes.append(logs.recv(phases[who], port, post,
                                              post + leave, transfer))
                except LockstepError as exc:
                    outcomes.append(("refused", str(exc)))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], tuple):
                return  # a refusal ends the simulation
            if commit is not None:
                for logs, phases, _held in sides:
                    logs.commit_caps(phases[who]._cap_pending,
                                     outcomes[0] + commit)
        elif kind == "caps":
            _, who, delta = op
            for logs, phases, _held in sides:
                pending = phases[who]._cap_pending
                if pending:
                    top = max(logs.arrival[handle] for handle in pending)
                    logs.commit_caps(pending, top + delta)
        elif kind == "hold":
            # Exchange style: the newest pending entry keeps an infinite
            # cap until its consumer commits.
            _, who = op
            for logs, phases, held in sides:
                pending = phases[who]._cap_pending
                if pending:
                    handle = pending.pop()
                    logs.cap[handle] = float("inf")
                    held.append(handle)
        elif kind == "release":
            _, delta = op
            for logs, _phases_, held in sides:
                if held:
                    top = max(logs.arrival[handle] for handle in held)
                    logs.commit_caps(held, top + delta)
        elif kind == "rounds":
            _, who, order, size, offsets, deltas = op
            ports = list(order[:size])
            hier = hier_flags[who]
            rounds = _vector_rounds(store, store_free, ports, offsets, deltas,
                                    hier, clock[0])
            oracle_free[:] = store_free
            store.commit_rounds(_index(ports), rounds, next_owner, hier)
            oracle.commit_rounds(ports, [
                (offset,) + tuple(
                    part if isinstance(part, float) else part.tolist()
                    for part in rest)
                for offset, *rest in rounds], next_owner, hier)
            next_owner += 1
        else:
            # The bound never passes a write a live phase still owns.
            _, phases, held = sides[1]
            owned = [handle[0] for handle in held] + [
                handle[0] for phase in phases for handle in phase._cap_pending]
            clock[0] = min([clock[0] + op[1]] + owned)
        assert store_free == oracle_free
        for port in range(PORTS):
            assert store_entries(store, port) == oracle.entries(port)
        for hier in (False, True):
            tails, hazards = store.tails(_index(range(PORTS)), hier)
            assert (tails.tolist(), hazards.tolist()) \
                == oracle.tails(range(PORTS), hier)


def _index(ports):
    return np.asarray(list(ports), dtype=np.intp)


def _vector_rounds(store, recv_free, ports, offsets, deltas, hier, bound):
    """Round arrays a vector pricer could commit on ``ports``.

    Every post is at or after its port's tail and the prune bound, and
    strictly after a tie-hazard tail — the shapes the vector pricers'
    pre-commit check admits.  Arrivals fold onto ``recv_free`` in round
    order, as the pricers' port scatter leaves it.
    """
    tails, hazards = store.tails(_index(ports), hier)
    tails = tails.tolist()
    hazards = hazards.tolist()
    rounds = []
    for number, offset in enumerate(min(o, len(ports) - 1) for o in offsets):
        step = deltas[number % len(deltas)]
        posts, leaves, frees, arrivals, caps = [], [], [], [], []
        transfer = deltas[(number + 1) % len(deltas)]
        for member in range(offset, len(ports)):
            port = ports[member]
            post = max(tails[member], bound) + step
            if post == hazards[member]:
                post += 0.5
            tails[member] = post
            hazards[member] = post if hier else float("-inf")
            free = recv_free[port]
            arrival = free + transfer
            leave = post + deltas[2]
            if leave > arrival:
                arrival = leave
            recv_free[port] = arrival
            posts.append(post)
            leaves.append(leave)
            frees.append(free)
            arrivals.append(arrival)
            caps.append(arrival + step)
        rounds.append((offset, np.array(posts), np.array(leaves), transfer,
                       np.array(frees), np.array(arrivals), np.array(caps)))
    return rounds


# ---------------------------------------------------------------------------
# Retired phases are not kept alive by the logs.
# ---------------------------------------------------------------------------

def test_retired_phases_are_released(monkeypatch):
    """Live ``_PhaseBase`` instances stay bounded over many repetitions.

    Log entries name their phase by integer id, so a retired phase is
    garbage as soon as its members have woken; only the generations still
    in flight may be alive when rank 0 finishes a repetition.
    """
    live = weakref.WeakSet()
    created = []
    init = spmd._PhaseBase.__init__

    def tracked_init(self, *args):
        init(self, *args)
        live.add(self)
        created.append(self.kind)

    monkeypatch.setattr(spmd._PhaseBase, "__init__", tracked_init)
    counts = []

    def program(env, reps):
        env.lockstep_collectives = True
        comm = yield from create_rbc_comm(init_mpi(env))
        for _ in range(reps):
            request = rbc.ibcast(comm, 1.0 if env.rank == 0 else None, 0)
            yield from env.wait_until(request.test)
            request = rbc.ibarrier(comm)
            yield from env.wait_until(request.test)
            if env.rank == 0:
                gc.collect()
                counts.append(len(live))

    Cluster(64).run(program, reps=60)
    assert created.count("bcast") == created.count("barrier") == 60
    assert len(counts) == 60
    assert max(counts) <= 2, counts
