"""Cross-rank batching of JQuick distributed levels (the paper-scale tier).

At paper scale (p = 2^15) the per-rank Python work of one distributed level —
a counter-key hash, a handful of sample draws, a partition of a few elements,
a two-piece greedy assignment — is pure dispatch overhead: every rank of a
group performs the *same* sequence on different rows.  This module stacks
those rows: one :class:`LevelBatcher` record per (group, task-interval,
level) computes the whole group's sampling grid, partition and assignment in
a few ragged NumPy sweeps (the ``*_rows`` kernels of :mod:`repro.core.rand`,
:mod:`repro.sorting.kernels` and :mod:`repro.sorting.assignment`), and each
member fetches its row from the shared result.

The record lives on the simulation's transport (all simulated ranks share one
interpreter), is created by the first member that reaches the level, and is
retired once every member has consumed its exchange row (or released it on a
degenerate split).  Everything a record precomputes before the members'
arrival — row sizes, sample counts, sample indices — is slot arithmetic, a
pure function of ``(n, p, lo, hi, level, seed)`` that every member derives
identically; the data-dependent steps (pivot, partition, assignment) run
inside the level phase once every member has joined, and so registered its
row.

Bit-identity: every batched kernel is the bit-exact row-stacked form of the
scalar call it replaces (property-pinned in the kernel modules), the pivot
is :func:`~repro.sorting.pivot.median_of_samples` of the stacked samples,
and the exchange is priced by the phase behind
:func:`repro.core.spmd.join_exchange`, the analytic mirror of the native
drain loop.  The tier therefore reproduces the scalar frontier's results and
simulated times exactly; the differential suite in
``tests/sorting/test_jquick_batched.py`` pins this end to end.
"""

from __future__ import annotations

import numpy as np

from ..core import rand
from ..core.spmd import (
    SpmdCoordinator,
    _BcastPhase,
    _ExchangePhase,
    _GatherPhase,
    _PhaseBase,
    _ScanPhase,
)
from ..mpi.datatypes import SUM
from ..rbc.comm import RBC_CREATE_OPS
from .assignment import greedy_assignment_rows
from .kernels import fused_partition_rows
from .partition import Pivot
from .pivot import median_of_samples, sample_count

__all__ = ["LevelBatcher", "join_jq_level", "SCAN_VECTOR_MIN_SIZE"]

#: Smallest group whose count scan the level phase prices with the
#: vectorised fast-forward pricer; smaller groups take the scalar frontier.
#: Both are bit-identical, so this only trades NumPy round set-up against
#: per-member Python loops (measured per scan inside whole sorts, see the
#: README section "Scaling to paper size").
SCAN_VECTOR_MIN_SIZE = 32


class _LevelRecord:
    """Shared state of one distributed level of one task's group."""

    __slots__ = (
        "first", "last", "lo", "hi", "level", "size", "n", "p", "config",
        "row_lo", "row_sizes", "row_offsets", "local_counts",
        "indices", "index_offsets", "rows", "registered", "values",
        "buffer", "small_counts", "total_small",
        "piece_dest", "piece_len", "piece_offsets", "expected",
        "consumed",
    )

    def __init__(self, run, first: int, last: int, lo: int, hi: int,
                 level: int):
        self.config = run.config
        self.first = first
        self.last = last
        self.lo = lo
        self.hi = hi
        self.level = level
        self.n = run.n
        self.p = run.p
        size = self.size = last - first + 1
        # Slot layout of the group's rows (owner intervals clipped to the
        # task interval) — same arithmetic as the members' my_lo / my_hi.
        q, r = run._q, run._r
        ranks = np.arange(first, last + 1, dtype=np.int64)
        starts = ranks * q + np.minimum(ranks, r)
        ends = starts + q + (ranks < r)
        row_lo = self.row_lo = np.maximum(lo, starts)
        row_sizes = self.row_sizes = np.minimum(hi, ends) - row_lo
        offsets = self.row_offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(row_sizes, out=offsets[1:])
        # The whole group's sampling grid, in one ragged sweep.  Mirrors the
        # scalar per-rank expression ``max(1, ceil(sigma * size / total)) if
        # size else 0`` bit for bit (same float operand order elementwise).
        total = hi - lo
        config = run.config
        sigma = sample_count(config.pivot, size, total / size)
        self.local_counts = np.where(
            row_sizes > 0,
            np.maximum(1, np.ceil(sigma * row_sizes / total)).astype(np.int64),
            0)
        keys = rand.sample_keys(config.seed, lo, hi, level, ranks)
        self.indices, self.index_offsets = rand.sample_indices_rows(
            keys, self.local_counts, row_sizes)
        self.rows: list = [None] * size
        self.registered = 0
        self.values = None
        self.buffer = None
        self.small_counts = None
        self.total_small = 0
        self.piece_dest = None
        self.piece_len = None
        self.piece_offsets = None
        self.expected = None
        self.consumed = 0


class LevelBatcher:
    """Per-transport registry of the live :class:`_LevelRecord` instances.

    Keys are ``(first, lo, hi, level)`` — unique among simultaneously active
    levels (task intervals of concurrent tasks are disjoint, and a group
    retries a degenerate interval at ``level + 1``).  Records are dropped as
    soon as the last member consumes them, so the registry never grows with
    the recursion depth.  One batcher serves one run at a time per transport;
    concurrent sorts on one cluster are not a supported pattern.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records: dict = {}

    def level(self, run, first: int, last: int, lo: int, hi: int,
              level: int) -> _LevelRecord:
        """The group's shared record for this level (created by first caller)."""
        key = (first, lo, hi, level)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _LevelRecord(
                run, first, last, lo, hi, level)
        return record

    # ------------------------------------------------------------- member API

    def register(self, record: _LevelRecord, group_rank: int,
                 data: np.ndarray) -> None:
        """Deposit a member's row."""
        if record.rows[group_rank] is None:
            record.rows[group_rank] = data
            record.registered += 1

    def pivot(self, record: _LevelRecord) -> Pivot:
        """The level's pivot: the median of every member's samples.

        The group's rows are stacked once; the gathered samples are the
        picks of every row in member order, so one chunk of them gives
        :func:`median_of_samples` exactly the concatenation it would build
        from the per-member chunks member 0 gathers.
        """
        if record.registered != record.size:
            raise RuntimeError(
                f"jquick batched level [{record.lo}, {record.hi}) at "
                f"level {record.level}: pivot requested with "
                f"{record.registered}/{record.size} rows registered")
        values = record.values = np.concatenate(record.rows)
        record.rows = None
        counts = record.local_counts
        picks = record.indices
        return median_of_samples([(
            values[np.repeat(record.row_offsets[:-1], counts) + picks],
            np.repeat(record.row_lo, counts) + picks)])

    def partition(self, record: _LevelRecord, pivot_value: float,
                  pivot_slot: int, tie_breaking: bool) -> None:
        """Group-wide fused partition of the stacked rows around the pivot.

        Fills ``buffer`` (the task's slot region after the exchange),
        ``small_counts`` and ``total_small``; ``pivot`` must have run.
        """
        if tie_breaking:
            cuts = np.clip(pivot_slot - record.row_lo, 0, record.row_sizes)
        else:
            cuts = np.zeros(record.size, dtype=np.int64)
        buffer, small_counts = fused_partition_rows(
            record.values, record.row_offsets, cuts, pivot_value)
        # The buffer *is* the task's slot region [lo, hi) after the
        # exchange; freeze it so the views handed to child tasks (and
        # base-case messages sent from them) skip the transport snapshot.
        buffer.flags.writeable = False
        record.buffer = buffer
        record.small_counts = small_counts
        record.total_small = int(small_counts.sum())
        record.values = None

    def assignment(self, record: _LevelRecord) -> None:
        """Group-wide greedy assignment; ``partition`` must have run.

        Fills the record's piece arrays — rank ``g``'s outgoing pieces are
        ``piece_dest/piece_len[piece_offsets[g]:piece_offsets[g + 1]]`` in
        native posting order (small pieces then large pieces, each in slot
        order) — and ``expected``, the per-member count of inbound remote
        messages.
        """
        small_counts = record.small_counts
        size = record.size
        small_prefixes = np.zeros(size, dtype=np.int64)
        np.cumsum(small_counts[:-1], out=small_prefixes[1:])
        large_counts = record.row_sizes - small_counts
        large_prefixes = np.zeros(size, dtype=np.int64)
        np.cumsum(large_counts[:-1], out=large_prefixes[1:])
        dest, _slot_start, length, offsets = greedy_assignment_rows(
            lo=record.lo, total_small=record.total_small,
            small_prefixes=small_prefixes, small_counts=small_counts,
            large_prefixes=large_prefixes, large_counts=large_counts,
            n=record.n, p=record.p)
        record.piece_dest = dest
        record.piece_len = length
        record.piece_offsets = offsets
        src = np.repeat(
            np.arange(record.first, record.last + 1, dtype=np.int64),
            np.diff(offsets))
        remote = dest != src
        record.expected = np.bincount(dest[remote] - record.first,
                                      minlength=size)

    def pieces(self, record: _LevelRecord) -> list:
        """Every member's outgoing remote messages as ``(dest_member,
        words)`` lists, indexed by member.

        Self-copies are excluded; ``words`` counts the native
        ``(slot_start, chunk)`` payload.  ``assignment`` must have run.
        """
        dest = (record.piece_dest - record.first).tolist()
        words = (record.piece_len + 1).tolist()
        offsets = record.piece_offsets.tolist()
        return [[(d, w) for d, w in zip(dest[offsets[m]:offsets[m + 1]],
                                        words[offsets[m]:offsets[m + 1]])
                 if d != m]
                for m in range(record.size)]

    def take_view(self, record: _LevelRecord, group_rank: int) -> np.ndarray:
        """The member's post-exchange slot region (a frozen view of the
        group buffer); consumes the member's claim on the record."""
        lo = record.lo
        row_lo = int(record.row_lo[group_rank])
        view = record.buffer[row_lo - lo:
                             row_lo - lo + int(record.row_sizes[group_rank])]
        self._consume(record)
        return view

    def release(self, record: _LevelRecord, group_rank: int) -> None:
        """Drop a member's claim without an exchange (degenerate split)."""
        self._consume(record)

    def _consume(self, record: _LevelRecord) -> None:
        record.consumed += 1
        if record.consumed == record.size:
            del self._records[(record.first, record.lo, record.hi,
                               record.level)]


# ---------------------------------------------------------------------------
# The fused level phase: one lockstep join prices a whole distributed level.
# ---------------------------------------------------------------------------

def join_jq_level(ep, record: _LevelRecord, create: bool):
    """Enter this rank into the fused level phase of ``record``'s group.

    Must be called at the instant the member enters the level (where the
    native frontier would have started the group-communicator creation).
    ``create`` says whether this level creates a fresh communicator (false on
    a degenerate retry, which reuses the group's communicator).  The request
    completes at the member's native end-of-level time with
    ``(total_small, messages)`` as its result — everything else the member
    needs (its slot view, the degenerate verdict) derives from those via the
    batcher.
    """
    transport = ep.transport
    coordinator = getattr(transport, "_spmd_coordinator", None)
    if coordinator is None:
        coordinator = transport._spmd_coordinator = SpmdCoordinator()
    return coordinator.join(ep, "jqlevel", (record, create), None, 0)


class _JQLevelPhase(_PhaseBase):
    """One lockstep join per member prices an entire distributed level.

    The native batched frontier suspends each member several times per
    level: the communicator-creation charge, the fused sample/partition
    charge, and the five lockstep joins (sample gather, pivot bcast, count
    scan, totals bcast, data exchange).  Every one of those resumes carries
    a full engine wake-up and a generator chain — pure dispatch at paper
    scale.  This phase collapses them: each member joins once on entering
    the level, and the last join replays the whole level analytically —

    * the two compute charges are added onto the member's join time (with
      the tracer updated exactly as ``env.compute`` would);
    * the five sub-steps run as the *existing* phase classes of
      :mod:`repro.core.spmd` with synthetic join times — each member enters
      a sub-phase at its finish time from the previous one, which is
      precisely when the engine would have resumed it to issue the next
      call.  The sample gather, both broadcasts and the exchange are *fed*
      (``_feed_all``): one pass over plain lists, no per-member request or
      cascade.  Their per-port write sequences are those of the per-member
      joins (every port is written by one resolve, in the same order), so
      port folds, payload snapshots, tracer counters and float operand
      order are those of the unfused tier, bit for bit;
    * the count scan keeps its per-member joins, so its deferred flush event
      is armed (and later fires as a no-op) exactly as on the unfused tier;
      groups below :data:`SCAN_VECTOR_MIN_SIZE` resolve it on the scalar
      frontier, larger ones with the vectorised pricer;
    * the member wakes once, at its native end-of-level time, with
      ``(total_small, messages)``.

    Sub-phases are never registered with the coordinator (their generation
    is this phase); the level's own ``first_join`` keeps the receive-port
    prune bound conservative for every synthetic write, which all post at or
    after it.  A member's final finish always trails the last join — the
    gather funnels every join into member 0, whose broadcast feeds every
    later sub-step — so the wake batch never schedules into the past.
    """

    kind = "jqlevel"
    tier = "batched"

    def __init__(self, ep, op, root, coordinator):
        super().__init__(ep, op, root, coordinator)
        self.ep = ep
        self.record: _LevelRecord = None
        self.creates: list = [False] * self.size

    def on_join(self, rank: int) -> None:
        record, create = self.values[rank]
        self.values[rank] = None
        self.record = record
        self.creates[rank] = create
        if self.joined_count == self.size:
            self._resolve_all()

    def _sub(self, factory, op, root):
        """A sub-phase owned by this level (not coordinator-registered).

        Delegates to the base class's ``_sub_phase``; the endpoint is reused
        only for its group shape and neutral cost parameters — data-exchange
        and RBC-collective messages carry no vendor word factor or
        per-message delay.
        """
        return self._sub_phase(factory, op, root, self.ep)

    def _resolve_all(self) -> None:
        record = self.record
        config = record.config
        size = self.size
        env = self.ep.env
        batcher = self.transport._jquick_batcher
        compute_cost = self.compute_cost
        compute_time = self.stats.compute_time
        world = self.world
        charge = config.charge_local_work
        local_counts = record.local_counts.tolist()
        row_sizes = record.row_sizes.tolist()

        # Entry times: the communicator-creation charge and the fused
        # sampling + partitioning charge, added in the order the native
        # frontier sleeps through them (floats add left to right).
        create_cost = compute_cost(RBC_CREATE_OPS)
        times = []
        joined = self.joined
        obs = self._obs
        for m in range(size):
            t = joined[m]
            w = world[m]
            if self.creates[m]:
                compute_time[w] += create_cost
                if obs is not None and create_cost > 0:
                    obs.spans.append((w, t, t + create_cost,
                                      "comm_create", "jq_group_comm"))
                t += create_cost
            if charge:
                cost = compute_cost(local_counts[m] + row_sizes[m])
                compute_time[w] += cost
                if obs is not None and cost > 0:
                    obs.spans.append((w, t, t + cost, "compute",
                                      "jq_sample_partition"))
                t += cost
            times.append(t)
        # The level's collective span starts after the entry charges, so a
        # traced timeline shows creation/partition work separately from
        # the five fused collective sub-steps.
        self._span_starts = times

        # --- 1. sample gather to member 0 --------------------------------
        # Only word counts price the gather: member m's (values, slots) pair
        # of picks, plus the gathered list's per-pair rank word.  The pivot
        # comes from the stacked rows, so no sample chunk is built.
        gather = self._sub(_GatherPhase, None, 0)
        gather.member_words = [1 + 2 * count for count in local_counts]
        finish, _ = gather._feed_all(times, [None] * size)

        # --- 2. pivot broadcast from member 0 ----------------------------
        pivot = batcher.pivot(record)
        payload = (pivot.value, pivot.slot)
        bcast = self._sub(_BcastPhase, None, 0)
        finish, _ = bcast._feed_all(finish, [payload] + [None] * (size - 1))

        # --- 3. group-wide fused partition (host side, no simulated time) -
        batcher.partition(record, pivot.value, pivot.slot,
                          config.tie_breaking)
        small_counts = record.small_counts

        # --- 4. prefix scan of the (small, large) counts ------------------
        # Per-member joins: the first arms the scan's deferred flush event,
        # which fires later as a no-op, exactly as on the unfused tier.
        counts = np.empty((size, 2), dtype=np.int64)
        counts[:, 0] = small_counts
        counts[:, 1] = record.row_sizes - small_counts
        scan = self._sub(_ScanPhase, SUM, 0)
        join_at = scan._join_at
        for m, row in enumerate(counts):
            join_at(m, row, finish[m], env, None)
        if scan._flush_armed:
            # Resolve the armed flush now, with every join visible, exactly
            # as the event would have at this same instant.  Small groups
            # take the scalar frontier: below the cutoff the round arrays
            # cost more than the per-member loop they replace.
            if size < SCAN_VECTOR_MIN_SIZE:
                scan._flush_armed = False
                scan._advance()
            else:
                scan._flush(None)
        requests = scan.requests
        finish = [request.finish_time for request in requests]

        # --- 5. totals broadcast from the last member ---------------------
        inclusive = requests[size - 1]._value
        bcast2 = self._sub(_BcastPhase, None, size - 1)
        finish, _ = bcast2._feed_all(finish, [None] * (size - 1) + [inclusive])
        total_small = int(inclusive[0])

        if total_small == 0 or total_small == record.hi - record.lo:
            # Degenerate split: the level ends at the totals broadcast and
            # the members retry with fresh samples.
            for m in range(size):
                self._finish(m, finish[m], (total_small, 0))
            return

        # --- 6. analytic data exchange ------------------------------------
        batcher.assignment(record)
        expected = record.expected.tolist()
        pieces = batcher.pieces(record)
        exchange = self._sub(_ExchangePhase, None, 0)
        finish, messages = exchange._feed_all(
            finish, [(pieces[m], expected[m], row_sizes[m], charge)
                     for m in range(size)])
        for m in range(size):
            self._finish(m, finish[m], (total_small, messages[m]))


SpmdCoordinator.register_kind("jqlevel", lambda *args: _JQLevelPhase(*args))
