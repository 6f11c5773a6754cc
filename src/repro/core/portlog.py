"""Receive-port write logs of the SPMD lockstep tier, stored column-wise.

Native receive-port writes fold in global chronological post order.  The
lockstep pricers of :mod:`repro.core.spmd` apply writes phase by phase, so
a phase overlapping another in time on one port can apply a write out of
that order.  Every port therefore keeps a short log of recently applied
writes: an out-of-order write is re-inserted at its native position, the
already-applied later writes are re-folded, and the insert is refused with
:class:`LockstepError` when a re-folded arrival would exceed what its phase
already committed (its *cap*).  Ties at one post instant get the same
treatment when the native tie order cannot be proven.

:class:`PortLogs` holds the logs of every port of one transport in one
arena of parallel columns, one row ("slot") per log entry:

* float64 ``post``, ``leave``, ``transfer`` (``wire * beta``), ``free``
  (the port's free time before the write), ``arrival`` and ``cap``;
* int64 ``owner`` — the id of the phase that wrote the entry (a plain
  integer, so a log never keeps a retired phase alive);
* bool ``flag`` — the entry's tied run contains a schedule-IR replay write;
* int32 ``nxt`` — the next slot of the same port's log, or -1.

Each port's log is a singly linked list through ``nxt``, sorted by post
time, with per-port ``head``, ``tail`` and ``length`` vectors.  A slot
keeps its row for as long as the entry lives, so a slot number is a
stable handle (pending caps, the exchange phase's inbound entries) across
prunes and out-of-order inserts.  Pruned slots go onto a free-slot stack
for reuse.

The scalar pricers read and write Python floats through flat
``memoryview`` s of the columns; the vector pricers scatter whole rounds
into the same buffers with NumPy.  The arena grows by reallocation, which
replaces the column views: read them from the store after any call that
may append.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["LockstepError", "PortLogs", "PRUNE_AT", "NO_CAP"]

#: An append prunes its port's log first once the log holds this many
#: entries.
PRUNE_AT = 24

#: ``cap`` of an entry whose consumer has not committed yet: any re-fold
#: exceeds it, so an overtake of a pending entry refuses.
NO_CAP = float("-inf")

#: Arena slots allocated up front; the arena doubles whenever it runs out.
_FIRST_SLOTS = 64

_FLOAT_COLUMNS = ("post", "leave", "transfer", "free", "arrival", "cap")
_COLUMNS = _FLOAT_COLUMNS + ("owner", "flag", "nxt")
_DTYPES = dict.fromkeys(_FLOAT_COLUMNS, np.float64)
_DTYPES.update(owner=np.int64, flag=np.bool_, nxt=np.int32)


class LockstepError(RuntimeError):
    """A lockstep phase cannot mirror the native execution exactly.

    Raised when participants disagree on the phase shape or when the native
    port-write order is ambiguous (e.g. two messages posted to one receive
    port at the same instant).  The fix is to run the offending collective
    with ``lockstep=False``.
    """


class PortLogs:
    """The receive-port write logs of one transport (see module docstring).

    ``recv_free`` is the transport's per-port receive free-time list, which
    the in-order fold reads and writes.  ``bound`` returns the current
    prune bound: no write can still be posted before it, so log entries
    posted earlier can never be overtaken and are dropped.

    Callers pass a *phase* where a write is attributed: it supplies
    ``_owner`` (its id), ``_hier_sub`` (schedule-IR replay), ``kind`` (for
    error messages) and ``_cap_pending`` (slots awaiting their cap).
    """

    __slots__ = _COLUMNS + ("recv_free", "bound", "head", "tail", "length",
                            "_arrays", "_stack", "_stack_array", "_nfree")

    def __init__(self, recv_free: list, bound: Callable[[], float]):
        ports = len(recv_free)
        self.recv_free = recv_free
        self.bound = bound
        self._arrays = {name: np.zeros(0, dtype) for name, dtype
                        in _DTYPES.items()}
        self._arrays.update(
            head=np.full(ports, -1, np.int32),
            tail=np.full(ports, -1, np.int32),
            length=np.zeros(ports, np.int32))
        self._stack_array = np.zeros(0, np.int32)
        self._nfree = 0
        self._grow(_FIRST_SLOTS)
        for name in ("head", "tail", "length"):
            setattr(self, name, memoryview(self._arrays[name]))

    # ------------------------------------------------------------ arena

    def _grow(self, need: int) -> None:
        """Make room for ``need`` more free slots; re-binds the views."""
        arrays = self._arrays
        old = len(arrays["post"])
        new = max(2 * old, old + need)
        for name in _COLUMNS:
            column = np.empty(new, _DTYPES[name])
            column[:old] = arrays[name]
            arrays[name] = column
            setattr(self, name, memoryview(column))
        stack = np.empty(new, np.int32)
        nfree = self._nfree
        stack[:nfree] = self._stack_array[:nfree]
        # Fresh slots pop in ascending order.
        stack[nfree:nfree + new - old] = np.arange(new - 1, old - 1, -1)
        self._stack_array = stack
        self._stack = memoryview(stack)
        self._nfree = nfree + new - old

    def _alloc(self, count: int) -> np.ndarray:
        """Pop ``count`` free slots as an int array (may grow the arena)."""
        if self._nfree < count:
            self._grow(count - self._nfree)
        nfree = self._nfree - count
        slots = self._stack_array[nfree:self._nfree][::-1].copy()
        self._nfree = nfree
        return slots

    # ------------------------------------------------------ scalar writes

    def recv(self, phase, port: int, post: float, leave: float,
             transfer: float) -> float:
        """Fold one receive-port write at its native position; the arrival.

        In post order (at or after the log's tail) the write folds onto the
        live port state and is appended, after pruning the log when it is
        due; a write tying the tail is checked by :meth:`_tie_commutes`
        when order-ambiguous.  Earlier, it is re-inserted and the later
        entries re-folded (:meth:`_insert`).  The new slot is queued on
        ``phase._cap_pending``.
        """
        hier = phase._hier_sub
        flag = hier
        tail = self.tail[port]
        if tail >= 0:
            tail_post = self.post[tail]
            if post < tail_post:
                return self._insert(phase, port, post, leave, transfer)
            if post == tail_post:
                flag = hier or self.flag[tail]
                if flag:
                    self._tie_commutes(phase, port, -1, post, leave,
                                       transfer)
        recv_free = self.recv_free
        free = recv_free[port]
        arrival = free + transfer
        if leave > arrival:
            arrival = leave
        recv_free[port] = arrival
        length = self.length[port]
        if length >= PRUNE_AT:
            self.prune(port)
            length = self.length[port]
            tail = self.tail[port]
        nfree = self._nfree
        if not nfree:
            self._grow(1)
            nfree = self._nfree
        nfree -= 1
        self._nfree = nfree
        slot = self._stack[nfree]
        self.post[slot] = post
        self.leave[slot] = leave
        self.transfer[slot] = transfer
        self.free[slot] = free
        self.arrival[slot] = arrival
        self.cap[slot] = NO_CAP
        self.owner[slot] = phase._owner
        self.flag[slot] = flag
        self.nxt[slot] = -1
        if tail < 0:
            self.head[port] = slot
        else:
            self.nxt[tail] = slot
        self.tail[port] = slot
        self.length[port] = length + 1
        phase._cap_pending.append(slot)
        return arrival

    def _insert(self, phase, port: int, post: float, leave: float,
                transfer: float) -> float:
        """Out of native order: insert, re-fold later writes up to their caps.

        A later write's arrival may *grow* without diverging as long as it
        stays at or below its cap — the committed value its consumer folded
        it into (always a ``max``).
        """
        posts = self.post
        nxt = self.nxt
        before = -1
        after = self.head[port]
        while posts[after] <= post:
            before = after
            after = nxt[after]
        flag = phase._hier_sub
        if before >= 0 and posts[before] == post:
            flag = flag or self.flag[before]
            if flag:
                self._tie_commutes(phase, port, after, post, leave, transfer)
        free = self.free[after]
        arrival = free + transfer
        if leave > arrival:
            arrival = leave
        frees = self.free
        leaves = self.leave
        transfers = self.transfer
        arrivals = self.arrival
        caps = self.cap
        value = arrival
        slot = after
        while slot >= 0:
            frees[slot] = value
            refold = value + transfers[slot]
            if leaves[slot] > refold:
                refold = leaves[slot]
            if refold == arrivals[slot]:
                break  # fold re-converged; everything downstream untouched
            if refold > caps[slot]:
                raise LockstepError(
                    f"lockstep {phase.kind}: receive-port contention on "
                    f"world rank {port} spans overlapping collective phases "
                    f"(a write posted at {post} changes the arrival of a "
                    f"later write posted at {posts[slot]} beyond what its "
                    f"phase observed); run this workload with lockstep "
                    f"disabled")
            arrivals[slot] = refold
            value = refold
            slot = nxt[slot]
        else:
            self.recv_free[port] = value
        slot = int(self._alloc(1)[0])
        self.post[slot] = post
        self.leave[slot] = leave
        self.transfer[slot] = transfer
        self.free[slot] = free
        self.arrival[slot] = arrival
        self.cap[slot] = NO_CAP
        self.owner[slot] = phase._owner
        self.flag[slot] = flag
        self.nxt[slot] = after
        if before < 0:
            self.head[port] = slot
        else:
            self.nxt[before] = slot
        self.length[port] += 1
        phase._cap_pending.append(slot)
        return arrival

    def _tie_commutes(self, phase, port: int, end: int, post: float,
                      leave: float, transfer: float) -> None:
        """Verify a write tying earlier entries' post time is order-safe.

        The tied run is every entry posted at exactly ``post``; it ends
        right before slot ``end`` (-1: at the log's tail).  Callers check
        only ties where the writer or the run is a schedule-IR replay
        (``_hier_sub``): flat phases of one coordinator post in generation
        order per port, which matches the engine's insertion-order tie
        break (pinned bit-exactly by the flat differential suite, including
        staggered repeats).  Two cases remain safe:

        * every entry in the run belongs to this phase — the emission
          order *is* the native order;
        * the fold provably commutes — folding the write at the *front*
          of the run leaves every tied arrival unchanged and yields the
          same arrival it gets at the *back*; the fold is monotone in the
          port-free time, so agreement at both extremes covers every
          position in between.

        A schedule replay interleaves its stages across generations (a
        later repetition's leaf send can tie an earlier repetition's
        subtree send), where the engine's tie order depends on event
        insertion history the pricer cannot see — a non-commuting tie
        there raises :class:`LockstepError` instead of silently picking
        an order.
        """
        posts = self.post
        nxt = self.nxt
        start = self.head[port]
        while posts[start] != post:
            start = nxt[start]
        owner = phase._owner
        owners = self.owner
        slot = start
        while slot != end and owners[slot] == owner:
            slot = nxt[slot]
        if slot == end:
            return
        front = self.free[start] + transfer
        if leave > front:
            front = leave
        transfers = self.transfer
        leaves = self.leave
        arrivals = self.arrival
        value = front
        slot = start
        commutes = True
        while slot != end:
            refold = value + transfers[slot]
            if leaves[slot] > refold:
                refold = leaves[slot]
            if refold != arrivals[slot]:
                commutes = False
                break
            value = refold
            slot = nxt[slot]
        if commutes:
            back = (self.free[end] if end >= 0 else self.recv_free[port]) \
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

    def prune(self, port: int) -> None:
        """Drop the port's entries posted before the prune bound."""
        bound = self.bound()
        posts = self.post
        nxt = self.nxt
        stack = self._stack
        nfree = self._nfree
        slot = self.head[port]
        while slot >= 0 and posts[slot] < bound:
            stack[nfree] = slot
            nfree += 1
            slot = nxt[slot]
        dropped = nfree - self._nfree
        if dropped:
            self._nfree = nfree
            self.head[port] = slot
            self.length[port] -= dropped
            if slot < 0:
                self.tail[port] = -1

    def commit_caps(self, pending: list, cap: float) -> None:
        """Set ``cap`` on every pending slot and clear the list.

        Every :meth:`recv` arrival is consumed through a ``max`` by its
        phase (a tree entry, a round resume, or the arrival itself); the
        cap is that committed result.  A later out-of-order insertion may
        re-fold the arrival upward bit-identically iff it stays at or
        below the cap.
        """
        caps = self.cap
        for slot in pending:
            caps[slot] = cap
        del pending[:]

    # ------------------------------------------------------ vector access

    def tails(self, ports: np.ndarray, hier: bool) -> tuple:
        """``(tails, hazards)`` per port of ``ports``, -inf when empty.

        ``tails`` is the post time of the port's last entry.  ``hazards``
        repeats it only where a write tied exactly to it would be
        order-ambiguous: the writer (``hier``) or the tail's tied run is a
        schedule-IR replay (see :meth:`_tie_commutes`).
        """
        arrays = self._arrays
        tail = arrays["tail"][ports]
        filled = tail >= 0
        tail = tail[filled]
        tails = np.full(len(ports), -np.inf)
        tails[filled] = arrays["post"][tail]
        hazards = tails.copy()
        if not hier:
            filled[filled] = arrays["flag"][tail]
            hazards[~filled] = -np.inf
        return tails, hazards

    def commit_rounds(self, ports: np.ndarray, rounds: list, owner: int,
                      hier: bool) -> None:
        """Append a vector-priced phase's writes, round by round.

        ``ports[m]`` is member ``m``'s port.  ``rounds`` holds per-round
        ``(offset, posts, leaves, transfer, frees, arrivals, caps)``: arrays
        over members ``offset..`` (``transfer`` may be one float), every
        post at or after its port's tail and the prune bound.  The result
        equals appending each member's writes in round order through the
        in-order branch of :meth:`recv`: the prune bound is fixed for the
        whole commit and never reaches a new entry, so the pruning any of a
        port's appends would do equals one prune before all of them.
        """
        arrays = self._arrays
        size = len(ports)
        count = np.zeros(size, np.int32)
        for offset, *_ in rounds:
            count[offset:] += 1
        due = (count > 0) & (arrays["length"][ports] + count > PRUNE_AT)
        if due.any():
            self._prune_ports(ports[due])
        slots = self._alloc(int(count.sum()))
        post = arrays["post"]
        flag = arrays["flag"]
        nxt = arrays["nxt"]
        head = arrays["head"]
        last = arrays["tail"][ports]
        at = 0
        for offset, posts, leaves, transfer, frees, arrivals, caps in rounds:
            new = slots[at:at + size - offset]
            at += len(new)
            post[new] = posts
            arrays["leave"][new] = leaves
            arrays["transfer"][new] = transfer
            arrays["free"][new] = frees
            arrays["arrival"][new] = arrivals
            arrays["cap"][new] = caps
            arrays["owner"][new] = owner
            nxt[new] = -1
            prev = last[offset:]
            linked = prev >= 0
            if hier:
                flag[new] = True
            else:
                prev_safe = np.maximum(prev, 0)
                flag[new] = linked & (post[prev_safe] == posts) \
                    & flag[prev_safe]
            nxt[prev[linked]] = new[linked]
            head[ports[offset:][~linked]] = new[~linked]
            last[offset:] = new
        written = count > 0
        ports = ports[written]
        arrays["tail"][ports] = last[written]
        arrays["length"][ports] += count[written]

    def _prune_ports(self, ports: np.ndarray) -> None:
        """:meth:`prune` on every port of ``ports`` (distinct), vectorised."""
        arrays = self._arrays
        bound = self.bound()
        post = arrays["post"]
        nxt = arrays["nxt"]
        head = arrays["head"][ports]
        dropped = []
        while True:
            drop = head >= 0
            drop[drop] = post[head[drop]] < bound
            if not drop.any():
                break
            dropped.append(head[drop])
            head[drop] = nxt[head[drop]]
            arrays["length"][ports[drop]] -= 1
        if dropped:
            freed = np.concatenate(dropped)
            nfree = self._nfree
            self._stack_array[nfree:nfree + len(freed)] = freed
            self._nfree = nfree + len(freed)
            arrays["head"][ports] = head
            arrays["tail"][ports[head < 0]] = -1
