"""MPI process groups with explicit and range-based storage formats.

A group maps group-local ranks to *world* ranks.  Two storage formats are
supported, mirroring the discussion of Chaarawi & Gabriel's sparse group
storage in Section III of the paper:

* ``EXPLICIT`` — an array of world ranks (what MPICH and Open MPI construct;
  O(p) space and construction time).
* ``RANGE`` — a list of ``(first, last, stride)`` triples over the parent's
  ranks (constant space per range; constant-time translation for a single
  range).

The storage format matters for the vendor cost model: native communicator
creation charges for materialising the explicit format, whereas the
range-based proposal of Section VI never does.

Translation comes scalar (``translate``, ``rank_of``) and in bulk
(``translate_ranks``, ``ranks_of``).  Communicator creation translates O(p)
ranks per process, so it uses the bulk forms: a single-range group
translates by arithmetic, an explicit group by indexing its rank list
(forward) or a rank -> index dict built once on first use (inverse, which
also makes the scalar ``rank_of`` O(1)).  Bulk and scalar translation give
identical results and raise identical exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .datatypes import UNDEFINED

__all__ = ["GroupFormat", "MpiGroup"]


class GroupFormat:
    EXPLICIT = "explicit"
    RANGE = "range"


@dataclass(frozen=True)
class _RangeTriple:
    first: int
    last: int
    stride: int

    def __post_init__(self):
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if self.last < self.first:
            raise ValueError(f"empty range {self.first}..{self.last}")

    @property
    def count(self) -> int:
        return (self.last - self.first) // self.stride + 1

    def rank_at(self, index: int) -> int:
        return self.first + index * self.stride

    def index_of(self, world_rank: int) -> Optional[int]:
        if world_rank < self.first or world_rank > self.last:
            return None
        offset = world_rank - self.first
        if offset % self.stride != 0:
            return None
        return offset // self.stride


class MpiGroup:
    """An ordered set of world ranks (mirrors ``MPI_Group``).

    Scalar translation (:meth:`translate`, :meth:`rank_of`) has bulk
    counterparts (:meth:`translate_ranks`, :meth:`ranks_of`) that translate
    O(p) ranks without a call per rank; see the module docstring.
    """

    def __init__(self, *, explicit: Optional[Sequence[int]] = None,
                 ranges: Optional[Sequence[tuple]] = None):
        if (explicit is None) == (ranges is None):
            raise ValueError("provide exactly one of explicit= or ranges=")
        if explicit is not None:
            self._format = GroupFormat.EXPLICIT
            self._ranks = list(map(int, explicit))
            if len(set(self._ranks)) != len(self._ranks):
                raise ValueError("duplicate ranks in group")
            self._ranges: list[_RangeTriple] = []
        else:
            self._format = GroupFormat.RANGE
            self._ranges = [
                _RangeTriple(int(f), int(l), int(s) if len(rng) > 2 else 1)
                for rng in ranges
                for f, l, *rest in [rng]
                for s in [rng[2] if len(rng) > 2 else 1]
            ]
            self._ranks = []
            if len(self._ranges) > 1:
                seen = set()
                for triple in self._ranges:
                    for index in range(triple.count):
                        rank = triple.rank_at(index)
                        if rank in seen:
                            raise ValueError(f"duplicate rank {rank} in ranges")
                        seen.add(rank)
            # else: a single (first, last, stride) triple cannot contain
            # duplicates by construction — skip the O(size) scan, which keeps
            # the common world/contiguous group O(1) to build.
            # Rank list is only materialised lazily for the explicit view.
        # Translation fast path: a single-range group translates with one
        # multiply-add; the cached size avoids re-summing range counts.
        if self._format == GroupFormat.RANGE and len(self._ranges) == 1:
            triple = self._ranges[0]
            self._single = (triple.first, triple.stride, triple.count)
            self._size = triple.count
        else:
            self._single = None
            self._size = (len(self._ranks) if self._format == GroupFormat.EXPLICIT
                          else sum(t.count for t in self._ranges))
        # World rank -> group rank of an explicit group, built on first use.
        self._index: Optional[dict] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def incl(cls, ranks: Iterable[int]) -> "MpiGroup":
        """Explicit enumeration of world ranks (``MPI_Group_incl``)."""
        return cls(explicit=list(ranks))

    @classmethod
    def range_incl(cls, ranges: Sequence[tuple]) -> "MpiGroup":
        """Sparse representation by (first, last[, stride]) triples
        (``MPI_Group_range_incl``)."""
        return cls(ranges=list(ranges))

    @classmethod
    def contiguous(cls, first: int, last: int) -> "MpiGroup":
        """Convenience: the contiguous range ``first..last``."""
        return cls.range_incl([(first, last, 1)])

    # ------------------------------------------------------------------ basics

    @property
    def format(self) -> str:
        return self._format

    @property
    def size(self) -> int:
        return self._size

    def world_ranks(self) -> Sequence[int]:
        """The ordered world ranks: a ``range`` for a single-range group
        (O(1)), otherwise a fresh list (O(size))."""
        single = self._single
        if single is not None:
            first, stride, count = single
            return range(first, first + count * stride, stride)
        if self._format == GroupFormat.EXPLICIT:
            return list(self._ranks)
        ranks = []
        for triple in self._ranges:
            ranks.extend(triple.rank_at(i) for i in range(triple.count))
        return ranks

    # -------------------------------------------------------------- translation

    def translate(self, group_rank: int) -> int:
        """Group-local rank -> world rank."""
        single = self._single
        if single is not None and 0 <= group_rank < single[2]:
            return single[0] + group_rank * single[1]
        if group_rank < 0:
            raise ValueError("negative group rank")
        if self._format == GroupFormat.EXPLICIT:
            return self._ranks[group_rank]
        remaining = group_rank
        for triple in self._ranges:
            if remaining < triple.count:
                return triple.rank_at(remaining)
            remaining -= triple.count
        raise IndexError(f"group rank {group_rank} out of range (size {self.size})")

    def translate_ranks(self, group_ranks: Iterable[int]) -> list[int]:
        """Bulk :meth:`translate`: ``[translate(g) for g in group_ranks]``.

        O(len) with no per-rank call for single-range and explicit groups.
        An out-of-range rank raises exactly what :meth:`translate` raises for
        the first such rank.
        """
        ranks = list(group_ranks)
        if ranks and 0 <= min(ranks) and max(ranks) < self._size:
            single = self._single
            if single is not None:
                first, stride, _ = single
                return [first + g * stride for g in ranks]
            if self._format == GroupFormat.EXPLICIT:
                table = self._ranks
                return [table[g] for g in ranks]
        return [self.translate(g) for g in ranks]

    def affine_world_map(self) -> Optional[tuple[int, int]]:
        """``(first, stride)`` when translation is ``first + i * stride``.

        Lets layered communicators (RBC ranges over an MPI communicator)
        compose their rank translations into one multiply-add instead of a
        call chain.  Returns None for groups without that structure.
        """
        if self._single is None:
            return None
        return self._single[0], self._single[1]

    def rank_of(self, world_rank: int) -> int:
        """World rank -> group-local rank, or ``UNDEFINED`` if not a member.

        O(1) for single-range and explicit groups, O(ranges) otherwise.
        """
        single = self._single
        if single is not None:
            first, stride, count = single
            offset = world_rank - first
            if 0 <= offset and offset % stride == 0 and offset // stride < count:
                return offset // stride
            return UNDEFINED
        if self._format == GroupFormat.EXPLICIT:
            return self._rank_index().get(world_rank, UNDEFINED)
        offset = 0
        for triple in self._ranges:
            index = triple.index_of(world_rank)
            if index is not None:
                return offset + index
            offset += triple.count
        return UNDEFINED

    def ranks_of(self, world_ranks: Iterable[int]) -> Sequence[int]:
        """Bulk :meth:`rank_of`: ``[rank_of(w) for w in world_ranks]``.

        O(len) with no per-rank call for single-range and explicit groups;
        non-members (including ranks outside the world) map to ``UNDEFINED``.
        A ``range`` of members of a single-range group (another group's
        :meth:`world_ranks`, say) translates to a ``range`` in O(1).
        """
        single = self._single
        if single is not None:
            first, stride, count = single
            if isinstance(world_ranks, range) and world_ranks \
                    and world_ranks.step % stride == 0:
                # Both ends members and the step on the group's lattice:
                # every element is a member, and the image is a range.
                start = self.rank_of(world_ranks[0])
                end = self.rank_of(world_ranks[-1])
                if start != UNDEFINED and end != UNDEFINED:
                    step = world_ranks.step // stride
                    return range(start, end + (1 if step > 0 else -1), step)
            last = first + (count - 1) * stride
            return [(w - first) // stride
                    if first <= w <= last and (w - first) % stride == 0
                    else UNDEFINED
                    for w in world_ranks]
        if self._format == GroupFormat.EXPLICIT:
            get = self._rank_index().get
            return [get(w, UNDEFINED) for w in world_ranks]
        return [self.rank_of(w) for w in world_ranks]

    def _rank_index(self) -> dict:
        index = self._index
        if index is None:
            ranks = self._ranks
            index = self._index = dict(zip(ranks, range(len(ranks))))
        return index

    def contains(self, world_rank: int) -> bool:
        return self.rank_of(world_rank) != UNDEFINED

    # ---------------------------------------------------------------- analysis

    def as_contiguous_range(self) -> Optional[tuple[int, int]]:
        """(first, last) if the group is exactly the world ranks first..last
        in increasing order, else None.

        This is the test used by the Section VI proposal to decide whether a
        new communicator can be created locally in constant time.
        """
        if self._format == GroupFormat.RANGE and len(self._ranges) == 1:
            triple = self._ranges[0]
            if triple.stride == 1:
                return triple.first, triple.last
            return None
        ranks = self.world_ranks()
        if not ranks:
            return None
        first, last = ranks[0], ranks[-1]
        if last - first + 1 != len(ranks):
            return None
        if all(ranks[i] == first + i for i in range(len(ranks))):
            return first, last
        return None

    def range_count(self) -> int:
        """Number of stored ranges (1 for explicit groups, informational)."""
        if self._format == GroupFormat.RANGE:
            return len(self._ranges)
        return max(1, len(self._ranks))

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MpiGroup):
            return NotImplemented
        return tuple(self.world_ranks()) == tuple(other.world_ranks())

    def __hash__(self):
        return hash(tuple(self.world_ranks()))

    def __repr__(self):  # pragma: no cover - debugging aid
        if self._format == GroupFormat.RANGE:
            spans = ", ".join(
                f"{t.first}..{t.last}" + (f":{t.stride}" if t.stride != 1 else "")
                for t in self._ranges
            )
            return f"MpiGroup(ranges=[{spans}])"
        return f"MpiGroup(explicit={self._ranks!r})"
