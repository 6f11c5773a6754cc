"""Tests of MPI process groups (explicit and range storage formats)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import UNDEFINED
from repro.mpi.group import GroupFormat, MpiGroup


def test_incl_preserves_order():
    group = MpiGroup.incl([5, 2, 9])
    assert group.size == 3
    assert group.world_ranks() == [5, 2, 9]
    assert group.translate(0) == 5
    assert group.translate(2) == 9
    assert group.rank_of(2) == 1
    assert group.format == GroupFormat.EXPLICIT


def test_incl_rejects_duplicates():
    with pytest.raises(ValueError):
        MpiGroup.incl([1, 2, 1])


def test_range_incl_single_range():
    group = MpiGroup.range_incl([(4, 9, 1)])
    assert group.size == 6
    assert group.world_ranks() == range(4, 10)
    assert group.format == GroupFormat.RANGE
    assert group.as_contiguous_range() == (4, 9)


def test_range_incl_with_stride():
    group = MpiGroup.range_incl([(0, 10, 2)])
    assert group.world_ranks() == range(0, 11, 2)
    assert group.rank_of(6) == 3
    assert group.rank_of(5) == UNDEFINED
    assert group.as_contiguous_range() is None


def test_range_incl_multiple_ranges():
    group = MpiGroup.range_incl([(0, 2), (10, 11)])
    assert group.world_ranks() == [0, 1, 2, 10, 11]
    assert group.translate(3) == 10
    assert group.rank_of(11) == 4
    assert group.as_contiguous_range() is None
    assert group.range_count() == 2


def test_range_incl_rejects_overlapping_ranges():
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(0, 5), (3, 8)])


def test_range_incl_rejects_bad_ranges():
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(5, 2)])
    with pytest.raises(ValueError):
        MpiGroup.range_incl([(0, 4, 0)])


def test_contiguous_constructor():
    group = MpiGroup.contiguous(3, 7)
    assert group.world_ranks() == range(3, 8)
    assert group.as_contiguous_range() == (3, 7)


def test_explicit_contiguous_detection():
    assert MpiGroup.incl([2, 3, 4]).as_contiguous_range() == (2, 4)
    assert MpiGroup.incl([2, 4, 3]).as_contiguous_range() is None
    assert MpiGroup.incl([2, 4, 6]).as_contiguous_range() is None


def test_constructor_requires_exactly_one_source():
    with pytest.raises(ValueError):
        MpiGroup()
    with pytest.raises(ValueError):
        MpiGroup(explicit=[1], ranges=[(0, 1)])


def test_translate_out_of_range():
    group = MpiGroup.contiguous(0, 3)
    with pytest.raises(IndexError):
        group.translate(4)
    with pytest.raises(ValueError):
        group.translate(-1)


def test_contains_and_len_and_eq():
    a = MpiGroup.contiguous(1, 4)
    b = MpiGroup.incl([1, 2, 3, 4])
    assert len(a) == 4
    assert a.contains(2)
    assert not a.contains(0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != MpiGroup.incl([1, 2, 3])


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40,
                unique=True))
def test_property_explicit_translate_roundtrip(ranks):
    group = MpiGroup.incl(ranks)
    for local, world in enumerate(ranks):
        assert group.translate(local) == world
        assert group.rank_of(world) == local
    assert group.rank_of(max(ranks) + 1) == UNDEFINED


@given(st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=80)
def test_property_range_equals_explicit(first, extra, stride):
    last = first + extra * stride
    range_group = MpiGroup.range_incl([(first, last, stride)])
    explicit_group = MpiGroup.incl(list(range(first, last + 1, stride)))
    assert list(range_group.world_ranks()) == explicit_group.world_ranks()
    assert range_group.size == explicit_group.size
    for local in range(range_group.size):
        assert range_group.translate(local) == explicit_group.translate(local)
    # Membership queries agree on a window around the range.
    for world in range(max(0, first - 2), last + 3):
        assert range_group.rank_of(world) == explicit_group.rank_of(world)


# ---------------------------------------------------------------------------
# Bulk translation (ranks_of / translate_ranks) against the scalar methods.
# ---------------------------------------------------------------------------

def _outcome(compute):
    """``("ok", list)`` or ``(exception type, message)`` of ``compute()``."""
    try:
        return "ok", list(compute())
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)


@st.composite
def _multi_range_groups(draw):
    """Two to four disjoint (first, last, stride) triples, in either order."""
    triples = []
    cursor = draw(st.integers(min_value=0, max_value=5))
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        stride = draw(st.integers(min_value=1, max_value=4))
        count = draw(st.integers(min_value=1, max_value=8))
        last = cursor + (count - 1) * stride + draw(st.integers(0, stride - 1))
        triples.append((cursor, last, stride))
        cursor = last + 1 + draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        triples.reverse()
    return MpiGroup.range_incl(triples)


_GROUPS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=30,
             unique=True).map(MpiGroup.incl),
    st.tuples(st.integers(0, 40), st.integers(0, 30)).map(
        lambda t: MpiGroup.contiguous(t[0], t[0] + t[1])),
    st.tuples(st.integers(0, 40), st.integers(0, 15), st.integers(2, 5),
              st.integers(0, 4)).map(
        lambda t: MpiGroup.range_incl(
            [(t[0], t[0] + t[1] * t[2] + min(t[3], t[2] - 1), t[2])])),
    _multi_range_groups(),
)

_WORLD_QUERIES = st.one_of(
    st.lists(st.integers(min_value=-5, max_value=90), max_size=40),
    st.builds(range, st.integers(-5, 90), st.integers(-5, 90),
              st.integers(-6, 6).filter(lambda step: step != 0)),
)


@given(_GROUPS, _WORLD_QUERIES)
@settings(max_examples=300)
def test_property_bulk_ranks_of_matches_rank_of(group, world_ranks):
    scalar = _outcome(lambda: [group.rank_of(w) for w in world_ranks])
    assert _outcome(lambda: group.ranks_of(world_ranks)) == scalar
    assert scalar[0] == "ok"  # non-members map to UNDEFINED, never raise


@given(_GROUPS, st.data())
@settings(max_examples=300)
def test_property_bulk_translate_matches_translate(group, data):
    group_ranks = data.draw(st.lists(
        st.integers(min_value=-3, max_value=group.size + 3), max_size=30))
    scalar = _outcome(lambda: [group.translate(g) for g in group_ranks])
    assert _outcome(lambda: group.translate_ranks(group_ranks)) == scalar
    assert _outcome(lambda: group.translate_ranks(iter(group_ranks))) == scalar


@given(_GROUPS)
@settings(max_examples=100)
def test_property_bulk_round_trip(group):
    world = group.world_ranks()
    assert list(group.ranks_of(world)) == list(range(group.size))
    assert group.translate_ranks(range(group.size)) == list(world)


def test_bulk_error_cases_match_scalar():
    """Out-of-range group ranks raise what the scalar translate raises:
    ValueError for negative ranks, IndexError past the end."""
    for group in (MpiGroup.incl([4, 1, 7]), MpiGroup.contiguous(2, 4),
                  MpiGroup.range_incl([(0, 4, 2)]),
                  MpiGroup.range_incl([(0, 1), (5, 5)])):
        for bad, error in ((-1, ValueError), (3, IndexError)):
            with pytest.raises(error) as scalar:
                group.translate(bad)
            with pytest.raises(error) as bulk:
                group.translate_ranks([0, bad])
            assert str(bulk.value) == str(scalar.value)
        assert list(group.ranks_of([-7, 100])) == [UNDEFINED, UNDEFINED]


def test_ranks_of_range_through_single_range_is_a_range():
    """A range of members translates in O(1), to a range."""
    world = MpiGroup.contiguous(0, 99)
    half = MpiGroup.contiguous(50, 99)
    assert world.ranks_of(half.world_ranks()) == range(50, 100)
    strided = MpiGroup.range_incl([(10, 40, 5)])
    assert strided.ranks_of(range(40, 9, -10)) == range(6, -1, -2)
    # Off-lattice or partly outside: per-element answers, UNDEFINED holes.
    assert strided.ranks_of(range(9, 16, 3)) == [UNDEFINED, UNDEFINED, 1]
    assert strided.ranks_of(range(35, 50, 5)) == [5, 6, UNDEFINED]


def test_explicit_rank_of_uses_one_index():
    group = MpiGroup.incl([9, 3, 5])
    assert group.rank_of(5) == 2 and group.rank_of(4) == UNDEFINED
    index = group._index
    assert index == {9: 0, 3: 1, 5: 2}
    assert group.ranks_of([3, 9, 4]) == [1, 0, UNDEFINED]
    assert group._index is index  # built once, on first use
