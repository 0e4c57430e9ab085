import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repwalk.partitions import (
    EMPTY,
    Partition,
    dimension_sn,
    enumerate_partitions,
    partition_count,
    partition_id,
    young_lattice,
)

import repwalk.partitions as partitions_module
from repwalk.errors import CapacityError
from repwalk.snwalk import FLOAT_LIMIT

from oracles import _gen_partitions, count_standard_tableaux, log_dimension_sn, young_lattice_reference


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining, cap = n, n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((True,))
    assert Partition(()) == EMPTY


def test_enumeration_small():
    assert [tuple(p) for p in enumerate_partitions(0)] == [()]
    assert [tuple(p) for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(enumerate_partitions(10)) == 42


def test_enumeration_reverse_lex_order():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert parts[0] == Partition((n,))
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        assert all(p.size == n for p in parts)


def test_enumeration_matches_pentagonal_recurrence():
    for n in range(41):
        assert partition_count(n) == len(enumerate_partitions(n))


@pytest.mark.parametrize("n", [-3, -2, -1])
def test_partition_count_of_a_negative_size_is_zero(n):
    # the pentagonal recurrence reads p(m) = 0 for m < 0
    assert partition_count(n) == 0


def test_enumeration_builds_valid_partitions():
    # the generator skips Partition's checks; each result passes them
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert type(lam) is Partition and Partition(tuple(lam)) == lam


def test_stats_examples():
    s = Partition((5,))
    assert s.n_stat() == 0 and sorted(s.hooks()) == [1, 2, 3, 4, 5]
    s = Partition((2, 1))
    assert s.transpose() == Partition((2, 1))
    assert s.n_stat() == 1
    assert sorted(s.hooks()) == [1, 1, 3]
    s = Partition((1, 1))
    assert s.transpose() == Partition((2,))
    assert s.n_stat() == 1
    assert sorted(s.hooks()) == [1, 2]


@settings(deadline=None)
@given(partitions())
def test_transpose_involution(lam):
    assert lam.transpose().transpose() == lam


@settings(deadline=None)
@given(partitions())
def test_hook_identity(lam):
    assert sum(lam.hooks()) == lam.n_stat() + lam.transpose().n_stat() + lam.size


def test_dimension_examples():
    for n in range(1, 10):
        assert dimension_sn(Partition((n,))) == 1
    assert dimension_sn(Partition((2, 1))) == 2


def test_dimension_matches_tableau_count():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert dimension_sn(lam) == count_standard_tableaux(lam)


def test_dimension_square_sum():
    for n in range(1, 11):
        total = sum(dimension_sn(lam) ** 2 for lam in enumerate_partitions(n))
        assert total == math.factorial(n)


def test_log_dimension():
    for lam in enumerate_partitions(9):
        assert math.log(dimension_sn(lam)) == pytest.approx(log_dimension_sn(lam), rel=1e-12)


def test_corner_moves_examples():
    m = Partition((3,))
    assert set(m.removable_corners()) == {Partition((2,))}
    assert set(m.addable_corners()) == {Partition((4,)), Partition((3, 1))}
    assert EMPTY.removable_corners() == []
    assert set(EMPTY.addable_corners()) == {Partition((1,))}
    m = Partition((2, 1))
    assert set(m.removable_corners()) == {Partition((1, 1)), Partition((2,))}
    assert set(m.addable_corners()) == {Partition((3, 1)), Partition((2, 2)), Partition((2, 1, 1))}


@settings(deadline=None)
@given(partitions())
def test_corner_move_counts(lam):
    removable, addable = lam.removable_corners(), lam.addable_corners()
    assert len(addable) == len(removable) + 1
    assert all(p.size == lam.size - 1 for p in removable)
    assert all(p.size == lam.size + 1 for p in addable)
    for mu in removable:
        assert lam in set(mu.addable_corners())


def test_branching_identity():
    for m in range(0, 11):
        for mu in enumerate_partitions(m):
            total = sum(dimension_sn(rho) for rho in mu.addable_corners())
            assert total == (m + 1) * dimension_sn(mu)


def test_string_round_trip():
    assert Partition((3, 2, 1)).to_string() == "3+2+1"
    assert EMPTY.to_string() == "-"
    assert Partition.from_string("3+2+1") == Partition((3, 2, 1))
    assert Partition.from_string("-") == EMPTY
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert Partition.from_string(lam.to_string()) == lam


def test_young_lattice_matches_partition_corners():
    # ids and dimensions, and the edges against the Partition methods: each
    # id in below names one partition of n - 1, one to one, and each edge
    # list is the corner list in the same order
    lat = young_lattice(0)
    assert lat.dims == (1,) and list(lat.down_off) == [0, 0] and list(lat.up_off) == [0]
    assert len(lat.below) == len(lat.above) == 0
    for n in range(1, 19):
        lat, parts = young_lattice(n), enumerate_partitions(n)
        assert [partition_id(lam) for lam in parts] == list(range(len(parts)))
        assert lat.dims == tuple(dimension_sn(lam) for lam in parts)
        assert len(lat.down_off) == len(parts) + 1 and lat.down_off[-1] == len(lat.below)
        assert len(lat.up_off) == partition_count(n - 1) + 1
        assert lat.up_off[-1] == len(lat.above) == len(lat.below)
        name = {}
        for i, lam in enumerate(parts):
            ids = lat.below[lat.down_off[i]:lat.down_off[i + 1]]
            corners = lam.removable_corners()
            assert len(ids) == len(corners)
            for m, mu in zip(ids, corners):
                assert name.setdefault(m, mu) == mu
        # p(n-1) ids onto the p(n-1) partitions of n - 1: a bijection
        assert sorted(name) == list(range(partition_count(n - 1)))
        assert set(name.values()) == set(enumerate_partitions(n - 1))
        for m, mu in name.items():
            above = lat.above[lat.up_off[m]:lat.up_off[m + 1]]
            assert [parts[j] for j in above] == mu.addable_corners()


def test_corners_against_containment():
    # every partition one box below or above, in reverse-lex order, the order
    # the samplers' inverse-CDF tie-break depends on
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            def contains(big, small):
                return len(small) <= len(big) and all(a >= b for a, b in zip(big, small))
            below = [mu for mu in enumerate_partitions(n - 1) if contains(lam, mu)] if n else []
            above = [rho for rho in enumerate_partitions(n + 1) if contains(rho, lam)]
            for got, want in ((lam.removable_corners(), below), (lam.addable_corners(), above)):
                assert got == want
                assert all(type(p) is Partition for p in got)


def common_corner_rows(lat):
    """A = D D^T as CSR rows off, dst, cnt expanded from the edges of lat,
    each row in down-up first-seen order."""
    off, dst, cnt = [0], [], []
    for i in range(len(lat.dims)):
        counts = {}
        for m in lat.below[lat.down_off[i]:lat.down_off[i + 1]]:
            for j in lat.above[lat.up_off[m]:lat.up_off[m + 1]]:
                counts[j] = counts.get(j, 0) + 1
        dst.extend(counts)
        cnt.extend(counts.values())
        off.append(len(dst))
    return off, dst, cnt


@pytest.mark.parametrize("n", [*range(31), 36, 40])
def test_young_lattice_matches_reference_build(n):
    # ids and dimensions equal to the tuple-dict build's, and its
    # common-corner rows, entry for entry, expanded from the edges
    lat = young_lattice(n)
    n_ref, parts, index, dims, off, dst, cnt = young_lattice_reference(n)
    assert (lat.n, enumerate_partitions(n), lat.dims) == (n_ref, parts, dims)
    assert all(partition_id(lam) == i for lam, i in index.items())
    assert common_corner_rows(lat) == (list(off), list(dst), list(cnt))
    assert all(type(d) is int for d in lat.dims)


def test_young_lattice_builds_every_float_size():
    # A d = n d, since the down-up kernel's rows sum to 1
    for n in range(FLOAT_LIMIT + 1):
        lat = young_lattice(n)
        assert len(lat.dims) == partition_count(n)
        assert sum(d * d for d in lat.dims) == math.factorial(n)
        assert len(lat.down_off) == len(lat.dims) + 1 and lat.down_off[-1] == len(lat.below)
        assert lat.up_off[-1] == len(lat.above)
        if n:
            assert len(lat.up_off) == partition_count(n - 1) + 1
            up = np.add.reduceat(np.array(lat.dims, dtype=object)[lat.above], lat.up_off[:-1])
            assert np.add.reduceat(up[lat.below], lat.down_off[:-1]).tolist() == [n * d for d in lat.dims]


@pytest.mark.parametrize("n", [*range(31), 36, 40])
def test_lattice_edges_name_the_removable_corners(n):
    # below lists each lam's corners, bottom corner first, by their ids in
    # young_lattice(n - 1): every lam up to n = 30, every 7th at 36 and 40
    lat, parts = young_lattice(n), enumerate_partitions(n)
    for i in range(0, len(parts), 1 if n <= 30 else 7):
        ids = lat.below[lat.down_off[i]:lat.down_off[i + 1]].tolist()
        assert ids == [partition_id(mu) for mu in parts[i].removable_corners()], (n, i)


@pytest.mark.parametrize("n", [1, 2, 9, 20, 21, 36])
def test_lattice_above_lists_each_mu_in_id_order(n):
    # the lam over each mu are the lam whose edges name mu, in id order
    lat = young_lattice(n)
    over = [[] for _ in range(partition_count(n - 1))]
    for i in range(len(lat.dims)):
        for m in lat.below[lat.down_off[i]:lat.down_off[i + 1]].tolist():
            over[m].append(i)
    assert [lat.above[lat.up_off[m]:lat.up_off[m + 1]].tolist() for m in range(len(over))] == over


def test_small_levels_are_built_on_demand():
    # a lattice of 6 from cleared caches builds the levels 0..6 and no more
    young_lattice.cache_clear()
    partitions_module._small_level.cache_clear()
    young_lattice(6)
    assert partitions_module._small_level.cache_info().currsize == 7
    young_lattice.cache_clear()


def test_young_lattice_memory_is_bounded():
    # a cold build at n = 36 keeps 2.3 MB (the edge arrays and the
    # dimensions) and peaks at 4.1 MB, 4.3 MB if the cached levels up to
    # SMALL_SIZE are built too: with them the hook products and edges of
    # the levels below n and the first-row edge temporaries of level n.  No
    # partition tuple is formed, so the enumeration cache stays empty; the
    # bound leaves about 1.7 MB
    young_lattice.cache_clear()
    enumerate_partitions.cache_clear()
    tracemalloc.start()
    try:
        young_lattice(36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * 10**6
    assert enumerate_partitions.cache_info().currsize == 0


def test_enumeration_is_the_reference_order():
    # the counted tuples list the partitions of n in the recursive
    # reference's reverse-lex order, the order lattice ids and
    # character-table rows share
    for n in range(41):
        parts = enumerate_partitions(n)
        assert parts == tuple(map(Partition, _gen_partitions(n, n)))
        assert all(type(lam) is Partition for lam in parts)


def test_enumeration_builds_no_lattice_level():
    # enumerating grows its own tuples: no lattice level is built or cached
    young_lattice.cache_clear()
    partitions_module._small_level.cache_clear()
    enumerate_partitions.cache_clear()
    for m in range(21):
        enumerate_partitions(m)
    assert partitions_module._small_level.cache_info().currsize == 0


def test_enumeration_refuses_sizes_past_the_lattice_cap():
    # refused by the size check before any row is generated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            enumerate_partitions(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@pytest.mark.parametrize("field", ["below", "down_off", "above", "up_off"])
def test_young_lattice_arrays_are_read_only(field):
    # the cache hands the same arrays to every caller
    for n in (0, 1, 7, 25):
        a = getattr(young_lattice(n), field)
        before = a.tolist()
        assert a.dtype == np.int64 and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 7
        with pytest.raises(ValueError, match="read-only"):
            a += 1
        assert getattr(young_lattice(n), field).tolist() == before


def test_partition_id_is_the_enumeration_position():
    for n in range(21):
        assert [partition_id(lam) for lam in enumerate_partitions(n)] == list(range(partition_count(n)))
    assert partition_id(Partition((1,) * 40)) == partition_count(40) - 1
    with pytest.raises(CapacityError):
        partition_id(Partition((128,)))


@pytest.mark.parametrize("lam,message", [
    ((2, 0), "positive integers"),
    ((1, 2), "weakly decreasing"),
    ((2, -1), "positive integers"),
    ((1.0,), "positive integers"),
])
def test_partition_id_refuses_non_partitions(lam, message):
    # as Partition refuses them: (2, 0) would rank -1, the last id as a
    # numpy index, and (1, 2) the id of (2, 1)
    with pytest.raises(ValueError, match=message):
        partition_id(lam)
    assert partition_id([2, 1]) == partition_id(Partition((2, 1))) == 1
