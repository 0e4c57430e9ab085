import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repwalk.partitions import (
    EMPTY,
    Partition,
    _complete_level,
    _dims,
    dimension_sn,
    enumerate_partitions,
    partition_count,
    partition_id,
)

import repwalk.partitions as partitions_module
from repwalk.errors import CapacityError
from repwalk.snwalk import EXACT_KERNEL_LIMIT, FLOAT_LIMIT, _ExactEngine, _sorted_level

from oracles import (_gen_partitions, count_standard_tableaux, lattice, log_dimension_sn,
                     young_lattice_reference)


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
    lat = lattice(0)
    assert lat.dims == (1,) and list(lat.down_off) == [0, 0] and list(lat.up_off) == [0]
    assert len(lat.below) == len(lat.above) == 0
    for n in range(1, 19):
        lat, parts = lattice(n), enumerate_partitions(n)
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


@pytest.mark.parametrize("n", [*range(31), 33, 34, 36, 40])
def test_young_lattice_matches_reference_build(n):
    # ids and dimensions equal to the tuple-dict build's, and its
    # common-corner rows, entry for entry, expanded from the edges of the
    # complete level, whose dimensions are summed up the edges of the
    # complete levels below it; 33 and 34 are the last int64 level and the
    # first of Python ints
    lat = lattice(n)
    n_ref, parts, index, dims, off, dst, cnt = young_lattice_reference(n)
    assert len(_complete_level(n).dims) == len(dims)
    assert (lat.n, enumerate_partitions(n), lat.dims) == (n_ref, parts, dims)
    assert all(partition_id(lam) == i for lam, i in index.items())
    assert common_corner_rows(lat) == (list(off), list(dst), list(cnt))
    assert all(type(d) is int for d in lat.dims)


def test_young_lattice_builds_every_float_size():
    # A d = n d, since the down-up kernel's rows sum to 1
    for n in range(FLOAT_LIMIT + 1):
        lat = lattice(n)
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
    # level n - 1: every lam up to n = 30, every 7th at 36 and 40
    lat, parts = lattice(n), enumerate_partitions(n)
    for i in range(0, len(parts), 1 if n <= 30 else 7):
        ids = lat.below[lat.down_off[i]:lat.down_off[i + 1]].tolist()
        assert ids == [partition_id(mu) for mu in parts[i].removable_corners()], (n, i)


@pytest.mark.parametrize("n", [1, 2, 9, 20, 21, 36, 40])
def test_lattice_above_lists_each_mu_in_id_order(n):
    # the lam over each mu are the lam whose edges name mu, in id order;
    # at n = 40, p(n) = 37338 passes int16 and above holds int32
    lat = lattice(n)
    over = [[] for _ in range(partition_count(n - 1))]
    for i in range(len(lat.dims)):
        for m in lat.below[lat.down_off[i]:lat.down_off[i + 1]].tolist():
            over[m].append(i)
    assert [lat.above[lat.up_off[m]:lat.up_off[m + 1]].tolist() for m in range(len(over))] == over
    assert lat.above.dtype == (np.int16 if n < 40 else np.int32)


def test_small_levels_are_built_on_demand():
    # the dimensions of 6 from cleared caches build the levels 0..6 and no
    # more
    _complete_level.cache_clear()
    _dims(6)
    assert _complete_level.cache_info().currsize == 7


# (below, down_off) dtypes of every level: int16 ids, as every id is below
# p(39) = 31185 < 2^15, and int32 offsets; the walk laws gather through the
# levels' own int64 rows (_sorted_level), so no bulk reader needs more
EDGE_DTYPES = (np.int16, np.int32)


def test_levels_keep_read_only_narrow_edges():
    # every complete level keeps its edges read-only in int16/int32, and the
    # walk laws' jagged rows and place of every level are read-only int64,
    # so their gathers cast nothing; an exact engine holds no edges of its
    # own.  The dimensions are read-only too, and int64 exactly while
    # n! < 2^126, so that each d^2 <= n! is
    for n in range(partitions_module.LEVEL_LIMIT + 1):
        level = _complete_level(n)
        assert (level.below.dtype, level.down_off.dtype) == EDGE_DTYPES, n
        rows, place = _sorted_level(n)
        for a in (*rows, place):
            assert a.dtype == np.int64, n
        for a in (level.below, level.down_off, *rows, place):
            assert not a.flags.writeable, n
        assert not level.dims.flags.writeable, n
        assert (level.dims.dtype == np.int64) == (math.factorial(n) < 2**126), n
        if 2 <= n <= EXACT_KERNEL_LIMIT:
            eng = _ExactEngine(n)
            assert not any(isinstance(v, np.ndarray) for v in vars(eng).values()), n


def test_complete_levels_memory_is_bounded():
    # a cold build of the levels 0..36 holds 3.7 MB (the LEVEL_LIMIT
    # comment's figure), most of it the dimensions, Python ints past j = 33,
    # and the edges, and their sorted rows and places 4.2 MB more, one int64
    # per edge and per partition: 7.9 MB in all
    _complete_level.cache_clear()
    _sorted_level.cache_clear()
    tracemalloc.start()
    try:
        _complete_level(36)
        _sorted_level(36)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8.0 * 10**6


def test_dims_form_no_partition():
    # the dimensions are summed up the levels' edges: from cleared caches no
    # partition tuple is formed, so the enumeration cache stays empty
    _complete_level.cache_clear()
    enumerate_partitions.cache_clear()
    assert len(_dims(36)) == partition_count(36)
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
    partitions_module._complete_level.cache_clear()
    enumerate_partitions.cache_clear()
    for m in range(21):
        enumerate_partitions(m)
    assert partitions_module._complete_level.cache_info().currsize == 0


def test_enumeration_builds_level_n_once():
    # a cold enumerate_partitions(30) peaks at 1.53 MB: the tuples of the
    # levels below n (0.71 MB), every one of which level n reads, and level
    # n's 5604 Partitions (0.80 MB).  Level n built as tuples and then
    # copied into Partitions peaked at 2.22 MB.  gc.collect() empties the
    # tuple free lists first, so every tuple made is a traced allocation,
    # whatever ran before
    enumerate_partitions.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        enumerate_partitions(30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 10**6


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
    # the cache hands the same down edges to every caller, and the up edges
    # turned from them are read-only as they are
    for n in (0, 1, 7, 25):
        a = getattr(lattice(n), field)
        before = a.tolist()
        # the level's own edges are int16/int32 at every size; the up edges
        # turned from them hold the lam ids in int16 (p(n) < 2^15 here) and
        # their offsets in int64
        dtype = {"above": np.int16, "up_off": np.int64,
                 **dict(zip(("below", "down_off"), EDGE_DTYPES))}[field]
        assert a.dtype == dtype and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 7
        with pytest.raises(ValueError, match="read-only"):
            a += 1
        assert getattr(lattice(n), field).tolist() == before


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
