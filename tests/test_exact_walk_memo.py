"""The exact engine of n is cached, with its TVs from (n) and its one-pass law.

_exact_engine keeps one _ExactEngine per exact size.  Its tvs keeps the TVs
from (n) it has computed: sn_tv_curve(n, rmax, "exact") computes rows only
past what it holds, and whatever it holds gives the TVs a cleared cache
gives.  The rows form no law: each is read off the path counts V, whose
column k is U^k e_(n-k), as a_r = V S(r, .), its signs decided in doubles
outside a certified margin (snwalk._margin) and in integers inside it, and
every row is == the Fraction TV of the law stepped on Python ints.  Its
law(r, start) is the law after r steps from any start, sum_k S(r, k)
U^k D^k e_s by Horner's rule up the levels, equal as integers to the
stepped law.
"""

import math
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from itertools import islice
from operator import mul

import numpy as np
import pytest

from repwalk import snwalk
from repwalk.cli import main
from repwalk.errors import CapacityError
from repwalk.partitions import Partition, enumerate_partitions

from oracles import exact_law_tv, exact_reference_walk


def _cutoff_r(n, c=0.0):
    return math.ceil(0.5 * n * math.log(n) + c * n)


def _curve(n, rmax):
    return [tv for _, tv, _ in snwalk.sn_tv_curve(n, rmax, "exact")]


def _cutoff(capsys, n, c):
    assert main(["sn-cutoff", "--n", str(n), "--c", str(c)]) == 0
    return capsys.readouterr().out


@pytest.fixture
def steps(monkeypatch):
    """n once for each curve row an exact engine computes (and keeps) in
    tvs, from an empty exact engine cache on."""
    calls = []
    tvs = snwalk._ExactEngine.tvs

    def counted(self, r):
        before = len(self._tvs)
        out = tvs(self, r)
        calls.extend([self.n] * (len(out) - before))
        return out

    monkeypatch.setattr(snwalk._ExactEngine, "tvs", counted)
    snwalk._exact_engine.cache_clear()
    yield calls
    snwalk._exact_engine.cache_clear()


@pytest.mark.parametrize("n", range(2, snwalk.EXACT_KERNEL_LIMIT + 1))
def test_law_equals_the_stepped_law(n):
    # from ids 0 (the one-row partition, no down pass), 1, p(n)//2 and
    # p(n)-1, and from every id for n <= 8, at every r up to 3x the cutoff
    eng = snwalk._ExactEngine(n)
    parts = enumerate_partitions(n)
    rmax = 3 * _cutoff_r(n)
    starts = range(len(parts)) if n <= 8 else (0, 1, len(parts) // 2, len(parts) - 1)
    for s in dict.fromkeys(starts):
        for r, (a, den) in zip(range(rmax + 1), exact_reference_walk(n, parts[s])):
            b, d = eng.law(r, s)
            assert d == den and list(b) == list(a), (s, r)


def test_repeat_curve_reads_the_memo(steps):
    # the rows r = 0..rmax, the TV at r = 0 among them
    r1, r2 = _cutoff_r(14, -0.5), _cutoff_r(14, 0.5)
    first = _curve(14, r2)
    assert steps == [14] * (r2 + 1)
    assert _curve(14, r2) == first and _curve(14, r1) == first[:r1]
    assert steps == [14] * (r2 + 1)
    longer = _curve(14, 2 * r2)
    assert longer[:r2] == first
    assert steps == [14] * (2 * r2 + 1)


@pytest.mark.parametrize("n", range(2, snwalk.EXACT_KERNEL_LIMIT + 1))
def test_rows_equal_the_stepped_law_tv(n):
    # every row to 3x the cutoff, and the one-r TV at each of them, is ==
    # the Fraction TV of the law stepped on Python ints
    rmax = 3 * _cutoff_r(n)
    eng = snwalk._ExactEngine(n)
    tvs = eng.tvs(rmax)
    assert len(tvs) == rmax + 1
    for r, law in zip(range(rmax + 1), exact_reference_walk(n, Partition((n,)))):
        ref = exact_law_tv(n, law)
        assert tvs[r] == ref and eng.tv_at(r) == ref, r


@pytest.mark.parametrize("n", [5, 12, 18])
def test_deep_rows_equal_the_stepped_law_tv(n):
    # by r = 400 a_rho n! and d_rho n^r agree to far more digits than a
    # double holds (from r = 72, 207 and 324 on, at every rho), so a sign
    # read from the difference of the two in doubles would be undecided
    eng, r = snwalk._ExactEngine(n), 400
    laws = islice(exact_reference_walk(n, Partition((n,))), r + 1)
    assert eng.tvs(r) == tuple(exact_law_tv(n, law) for law in laws)
    assert eng.tv_at(r) == eng.tvs(r)[r] == exact_law_tv(n, eng.law(r))


@pytest.mark.parametrize("n", [3, 10, 18])
def test_integer_signs_alone_give_the_same_rows(monkeypatch, n):
    # a margin no double clears sends every sign to the integer test
    rmax = 2 * _cutoff_r(n)
    want = snwalk._ExactEngine(n).tvs(rmax)
    sizes = []

    def everywhere(n, b):
        sizes.append(b.size)
        return np.full_like(b, np.inf)

    monkeypatch.setattr(snwalk, "_margin", everywhere)
    eng = snwalk._ExactEngine(n)
    assert eng.tvs(rmax) == want and eng.tv_at(rmax) == want[rmax]
    assert sum(sizes) == len(eng.dims) * (rmax + 2)


@pytest.mark.parametrize("n", [4, 11, 18])
def test_the_margin_bounds_the_float_error(n):
    # at every r to 3x the cutoff and at r = 400, each double N c that
    # _tv_rows forms lies within _margin of its exact value N w / max(w),
    # which is (a n! - d n^r) / max(w) for the law a after r steps
    eng, n_fact = snwalk._ExactEngine(n), math.factorial(n)
    gaps = eng._paths[1]
    rows = gaps.astype(np.int64).tolist()
    for r in [*range(3 * _cutoff_r(n) + 1), 400]:
        w = [s * math.perm(n, k) for k, s in enumerate(snwalk._stirling_row(r, n)[:n])]
        c = np.array([x / max(w) for x in w])
        est, tol = gaps @ c, snwalk._margin(n, np.abs(gaps) @ c)
        a, den = eng.law(r)
        for x, t, row, ar, d in zip(est.tolist(), tol.tolist(), rows, a, eng.dims):
            exact = sum(map(mul, row, w))
            assert exact == ar * n_fact - d * den
            assert abs(Fraction(x) - Fraction(exact, max(w))) <= t, (r, row)


def test_a_memo_extended_twice_equals_one_call():
    # extensions that end inside and across blocks of 32 rows
    n, cuts = 16, (1, 20, 33, 64, 90)
    want = snwalk._ExactEngine(n).tvs(cuts[-1])
    eng = snwalk._ExactEngine(n)
    for r in cuts:
        assert eng.tvs(r)[:r + 1] == want[:r + 1]
    assert eng.tvs(cuts[-1]) == want


def test_path_count_sums_are_exact_in_doubles():
    # every partial sum of g is at most n!, so the exact engine's sizes keep
    # it below 2^53; a size past that is refused
    assert math.factorial(snwalk.EXACT_KERNEL_LIMIT) < 2**53
    with pytest.raises(CapacityError):
        snwalk._ExactEngine(19).tv_at(50)


def test_law_and_cutoff_step_no_walk(capsys, steps):
    # sn-cutoff, sn-walk and the direct moment jump to r through law
    _cutoff(capsys, 12, 0.5)
    assert main(["sn-walk", "--n", "12", "--r", "40", "--exact"]) == 0
    assert main(["sn-moments", "--n", "12", "--r", "40"]) == 0
    assert steps == []
    # so does a walk from another start, which keeps no memo
    snwalk.walk_distribution(12, 3, start=(11, 1))
    assert steps == []
    assert snwalk._exact_engine(12)._tvs == ()


def test_cache_clear_frees_the_engine(steps):
    snwalk.sn_tv_curve(16, 10, "exact")
    engine = snwalk._exact_engine(16)
    engine.law(5)
    refs = [weakref.ref(x) for x in (engine, *engine._paths)]
    del engine
    snwalk._exact_engine.cache_clear()
    assert [ref() for ref in refs] == [None] * 3


@pytest.mark.parametrize("n", [10, 15, 18])
def test_memo_state_changes_no_value(capsys, n):
    # every TV list, law and sn-cutoff line read from a cleared cache equals
    # the same call made after longer and shorter walks and laws at n
    r_lo, r_hi = _cutoff_r(n, -0.5), _cutoff_r(n, 0.5)
    long, short = 2 * r_hi, r_lo // 2

    def fresh(read, *args):
        snwalk._exact_engine.cache_clear()
        return read(*args)

    def law(r):
        a, den = snwalk._exact_engine(n).law(r)
        return list(a), den

    expect = {
        "long": fresh(_curve, n, long),
        "short": fresh(_curve, n, short),
        "lo": fresh(_cutoff, capsys, n, -0.5),
        "hi": fresh(_cutoff, capsys, n, 0.5),
        "law": fresh(law, long),
    }
    assert expect["long"][:short] == expect["short"]
    a, den = next(islice(exact_reference_walk(n, Partition((n,))), long, None))
    assert expect["law"] == (list(a), den)
    calls = {
        "long": lambda: _curve(n, long),
        "short": lambda: _curve(n, short),
        "lo": lambda: _cutoff(capsys, n, -0.5),
        "hi": lambda: _cutoff(capsys, n, 0.5),
        "law": lambda: law(long),
    }
    for order in (["long", "short", "lo", "hi", "law"], ["short", "law", "lo", "hi", "long"],
                  ["hi", "lo", "law", "short", "long"]):
        snwalk._exact_engine.cache_clear()
        assert [calls[k]() for k in order] == [expect[k] for k in order], order
    snwalk._exact_engine.cache_clear()


def test_threads_on_one_size_read_their_single_thread_values():
    # four threads at a 1 us switch interval extend and read the one memo
    # and form laws at different r; a torn or lost update would change a
    # list
    n, rmaxes = 14, (10, 40, 25, 60)

    def read(rmax):
        a, den = snwalk._exact_engine(n).law(rmax)
        return snwalk.sn_tv_curve(n, rmax, "exact"), list(a), den

    expect = {}
    for rmax in rmaxes:
        snwalk._exact_engine.cache_clear()
        expect[rmax] = read(rmax)
    snwalk._exact_engine.cache_clear()
    results = {}

    def work(rmax):
        results[rmax] = [read(rmax) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(rmax,)) for rmax in rmaxes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        snwalk._exact_engine.cache_clear()
    assert results == {rmax: [expect[rmax]] * 3 for rmax in rmaxes}


def test_an_unbalanced_law_fails_its_check(capsys, monkeypatch):
    # sum_rho d_rho V[rho, k] = n!/(n-k)! for the path counts, so that
    # sum_rho d_rho a_rho = n^r for every law they give; path counts that
    # break it are caught when the engine forms them, and the CLI exits 1
    horner = snwalk._horner

    def broken(*args):
        out = horner(*args)
        out[-1] += 1
        return out

    monkeypatch.setattr(snwalk, "_horner", broken)
    snwalk._exact_engine.cache_clear()
    try:
        assert main(["sn-tv-curve", "--n", "12", "--rmax", "3", "--exact"]) == 1
    finally:
        snwalk._exact_engine.cache_clear()
    assert "check failed:" in capsys.readouterr().err


def test_exact_caches_hold_a_bounded_footprint():
    # every exact engine after a law and its TVs to 3x the cutoff: what the
    # cache holds then, its path counts included, measured from a cleared
    # cache (0.54 MB; 0.52 MB with a stepped walk kept instead of the path
    # counts, 0.98 MB while each engine kept its skew-tableau matrix)
    snwalk._exact_engine.cache_clear()
    snwalk._complete_level(snwalk.EXACT_KERNEL_LIMIT)  # the cached levels, outside the bound
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2, snwalk.EXACT_KERNEL_LIMIT + 1):
            eng = snwalk._exact_engine(n)
            eng.law(3 * _cutoff_r(n))
            eng.tvs(3 * _cutoff_r(n))
        del eng
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        snwalk._exact_engine.cache_clear()
    assert held < 2 << 20, held
