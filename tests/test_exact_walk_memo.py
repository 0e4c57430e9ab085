"""The exact engine of n is cached, with its walk from (n) and its one-pass law.

_exact_engine keeps one _ExactEngine per exact size.  Its tvs memoizes the
walk from (n) as _FloatEngine.tvs does: sn_tv_curve(n, rmax, "exact") steps
only past what it holds, and whatever it holds gives the TVs a walk run
afresh gives.  Its law(r, start) is the law after r steps from any start,
sum_k S(r, k) U^k D^k e_s by Horner's rule up the levels, equal as
integers to the stepped law.
"""

import math
import sys
import threading
import tracemalloc
import weakref
from itertools import islice

import pytest

from repwalk import snwalk
from repwalk.cli import main
from repwalk.partitions import Partition, enumerate_partitions

from oracles import exact_reference_walk


def _cutoff_r(n, c=0.0):
    return math.ceil(0.5 * n * math.log(n) + c * n)


def _curve(n, rmax):
    return [tv for _, tv, _ in snwalk.sn_tv_curve(n, rmax, "exact")]


def _cutoff(capsys, n, c):
    assert main(["sn-cutoff", "--n", str(n), "--c", str(c)]) == 0
    return capsys.readouterr().out


@pytest.fixture
def steps(monkeypatch):
    """The sizes of the _apply_counts calls made from an empty exact engine
    cache on."""
    calls = []
    apply_counts = snwalk._apply_counts

    def counted(lat, w):
        calls.append(lat.n)
        return apply_counts(lat, w)

    monkeypatch.setattr(snwalk, "_apply_counts", counted)
    snwalk._exact_engine.cache_clear()
    yield calls
    snwalk._exact_engine.cache_clear()


@pytest.mark.parametrize("n", range(2, snwalk.EXACT_KERNEL_LIMIT + 1))
def test_law_equals_the_stepped_law(n):
    # from ids 0 (the one-row partition, no down pass), 1, p(n)//2 and
    # p(n)-1, at every r up to 3x the cutoff
    eng = snwalk._ExactEngine(n)
    parts = enumerate_partitions(n)
    rmax = 3 * _cutoff_r(n)
    for s in dict.fromkeys((0, 1, len(parts) // 2, len(parts) - 1)):
        for r, (a, den) in zip(range(rmax + 1), exact_reference_walk(n, parts[s])):
            b, d = eng.law(r, parts[s])
            assert d == den and list(b) == list(a), (s, r)


def test_repeat_curve_reads_the_memo(steps):
    r1, r2 = _cutoff_r(14, -0.5), _cutoff_r(14, 0.5)
    first = _curve(14, r2)
    assert steps == [14] * r2
    assert _curve(14, r2) == first and _curve(14, r1) == first[:r1]
    assert steps == [14] * r2
    longer = _curve(14, 2 * r2)
    assert longer[:r2] == first
    assert steps == [14] * (2 * r2)


def test_law_and_cutoff_step_no_walk(capsys, steps):
    # sn-cutoff, sn-walk and the direct moment jump to r through law
    _cutoff(capsys, 12, 0.5)
    assert main(["sn-walk", "--n", "12", "--r", "40", "--exact"]) == 0
    assert main(["sn-moments", "--n", "12", "--r", "40"]) == 0
    assert steps == []
    # so does a walk from another start, which keeps no memo
    snwalk.walk_distribution(12, 3, start=(11, 1))
    assert steps == []
    assert snwalk._exact_engine(12)._walk[1] == ()


def test_cache_clear_frees_the_engine(steps):
    snwalk.sn_tv_curve(16, 10, "exact")
    engine = snwalk._exact_engine(16)
    engine.law(5)
    refs = [weakref.ref(x) for x in (engine, engine._walk[0][0])]
    del engine
    snwalk._exact_engine.cache_clear()
    assert [ref() for ref in refs] == [None, None]


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
    # sum_rho d_rho a_rho = den for every law; a step that breaks it is
    # caught by tv's zero-sum check, and the CLI exits 1
    apply_counts = snwalk._apply_counts

    def broken(lat, w):
        out = apply_counts(lat, w)
        out[-1] += 1
        return out

    monkeypatch.setattr(snwalk, "_apply_counts", broken)
    snwalk._exact_engine.cache_clear()
    try:
        assert main(["sn-tv-curve", "--n", "12", "--rmax", "3", "--exact"]) == 1
    finally:
        snwalk._exact_engine.cache_clear()
    assert "check failed:" in capsys.readouterr().err


def test_exact_caches_hold_a_bounded_footprint():
    # every exact engine after a law and its memo walked to 3x the cutoff:
    # what the cache holds then, measured from a cleared cache (0.52 MB,
    # 0.98 MB while each engine kept its skew-tableau matrix)
    snwalk._exact_engine.cache_clear()
    snwalk.young_lattice(snwalk.EXACT_KERNEL_LIMIT)  # the cached levels, outside the bound
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
