"""The float walk from (n) is stepped afresh for each curve on the cached
float engine of n, which keeps no walk.

sn_tv_curve(n, rmax, "float") reads its TVs from _FloatEngine.tvs: each
curve steps exactly its rmax, the engine holds only n, dims and pi, and
whatever came before, the curve and the float sn-cutoff print the bits a
walk run afresh prints.  The float sn-cutoff, sn-walk --float and
walk_distribution(mode="float") read one Horner law at their r instead,
with no step, no step tables and no lattice.
"""

import math
import sys
import threading
import weakref

import pytest

from repwalk import partitions, snwalk
from repwalk.cli import main

SIZES = (19, 24, 30, 36)


def _clear():
    snwalk._float_engine.cache_clear()


def _cutoff_r(n, c):
    return math.ceil(0.5 * n * math.log(n) + c * n)


def _curve(n, rmax):
    return [tv for _, tv, _ in snwalk.sn_tv_curve(n, rmax, "float")]


def _cutoff(capsys, n, c):
    assert main(["sn-cutoff", "--n", str(n), "--c", str(c)]) == 0
    return capsys.readouterr().out


def _tv_curve(capsys, n, rmax):
    assert main(["sn-tv-curve", "--n", str(n), "--rmax", str(rmax), "--float"]) == 0
    return capsys.readouterr().out


@pytest.fixture
def steps(monkeypatch):
    """The sizes of the _FloatEngine.step calls made from an empty engine
    cache on, counted through a wrapper as the benchmark tracer
    counts them."""
    calls = []
    step = snwalk._FloatEngine.step

    def counted(self, w, tables):
        calls.append(self.n)
        return step(self, w, tables)

    monkeypatch.setattr(snwalk._FloatEngine, "step", counted)
    _clear()
    yield calls
    _clear()


def test_each_float_curve_steps_its_rmax(capsys, steps):
    # no walk is kept, so a curve steps its whole rmax whatever came before
    r1, r2 = _cutoff_r(24, -0.5), _cutoff_r(24, 0.5)
    assert 0 < r1 < r2
    for rmax in (r1, r2, r2, r1):
        del steps[:]
        _tv_curve(capsys, 24, rmax)
        assert steps == [24] * rmax


def test_other_sizes_do_not_evict_an_engine(capsys, steps):
    # every float size has its cached engine: curves and laws at all the
    # other sizes leave n's in place, to be read again with no build
    engine = snwalk._float_engine(24)
    for m in range(2, snwalk.FLOAT_LIMIT + 1):
        if m != 24:
            _tv_curve(capsys, m, 2)
            snwalk.walk_distribution(m, 2, mode="float")
    misses = snwalk._float_engine.cache_info().misses
    _tv_curve(capsys, 24, 3)
    assert snwalk._float_engine(24) is engine
    assert snwalk._float_engine.cache_info().misses == misses


def _turned(monkeypatch):
    """The sizes p(n) of the levels whose down edges _up_edges turns
    around from here on: the up edges a stepping or exact engine holds."""
    calls = []
    up_edges = snwalk._up_edges

    def counted(below, down_off):
        calls.append(len(down_off) - 1)
        return up_edges(below, down_off)

    monkeypatch.setattr(snwalk, "_up_edges", counted)
    return calls


def test_one_r_float_laws_step_no_walk(capsys, steps, monkeypatch):
    # the float sn-cutoff, sn-walk --float and walk_distribution read one
    # Horner law each: no step, no step tables, the exact engine cache
    # stays empty, and no up edges are turned
    snwalk._exact_engine.cache_clear()
    turned = _turned(monkeypatch)
    tables = []
    step_tables = snwalk._FloatEngine._step_tables
    monkeypatch.setattr(snwalk._FloatEngine, "_step_tables",
                        lambda self: tables.append(self.n) or step_tables(self))
    for n in (19, 30, 40):
        _cutoff(capsys, n, -0.5)
        _cutoff(capsys, n, 0.5)
    start = "+".join(["5"] * 6)
    for argv in (["sn-walk", "--n", "30", "--r", "40", "--float"],
                 ["sn-walk", "--n", "30", "--r", "40", "--float", "--start", start]):
        assert main(argv) == 0
    snwalk.tv_to_plancherel(snwalk.walk_distribution(24, 30, mode="float"))
    assert steps == [] and tables == []
    assert snwalk._exact_engine.cache_info().currsize == 0 and turned == []


def test_float_commands_build_no_lattice(capsys, monkeypatch):
    # from cleared caches, the float sn-cutoff reads a float engine's law
    # and sn-tv-curve --float steps on step tables built from the same
    # cached level: neither builds an exact engine, and only the step
    # tables turn level n's edges around, once
    _clear()
    snwalk._complete_level.cache_clear()
    snwalk._exact_engine.cache_clear()
    turned = _turned(monkeypatch)
    _cutoff(capsys, 24, 0.5)
    assert turned == []
    _tv_curve(capsys, 24, _cutoff_r(24, 0.5))
    assert turned == [partitions.partition_count(24)]
    assert snwalk._exact_engine.cache_info().currsize == 0
    _clear()


def test_cutoff_and_curve_share_one_engine_that_keeps_no_walk(capsys, steps):
    # from cleared caches, sn-cutoff builds the engine of n and
    # sn-tv-curve --float reads it back; the engine then holds its size,
    # dims and pi, and neither step tables nor a walk
    _cutoff(capsys, 24, 0.5)
    _tv_curve(capsys, 24, _cutoff_r(24, 0.5))
    info = snwalk._float_engine.cache_info()
    assert info.misses == 1 and info.hits >= 1
    assert set(vars(snwalk._float_engine(24))) == {"n", "dims", "pi"}


def test_cache_clear_frees_the_engine(steps):
    # the benchmark worker clears the engine cache before its cold builds,
    # and that frees the engine, with its dims and pi
    snwalk.sn_tv_curve(24, 10, "float")
    engine = snwalk._float_engine(24)
    refs = weakref.ref(engine), weakref.ref(engine.pi)
    del engine
    snwalk._float_engine.cache_clear()
    assert [ref() for ref in refs] == [None, None]


def test_exact_cutoff_computes_one_tv(capsys, monkeypatch, steps):
    calls = []
    tv_at = snwalk._ExactEngine.tv_at

    def counted(self, r):
        calls.append(r)
        return tv_at(self, r)

    monkeypatch.setattr(snwalk._ExactEngine, "tv_at", counted)
    _cutoff(capsys, 18, 0.5)
    assert len(calls) == 1 and steps == []
    assert snwalk._float_engine.cache_info().currsize == 0


@pytest.mark.parametrize("n", SIZES)
def test_memo_state_changes_no_bit(capsys, n):
    # every TV list and sn-cutoff line read from a cleared memo equals the
    # same call made after longer and shorter walks at n, and after more
    # than four other sizes have evicted n's engine and walk
    r_lo, r_hi = _cutoff_r(n, -0.5), _cutoff_r(n, 0.5)
    long, short = 3 * r_hi, r_lo // 2
    others = [m for m in range(19, 37) if m not in SIZES][:5]

    def fresh(read, *args):
        _clear()
        return read(*args)

    expect = {
        "long": fresh(_curve, n, long),
        "short": fresh(_curve, n, short),
        "lo": fresh(_cutoff, capsys, n, -0.5),
        "hi": fresh(_cutoff, capsys, n, 0.5),
    }
    assert expect["long"][:short] == expect["short"]
    calls = {
        "long": lambda: _curve(n, long),
        "short": lambda: _curve(n, short),
        "lo": lambda: _cutoff(capsys, n, -0.5),
        "hi": lambda: _cutoff(capsys, n, 0.5),
    }
    for order in (["long", "short", "lo", "hi"], ["short", "lo", "hi", "long"],
                  ["hi", "lo", "short", "long"]):
        _clear()
        assert [calls[k]() for k in order] == [expect[k] for k in order], order
    # other sizes' walks evict n's engine and its walk, which the next
    # engine of n walks again from (n); other sizes' float laws build no
    # engine and leave n's in place
    for between in (lambda m: _curve(m, 5), lambda m: snwalk.walk_distribution(m, 2, mode="float")):
        _clear()
        assert calls["short"]() == expect["short"]
        for m in others:
            between(m)
        assert [calls[k]() for k in ("lo", "long", "hi", "short")] == \
            [expect[k] for k in ("lo", "long", "hi", "short")]
    _clear()


def test_threads_on_one_size_read_their_single_thread_curves():
    # four threads at a 1 us switch interval extend and read the one memo
    # at different rmax; a torn or lost update would change a list
    n, rmaxes = 24, (10, 40, 25, 60)
    expect = {}
    for rmax in rmaxes:
        _clear()
        expect[rmax] = snwalk.sn_tv_curve(n, rmax, "float")
    _clear()
    results = {}

    def work(rmax):
        results[rmax] = [snwalk.sn_tv_curve(n, rmax, "float") for _ in range(3)]

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
        _clear()
    assert results == {rmax: [expect[rmax]] * 3 for rmax in rmaxes}
