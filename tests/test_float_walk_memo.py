"""The float walk from (n) is memoized for the last size asked for.

sn_tv_curve(n, rmax, "float") and the float sn-cutoff read their TVs from
it: they step only past what it holds, it is dropped before another size's
engine builds, and whatever it holds they print the bits a walk run afresh
prints.
"""

import math
import sys
import threading
import weakref

import pytest

from repwalk import snwalk
from repwalk.cli import main

SIZES = (19, 24, 30, 36)


def _clear():
    snwalk._float_walk.cache_clear()
    snwalk._float_engine.cache_clear()


def _cutoff_r(n, c):
    return math.ceil(0.5 * n * math.log(n) + c * n)


def _curve(n, rmax):
    return [tv for _, tv, _ in snwalk.sn_tv_curve(n, rmax, "float")]


def _cutoff(capsys, n, c):
    assert main(["sn-cutoff", "--n", str(n), "--c", str(c)]) == 0
    return capsys.readouterr().out


@pytest.fixture
def steps(monkeypatch):
    """The sizes of the _FloatEngine.step calls made from an empty memo and
    engine cache on, counted through a wrapper as the benchmark tracer
    counts them."""
    calls = []
    step = snwalk._FloatEngine.step

    def counted(self, w):
        calls.append(self.lat.n)
        return step(self, w)

    monkeypatch.setattr(snwalk._FloatEngine, "step", counted)
    _clear()
    yield calls
    _clear()


def test_float_commands_step_only_past_the_memo(capsys, steps):
    r1, r2 = _cutoff_r(24, -0.5), _cutoff_r(24, 0.5)
    assert 0 < r1 < r2
    _cutoff(capsys, 24, -0.5)
    assert len(steps) == r1
    _cutoff(capsys, 24, 0.5)
    assert len(steps) == r2
    assert main(["sn-tv-curve", "--n", "24", "--rmax", str(r2), "--float"]) == 0
    assert main(["sn-tv-curve", "--n", "24", "--rmax", str(r1), "--float"]) == 0
    assert len(steps) == r2
    # another size drops the walk at 24, which then steps again from 0
    _cutoff(capsys, 25, 0)
    assert len(steps) == r2 + _cutoff_r(25, 0)
    del steps[:]
    _cutoff(capsys, 24, -0.5)
    assert steps == [24] * r1


def test_exact_cutoff_computes_one_tv(capsys, monkeypatch, steps):
    calls = []
    tv = snwalk._ExactEngine.tv

    def counted(self, law):
        calls.append(law)
        return tv(self, law)

    monkeypatch.setattr(snwalk._ExactEngine, "tv", counted)
    _cutoff(capsys, 18, 0.5)
    assert len(calls) == 1 and steps == []
    assert snwalk._float_walk.cache_info().currsize == 0


def test_memo_holds_no_engine_and_goes_before_the_next_build(monkeypatch, steps):
    # the memo outlives its engine, and the next size's engine is built
    # only once the last size's walk is freed, so the two never coexist
    snwalk.sn_tv_curve(24, 10, "float")
    engine = weakref.ref(snwalk._float_engine(24))
    walk = weakref.ref(snwalk._float_walk(24).walk[0])
    snwalk._float_engine.cache_clear()
    assert engine() is None and walk() is not None
    built = []
    init = snwalk._FloatEngine.__init__

    def checked(self, n):
        built.append((n, walk()))
        init(self, n)

    monkeypatch.setattr(snwalk._FloatEngine, "__init__", checked)
    snwalk.sn_tv_curve(25, 3, "float")
    assert built == [(25, None)]


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
    # other sizes' walks evict n's engine and walk, and float laws at
    # other sizes evict only its engine: the memo steps on with a new one
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
