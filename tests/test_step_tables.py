"""The S_n samplers step on memoized corner rows.

walk_step draws from the _DOWN and _UP row tables of snwalk, and
plancherel_growth_step, which walk_samples and plancherel_samples grow by,
from _UP alone.  These tests hold them to the reference steps in
tests/oracles.py (corners rebuilt and weights looked up on every call):
the same partition and the same generator state after every step, under
any table limit, and the same ArithmeticError on a wrong weight.
"""

import sys
import threading

import pytest

from oracles import plancherel_growth_step_reference, walk_step_chain, walk_step_reference
from repwalk import snwalk
from repwalk.partitions import EMPTY, Partition, dimension_sn
from repwalk.rng import SplitMix64
from repwalk.snwalk import plancherel_growth_step, walk_samples, walk_step

SEEDS = range(50)


@pytest.fixture(autouse=True)
def fresh_tables():
    snwalk._clear_step_tables()
    yield
    snwalk._clear_step_tables()


def _table_partitions():
    """Every partition object the tables hold, as keys or in rows."""
    held = list(snwalk._DOWN) + list(snwalk._UP)
    for table in (snwalk._DOWN, snwalk._UP):
        for parts, _ in table.values():
            held.extend(parts)
    return held


@pytest.mark.parametrize("n", range(1, 15))
def test_walk_step_matches_reference(n):
    for seed in SEEDS:
        new, ref = SplitMix64(seed), SplitMix64(seed)
        lam = Partition((n,))
        for _ in range(n + 2):
            got = walk_step(new, lam)
            assert got == walk_step_reference(ref, lam)
            assert new._state == ref._state
            lam = got


@pytest.mark.parametrize("n", range(1, 15))
def test_growth_step_matches_reference(n):
    for seed in SEEDS:
        new, ref = SplitMix64(seed), SplitMix64(seed)
        mu = EMPTY
        for _ in range(n):
            got = plancherel_growth_step(new, mu)
            assert got == plancherel_growth_step_reference(ref, mu)
            assert new._state == ref._state
            mu = got


def test_tables_intern_each_value_once():
    # walk_samples builds _UP rows only; the walk_step chain adds _DOWN rows
    walk_samples(9, 12, 20, 5)
    walk_step_chain(9, 12, 20, 5)
    held = _table_partitions()
    assert snwalk._DOWN and snwalk._UP
    assert len({id(p) for p in held}) == len(set(held)) == len(snwalk._INTERN)


def test_table_limit_keeps_draws(monkeypatch):
    expected = {seed: walk_samples(12, 20, 50, seed) for seed in (1, 2)}
    snwalk._clear_step_tables()
    monkeypatch.setattr(snwalk, "STEP_TABLE_LIMIT", 8)
    sizes = []
    step = snwalk.plancherel_growth_step

    def checked_step(rng, mu):
        out = step(rng, mu)
        held = _table_partitions()
        # one object per value, and no more values than the limit
        assert len({id(p) for p in held}) == len(set(held))
        sizes.append(len(set(held)))
        return out

    monkeypatch.setattr(snwalk, "plancherel_growth_step", checked_step)
    for seed, want in expected.items():
        assert walk_samples(12, 20, 50, seed) == want
    assert max(sizes) <= 8
    # the tables were cleared along the way, not only filled
    assert len(set(sizes)) > 1 and min(sizes) < 8


def test_threads_share_tables(monkeypatch):
    # more walkers than cores, switching often, on a limit small enough that
    # rows are cleared while other threads build and read them
    seeds = range(6)
    expected = {seed: walk_samples(10, 12, 30, seed) for seed in seeds}
    snwalk._clear_step_tables()
    monkeypatch.setattr(snwalk, "STEP_TABLE_LIMIT", 16)
    got = {}

    def run(seed):
        got[seed] = walk_samples(10, 12, 30, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    held = _table_partitions()
    assert len({id(p) for p in held}) == len(set(held)) <= 16
    assert all(snwalk._INTERN[p] is p for p in held)


def _off_by_one(monkeypatch, bad: Partition):
    def dimension(lam):
        return dimension_sn(lam) + (lam == bad)

    monkeypatch.setattr(snwalk, "dimension_sn", dimension)


def test_corrupt_down_weight_raises(monkeypatch):
    _off_by_one(monkeypatch, Partition((2, 2)))
    with pytest.raises(ArithmeticError, match="down-step weights of 3\\+2"):
        walk_step(SplitMix64(1), Partition((3, 2)))
    assert not snwalk._DOWN


def test_corrupt_up_weight_raises(monkeypatch):
    _off_by_one(monkeypatch, Partition((3, 1)))
    with pytest.raises(ArithmeticError, match="up-step weights of 2\\+1"):
        plancherel_growth_step(SplitMix64(1), Partition((2, 1)))
    assert not snwalk._UP


def test_rows_are_built_once(monkeypatch):
    want = walk_samples(8, 10, 5, 3)
    # the same draws again visit only rows already built, so no weight is
    # looked up a second time
    def no_lookup(lam):
        raise AssertionError(f"dimension of {lam} looked up again")

    monkeypatch.setattr(snwalk, "dimension_sn", no_lookup)
    assert walk_samples(8, 10, 5, 3) == want
