"""walk_step against its reference step.

walk_step rebuilds its corner rows and their dimension sums on every call;
no table is kept between steps.  These tests hold it to walk_step_reference
in tests/oracles.py: the same partition and the same generator state after
every step, and an ArithmeticError naming the row on a wrong weight.
"""

import pytest

from oracles import walk_step_reference
from repwalk import snwalk
from repwalk.partitions import Partition, dimension_sn
from repwalk.rng import SplitMix64
from repwalk.snwalk import walk_step

SEEDS = range(50)


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


def _off_by_one(monkeypatch, bad: Partition):
    def dimension(lam):
        return dimension_sn(lam) + (lam == bad)

    monkeypatch.setattr(snwalk, "dimension_sn", dimension)


def test_corrupt_down_weight_raises(monkeypatch):
    _off_by_one(monkeypatch, Partition((2, 2)))
    with pytest.raises(ArithmeticError, match="down-step weights of 3\\+2"):
        walk_step(SplitMix64(1), Partition((3, 2)))


def test_corrupt_up_weight_raises(monkeypatch):
    # (2, 2) has one box to remove, so the up step starts from (2, 1)
    _off_by_one(monkeypatch, Partition((3, 1)))
    with pytest.raises(ArithmeticError, match="up-step weights of 2\\+1"):
        walk_step(SplitMix64(1), Partition((2, 2)))
