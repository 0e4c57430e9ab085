"""Tuning values are module constants, read when the code runs.

Each limit and precision below has one value in use, so the library takes
no argument for it.  These tests pin where each capacity limit bites, show
that a constant patched at run time takes effect, and keep the removed
arguments from coming back.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import oracles
import repwalk
from repwalk import characters, glasymptotics, glirreps, hsp, partitions, rng, series, snwalk
from repwalk.errors import CapacityError, SamplerError
from repwalk.glirreps import (
    enumerate_gl_irreps,
    gl_enumerable,
    gl_lower_bound,
    unipotent_marginal,
    unipotent_tail_bound,
)
from repwalk.hsp import hsp_bounds, induced_character_check, subgroup_closure
from repwalk.partitions import Partition
from repwalk.snwalk import class_walk_probability, walk_distribution_spectral

REMOVED = [
    (characters.character_table, "limit"),
    (snwalk.walk_distribution_spectral, "limit"),
    (snwalk.class_walk_probability, "limit"),
    (snwalk.moment_fc_reduced, "limit"),
    (snwalk.kernel_downup, "mode"),
    (snwalk.plancherel_sn, "mode"),
    (hsp.weak_sampling_distribution, "limit"),
    (hsp.hsp_bounds, "limit"),
    (hsp.induced_character_check, "limit"),
    (hsp.subgroup_closure, "cap"),
    (glasymptotics.suq_normalizer, "terms"),
    (glasymptotics.limit_marginal, "prec"),
    (glasymptotics.acceptance_probability, "prec"),
    (glasymptotics.acceptance_probability, "u"),
    (glasymptotics.gl_plancherel_samples, "u"),
    (glasymptotics._DegreePlan, "prec"),
    (oracles.euler_product_enclosure, "terms"),
    (oracles.high_degree_empty_direct, "explicit_degrees"),
    (oracles.high_degree_empty_direct, "prec"),
    (glasymptotics._ThresholdSet, "terminal"),
    (glasymptotics._ThresholdSet, "prec"),
    (glasymptotics._ThresholdSet, "max_doublings"),
    (glasymptotics.GLPlancherelSampler, "prec"),
    (glasymptotics.GLPlancherelSampler, "attempt_cap"),
    (glasymptotics.GLPlancherelSampler, "u"),
    (glirreps.enumerate_gl_irreps, "max_n"),
    (glirreps.enumerate_gl_irreps, "max_q"),
    (glirreps.gl_lower_bound, "max_n"),
    (glirreps.gl_lower_bound, "max_q"),
    (glirreps.unipotent_tail_bound, "rel_tol"),
    (series.euler_lhs_rhs, "threshold"),
    (rng.LazyUniform.compare_scaled, "slack_bits"),
]


@pytest.mark.parametrize("fn,name", REMOVED, ids=lambda x: getattr(x, "__qualname__", x))
def test_constant_is_not_an_argument(fn, name):
    assert name not in inspect.signature(fn).parameters


def test_character_table_limits():
    over = characters.DEFAULT_TABLE_LIMIT + 1
    with pytest.raises(CapacityError):
        walk_distribution_spectral(over, 1)
    with pytest.raises(CapacityError):
        class_walk_probability(over, Partition([2] + [1] * (over - 2)), 1)
    with pytest.raises(CapacityError):
        hsp_bounds(subgroup_closure(over, "(1 2)"))


def test_table_limit_read_at_run_time(monkeypatch):
    assert characters.character_table(4).n == 4
    monkeypatch.setattr(characters, "DEFAULT_TABLE_LIMIT", 3)
    with pytest.raises(CapacityError):
        characters.character_table(4)  # cached, and still refused


def test_induced_character_check_limit():
    assert hsp.INDUCED_CHECK_LIMIT == 8
    with pytest.raises(CapacityError):
        induced_character_check(subgroup_closure(9, "(1 2)"))


def test_gl_lower_bound_method_follows_enumerability():
    assert gl_enumerable(5, 4)
    assert not gl_enumerable(6, 2) and not gl_enumerable(5, 5)
    marg = unipotent_marginal(5, 4)
    assert gl_lower_bound(5, 4, 2) == 1 - sum(m for lam, m in marg.items() if lam and lam[0] >= 2)
    for n, q in ((6, 2), (5, 5)):
        with pytest.raises(CapacityError):
            enumerate_gl_irreps(n, q)
        assert gl_lower_bound(n, q, 2) == 1 - min(Fraction(1), unipotent_tail_bound(q, 2))


def test_enumeration_limit_read_at_run_time(monkeypatch):
    monkeypatch.setattr(glirreps, "DEFAULT_ENUM_N", 2)
    assert not gl_enumerable(3, 2)
    with pytest.raises(CapacityError):
        enumerate_gl_irreps(3, 2)


def test_threshold_doublings_read_at_run_time(monkeypatch):
    # a threshold known only to lie in [0, 1] leaves every comparison
    # unresolved: the fast path reads it once, then the scan reads it at
    # every level up to MAX_DOUBLINGS and gives up
    levels = []

    def builder(prec):
        levels.append(prec)
        return [(0, 0, 1 << prec)]  # [0, 1] at scale 2^prec

    monkeypatch.setattr(glasymptotics, "MAX_DOUBLINGS", 2)
    thresholds = glasymptotics._ThresholdSet(builder)
    with pytest.raises(SamplerError):
        thresholds.locate(rng.SplitMix64(1))
    p = glasymptotics.DEFAULT_PREC
    assert levels == [p, p, p << 1, p << 2]


def test_pass_through_accessors_are_gone():
    assert not hasattr(characters.CharacterTable, "value")
    assert not hasattr(characters.CharacterTable, "row")
    assert not hasattr(snwalk.SparseKernel, "entries")
    for name in ("partition_stats", "PartitionStats", "corner_moves", "CornerMoves"):
        assert not hasattr(partitions, name) and not hasattr(repwalk, name)
    # the Fraction tensor kernel and spectrum, and the S_{u,q} measure
    # objects, are retired: the tests hold Pieri's rule and the spectrum as
    # integer identities, and limit_marginal forms its own masses
    assert not hasattr(snwalk.SparseKernel, "apply_function")
    for module, names in ((snwalk, ("SpectrumEntry", "kernel_from_tensor", "spectrum_sn",
                                    "tensor_multiplicity", "_multiplicities", "_as_count")),
                          (glasymptotics, ("SUQMeasure", "suq_mass", "suq_measure")),
                          (glirreps, ("unipotent_mass_bound",))):
        for name in names:
            assert not hasattr(module, name) and not hasattr(repwalk, name), name


def test_sampler_size_cap(monkeypatch):
    # the limit itself is taken; one past it is refused before any draw,
    # even when nothing would be drawn
    limit = snwalk.SAMPLER_N_LIMIT
    assert limit == 10**4
    assert snwalk.walk_samples(limit, 0, 1, 1) == [Partition((limit,))]
    assert snwalk.rsk_samples(limit, 0, 1, 1) == [Partition((limit,))]
    assert snwalk.plancherel_samples(limit, 0, 1) == []
    for draw in (lambda n: snwalk.walk_samples(n, 1, 0, 1),
                 lambda n: snwalk.rsk_samples(n, 1, 0, 1),
                 lambda n: snwalk.plancherel_samples(n, 0, 1)):
        with pytest.raises(CapacityError):
            draw(limit + 1)
    monkeypatch.setattr(snwalk, "SAMPLER_N_LIMIT", 4)
    assert snwalk.walk_samples(4, 2, 1, 1) and snwalk.plancherel_samples(4, 1, 1)
    with pytest.raises(CapacityError):
        snwalk.walk_samples(5, 2, 1, 1)


def test_exact_walks_stay_within_the_cached_levels():
    # an exact or float law is one pass over the complete levels 0..n that
    # _complete_level caches up to LEVEL_LIMIT; a walk limit past it would
    # make every law past it rebuild and evict the levels it reads
    assert max(snwalk.EXACT_KERNEL_LIMIT, snwalk.FLOAT_LIMIT) <= partitions.LEVEL_LIMIT
    assert partitions._complete_level.cache_info().maxsize == partitions.LEVEL_LIMIT + 1
    assert snwalk._float_engine.cache_info().maxsize >= snwalk.FLOAT_LIMIT - 1


def test_plancherel_measure_stays_within_the_cached_levels():
    # plancherel_sn reads level n's dimensions: a size past LEVEL_LIMIT
    # is refused, and n < 0 named, before any level is built
    partitions._complete_level.cache_clear()
    with pytest.raises(CapacityError):
        snwalk.plancherel_sn(partitions.LEVEL_LIMIT + 1)
    with pytest.raises(ValueError, match="n must be non-negative"):
        snwalk.plancherel_sn(-1)
    assert partitions._complete_level.cache_info().currsize == 0


def test_series_order_cap(monkeypatch):
    assert series.ORDER_LIMIT == 30
    monkeypatch.setattr(series, "ORDER_LIMIT", 3)
    assert len(glasymptotics.cycle_index_rhs(2, 3)) == 4
    assert len(series.euler_lhs_rhs(2, 3)[0].coeffs) == 4
    for fn in (glasymptotics.cycle_index_rhs, series.euler_lhs_rhs):
        with pytest.raises(CapacityError):
            fn(2, 4)
        with pytest.raises(ValueError):
            fn(2, -1)


def test_series_q_order_cap(monkeypatch):
    # q^order is capped at 2^ORDER_BITS_LIMIT: q = 16 is the largest q
    # taken at the highest order
    assert series.ORDER_BITS_LIMIT == 120
    series._check_order(series.ORDER_LIMIT, 16)
    with pytest.raises(CapacityError):
        series._check_order(series.ORDER_LIMIT, 17)
    monkeypatch.setattr(series, "ORDER_BITS_LIMIT", 4)
    assert len(glasymptotics.cycle_index_rhs(2, 4)) == 5
    assert len(series.euler_lhs_rhs(4, 2)[0].coeffs) == 3
    for fn, q, order in ((glasymptotics.cycle_index_rhs, 2, 5), (series.euler_lhs_rhs, 4, 3)):
        with pytest.raises(CapacityError):
            fn(q, order)


def test_caches_hold_their_working_sets():
    # a float sweep cycles through every size up to FLOAT_LIMIT; walk_step
    # reads the dimensions of the partitions of n and n - 1, which the cache
    # holds whole up to n = 32 and no further; the character tables up to
    # DEFAULT_TABLE_LIMIT are rim-hook matrix products and read no MN value,
    # so only single mn_character lookups fill that bounded cache
    assert partitions.enumerate_partitions.cache_info().maxsize >= snwalk.FLOAT_LIMIT + 1
    levels = [partitions.partition_count(n) + partitions.partition_count(n - 1) for n in (32, 33)]
    dimension_cache = partitions.dimension_sn.cache_info().maxsize
    assert dimension_cache == partitions.DIMENSION_CACHE_SIZE
    assert levels[0] <= dimension_cache < levels[1]
    characters._table_cache.clear()
    characters._mn.cache_clear()
    for n in range(1, characters.DEFAULT_TABLE_LIMIT + 1):
        characters.character_table(n)
    assert characters._mn.cache_info().currsize == 0
    assert characters._mn.cache_info().maxsize == characters.MN_CACHE_SIZE


def test_every_cache_is_bounded():
    # a new unbounded lru_cache anywhere in the package fails here
    seen = set()
    for info in pkgutil.iter_modules(repwalk.__path__):
        module = importlib.import_module(f"repwalk.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                maxsize = value.cache_info().maxsize
                assert isinstance(maxsize, int) and maxsize > 0, f"{info.name}.{name}"
                seen.add(value)
    assert {partitions.enumerate_partitions, partitions.dimension_sn, partitions._complete_level,
            characters._mn, snwalk._float_engine, snwalk._exact_engine,
            glasymptotics._plan} <= seen
