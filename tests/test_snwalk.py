import math
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import mul

import numpy as np
import pytest

from repwalk import snwalk
from repwalk.characters import character_table, enumerate_classes, fixed_point_profile
from repwalk.errors import CapacityError
from repwalk.partitions import (
    Partition,
    _complete_level,
    _dims,
    dimension_sn,
    enumerate_partitions,
    partition_id,
)
from repwalk.snwalk import (
    FLOAT_LIMIT,
    MAX_WALK_STEPS,
    _FloatEngine,
    _curve_error_bound,
    _float_engine,
    _law_error_bound,
    _skew_counts,
    class_walk_probability,
    kernel_downup,
    moment_fc,
    moment_fc_reduced,
    plancherel_sn,
    sn_lower_bound_estimate,
    sn_tv_curve,
    sn_upper_bound,
    sn_upper_bound_squared,
    transposition_moments_closed,
    tv_to_plancherel,
    WalkDistribution,
    walk_distribution,
    walk_distribution_spectral,
)

from oracles import (
    _float_walk,
    _rank_mod_p,
    apply_counts,
    character_table_brute,
    class_sizes_brute,
    class_walk_probability_reference,
    common_corner_matrix,
    exact_reference_walk,
    float_law_reference,
    float_law_relerr,
    float_reference_walk,
    gamma,
    horner_roundings,
    lattice,
    padded_float_step,
    padded_reference_walk,
    per_curve_down_table,
    pieri_sides,
    reference_walk,
    spectrum_sides,
    step_roundings,
    tv_witness,
)


def cutoff_steps(n):
    return math.ceil(0.5 * n * math.log(n))


def transpositions(n):
    return Partition([2] + [1] * (n - 2))


def test_plancherel_examples():
    pi = plancherel_sn(3)
    assert pi.masses == {
        Partition((3,)): Fraction(1, 6),
        Partition((2, 1)): Fraction(2, 3),
        Partition((1, 1, 1)): Fraction(1, 6),
    }
    assert plancherel_sn(1).masses == {Partition((1,)): Fraction(1)}
    assert plancherel_sn(8).total() == 1


def test_kernel_downup_examples():
    k = kernel_downup(3)
    assert k.rows[Partition((3,))] == {
        Partition((3,)): Fraction(1, 3),
        Partition((2, 1)): Fraction(2, 3),
    }
    k2 = kernel_downup(2)
    assert k2.rows[Partition((2,))] == {
        Partition((2,)): Fraction(1, 2),
        Partition((1, 1)): Fraction(1, 2),
    }


def test_kernel_rows_sum_to_one():
    for n in (2, 3, 5, 9):
        k = kernel_downup(n)
        for lam, row in k.rows.items():
            assert sum(row.values()) == 1


def test_kernel_support_is_corner_moves():
    for n in (4, 6):
        k = kernel_downup(n)
        for lam, row in k.rows.items():
            neighborhood = {lam}
            for mu in lam.removable_corners():
                neighborhood.update(mu.addable_corners())
            assert set(row) <= neighborhood


def test_kernel_equivalence_small():
    # Pieri's rule: the tensor multiplicities from the character table are
    # the common-corner counts of the walk's own step
    for n in range(2, 7):
        lhs, rhs = pieri_sides(n)
        assert (lhs == rhs).all()


def test_tensor_multiplicities_are_counts():
    # mult(rho in lam (x) eta) from the permutation-module character table,
    # with no Murnaghan-Nakayama value, is the common-corner count A(lam, rho)
    for n in (3, 4, 5, 6):
        brute, sizes = character_table_brute(n), class_sizes_brute(n)
        parts = enumerate_partitions(n)  # rows of A, and the columns of brute
        w = [sizes[c] * c.count(1) for c in parts]
        a = common_corner_matrix(n)
        for i, lam in enumerate(parts):
            for j, rho in enumerate(parts):
                inner = sum(map(mul, w, map(mul, brute[lam], brute[rho])))
                assert Fraction(inner, math.factorial(n)) == a[i, j]


def test_tensor_multiplicity_is_its_kernel_row_entry():
    # every pair at n <= 8: n d_lam K(lam, rho) / d_rho is the character
    # inner product (1/n!) sum_C |C| fp(C) chi^lam(C) chi^rho(C)
    for n in range(2, 9):
        table, lat, parts = character_table(n), lattice(n), enumerate_partitions(n)
        rows = kernel_downup(n).rows
        for li, lam in enumerate(parts):
            for ri, rho in enumerate(parts):
                inner = sum(c.class_size * c.fixed_points * x * y for c, x, y
                            in zip(table.classes, table.values[li], table.values[ri]))
                k = rows[lam].get(rho, 0)
                assert Fraction(inner, math.factorial(n)) == k * n * lat.dims[li] / lat.dims[ri]


def test_reversibility_and_stationarity():
    for n in (3, 5, 8, 12):
        k = kernel_downup(n)
        pi = plancherel_sn(n).masses
        for lam, row in k.rows.items():
            for rho, p in row.items():
                assert pi[lam] * p == pi[rho] * k.rows[rho][lam]
        out = k.apply_dist(pi)
        assert out == {lam: pi[lam] for lam in pi if pi[lam]}


def test_spectrum_eigenvalues():
    table = character_table(3)
    assert sorted(Fraction(c.fixed_points, 3) for c in table.classes) == [0, Fraction(1, 3), 1]
    # eigenvalue 1 exactly once, from the identity class, whose
    # eigenfunction g(rho) = chi^rho(C)/d_rho is constant 1
    ones = [j for j, c in enumerate(table.classes) if c.fixed_points == 3]
    assert len(ones) == 1
    assert all(row[ones[0]] == d for row, d in zip(table.values, _dims(3)))


def test_no_eigenvalue_at_n_minus_1_over_n():
    # read off A with no character: A - (n-1) I is nonsingular, its rank
    # modulo a prime full
    for n in (4, 6, 8):
        a = common_corner_matrix(n)
        m = (a - (n - 1) * np.eye(len(a), dtype=np.int64)).tolist()
        assert _rank_mod_p(m, 2**61 - 1) == len(a)


def test_eigenfunction_equation_exact():
    # K g_C = (fp(C)/n) g_C for every class C, g_C = chi(C)/d, as A X = X diag(fp)
    for n in range(2, 9):
        lhs, rhs = spectrum_sides(n)
        assert (lhs == rhs).all()


def test_walk_distribution_examples():
    d0 = walk_distribution(3, 0)
    assert d0.masses == {Partition((3,)): Fraction(1)}
    d1 = walk_distribution(3, 1)
    assert d1.masses == {
        Partition((3,)): Fraction(1, 3),
        Partition((2, 1)): Fraction(2, 3),
    }
    with pytest.raises(ValueError):
        walk_distribution(3, 1, start=Partition((2, 2)))


def test_walk_matches_spectral_form():
    for n in (2, 3, 5):
        for start in enumerate_partitions(n):
            for r in range(5):
                a = walk_distribution(n, r, start)
                b = walk_distribution_spectral(n, r, start)
                for lam in enumerate_partitions(n):
                    assert a.mass(lam) == b.mass(lam)


def test_walk_multiplicity_integrality():
    # n^r K^r(one-row, rho) / d_rho counts tensor-power multiplicities
    for n in (3, 5, 7, 8):
        for r in range(9):
            dist = walk_distribution(n, r)
            for rho, mass in dist.masses.items():
                m = mass * n**r / dimension_sn(rho)
                assert m.denominator == 1 and m >= 0


def test_walk_matches_tensor_power_multiplicities():
    # K^r(one-row, rho) = d_rho m_rho(eta^r) / n^r with the multiplicity
    # computed independently as a character inner product
    for n in (4, 6):
        table = character_table(n)
        n_fact = math.factorial(n)
        for r in range(6):
            dist = walk_distribution(n, r)
            for i, rho in enumerate(table.partitions):
                inner = sum(
                    c.class_size * c.fixed_points**r * table.values[i][j]
                    for j, c in enumerate(table.classes)
                )
                assert inner % n_fact == 0
                mult = inner // n_fact
                assert dist.mass(rho) == Fraction(dimension_sn(rho) * mult, n**r)


def test_tv_examples():
    pi = plancherel_sn(3)
    assert tv_to_plancherel(pi) == 0
    d1 = walk_distribution(3, 1)
    assert tv_to_plancherel(d1) == Fraction(1, 6)


def test_tv_witness_matches_half_l1():
    for n in (3, 5, 6):
        for r in (0, 1, 2, 5):
            dist = walk_distribution(n, r)
            tv = tv_to_plancherel(dist)
            assert 0 <= tv <= 1
            _, gap = tv_witness(dist)
            assert gap == tv


def test_upper_bound_reads_one_cached_profile():
    # the profile depends on n alone: a curve's rows build it once, and the
    # cached mapping cannot be changed under later callers
    fixed_point_profile.cache_clear()
    for r in range(1, 200):
        sn_upper_bound(36, r)
    assert fixed_point_profile.cache_info().misses == 1
    with pytest.raises(TypeError):
        fixed_point_profile(36)[0] = 1


def test_upper_bound_examples():
    assert sn_upper_bound_squared(3, 1) == Fraction(1, 12)
    assert sn_upper_bound(3, 1) == pytest.approx(1 / (2 * math.sqrt(3)))
    assert tv_to_plancherel(walk_distribution(3, 1)) <= sn_upper_bound(3, 1)
    # monotone decreasing to 0
    values = [sn_upper_bound(6, r) for r in range(1, 61)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-9


@pytest.mark.parametrize("n", range(2, 15))
def test_upper_bound_at_r0_is_the_point_mass_chi2(n):
    # no step taken: the law is the point mass at (n), whose chi^2 to
    # Plancherel measure is n!/d_(n)^2 - 1 = n! - 1; a negative r is refused
    assert sn_upper_bound_squared(n, 0) == Fraction(math.factorial(n) - 1, 4)
    with pytest.raises(ValueError, match="r >= 0"):
        sn_upper_bound_squared(n, -1)


def test_upper_bound_past_the_double_range_is_inf():
    # math.sqrt of the exact square raised OverflowError from n = 173 at r = 1;
    # an upper bound rounded up to inf still bounds
    assert sn_upper_bound_squared(173, 1) > sys.float_info.max
    assert sn_upper_bound(173, 1) == math.inf
    assert math.isfinite(sn_upper_bound(172, 1))


def test_tv_curve_bound_column_is_the_closed_form():
    # every row's l2_bound is the double sn_upper_bound gives at its r,
    # through 3x the cutoff
    for n in range(2, 41):
        rmax = 3 * cutoff_steps(n)
        bounds = [bound for _, _, bound in sn_tv_curve(n, rmax, "float")]
        assert bounds == [sn_upper_bound(n, r) for r in range(1, rmax + 1)], n


def test_upper_bound_dominates_exact_tv():
    for n in (5, 8):
        rows = sn_tv_curve(n, 25, "exact")
        for r, tv, bound in rows:
            assert float(tv) <= bound + 1e-15


def test_class_walk_probability_examples():
    p0 = class_walk_probability(3, transpositions(3), 0)
    assert p0[Partition((1, 1, 1))] == 1
    p1 = class_walk_probability(3, transpositions(3), 1)
    assert p1[transpositions(3)] == 1
    p2 = class_walk_probability(3, transpositions(3), 2)
    assert p2 == {
        Partition((1, 1, 1)): Fraction(1, 3),
        Partition((3,)): Fraction(2, 3),
        Partition((2, 1)): Fraction(0),
    }


def test_class_walk_equals_fraction_sum():
    # the integer sums over one scale L = lcm d^(s-1) against one Fraction
    # multiply-add per (rho, T), every class of every n <= 10
    for n in range(2, 11):
        for c in enumerate_classes(n):
            for s in range(4):
                got = class_walk_probability(n, c, s)
                want = class_walk_probability_reference(n, c.cycle_lengths, s)
                assert got == want
                assert list(got) == list(want)


@pytest.mark.parametrize("call", [
    lambda: class_walk_probability(5, (3, 3), 1),
    lambda: walk_distribution_spectral(5, 1, (3, 3)),
    lambda: moment_fc_reduced(5, (3, 3), 1, 2, "transfer"),
    lambda: moment_fc_reduced(5, (3, 3), 1, 2, "direct"),
], ids=["class_walk_probability", "walk_distribution_spectral",
        "moment_fc_reduced-transfer", "moment_fc_reduced-direct"])
def test_wrong_size_is_a_value_error(call):
    # a class or partition of 6 at n = 5 is looked up by lattice id; the
    # refusal names both sizes rather than failing as a missing key
    with pytest.raises(ValueError, match="has size 6, expected 5"):
        call()


def test_moment_methods_agree_exactly():
    # transfer and direct are integer sums over one denominator, closed the
    # Fraction closed form; past n = 8 at r = 0, 1, the cutoff and twice it
    cases = [(n, range(6)) for n in (4, 5, 6)]
    cases += [(n, (0, 1, cutoff_steps(n), 2 * cutoff_steps(n))) for n in range(9, 13)]
    for n, steps in cases:
        c = transpositions(n)
        for r in steps:
            for s in (1, 2):
                a = moment_fc_reduced(n, c, s, r, "transfer")
                b = moment_fc_reduced(n, c, s, r, "direct")
                cl = moment_fc_reduced(n, c, s, r, "closed")
                assert a == b == cl


def test_moment_r0_is_class_size_sqrt():
    for n in (4, 6):
        c = transpositions(n)
        assert moment_fc_reduced(n, c, 1, 0) == 1
        assert moment_fc(n, c, 1, 0) == pytest.approx(math.sqrt(math.comb(n, 2)))


def test_moment_example_s3():
    v = moment_fc(3, transpositions(3), 1, 1)
    assert v == pytest.approx(math.sqrt(3) / 3)


def test_moment_s_capped():
    with pytest.raises(ValueError):
        moment_fc_reduced(4, transpositions(4), 3, 1)


def test_closed_forms_match_plancherel_limit():
    # r -> infinity: mean 0, variance 1 under the stationary measure
    n = 6
    mean_red, second = transposition_moments_closed(n, 400)
    assert float(mean_red) == pytest.approx(0, abs=1e-30)
    assert float(second) == pytest.approx(1, abs=1e-12)


def test_lower_bound_estimate():
    assert sn_lower_bound_estimate(8, 500, 2.0) == 0
    est = sn_lower_bound_estimate(8, 2, 2.0)
    exact = tv_to_plancherel(walk_distribution(8, 2))
    assert 0 < est <= float(exact) + 1e-9
    # certified for several (n, r, alpha) against the exact chain
    for n in (6, 8, 10):
        for r in (1, 2, 3, 5):
            for alpha in (1.5, 2.0, 3.0):
                est = sn_lower_bound_estimate(n, r, alpha)
                exact = float(tv_to_plancherel(walk_distribution(n, r)))
                assert est <= exact + 1e-9


@pytest.mark.parametrize("n", [0, 1, -3])
def test_lower_bound_estimate_refuses_n_below_2(n):
    # n = 0 raised ZeroDivisionError and n = 1 a math.comb message
    with pytest.raises(ValueError, match="the walk needs n >= 2"):
        sn_lower_bound_estimate(n, 3, 2.0)


def test_closed_moments_refuse_bad_step_counts(monkeypatch):
    # r = -3 gave an estimate of 0.704 and r = 10**6 ran past a minute:
    # both are refused as a walk's step count, before any power is formed
    def no_power(*args):
        raise AssertionError("a power was formed")

    monkeypatch.setattr(snwalk, "Fraction", no_power)
    for moments in (transposition_moments_closed, lambda n, r: sn_lower_bound_estimate(n, r, 2.0)):
        with pytest.raises(ValueError, match="r must be non-negative"):
            moments(10, -1)
        with pytest.raises(CapacityError, match="walk steps"):
            moments(10, MAX_WALK_STEPS + 1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_lower_bound_estimate_refuses_alpha_not_positive_and_finite(alpha):
    # alpha = nan returned 0.0
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        sn_lower_bound_estimate(8, 2, alpha)


def test_float_mode_matches_exact():
    for n, r in ((6, 3), (9, 5)):
        fe = walk_distribution(n, r, mode="float")
        ex = walk_distribution(n, r, mode="exact")
        for lam in enumerate_partitions(n):
            assert fe.mass(lam) == pytest.approx(float(ex.mass(lam)), abs=1e-12)
        assert fe.error_bound > 0
        assert abs(fe.total() - 1) < 1e-12


def test_tv_curve_modes_agree():
    exact = sn_tv_curve(7, 10, "exact")
    flt = sn_tv_curve(7, 10, "float")
    for (r1, tv1, b1), (r2, tv2, b2) in zip(exact, flt):
        assert r1 == r2
        assert float(tv1) == pytest.approx(tv2, abs=1e-11)
        assert b1 == pytest.approx(b2)


def test_exact_kernel_capacity():
    with pytest.raises(CapacityError):
        kernel_downup(19)
    # every walk path checks n < 2, then its mode's cap, then the mode itself,
    # before any partition of n is formed
    for walk in (lambda n, mode: walk_distribution(n, 1, mode=mode),
                 lambda n, mode: sn_tv_curve(n, 1, mode)):
        with pytest.raises(ValueError, match="the walk needs n >= 2"):
            walk(0, "bogus")
        with pytest.raises(CapacityError, match="exact kernel: requested 19"):
            walk(19, "exact")
        with pytest.raises(CapacityError, match="float kernel: requested 41"):
            walk(41, "float")
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            walk(10**6, "bogus")


def test_integer_walk_equals_fraction_kernel_every_start():
    for n in range(2, 11):
        rmax = 2 * cutoff_steps(n)
        for start in enumerate_partitions(n):
            for r, masses in enumerate(reference_walk(n, start, rmax)):
                assert walk_distribution(n, r, start).masses == masses


def test_integer_walk_equals_fraction_kernel_near_cutoff():
    for n in range(13, 19):
        rc = cutoff_steps(n)
        ref = reference_walk(n, Partition((n,)), rc + 2)
        for r in (rc - 2, rc, rc + 2):
            assert walk_distribution(n, r).masses == ref[r]


def test_exact_tv_curve_equals_tv_over_reference_walk():
    # one curve for both modes: each row is its engine's tv of the law the
    # engine walked to; exact rows equal the Fraction TV of the Fraction
    # kernel's law, float rows the float engine's TV of its own law
    for n in (2, 5, 8, 11):
        rmax = 2 * cutoff_steps(n)
        ref = reference_walk(n, Partition((n,)), rmax)
        curve = sn_tv_curve(n, rmax, "exact")
        assert [r for r, _, _ in curve] == list(range(1, rmax + 1))
        for r, tv, bound in curve:
            assert tv == tv_to_plancherel(WalkDistribution(n, "exact", ref[r]))
            assert bound == sn_upper_bound(n, r)
        eng = _float_engine(n)
        curve = sn_tv_curve(n, rmax, "float")
        assert [r for r, _, _ in curve] == list(range(1, rmax + 1))
        step = partial(eng.step, tables=eng._step_tables())
        laws = _float_walk(lattice(n), Partition((n,)), step)
        for (r, tv, bound), law in zip(curve, islice(laws, 1, None)):
            assert tv == eng.tv(law)
            assert bound == sn_upper_bound(n, r)


def test_float_masses_within_error_bound_of_exact_law():
    # every float mass within the bound the distribution reports, from (n)
    # up to 3x the cutoff for n <= 18, and from every start for n <= 10
    for n in range(2, 19):
        starts = enumerate_partitions(n) if n <= 10 else [Partition((n,))]
        rmax = 3 * cutoff_steps(n)
        lat = lattice(n)
        for start in starts:
            for r, (a, den) in zip(range(rmax + 1), exact_reference_walk(n, start)):
                assert den == n**r * lat.dims[partition_id(start)]
                dist = walk_distribution(n, r, start, mode="float")
                assert dist.error_bound == _law_error_bound(n)
                bound = Fraction(dist.error_bound)
                assert list(dist.masses) == list(enumerate_partitions(n))
                for (lam, m), d, x in zip(dist.masses.items(), lat.dims, a):
                    assert abs(Fraction(m) - Fraction(d * x, den)) <= bound, (n, start, r, lam)


def _mixed_vector(rng, size, low, high):
    """Entries 10**u, u uniform in [low, high), about three in ten set to 0."""
    w = 10.0 ** rng.uniform(low, high, size)
    w[rng.random(size) < 0.3] = 0.0
    return w


def test_float_step_matches_segment_sums():
    # the jagged rows add each segment as its first entry plus the rest in
    # turn, np.add.reduceat's order while no segment holds more than 8
    # entries, so they agree to the bit for n <= 36.  From n = 37
    # a partition of n-1 has 9 above it and reduceat adds pairwise: on
    # vectors spanning 1e-300..1e5 the entries stay within 2 ulp, and on
    # entries of like size (up to 4 ulp seen) within 16 eps relative, the
    # error bound of two sums of at most 9 non-negative terms
    rng = np.random.default_rng(18)
    for n in range(2, 41):
        eng, lat = _FloatEngine(n), lattice(n)
        step = partial(eng.step, tables=eng._step_tables())
        for low, high in ((-300, 5), (0, 1)):
            for _ in range(4):
                w = _mixed_vector(rng, len(lat.dims), low, high)
                got, ref = step(w), apply_counts(lat, w) / n
                if n <= 36:
                    assert np.array_equal(got, ref), n
                elif low == -300:
                    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref)), n
                else:
                    assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * ref), n


def test_float_step_matches_padded_tables():
    # skipping a pad skips an exact +0.0, so the jagged step is the padded
    # step to the bit for every size the float engine takes
    rng = np.random.default_rng(20)
    for n in range(2, 41):
        eng, padded = _FloatEngine(n), padded_float_step(n)
        step = partial(eng.step, tables=eng._step_tables())
        for low, high in ((-300, 5), (0, 1)):
            for _ in range(4):
                w = _mixed_vector(rng, len(_dims(n)), low, high)
                assert np.array_equal(step(w), padded(w)), n


def test_float_laws_match_padded_tables():
    # the laws from the first, a middle and the last partition id, to twice
    # the cutoff, equal the padded walk's to the bit
    for n in range(2, 41):
        eng, lat = _FloatEngine(n), lattice(n)
        step = partial(eng.step, tables=eng._step_tables())
        parts = enumerate_partitions(n)
        for start in (parts[0], parts[len(parts) // 2], parts[-1]):
            walks = zip(range(2 * cutoff_steps(n) + 1), _float_walk(lat, start, step),
                        padded_reference_walk(n, start))
            for r, law, ref in walks:
                assert np.array_equal(law, ref), (n, start, r)


def test_float_tables_store_each_edge_once():
    # the rows hold exactly the lattice's edges, no pad, and shrink down
    # each table, so row j is a prefix of row j - 1's columns
    for n in range(2, 41):
        (up, down, ids), lat = _FloatEngine(n)._step_tables(), lattice(n)
        for rows, edges in ((up, lat.above), (down, lat.below)):
            lengths = [len(row) for row in rows]
            assert sum(lengths) == len(edges), n
            assert all(a >= b for a, b in zip(lengths, lengths[1:])), n
        assert sorted(ids.tolist()) == list(range(len(lat.dims)))


def test_float_laws_match_reference_walk():
    # every law from the one-row and from the last partition, to twice the
    # cutoff, equals the reduceat walk's to the bit
    for n in (19, 27, 36):
        eng, rmax = _FloatEngine(n), 2 * cutoff_steps(n)
        step = partial(eng.step, tables=eng._step_tables())
        for start in (Partition((n,)), enumerate_partitions(n)[-1]):
            laws = _float_walk(lattice(n), start, step)
            for r, law, ref in zip(range(rmax + 1), laws, float_reference_walk(n, start)):
                assert np.array_equal(law, ref), (n, r)


@pytest.mark.parametrize("n", range(19, 41))
def test_one_r_float_law_matches_the_stepped_law(n):
    # the one-r law, one Horner pass, from the ids 0, 1, p(n)//2 and
    # p(n)-1 at r = cutoff -+ n/2 and twice the cutoff, lies within the a
    # priori bound of float_law_relerr of the law stepped on the jagged
    # tables (3.6e-14 to 3.1e-13 relative here; the largest gap measured
    # is 1.4e-15).  At n = 36 and 40 the middle and last ids hold the down pass
    # past int64 (test_down_pass_counts_past_int64)
    eng, parts = _float_engine(n), enumerate_partitions(n)
    step = partial(eng.step, tables=eng._step_tables())
    cutoff = 0.5 * n * math.log(n)
    rs = {math.ceil(cutoff - n / 2), math.ceil(cutoff + n / 2), 2 * cutoff_steps(n)}
    relerr = {r: float_law_relerr(n, r) for r in rs}
    for s in (0, 1, len(parts) // 2, len(parts) - 1):
        walk = _float_walk(lattice(n), parts[s], step)
        for r, stepped in zip(range(max(rs) + 1), walk):
            if r in rs:
                got = eng.law(r, s)
                assert np.all(np.abs(got - stepped) <= relerr[r] * stepped), (n, s, r)


def test_float_bounds_count_every_rounding_the_edges_show():
    # the chain lengths the bounds read off the levels' jagged row counts
    # are at least those counted from the lattice's edges (oracles): the
    # law bound covers gamma of the Horner pass's, the curve bound at r
    # that of r steps and the two roundings of dims * w, and both cover
    # the gamma_5 of pi halved
    for n in range(2, FLOAT_LIMIT + 1):
        law = Fraction(_law_error_bound(n))
        assert law >= Fraction(gamma(horner_roundings(n))), n
        assert law >= Fraction(gamma(5)) / 2, n
        for r in (1, cutoff_steps(n), MAX_WALK_STEPS):
            assert Fraction(_curve_error_bound(n, r)) >= Fraction(gamma(r * step_roundings(n) + 2))


@pytest.mark.parametrize("n", [36, 40])
def test_down_pass_counts_past_int64(n):
    # D^n e_s at level 0 is f^s = d_s, which for the largest d_s passes
    # 2^63 from n = 36 on, and at n = 40 for the middle id too: the down
    # pass runs in the law's own arithmetic, exact in Python ints and within
    # gamma of its sum lengths in doubles, where an int64 pass wrapped
    levels = [_complete_level(j) for j in range(n + 1)]
    dims = _dims(n)
    k = sum(int(np.bincount(level.below).max()) - 1 for level in levels[1:])
    for s in (len(dims) // 2, dims.index(max(dims))):
        assert _skew_counts(levels, s, object)[0][1][0] == dims[s]
        got = _skew_counts(levels, s, float)[0][1][0]
        assert abs(Fraction(got) - dims[s]) <= gamma(k) * dims[s]
    assert max(dims) >= 2**63


def test_float_engine_reads_the_float_laws():
    # pi is float(d)^2 / float(n!) over the lattice's dimensions, each
    # rounded once: the correctly rounded d^2 / n! to the bit for n <= 20
    # (every d^2 and n! exact in doubles), and past that within gamma_5
    # relative of it, the five roundings the float bound counts for pi
    g5 = Fraction(gamma(5))
    for n in range(2, FLOAT_LIMIT + 1):
        eng, dims, n_fact = _float_engine(n), _dims(n), math.factorial(n)
        assert eng.dims.tolist() == [float(d) for d in dims], n
        if n <= 20:
            assert eng.pi.tolist() == [d * d / n_fact for d in dims], n
        for x, d in zip(eng.pi.tolist(), dims):
            exact = Fraction(d * d, n_fact)
            assert abs(Fraction(x) - exact) <= g5 * exact, n


@pytest.mark.parametrize("n", range(2, FLOAT_LIMIT + 1))
def test_float_law_matches_the_reduceat_pass(n):
    # the Horner pass on the levels' jagged rows, in their sorted order,
    # equals the reduceat pass in lattice-id order to the bit: from (n) at
    # r = 1, half the cutoff, the cutoff and 3x the cutoff, and from a
    # middle and the last id at five sizes past EXACT_KERNEL_LIMIT
    eng, c = _float_engine(n), cutoff_steps(n)
    p = len(eng.dims)
    starts = (0, p // 2, p - 1) if n in (19, 25, 30, 36, 40) else (0,)
    for s in starts:
        for r in (1, -(-c // 2), c, 3 * c):
            assert np.array_equal(eng.law(r, s), float_law_reference(n, r, s)), (n, s, r)


def test_step_tables_read_the_cached_down_rows():
    # a partition of n-1 has one more corner to add than to remove, so the
    # sort by up-degree the up rows follow is level n-1's own, and the
    # cached down rows and place are the per-curve build's, entry for entry
    for n in range(2, FLOAT_LIMIT + 1):
        _, down, ids = _FloatEngine(n)._step_tables()
        ref_down, ref_ids = per_curve_down_table(n)
        assert len(down) == len(ref_down), n
        assert all(np.array_equal(a, b) for a, b in zip(down, ref_down)), n
        assert np.array_equal(ids, ref_ids), n


def test_float_engine_memory_is_bounded():
    # the step tables at n = 36, built on a cached level and its cached
    # rows, build only the up half: its jagged rows (81156 intp entries,
    # one per lattice edge, 0.65 MB) are kept, and its peak, 1.31 MB, adds
    # the up edges turned around from the level's down edges, their ids in
    # int16, and the int64 sort order that turns them.  The whole tables
    # built per curve peaked at 2.15 MB; the bound leaves 1.69 MB of margin
    eng = _float_engine(36)
    snwalk._sorted_level(36)
    tracemalloc.start()
    try:
        eng._step_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 10**6
