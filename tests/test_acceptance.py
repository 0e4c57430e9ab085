"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
Statistical criteria use frozen seeds; exact criteria use rational
arithmetic end to end.
"""

import math
from collections import Counter
from fractions import Fraction

from scipy.stats import chisquare

from repwalk.glasymptotics import (
    GLPlancherelSampler,
    acceptance_probability,
    cycle_index_lhs,
    cycle_index_rhs,
)
from repwalk.glirreps import (
    dimension_gl,
    enumerate_gl_irreps,
    fixed_space_counts,
    gl_upper_bound_squared,
    order_gl,
    plancherel_gl,
    suq_weight,
    unipotent_marginal,
    unipotent_tail_bound,
)
from repwalk.hsp import hsp_bounds, induced_character_check, load_catalogue, subgroup_closure
from repwalk.partitions import Partition, _dims, enumerate_partitions
from repwalk.series import euler_lhs_rhs, q_pochhammer
from repwalk.snwalk import (
    kernel_downup,
    moment_fc_reduced,
    plancherel_sn,
    rsk_samples,
    sn_tv_curve,
    sn_upper_bound,
    sn_upper_bound_squared,
    walk_distribution,
    walk_distribution_spectral,
)

from oracles import common_corner_matrix, fixed_space_counts_brute, pieri_sides, spectrum_sides


def _report(num: int, desc: str, check) -> None:
    try:
        check()
    except Exception:
        print(f"[acceptance {num:02d}] FAIL  {desc}")
        raise
    print(f"[acceptance {num:02d}] PASS  {desc}")


def test_criterion_01_kernel_equivalence():
    def check():
        for n in range(2, 13):
            lhs, rhs = pieri_sides(n)
            assert (lhs == rhs).all(), n
        for n in range(2, 9):
            dims, a, parts = _dims(n), common_corner_matrix(n), enumerate_partitions(n)
            assert kernel_downup(n).rows == {
                lam: {rho: Fraction(a[i, j] * d, n * dims[i])
                      for j, (rho, d) in enumerate(zip(parts, dims)) if a[i, j]}
                for i, lam in enumerate(parts)}

    _report(1, "Pieri: n! A = X diag(|C| fp) X^T, n=2..12, and the down-up kernel "
               "is diag(1/(n d)) A diag(d), n=2..8, exact", check)


def test_criterion_02_spectral_reconstruction():
    def check():
        for n in range(2, 9):
            kernel = kernel_downup(n)
            parts = enumerate_partitions(n)
            for start in parts:
                masses = {start: Fraction(1)}
                for r in range(1, 11):
                    masses = kernel.apply_dist(masses)
                    spectral = walk_distribution_spectral(n, r, start).masses
                    assert all(masses.get(rho, 0) == spectral[rho] for rho in parts)
        for n in range(2, 13):
            lhs, rhs = spectrum_sides(n)
            assert (lhs == rhs).all(), n

    _report(2, "kernel powers equal the eigenbasis sum, n=2..8, r=1..10, every "
               "start, and A X = X diag(fp), n=2..12, exact", check)


def test_criterion_03_cutoff_upper_bound():
    def check():
        n = 30
        r = math.ceil(0.5 * n * math.log(n) + n)  # c = 1
        curve = sn_tv_curve(n, r, "float")
        tv = curve[-1][1]
        err = r * len(enumerate_partitions(n)) * 1e-14
        assert tv <= math.exp(-2) / 2 + err
        assert tv <= sn_upper_bound(n, r) + err
        for m in range(8, 13):
            kernel = kernel_downup(m)
            masses = {Partition((m,)): Fraction(1)}
            pi = plancherel_sn(m).masses
            for rr in range(1, 41):
                masses = kernel.apply_dist(masses)
                tv_exact = sum(abs(masses.get(l, Fraction(0)) - pi[l]) for l in pi) / 2
                assert tv_exact**2 <= sn_upper_bound_squared(m, rr)

    _report(3, "TV at r = n log(n)/2 + n is under e^-2/2 (n=30) and the exact "
               "L2 bound dominates exact TV for n=8..12, r<=40", check)


def test_criterion_04_cutoff_shape():
    def check():
        n = 30
        r_hi = math.ceil(0.5 * n * math.log(n) + n)
        r_lo = math.floor(0.5 * n * math.log(n) - n)
        curve = sn_tv_curve(n, r_hi, "float")
        tvs = [row[1] for row in curve]
        assert tvs[r_lo - 1] - tvs[r_hi - 1] >= 0.3
        assert all(a >= b - 1e-10 for a, b in zip(tvs, tvs[1:]))

    _report(4, "TV drops by >= 0.3 across the cutoff window at n=30 and the "
               "curve is non-increasing", check)


def test_criterion_05_moment_method():
    def check():
        for n in range(5, 9):
            c = Partition([2] + [1] * (n - 2))
            for r in range(0, 11):
                for s in (1, 2):
                    transfer = moment_fc_reduced(n, c, s, r, "transfer")
                    direct = moment_fc_reduced(n, c, s, r, "direct")
                    closed = moment_fc_reduced(n, c, s, r, "closed")
                    assert transfer == direct == closed

    _report(5, "transposition moments agree exactly three ways, n=5..8, r=0..10", check)


def test_criterion_06_rsk_oracle():
    def check():
        n, count = 6, 100000
        for r, seed in ((1, 101), (3, 103), (6, 106)):
            samples = rsk_samples(n, r, count, seed)
            freq = Counter(samples)
            exact = walk_distribution(n, r)
            support = [l for l in enumerate_partitions(n) if exact.mass(l) > 0]
            off_support = set(freq) - set(support)
            assert not off_support
            observed = [freq.get(l, 0) for l in support]
            expected = [float(exact.mass(l)) * count for l in support]
            stat, p = chisquare(observed, expected)
            assert p >= 0.001, (r, p)

    _report(6, "RSK shapes after top-to-random shuffles pass chi-square against "
               "the exact walk law (n=6, r in {1,3,6}, 1e5 samples)", check)


def test_criterion_07_gl_dimension_consistency():
    def check():
        for n, q in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
            total = sum(dimension_gl(f) ** 2 for f in enumerate_gl_irreps(n, q))
            assert total == order_gl(n, q)
        masses = sorted(plancherel_gl(2, 2).values())
        assert masses == [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]

    _report(7, "sum of squared GL dimensions matches the group order and "
               "Plancherel(2,2) = {1/6, 2/3, 1/6}", check)


def test_criterion_08_fixed_space_counts():
    def check():
        for n, p in ((2, 2), (2, 3), (3, 2)):
            assert fixed_space_counts(n, p) == fixed_space_counts_brute(n, p)
        for q in (2, 3, 4):
            for n in range(1, 9):
                for i, c in fixed_space_counts(n, q).items():
                    assert c <= q ** (n * n - i * i)

    _report(8, "fixed-space counts match brute-force matrix enumeration and "
               "obey count(i) <= q^(n^2 - i^2)", check)


def test_criterion_09_gl_cutoff_bound():
    def check():
        for q in (2, 3, 4):
            for n in range(1, 9):
                for c in range(1, 6):
                    sq = gl_upper_bound_squared(n, q, n + c)
                    assert sq <= Fraction(1, 4 * q ** (2 * c))
        assert gl_upper_bound_squared(2, 2, 3) == Fraction(97, 8192)

    _report(9, "GL L2 bound at r = n + c stays under 1/(2 q^c) for n<=8, "
               "q in {2,3,4}, c=1..5; (2,2,3) equals sqrt(97/8192)", check)


def test_criterion_10_unipotent_bounds():
    def check():
        for n, q in ((2, 2), (3, 2), (2, 3)):
            marg = unipotent_marginal(n, q)
            for lam, mass in marg.items():
                if lam:
                    assert mass <= suq_weight(1, q, lam)
            for c in range(1, n + 1):
                tail_exact = sum(m for l, m in marg.items() if l.size >= c)
                assert tail_exact <= unipotent_tail_bound(q, c)

    _report(10, "exact unipotent marginals sit under the per-partition bound "
                "suq_weight(1, q, lam) and the tail-sum bound", check)


def test_criterion_11_cycle_index():
    def check():
        for q, depth in ((2, 4), (3, 3)):
            lhs, rhs = cycle_index_lhs(depth, q), cycle_index_rhs(q, depth)
            assert lhs == rhs
            # t = 1 sets every marker to 1: Euler's sum_m u^m/(1/q)_m
            for m in range(depth + 1):
                assert sum(lhs[m]) == sum(rhs[m]) == 1 / q_pochhammer(q, m)

    _report(11, "cycle index identity holds coefficientwise through u^4 (q=2) "
                "and u^3 (q=3), both marker specializations", check)


def test_criterion_12_euler_identity():
    def check():
        for q in (2, 3):
            lhs, rhs = euler_lhs_rhs(q, 6)
            assert lhs == rhs

    _report(12, "infinite product equals sum u^n/(1/q)_n exactly, "
                "coefficientwise at order 6, q in {2,3}", check)


def test_criterion_13_gl_plancherel_sampler():
    def check():
        count = 100000
        for n, q, seed in ((2, 2, 20260101), (3, 2, 20260102)):
            sampler = GLPlancherelSampler(n, q, seed=seed)
            samples = [sampler.sample() for _ in range(count)]
            freq = Counter(s.descriptor() for s in samples)
            for phi, mass in plancherel_gl(n, q).items():
                p = float(mass)
                sigma = math.sqrt(p * (1 - p) / count)
                assert abs(freq.get(phi.descriptor(), 0) / count - p) <= 4 * sigma
            marg = unipotent_marginal(n, q)
            uni = Counter(s.unipotent_part for s in samples)
            observed = [uni.get(l, 0) for l in marg]
            expected = [float(m) * count for m in marg.values()]
            stat, pval = chisquare(observed, expected)
            assert pval >= 0.001, (n, q, pval)
            rate = acceptance_probability(n, q, sampler.u)
            p = rate.midpoint()
            sigma = math.sqrt(p * (1 - p) / sampler.attempts)
            assert abs(count / sampler.attempts - p) <= 4 * sigma + float(rate.width)

    _report(13, "GL Plancherel rejection sampler: per-family frequencies within "
                "4 sigma, unipotent chi-square passes, acceptance rate within "
                "4 sigma of its formula (n=2,3 at q=2, 1e5 samples)", check)


def test_criterion_14_hsp_bounds():
    def check():
        for entry in load_catalogue():
            h = subgroup_closure(entry["n"], entry["generators"])
            b = hsp_bounds(h)
            assert b.exact_tv**2 <= b.sharp_squared
            assert b.bound_sharp <= b.bound_ks + 1e-12
            assert induced_character_check(h), entry["name"]
        b = hsp_bounds(subgroup_closure(3, "(1 2)"))
        assert b.exact_tv == Fraction(1, 6)
        assert b.sharp_squared == Fraction(1, 12)
        assert abs(b.bound_ks - 1 / (2 * math.sqrt(3))) < 1e-12

    _report(14, "HSP: exact TV <= sharp <= linear bound over the S4/S5 "
                "catalogue, the S3 worked example reproduces, induced "
                "characters verify", check)
