"""Tensor-product random walk on irreducible representations of S_n.

The chain steps from lam to rho with probability d_rho * mult(rho in
lam (x) eta) / (d_lam * n), where eta is the n-dimensional defining
representation.  It is the down-up corner-box chain: the Doob transform
of the symmetric common-corner matrix A = D D^T, where D is the containment
matrix of the partitions of n over those of n-1, since by Pieri's rule
mult(rho in lam (x) eta) = A(lam, rho).  A walk at one r reads the laws
of _engine, _ExactEngine (ints over one denominator) or _FloatEngine
(doubles), past one refusal gate (_walk_start): law(r, s), the law after r
steps from id s by one Horner pass up the levels partitions._complete_level
caches (_horner, in the law's own arithmetic on each level's jagged rows,
_sorted_level), and tv_at(r), the TV to Plancherel after r steps from (n).
A TV curve (tvs) is read off path counts by the exact engine and stepped
by the float one, each cached per size (_exact_engine, _float_engine).
With X the character table, A X = X diag(fp), so the spectrum is indexed by
conjugacy classes with eigenvalue fixed_points/n;
the tests hold this and Pieri's rule as integer identities on A and X.
The spectrum drives the L2 mixing bound, the moment transfer method, and
the Chebyshev lower-bound estimate.  Exact samplers that read no dimension
round it out, each an RSK shape of a seeded permutation: the walk's law as a
coupon count K_r and a uniform permutation whose first n - K_r entries
increase (walk_samples), Plancherel measure as the case K = n
(plancherel_samples), and top-to-random shuffles (rsk_samples), each
reading its words by index from lists its stream hands out.  walk_step,
the down-up chain drawn on dimension sums, is the step the tests hold the
samplers to.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice, repeat
from operator import mul

import numpy as np

from .characters import (
    CycleType,
    character_table,
    cycle_lengths,
    fixed_point_profile,
)
from .errors import CapacityError
from .intervals import _sqrt_up
from .partitions import (
    LEVEL_LIMIT,
    Partition,
    _complete_level,
    _dims,
    _up_edges,
    dimension_sn,
    enumerate_partitions,
    partition_count,
    partition_id,
)
from .rng import BLOCK, SplitMix64

# the largest sizes of the exact walks, whose path counts _ExactEngine reads
# in doubles while n! < 2^53, and of the float walks
EXACT_KERNEL_LIMIT = 18
FLOAT_LIMIT = 40
# the most steps one walk may take.  Every walk the engines accept is mixed
# to below double precision long before it (the cutoff at n = FLOAT_LIMIT
# is 74 steps), and it is about twice the cutoff at n = 10**4 (92104 steps)
MAX_WALK_STEPS = 10**5
# the largest n the samplers take.  A walk_samples draw at the cutoff
# r = ceil(n log(n) / 2) reads about r + n words and row-inserts n values:
# on a 2-core Xeon with Python 3.11 it took about 5 ms at n = 1000, 20-28 ms
# at n = 3000 and 110-165 ms at n = 10**4
SAMPLER_N_LIMIT = 10**4

# per-entry relative accuracy budget; float distributions report the
# accumulated bound r * p(n) * this
FLOAT_ENTRY_RELERR = 1e-14


def _float_error_bound(n: int, r: int) -> float:
    """The accumulated float error bound after r steps on the partitions of n."""
    return r * partition_count(n) * FLOAT_ENTRY_RELERR


@dataclass
class WalkDistribution:
    """Probability vector over partitions of n (exact rational or float)."""

    n: int
    mode: str
    masses: dict[Partition, Fraction | float]
    error_bound: float = 0.0

    def mass(self, lam) -> Fraction | float:
        return self.masses.get(Partition(lam), Fraction(0) if self.mode == "exact" else 0.0)

    def total(self):
        return sum(self.masses.values())


@dataclass
class SparseKernel:
    """Row-stochastic exact transition matrix on partitions of n."""

    n: int
    rows: dict[Partition, dict[Partition, Fraction]]

    def apply_dist(self, masses: dict) -> dict:
        """One step: out[rho] = sum_lam masses[lam] * K(lam, rho)."""
        out: dict[Partition, Fraction] = {}
        for lam, m in masses.items():
            if not m:
                continue
            for rho, k in self.rows[lam].items():
                out[rho] = out.get(rho, 0) + m * k
        return out


def plancherel_sn(n: int) -> WalkDistribution:
    """Exact Plancherel measure: mass d_lam^2 / n! on each partition of n,
    for 0 <= n <= LEVEL_LIMIT (any other n is refused before any work)."""
    dims, n_fact = _dims(n), math.factorial(n)
    return WalkDistribution(n, "exact", {
        lam: Fraction(d * d, n_fact) for lam, d in zip(enumerate_partitions(n), dims)})


def kernel_downup(n: int) -> SparseKernel:
    """Remove a corner box (prob d_mu/d_lam), re-add one (prob d_rho/(n d_mu)).

    The double sum collapses: K(lam, rho) = #common corners * d_rho/(n d_lam).
    A row lists rho in the order the paths lam -> mu -> rho first reach it.
    """
    _check_walk(n, "exact")
    level, parts, dims = _complete_level(n), enumerate_partitions(n), _dims(n)
    edges = (level.below, level.down_off, *_up_edges(level.below, level.down_off))
    # as Python ints, which the loops read faster than numpy scalars
    below, down_off, above, up_off = (a.tolist() for a in edges)
    rows = {}
    for i, lam in enumerate(parts):
        counts: dict[int, int] = {}
        for m in below[down_off[i]:down_off[i + 1]]:
            for j in above[up_off[m]:up_off[m + 1]]:
                counts[j] = counts.get(j, 0) + 1
        den = n * dims[i]
        rows[lam] = {parts[j]: Fraction(c * dims[j], den) for j, c in counts.items()}
    return SparseKernel(n, rows)


def _check_steps(r: int) -> None:
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > MAX_WALK_STEPS:
        raise CapacityError("walk steps", r, MAX_WALK_STEPS)


def _check_sampler_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > SAMPLER_N_LIMIT:
        raise CapacityError("sampler size", n, SAMPLER_N_LIMIT)


def _check_walk(n: int, mode: str | None = None) -> None:
    """Refuse a walk before any partition of n is formed: n < 2, then the size
    cap of mode, then an unknown mode; with no mode, only n < 2."""
    if n < 2:
        raise ValueError("the walk needs n >= 2")
    limit = {"exact": EXACT_KERNEL_LIMIT, "float": FLOAT_LIMIT}.get(mode, n)
    if n > limit:
        raise CapacityError(f"{mode} kernel", n, limit)
    if mode not in (None, "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")


def _partition_of(n: int, lam) -> Partition:
    """lam as a partition of n, whose partition_id numbers it among the
    partitions of n; a ValueError names any other size."""
    lam = Partition(lam)
    if lam.size != n:
        raise ValueError(f"partition {lam} has size {lam.size}, expected {n}")
    return lam


def _walk_start(n: int, r: int, start, mode: str):
    """The cached engine of mode and the lattice id of start (default 0,
    the one-row partition), once the step cap, the size of start and then
    _engine's size cap and mode pass: no start past the cap is numbered.
    An exact law(r, s) is (a, den), rho's mass d_rho a_rho / den; a float
    one is the masses in lattice-id order."""
    _check_steps(r)
    start = None if start is None else _partition_of(n, start)
    eng = _engine(n, mode)
    return eng, 0 if start is None else partition_id(start)


def walk_distribution(n: int, r: int, start=None, mode: str = "exact") -> WalkDistribution:
    """Distribution after r steps from start (default: the one-row partition).

    The Fraction view of the engine's law (_walk_start): in exact mode rho's
    mass is Fraction(d_rho a_rho, den), and an unreached rho has none."""
    eng, s = _walk_start(n, r, start, mode)
    parts = enumerate_partitions(n)
    if mode == "float":
        masses = dict(zip(parts, eng.law(r, s).tolist()))
        return WalkDistribution(n, mode, masses, _float_error_bound(n, r))
    a, den = eng.law(r, s)
    masses = {p: Fraction(d * x, den) for p, d, x in zip(parts, eng.dims, a) if x}
    return WalkDistribution(n, mode, masses)


def walk_distribution_spectral(n: int, r: int, start=None) -> WalkDistribution:
    """Same distribution through the eigenbasis.

    K^r(s,rho) = sum_C beta_C^r f_C(s) f_C(rho) pi(rho); the |C| factors
    combine, so it is the Fourier law of fp(C)^r |C| chi^s(C) over n^r d_s.
    """
    _check_steps(r)
    table = character_table(n)
    s = partition_id(_partition_of(n, (n,) if start is None else start))
    w = [c.fixed_points**r * c.class_size * x for c, x in zip(table.classes, table.values[s])]
    den = n**r * table.values[s][-1]  # d_s, the identity column
    return WalkDistribution(n, "exact", {
        lam: p / den for lam, p in zip(table.partitions, table.fourier_law(w))})


def tv_to_plancherel(dist: WalkDistribution):
    """Half L1 distance to the Plancherel measure (matches dist's mode).

    A float distribution is read in lattice-id order into the cached float
    engine's tv, the sum sn_tv_curve and sn-cutoff print."""
    if dist.mode == "float":
        law = [dist.masses.get(lam, 0.0) for lam in enumerate_partitions(dist.n)]
        return _float_engine(dist.n).tv(np.array(law))
    pi = plancherel_sn(dist.n).masses
    return sum(abs(dist.masses.get(lam, 0) - p) for lam, p in pi.items()) / 2


def sn_upper_bound_squared(n: int, r: int) -> Fraction:
    """Exact square of the L2 bound, chi^2 / 4: (1/4) sum_i count(i) (i/n)^(2r),
    one integer sum over 4 n^(2r), and (n! - 1) / 4 at r = 0."""
    if n < 2 or r < 0:
        raise ValueError("need n >= 2 and r >= 0")
    num = sum(count * i ** (2 * r) for i, count in fixed_point_profile(n).items() if i <= n - 2)
    return Fraction(num, 4 * n ** (2 * r))


def sn_upper_bound(n: int, r: int) -> float:
    """L2 upper bound on TV after r steps, rounded up to a double, inf past
    the double range."""
    squared = sn_upper_bound_squared(n, r)
    return _sqrt_up(squared.numerator, squared.denominator)


def _upper_bounds(n: int):
    """sn_upper_bound(n, r) for r = 1, 2, ...: each term count(i) i^(2r) and
    the denominator 4 n^(2r) carried from r to r + 1 as ints, and each
    double _sqrt_up of the integer sum over it, as the closed form's is.
    The squares never increase with r and _sqrt_up rounds up, so once a
    root is the least positive double (0.0 at n = 2) it is every later
    one, repeated with no more integer work."""
    profile = [(count, i * i) for i, count in fixed_point_profile(n).items() if i <= n - 2]
    terms, squares = map(list, zip(*profile))
    den = 4
    while True:
        terms = list(map(mul, terms, squares))
        den *= n * n
        bound = _sqrt_up(sum(terms), den)
        if bound <= math.ulp(0.0):
            yield from repeat(bound)
        yield bound


def _scaled_powers(table, ci: int, s: int) -> tuple[list[int], int]:
    """w_rho = L chi_rho(C)^s d_rho^(1-s) over the rows, C the ci-th class,
    and the scale L = lcm_rho d_rho^(s-1) (1 for s = 0) that makes them
    integers; each d_rho is its row's identity column."""
    dims = [row[-1] for row in table.values]
    if s == 0:
        return dims, 1
    powers = [d ** (s - 1) for d in dims]
    scale = math.lcm(*powers)
    return [row[ci] ** s * (scale // p) for row, p in zip(table.values, powers)], scale


def _class_walk_counts(n: int, cycles, s: int):
    """The classes T and integers m_T with p_{s,C}(T) = m_T / den, checked:
    m_T = |T| sum_rho w_rho chi_rho(T) and den = n! L, for w and L of
    _scaled_powers."""
    if s < 0:
        raise ValueError("s must be non-negative")
    table = character_table(n)
    weights, scale = _scaled_powers(table, partition_id(_partition_of(n, cycles)), s)
    counts = [t.class_size * sum(map(mul, weights, col))
              for t, col in zip(table.classes, zip(*table.values))]
    if min(counts) < 0:
        raise ArithmeticError("negative class probability")
    den = math.factorial(n) * scale
    if sum(counts) != den:
        raise ArithmeticError("class probabilities do not sum to 1")
    return table.classes, counts, den


def class_walk_probability(n: int, cycle_type, s: int) -> dict[Partition, Fraction]:
    """Class distribution of the s-step walk on S_n generated by class C.

    Fourier expression: p(T) = (|T|/n!) sum_rho d_rho^2 (chi(T)/d)(chi(C)/d)^s,
    keyed by the cycle type of T.  Each term is chi(T) chi(C)^s / d^(s-1),
    so over the scale L = lcm_rho d_rho^(s-1) (L = 1 for s <= 1)
    p(T) = |T| sum_rho chi(T) [L chi(C)^s d^(1-s)] / (n! L), one integer dot
    product per class and one Fraction per value.
    """
    classes, counts, den = _class_walk_counts(n, cycle_lengths(cycle_type), s)
    return {t.cycle_lengths: Fraction(m, den) for t, m in zip(classes, counts)}


def transposition_moments_closed(n: int, r: int) -> tuple[Fraction, Fraction]:
    """Closed forms for the transposition-class eigenfunction moments.

    Returns (E[f]/|C|^(1/2), E[f^2]) for the walk started at the one-row
    partition: (1-2/n)^r and 1 + C(n-2,2)(1-4/n)^r + (2n-4)(1-3/n)^r.
    r is refused as a walk's step count is, before any power is formed.
    """
    _check_steps(r)
    mean_red = Fraction(n - 2, n) ** r
    second = (
        1
        + math.comb(n - 2, 2) * Fraction(n - 4, n) ** r
        + (2 * n - 4) * Fraction(n - 3, n) ** r
    )
    return mean_red, second


def moment_fc_reduced(n: int, cycle_type, s: int, r: int, method: str = "transfer") -> Fraction:
    """E[(f_C)^s] / |C|^(s/2) after r steps from the one-row partition, exact.

    method 'transfer' runs the class-walk identity
    sum_T p_{s,C}(T) (fp(T)/n)^r; 'direct' evaluates the expectation under
    the exact walk distribution; 'closed' uses the transposition closed forms.
    """
    if s not in (1, 2):
        raise ValueError("s must be 1 or 2 (higher s is quadratically costly)")
    _check_steps(r)
    cycles = cycle_lengths(cycle_type)
    if method == "transfer":
        # sum_T p(T) (fp(T)/n)^r over the class walk's one denominator
        classes, counts, den = _class_walk_counts(n, cycles, s)
        return Fraction(sum(m * t.fixed_points**r for t, m in zip(classes, counts)), den * n**r)
    if method == "direct":
        # E[(chi(C)/d)^s] under the law d_rho a_rho / den after r steps is
        # sum_rho a_rho chi_rho(C)^s d_rho^(1-s) / den
        table = character_table(n)
        eng = _engine(n, "exact")
        weights, scale = _scaled_powers(table, partition_id(_partition_of(n, cycles)), s)
        a, den = eng.law(r)
        return Fraction(sum(map(mul, weights, a)), scale * den)
    if method == "closed":
        if cycles != Partition([2] + [1] * (n - 2)):
            raise ValueError("closed forms exist for the transposition class only")
        mean_red, second = transposition_moments_closed(n, r)
        if s == 1:
            return mean_red
        return second / math.comb(n, 2)
    raise ValueError(f"unknown method {method!r}")


def moment_fc(n: int, cycle_type, s: int, r: int, method: str = "transfer") -> float:
    """E[(f_C)^s] after r steps, as a float (the |C|^(s/2) factor reattached)."""
    cycles = cycle_lengths(cycle_type)
    size = CycleType.from_partition(cycles).class_size
    red = moment_fc_reduced(n, cycles, s, r, method)
    return float(red) * size ** (s / 2)


def sn_lower_bound_estimate(n: int, r: int, alpha: float) -> float:
    """Chebyshev estimate, in floats, of a lower bound on TV distance at r steps.

    Uses the transposition eigenfunction: under Plancherel f_C has mean 0 and
    variance 1, so pi(f_C <= alpha) >= 1 - 1/alpha^2, while under the walk
    P(f_C <= alpha) <= Var(f_C)/(E - alpha)^2 when E > alpha.
    """
    _check_walk(n)
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    size = math.comb(n, 2)
    mean_red, second = transposition_moments_closed(n, r)
    var = second - size * mean_red**2
    mean = math.sqrt(size) * float(mean_red)
    if mean <= alpha:
        return 0.0
    est = 1.0 - 1.0 / alpha**2 - float(var) / (mean - alpha) ** 2
    return max(0.0, est)


def sn_tv_curve(n: int, rmax: int, mode: str = "exact"):
    """Rows (r, tv, l2_bound) for r = 1..rmax, with one running L2 sum: the
    TVs from (n) of the cached engine of mode (its tvs)."""
    tvs = _walk_start(n, rmax, None, mode)[0].tvs(rmax)
    return list(zip(range(1, rmax + 1), islice(tvs, 1, None), _upper_bounds(n)))


# ---------------------------------------------------------------------------
# engines


class _ExactEngine:
    """The walk in Python ints on the partitions of n, for any n the levels
    hold: law(r, s) is (a, den), a = A^r e_s by one Horner pass and
    den = n^r d_s, rho's mass d_rho a_rho / den (K is A's Doob transform).

    The TVs from (n) form no law: D^k e_(n) = e_(n-k), so a_r = V S(r, .)
    for V of _paths, and with A = {rho : a_rho n! > d_rho n^r} and
    g = (d 1_A)^T V, TV_r = (n! sum_k S(r, k) g_k - n^r g_n) / (n^r n!), g
    exact in doubles (partial sums at most n!/(n-k)! < 2^53).  _tv_rows reads
    A off a n! - d n^r = N w in doubles outside _margin, in integers inside.
    Curves at n = 10..18 to twice the cutoff took 8.1-8.4 ms, against 25-27
    ms stepping the law (fresh engines, 2-core Xeon, Python 3.11)."""

    def __init__(self, n: int):
        self.n, self.dims = n, _dims(n)
        self._tvs = ()  # the TVs after 0..R steps from (n) that tvs keeps

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each partition of n as to_string prints it, in lattice-id order:
        built once per engine and kept as long as it."""
        return tuple(lam.to_string() for lam in enumerate_partitions(self.n))

    def law(self, r: int, s: int = 0):
        """The law (a, n^r d_s) after r steps from id s (default 0, (n)), a
        the Horner pass (_horner) with coefficients S(r, k), in Python ints."""
        n = self.n
        return _horner(n, _stirling_row(r, n), s, object), n**r * self.dims[s]

    @cached_property
    def _paths(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, N) in doubles: V[:, k] = U^k e_(n-k) = f^(rho/(n-k)), the Horner
        pass from (n) on the unit rows in int64, checked: d^T V[:, k] =
        n!/(n-k)!, as D d = n d a level down; N[:, k] = (n-k)! V[:, k] - d for
        k < n.  Both, and every sum of _tv_rows on them, are exact while n! < 2^53."""
        n = self.n
        if math.factorial(n) >= 2**53:
            raise CapacityError("exact TV", n, EXACT_KERNEL_LIMIT)
        paths = _horner(n, np.eye(n + 1, dtype=np.int64), 0, np.int64)
        if (np.array(self.dims) @ paths).tolist() != [math.perm(n, k) for k in range(n + 1)]:
            raise ArithmeticError(f"the path counts on the partitions of {n} do not sum to n!")
        gaps = paths[:, :n] * [math.factorial(n - k) for k in range(n)] - paths[:, n:]
        return paths.astype(float), gaps.astype(float)

    def tv_at(self, r: int) -> Fraction:
        """The TV to Plancherel measure after r steps from (n)."""
        return self._tv_rows(r, [_stirling_row(r, self.n)])[0]

    def tvs(self, r: int) -> tuple[Fraction, ...]:
        """The TVs after 0..R >= r steps from (n), extended in blocks of 32
        rows, each S(r + 1, k) = k S(r, k) + S(r, k - 1) from the last, and
        kept, replaced whole, so a reader on any thread sees one tuple."""
        tvs = self._tvs
        if len(tvs) <= r:
            n, row = self.n, _stirling_row(len(tvs), self.n)
            while len(tvs) <= r:
                block = []
                for _ in range(min(32, r + 1 - len(tvs))):
                    block.append(row)
                    row = [k * s + t for k, s, t in zip(range(n + 1), row, [0] + row)]
                tvs += self._tv_rows(len(tvs), block)
            self._tvs = tvs
        return tvs

    def _tv_rows(self, r: int, rows: list[list[int]]) -> tuple[Fraction, ...]:
        """The TVs after r, r + 1, ... steps from (n), rows[i] = S(r + i, .)."""
        n, (paths, gaps), n_fact = self.n, self._paths, math.factorial(self.n)
        # a n! - d n^r = N w, w_k = S(r, k) n!/(n-k)!: n^r = sum_k w_k, V[:, n] = d
        ws = [[s * math.perm(n, k) for k, s in enumerate(row[:n])] for row in rows]
        c = np.array([[x / top for x in w] for w, top in zip(ws, map(max, ws))]).T
        est, tol = gaps @ c, _margin(n, np.abs(gaps) @ c)
        signs = est > tol
        for i, j in np.argwhere(np.abs(est) <= tol).tolist():
            signs[i, j] = sum(map(mul, map(int, gaps[i].tolist()), ws[j])) > 0
        g = ((signs * paths[:, -1:]).T @ paths).astype(np.int64).tolist()
        dens = [n ** (r + i) for i in range(len(rows))]
        return tuple(Fraction(n_fact * sum(map(mul, row, gk)) - den * gk[n], den * n_fact)
                     for row, den, gk in zip(rows, dens, g))


def _margin(n: int, b: np.ndarray) -> np.ndarray:
    """gamma_(n+3) b + 2^-900, gamma_m = m u / (1 - m u), u = 2^-53: where
    the double N c of _tv_rows (c = w / max w, b = |N| c) exceeds it in
    size, it has the sign of N w = a n! - d n^r.  Each c_k is rounded once
    (int true division rounds correctly), each product once (N is exact:
    a skew shape of k boxes has at most k! tableaux, so |N| <= n! < 2^53),
    and n - 1 additions follow, so N c is within gamma_(n+1) sum_k |c_k N_k|
    of its value (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3), at most gamma_(n+1) b / (1 - gamma_(n+1)) <= gamma_(n+2) b; the
    rest leaves u b for the test's own roundings, and 2^-900 covers terms
    below the normal range, (|N| + 1) 2^-1022 each, < 2^-960 in all."""
    return (n + 3) * 2.0**-53 / (1 - (n + 3) * 2.0**-53) * b + 2.0**-900


def _stirling_row(r: int, n: int) -> list[int]:
    """S(r, k) for k = 0..n, the Stirling numbers of the second kind, from
    k! S(r, k) = (Delta^k x^r)(0), the k-th forward difference of the powers
    at 0: n + 1 powers and n(n + 1)/2 subtractions, for any r."""
    row, diffs = [], [i**r for i in range(n + 1)]
    for k in range(n + 1):
        row.append(diffs[0] // math.factorial(k))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return row


def _horner(n: int, coeffs, s: int, dtype) -> np.ndarray:
    """sum_k coeffs[k] U^k D^k e_s, s an id of level n, by Horner's rule up
    the complete levels 0..n (_complete_level): y_0 = coeffs[n] D^n e_s,
    y_j = U y_(j-1) + coeffs[n-j] D^(n-j) e_s, and y_n is returned in
    lattice-id order.  With coeffs S(r, k) it is A^r e_s: A = U D, one box
    down and one up, and Young's lattice is 1-differential (D U - U D = I;
    Stanley, JAMS 1988), so A^r = sum_k S(r, k) U^k D^k.  Every sum runs in
    dtype: object or int64 (exact laws and path counts) or float.  From
    s = 0 each coeffs[k] may be a row, and so is each entry of the result.
    Each U is one _half_step on level j's rows in its sorted order
    (_sorted_level), and one gather by level n's place ends the pass.  No
    partition of j < 45 has 9 below it, so in doubles each U adds as
    numpy's reduceat over the level's edges does, and the float laws are
    the reduceat pass's (tests/oracles.py::float_law_reference) to the bit;
    integer sums do not depend on the order."""
    levels = [_complete_level(j) for j in range(n + 1)]
    y = np.zeros((1, *np.shape(coeffs[0])), dtype)
    for j, (at, counts) in enumerate(_skew_counts(levels, s, dtype)):
        rows, place = _sorted_level(j)
        if j:
            y = _half_step(y, rows)
        y[place[at]] += coeffs[n - j] * counts
    return y[place]


def _skew_counts(levels, s: int, dtype) -> list:
    """(at, counts) with D^(n-j) e_s[at] = counts for each level j = 0..n, s
    an id of level n: entry mu is f^(s/mu), the skew standard tableaux.
    From s = 0, (n), each is the 1 at id 0; from any other start one down
    pass forms each whole in dtype, the law's own arithmetic: f^(s/mu) is
    at most d_s, which first reaches 2^63 at n = 36, so no fixed-width
    integer holds it."""
    if s == 0:
        return [(0, 1)] * len(levels)
    x = np.zeros(len(levels[-1].dims), dtype)
    x[s] = 1
    out = [x]
    for level, lower in zip(levels[:0:-1], levels[-2::-1]):
        x = np.zeros(len(lower.dims), dtype)
        np.add.at(x, level.below, np.repeat(out[-1], np.diff(level.down_off)))
        out.append(x)
    return [(slice(None), x) for x in reversed(out)]


def _half_step(x: np.ndarray, rows) -> np.ndarray:
    """Each segment's sum over the gathered x, as entry 0 + ((entry 1 +
    entry 2) + ...), running down the jagged rows on their shrinking
    prefixes: one U of the Horner pass, or one half of the float step."""
    out = x[rows[0]]
    if len(rows) > 1:
        acc = x[rows[1]]
        for row in rows[2:]:
            acc[:len(row)] += x[row]
        out[:len(acc)] += acc
    return out


def _jagged_rows(targets, off, relabel=None):
    """The CSR segments targets[off[i]:off[i+1]] as jagged corner rows.

    The segments are ordered by a stable sort on their lengths, longest
    first, so the j-th entries of those that have one are a prefix of that
    order: row j lists them, each through relabel if given.  Returns the
    order and the rows, which store every entry once and no pad, in intp,
    the index type numpy gathers with."""
    counts = np.diff(off)
    order = np.argsort(-counts, kind="stable")
    starts, counts = off[:-1][order], counts[order]
    rows = []
    for j in range(counts[0]):
        row = targets[starts[:np.count_nonzero(counts > j)] + j]
        rows.append(row.astype(np.intp, copy=False) if relabel is None else relabel[row])
    return order, tuple(rows)


def _inverse(order: np.ndarray) -> np.ndarray:
    """The permutation that undoes order: _inverse(order)[order[k]] = k."""
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return inv


# every level's jagged down rows and place, each built the first time a walk
# law or float curve reaches it: one int64 per edge and per partition, 4.2 MB
# for the levels 0..36 (tracemalloc)
@lru_cache(maxsize=LEVEL_LIMIT + 1)
def _sorted_level(j: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(rows, place), level j's down edges (_complete_level) as the jagged
    rows of _jagged_rows in the level's own sorted order: its partitions
    sorted stably by how many lie below each, most first, place[i] the
    sorted position of id i, and rows[t] the sorted position in level j-1
    of the (t+1)-th partition below each that has one.  Read-only, shared
    by every walk law and float step table."""
    level = _complete_level(j)
    lower = _sorted_level(j - 1)[1] if j else None
    order, rows = _jagged_rows(level.below, level.down_off, lower)
    place = _inverse(order)
    for a in (*rows, place):
        a.flags.writeable = False
    return rows, place


class _FloatEngine:
    """The walk in doubles on the partitions of n: dims d and pi d^2/n! from
    level n's dimensions (_dims), each rounded once, law(r, s) and
    tv(law).  K^r(s, .) = (dims / d_s) w_r with w_r = A^r e_s / n^r, which
    law forms in _horner's pass with coefficients S(r, k) / n^r, each
    rounded once; every term is nonnegative, so each mass carries a
    relative error of a few ulp per sum on its paths up and down the levels
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and
    tv_at reads it; a TV curve steps instead (tvs), w <- A w / n.  Both
    gather through the cached jagged rows of _sorted_level."""

    def __init__(self, n: int):
        dims, n_fact = _dims(n), math.factorial(n)
        self.n, self.dims = n, np.array(dims, dtype=float)
        self.pi = np.fromiter((d * d / n_fact for d in dims), float, len(dims))

    def law(self, r: int, s: int = 0) -> np.ndarray:
        """The law after r steps from id s (default 0, (n)), in lattice-id
        order: (dims / d_s) times _horner's pass in doubles."""
        n = self.n
        den = n**r
        y = _horner(n, [x / den for x in _stirling_row(r, n)], s, float)
        return self.dims / self.dims[s] * y

    def tv(self, law: np.ndarray) -> float:
        """TV distance to pi of a law in id order, by numpy's pairwise sum."""
        return float(np.abs(law - self.pi).sum() / 2)

    def tv_at(self, r: int) -> float:
        """The TV to pi after r steps from (n), of the one-r law."""
        return self.tv(self.law(r))

    def _step_tables(self):
        """(up, down, ids), the two jagged corner tables step applies A
        through.  The partitions of n-1 are sorted by how many lam lie above
        each, most first, and up[j] lists the (j+1)-th lam above each that
        has one, by lattice id, from level n's edges turned around
        (_up_edges).  A partition of n-1 has exactly one more corner to add
        than to remove, so that sort is level n-1's own (_sorted_level), and
        down and ids are level n's rows and place: down[j] lists the (j+1)-th
        partition below each lam by its place in the first sort, and ids
        takes the lam back to lattice ids.  Each row is as long as the
        number of segments that reach it, so no pad is stored, gathered or
        added."""
        level = _complete_level(self.n)
        up = _jagged_rows(*_up_edges(level.below, level.down_off))[1]
        return (up, *_sorted_level(self.n))

    def step(self, w: np.ndarray, tables) -> np.ndarray:
        """A w / n for w in lattice-id order, returned in that order, on the
        tables of _step_tables.

        Each half (_half_step) adds a segment as its first entry plus the
        sequential sum of the rest, the order of a sum down the corner axis
        of tables padded with 0.0, and a skipped pad only ever added +0.0:
        the laws are bit-identical to such padded gathers for every
        n <= FLOAT_LIMIT.  Those in turn add as numpy's reduceat does while
        no segment holds more than 8 entries, so the laws equal the two
        segment sums of tests/oracles.py::apply_counts over n to the bit for
        n <= 36; from n = 37 on, reduceat adds a segment of 9 in numpy's
        pairwise blocks and the last digits may differ."""
        up, down, ids = tables
        w = _half_step(_half_step(w, up), down)[ids]
        w /= self.n
        return w

    def tvs(self, r: int) -> tuple[float, ...]:
        """The TVs to pi after 0..r steps from (n), tv(dims * w) as w = A^r
        e_s / n^r steps on _step_tables: the up half built for this call and
        then dropped, the down half level n's cached rows.  The stepped sums
        run in another order than law's: the two agree to a few ulp per
        mass, not to the bit."""
        tables, w = self._step_tables(), np.zeros(len(self.dims))
        w[0] = 1.0  # (n) has id 0 and d = 1
        tvs = [self.tv(self.dims * w)]
        for _ in range(r):
            w = self.step(w, tables)
            tvs.append(self.tv(self.dims * w))
        return tuple(tvs)


# every exact size with its dims, path counts and TVs: 0.54 MB for all sizes
# to 3x their cutoffs, 6.6 MB at n = 18 with TVs to the CLI's digit cap (tracemalloc)
@lru_cache(maxsize=EXACT_KERNEL_LIMIT)
def _exact_engine(n: int) -> _ExactEngine:
    return _ExactEngine(n)


# every float size, 2..FLOAT_LIMIT, each holding two doubles per partition
# (1.3 MB for the sizes 19..36)
@lru_cache(maxsize=FLOAT_LIMIT - 1)
def _float_engine(n: int) -> _FloatEngine:
    return _FloatEngine(n)


def _engine(n: int, mode: str):
    """The cached engine of the walk on S_n in mode, once _check_walk
    passes: the exact one keeps the TVs of its tvs, the float one none."""
    _check_walk(n, mode)
    return _exact_engine(n) if mode == "exact" else _float_engine(n)


# ---------------------------------------------------------------------------
# samplers


def _corner_draw(rng: SplitMix64, key: Partition, corners: list[Partition], total: int,
                 step: str, name: str) -> Partition:
    """The first of the corners of key whose running dimension sum exceeds
    randrange(total), once the dimensions are checked to sum to total."""
    cum = list(accumulate(map(dimension_sn, corners)))
    if not cum or cum[-1] != total:
        raise ArithmeticError(f"{step}-step weights of {key} do not sum to {name}")
    return corners[bisect_right(cum, rng.randrange(total))]


def walk_step(rng: SplitMix64, lam: Partition) -> Partition:
    """One down-up move: remove a box with probability d_mu / d_lam, then
    add one with probability d_rho / (n d_mu), each by inverse CDF on the
    corners in reverse-lex order.  No sampler steps; the tests hold the
    samplers to this chain."""
    mu = _corner_draw(rng, lam, lam.removable_corners(), dimension_sn(lam), "down", "d_lam")
    return _corner_draw(rng, mu, mu.addable_corners(), lam.size * dimension_sn(mu),
                        "up", "(|mu|+1) d_mu")


# The samplers read their words by index from lists that the stream's words
# method makes, each entry the top b = n.bit_length() bits of a word, and
# write randrange's one-word rejection out: randrange(m) for m <= n keeps
# the top m.bit_length() bits of a word, retried while they are >= m, and
# those bits are the entry shifted right by b - m.bit_length(), a shift
# computed once per bound per call.  So every draw reads the words, and
# gives the value, that rng.randrange would.  A draw that runs past the end
# of its list raises IndexError and is redone from its own first word once
# the list is extended: a draw is a function of the words from its start.


def _rsk_draws(n: int, seed: int, count: int, base: int, draw) -> list[Partition]:
    """The RSK shapes of count decks from the stream seeded seed, each
    draw(tops, j) reading on from tops[j], a list of the words' top
    n.bit_length() bits, and returning its deck and the index past its last
    word.  base is at least the words a draw reads on average, as a redo
    costs more than a word made and not read.  When a draw overruns, the
    unread words are followed by as many as the draws left read at base
    words each, at most a block, but at least base and at least as many as
    are unread, so a draw that overruns again finds a list twice as long."""
    shift = 64 - n.bit_length()
    rng, tops, j, out = SplitMix64(seed), [], 0, []
    while len(out) < count:
        try:
            deck, j_next = draw(tops, j)
        except IndexError:
            rest = tops[j:]
            more = max(len(rest), base, min((count - len(out)) * base, BLOCK))
            tops, j = rest + rng.words(more, shift), 0
            continue
        j = j_next
        out.append(rsk_shape(deck))
    return out


def _shuffle_shifts(n: int) -> list[int]:
    """shifts[i] takes a word's top n.bit_length() bits to the top
    (i + 1).bit_length() bits that randrange(i + 1) reads, for i < n."""
    b = n.bit_length()
    return [b - i.bit_length() for i in range(1, n + 1)]


def _prefix_sorted_deck(tops: list[int], j: int, n: int, k: int,
                        shifts: list[int]) -> tuple[list[int], int]:
    """A uniform permutation of [n] whose first n - k entries increase, read
    from tops[j:] with _shuffle_shifts(n), and the index past its last word.
    A partial Fisher-Yates shuffle swaps position i with randrange(i + 1)
    for i = n - 1 down to n - k, and the first n - k entries are then
    sorted.  The RSK shape's law is Q_k, Plancherel growth run k steps from
    (n - k): RSK puts 1..n-k in the first row of the recording tableau
    exactly when the first n - k letters increase."""
    deck = list(range(n))
    for i in range(n - 1, n - k - 1, -1):
        shift = shifts[i]
        v = tops[j] >> shift
        j += 1
        while v > i:
            v = tops[j] >> shift
            j += 1
        deck[i], deck[v] = deck[v], deck[i]
    m = n - k
    return sorted(deck[:m]) + deck[m:], j


def walk_samples(n: int, r: int, count: int, seed: int) -> list[Partition]:
    """count draws of the law after r steps from (n), from one seeded stream.

    eta^(x)r permutes the r-tuples of [n], so the law is sum_k P(K_r = k) Q_k,
    K_r the distinct points among r uniform draws and Q_k the law of the RSK
    shape of _prefix_sorted_deck(., ., n, k).  A draw makes r draws
    randrange(n) for K_r, a point new when one is >= k, then shuffles K_r
    positions.  The r draws read the next r words, then as many more as
    those rejected, and so on."""
    _check_sampler_size(n)
    _check_steps(r)
    shifts = _shuffle_shifts(n)

    def draw(tops, j):
        k, need = 0, r
        while need:
            chunk = tops[j:j + need]
            j += need
            need = 0
            for v in chunk:
                if v >= n:
                    need += 1
                elif v >= k:
                    k += 1
        if j > len(tops):  # a chunk was cut short at the list's end
            raise IndexError("draw ran past its words")
        return _prefix_sorted_deck(tops, j, n, k, shifts)

    # r draws read 2^b / n words each on average, b = n.bit_length(), and a
    # shuffle at most 2 per position
    return _rsk_draws(n, seed, count, (r << n.bit_length()) // n + 2 * n, draw)


def plancherel_samples(n: int, count: int, seed: int) -> list[Partition]:
    """count Plancherel-distributed partitions of n, the RSK shapes of
    uniform permutations (walk_samples' draw with K = n), from one seeded
    stream."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n:  # n = 0 draws the empty partition, below the samplers' own range
        _check_sampler_size(n)
    shifts = _shuffle_shifts(n)
    return _rsk_draws(n, seed, count, 2 * n,
                      lambda tops, j: _prefix_sorted_deck(tops, j, n, n, shifts))


def rsk_shape(word) -> Partition:
    """Shape of the row-insertion tableau of a sequence of distinct values."""
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    # row lengths of a tableau never increase
    return tuple.__new__(Partition, [len(row) for row in rows])


def rsk_samples(n: int, r: int, count: int, seed: int) -> list[Partition]:
    """RSK shapes after r top-to-random shuffles of the identity deck, count
    independent decks from one seeded stream: each shuffle moves the top
    card to position randrange(n).

    randrange(n) keeps a word whose top n.bit_length() bits lie below n, and
    a deck reads r kept values, so the moves are the stream's kept values in
    order, r to a deck: a filter keeps them from lists of top bits, each
    about as long as the moves left need, so no deck is redone.

    Distributed like walk_distribution(n, r) started at the one-row
    partition; the package tests this statistically rather than assuming it.
    """
    _check_sampler_size(n)
    _check_steps(r)
    b = n.bit_length()
    rng, moves, j, out = SplitMix64(seed), [], 0, []
    for left in range(count, 0, -1):
        while len(moves) - j < r:
            # a kept value takes 2^b / n words on average
            short = left * r - (len(moves) - j)
            tops = rng.words(min(-(-(short << b) // n), BLOCK), 64 - b)
            moves = moves[j:] + [v for v in tops if v < n]
            j = 0
        deck = list(range(1, n + 1))
        for v in moves[j:j + r]:
            deck.insert(v, deck.pop(0))
        j += r
        out.append(rsk_shape(deck))
    return out
