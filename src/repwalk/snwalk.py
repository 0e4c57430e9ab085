"""Tensor-product random walk on irreducible representations of S_n.

The chain steps from lam to rho with probability d_rho * mult(rho in
lam (x) eta) / (d_lam * n), where eta is the n-dimensional defining
representation.  It is the down-up corner-box chain: the Doob transform
of the symmetric common-corner matrix A = D D^T, where D is the containment
matrix of the partitions of n over those of n-1, since by Pieri's rule
mult(rho in lam (x) eta) = A(lam, rho).  Each walk runs on an engine from
_engine, _ExactEngine (ints over one denominator) or _FloatEngine (doubles),
with law(r, start), the law after r steps, and tv(law), the TV to
Plancherel measure.  The exact engine forms a law in one pass up the
lattice levels, by normal ordering, and steps A with _apply_counts, two
segment sums through the partitions of n-1; the float engine steps A
through two jagged corner tables, rows sorted by corner count that store
no pad, adding each segment in the segment sums' order, so its laws are
bit-identical to theirs for n <= 36.  Both engines are cached per size
(_exact_engine, _float_engine), and the TVs of sn_tv_curve and the float
sn-cutoff are read from the walk from (n) that each memoizes in tvs, kept
as long as its engine.  With X the character table, A X = X diag(fp), so
the spectrum is indexed by conjugacy classes with eigenvalue
fixed_points/n; the tests hold this and Pieri's rule as integer
identities on A and X.
The spectrum drives the L2 mixing bound, the moment transfer method, and
the Chebyshev lower-bound estimate.  Exact samplers that read no dimension
round it out, each an RSK shape of a seeded permutation: the walk's law as a
coupon count K_r and a uniform permutation whose first n - K_r entries
increase (walk_samples), Plancherel measure as the case K = n
(plancherel_samples), and top-to-random shuffles (rsk_samples).  walk_step,
the down-up chain drawn on dimension sums, is the step the tests hold the
samplers to.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from operator import mul

import numpy as np

from .characters import (
    CycleType,
    character_table,
    cycle_lengths,
    fixed_point_profile,
)
from .errors import CapacityError
from .partitions import (
    Partition,
    _small_level,
    dimension_sn,
    enumerate_partitions,
    partition_count,
    partition_id,
    young_lattice,
)
from .rng import SplitMix64

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
    """Exact Plancherel measure: mass d_lam^2 / n! on each partition of n."""
    n_fact = math.factorial(n)
    return WalkDistribution(n, "exact", {
        lam: Fraction(d * d, n_fact)
        for lam, d in zip(enumerate_partitions(n), young_lattice(n).dims)})


def kernel_downup(n: int) -> SparseKernel:
    """Remove a corner box (prob d_mu/d_lam), re-add one (prob d_rho/(n d_mu)).

    The double sum collapses: K(lam, rho) = #common corners * d_rho/(n d_lam).
    A row lists rho in the order the paths lam -> mu -> rho first reach it.
    """
    _check_walk(n, "exact")
    lat, parts = young_lattice(n), enumerate_partitions(n)
    dims = lat.dims
    # as Python ints, which the loops read faster than numpy scalars
    below, down_off, above, up_off = (
        a.tolist() for a in (lat.below, lat.down_off, lat.above, lat.up_off))
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


def _apply_counts(lat, w: np.ndarray) -> np.ndarray:
    """A w = D (D^T w) for the containment matrix D of lat, exact on Python
    ints: the first sum takes each partition of n-1 to the total of w over
    the lam above it, the second each lam to the total of those over the
    partitions below it.  For n >= 1 no segment is empty.  The exact engine
    steps with it; _FloatEngine.step adds in its order on jagged tables."""
    return np.add.reduceat(np.add.reduceat(w[lat.above], lat.up_off[:-1])[lat.below],
                           lat.down_off[:-1])


def _partition_of(n: int, lam) -> Partition:
    """lam as a partition of n, whose partition_id numbers it in
    young_lattice(n); a ValueError names any other size."""
    lam = Partition(lam)
    if lam.size != n:
        raise ValueError(f"partition {lam} has size {lam.size}, expected {n}")
    return lam


def _walk_law(n: int, r: int, start, mode: str):
    """The cached engine of mode and its law(r, start), from the one-row
    partition by default.  An exact law is (a, den), rho's mass
    d_rho a_rho / den; a float law is the masses in lattice-id order."""
    _check_steps(r)
    if start is not None:
        start = _partition_of(n, start)
    eng = _engine(n, mode)
    return eng, eng.law(r, start)


def walk_distribution(n: int, r: int, start=None, mode: str = "exact") -> WalkDistribution:
    """Distribution after r steps from start (default: the one-row partition).

    The Fraction view of the engine's law (_walk_law): in exact mode rho's
    mass is Fraction(d_rho a_rho, den), and an unreached rho has none."""
    eng, law = _walk_law(n, r, start, mode)
    parts = enumerate_partitions(n)
    if mode == "float":
        masses = dict(zip(parts, law.tolist()))
        return WalkDistribution(n, mode, masses, _float_error_bound(n, r))
    a, den = law
    masses = {p: Fraction(d * x, den) for p, d, x in zip(parts, eng.lat.dims, a) if x}
    return WalkDistribution(n, mode, masses)


def walk_distribution_spectral(n: int, r: int, start=None) -> WalkDistribution:
    """Same distribution through the eigenbasis.

    K^r(s,rho) = sum_C beta_C^r f_C(s) f_C(rho) pi(rho); the |C| factors
    combine, so it is the Fourier law of fp(C)^r |C| chi^s(C) over n^r d_s.
    """
    _check_steps(r)
    table, lat = character_table(n), young_lattice(n)
    s = partition_id(_partition_of(n, (n,) if start is None else start))
    w = [c.fixed_points**r * c.class_size * x for c, x in zip(table.classes, table.values[s])]
    den = n**r * lat.dims[s]
    return WalkDistribution(n, "exact", {
        lam: p / den for lam, p in zip(table.partitions, table.fourier_law(w))})


def tv_to_plancherel(dist: WalkDistribution):
    """Half L1 distance to the Plancherel measure (matches dist's mode).

    A float distribution is read in lattice-id order into the cached float
    engine's tv, the sum sn_tv_curve prints, so both give the same double."""
    if dist.mode == "float":
        law = [dist.masses.get(lam, 0.0) for lam in enumerate_partitions(dist.n)]
        return _float_engine(dist.n).tv(np.array(law))
    pi = plancherel_sn(dist.n).masses
    return sum(abs(dist.masses.get(lam, 0) - p) for lam, p in pi.items()) / 2


def sn_upper_bound_squared(n: int, r: int) -> Fraction:
    """Exact square of the L2 bound: (1/4) sum_i count(i) (i/n)^(2r), as one
    integer sum over 4 n^(2r)."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    num = sum(count * i ** (2 * r) for i, count in fixed_point_profile(n).items() if i <= n - 2)
    return Fraction(num, 4 * n ** (2 * r))


def sn_upper_bound(n: int, r: int) -> float:
    """L2 upper bound on total variation after r steps."""
    return math.sqrt(sn_upper_bound_squared(n, r))


def _upper_bounds(n: int):
    """sn_upper_bound(n, r) for r = 1, 2, ...: each term count(i) i^(2r) and
    the denominator 4 n^(2r) carried from r to r + 1 as ints.  Int true
    division rounds correctly, as float(Fraction) does, so each double is
    the closed form's."""
    profile = [(count, i * i) for i, count in fixed_point_profile(n).items() if i <= n - 2]
    terms, den = [count for count, _ in profile], 4
    while True:
        terms = [t * sq for t, (_, sq) in zip(terms, profile)]
        den *= n * n
        yield math.sqrt(sum(terms) / den)


def _scaled_powers(table, lat, ci: int, s: int) -> tuple[list[int], int]:
    """w_rho = L chi_rho(C)^s d_rho^(1-s) over the rows, C the ci-th class,
    and the scale L = lcm_rho d_rho^(s-1) (1 for s = 0) that makes them
    integers."""
    if s == 0:
        return list(lat.dims), 1
    powers = [d ** (s - 1) for d in lat.dims]
    scale = math.lcm(*powers)
    return [row[ci] ** s * (scale // p) for row, p in zip(table.values, powers)], scale


def _class_walk_counts(n: int, cycles, s: int):
    """The classes T and integers m_T with p_{s,C}(T) = m_T / den, checked:
    m_T = |T| sum_rho w_rho chi_rho(T) and den = n! L, for w and L of
    _scaled_powers."""
    if s < 0:
        raise ValueError("s must be non-negative")
    table, lat = character_table(n), young_lattice(n)
    weights, scale = _scaled_powers(table, lat, partition_id(_partition_of(n, cycles)), s)
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
    """
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
        weights, scale = _scaled_powers(table, eng.lat, partition_id(_partition_of(n, cycles)), s)
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
    """Rows (r, tv, l2_bound) for r = 1..rmax, sharing one walk and one
    running L2 sum: the TVs are read from the walk from (n) that the cached
    engine of mode memoizes (its tvs)."""
    _check_steps(rmax)
    tvs = _engine(n, mode).tvs(rmax)
    return list(zip(range(1, rmax + 1), islice(tvs, 1, None), _upper_bounds(n)))


# ---------------------------------------------------------------------------
# engines


class _ExactEngine:
    """The walk in Python ints on the lattice of n, for any n it holds: K is
    the Doob transform of A, so the law after r steps is (a, den) with
    a = A^r e_s and den = n^r d_s, and rho has mass d_rho a_rho / den.
    sn-walk --exact prints each mass from (a, den) as a reduced integer
    ratio, and walk_distribution makes it a Fraction.

    law forms a in one pass up the levels, with no r steps.  A = U D, one
    box down and one up, and Young's lattice is 1-differential
    (D U - U D = I; Stanley, JAMS 1988), so A^r = sum_k S(r, k) U^k D^k
    with S the Stirling numbers of the second kind.  tvs steps the walk
    from (n) instead, since a whole curve is cheaper by stepping."""

    def __init__(self, n: int):
        self.lat = lat = young_lattice(n)
        self.n_fact = n_fact = math.factorial(n)
        self.scaled = np.array([d * n_fact for d in lat.dims], dtype=object)
        self.squares = np.array([d * d for d in lat.dims], dtype=object)
        a = np.zeros(len(lat.dims), dtype=object)
        a[0] = 1  # (n) has id 0 and d = 1
        self._walk = ((a, 1), ())  # the walk from (n) that tvs memoizes

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each partition of n as to_string prints it, in lattice-id order:
        built once per engine and kept as long as it."""
        return tuple(lam.to_string() for lam in enumerate_partitions(self.lat.n))

    def law(self, r: int, start: Partition | None = None):
        """The law (a, n^r d_s) after r steps from start (default (n)), by
        Horner's rule up the levels 0..n _small_level caches (n <= SMALL_SIZE):
        y_0 = S(r, n) D^n e_s, y_j = U y_(j-1) + S(r, n-j) D^(n-j) e_s, a = y_n,
        each U one segment sum, with S(r, k) = k S(r-1, k) + S(r-1, k-1)."""
        n = self.lat.n
        s = 0 if start is None else partition_id(start)
        row = [1] + [0] * n
        for _ in range(r):
            row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
        levels = [_small_level(j) for j in range(n + 1)]
        y = np.zeros(1, dtype=object)
        for j, (level, (at, counts)) in enumerate(zip(levels, _skew_counts(levels, s))):
            if j:
                y = np.add.reduceat(y[level.below], level.down_off[:-1])
            y[at] += row[n - j] * counts
        return y, n**r * self.lat.dims[s]

    def tv(self, law) -> Fraction:
        """TV = sum of the positive u_rho / (den n!), u = d_rho a_rho n! - d_rho^2
        den, one Fraction.  sum_rho d_rho a_rho = den and sum_rho d_rho^2 = n!,
        so the u sum to 0, which is checked."""
        a, den = law
        u = self.scaled * a - self.squares * den
        if u.sum():
            raise ArithmeticError(f"the law on the partitions of {self.lat.n} does not sum to 1")
        return Fraction(u[u > 0].sum(), den * self.n_fact)

    def tvs(self, r: int) -> tuple[Fraction, ...]:
        """The TVs to Plancherel measure after 0..R steps from (n), for some
        R >= r, memoized as _FloatEngine.tvs is, the law (a_R, n^R) stepping
        on through _apply_counts."""
        n = self.lat.n
        self._walk = walk = _walk_to(
            self._walk, r, lambda law: (_apply_counts(self.lat, law[0]), law[1] * n), self.tv)
        return walk[1]


def _skew_counts(levels, s: int) -> list:
    """(at, counts) with D^(n-j) e_s[at] = counts for each level j = 0..n, s
    an id of level n: entry mu is f^(s/mu), the skew standard tableaux.
    From s = 0, (n), each is the 1 at id 0; from any other start one down
    pass forms each whole, in int64 since f^(s/mu) <= d_s."""
    if s == 0:
        return [(0, 1)] * len(levels)
    x = np.zeros(levels[-1].rows, dtype=np.int64)
    x[s] = 1
    out = [x]
    for level, lower in zip(levels[:0:-1], levels[-2::-1]):
        x = np.zeros(lower.rows, dtype=np.int64)
        np.add.at(x, level.below, np.repeat(out[-1], np.diff(level.down_off)))
        out.append(x)
    return [(slice(None), x.astype(object)) for x in reversed(out)]


def _jagged_rows(targets, off, relabel=None):
    """The CSR segments targets[off[i]:off[i+1]] as jagged corner rows.

    The segments are ordered by a stable sort on their lengths, longest
    first, so the j-th entries of those that have one are a prefix of that
    order: row j lists them, each through relabel if given.  Returns the
    order and the rows, which store every entry once and no pad."""
    counts = np.diff(off)
    order = np.argsort(-counts, kind="stable")
    starts, counts = off[:-1][order], counts[order]
    rows = []
    for j in range(counts[0]):
        row = targets[starts[:np.count_nonzero(counts > j)] + j]
        rows.append(row if relabel is None else relabel[row])
    return order, tuple(rows)


def _inverse(order: np.ndarray) -> np.ndarray:
    """The permutation that undoes order: _inverse(order)[order[k]] = k."""
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return inv


class _FloatEngine:
    """The walk in doubles on the lattice of n, with no kernel of its own:
    w_r = A^r e_s / n^r steps as w <- A w / n, and K^r(s, .) = (dims / d_s) w_r.

    A is applied through two jagged corner tables.  The partitions of n-1
    are sorted by how many lam lie above each, most first, and up[j] lists
    the (j+1)-th lam above each that has one, by lattice id.  The partitions
    of n are sorted likewise by how many lie below, and down[j] lists the
    (j+1)-th partition below each, by its place in the first sort; ids
    takes the second sort back to lattice ids.  Each row is as long as the
    number of segments that reach it, so no pad is stored, gathered or
    added."""

    def __init__(self, n: int):
        self.lat = lat = young_lattice(n)
        n_fact = math.factorial(n)
        self.dims = np.array(lat.dims, dtype=float)
        self.pi = np.array([d * d / n_fact for d in lat.dims])
        mu_order, self.up = _jagged_rows(lat.above, lat.up_off)
        lam_order, self.down = _jagged_rows(lat.below, lat.down_off, _inverse(mu_order))
        self.ids = _inverse(lam_order)
        w = np.zeros(len(self.dims))
        w[0] = 1.0  # (n) has id 0 and d = 1
        self._walk = (w, ())  # the walk from (n) that tvs memoizes

    def law(self, r: int, start: Partition | None = None) -> np.ndarray:
        """The law after r steps from start (default (n)), w = e_s stepped r
        times and scaled by dims / d_s."""
        s = 0 if start is None else partition_id(start)
        scale = self.dims / self.dims[s]
        w = np.zeros(len(scale))
        w[s] = 1.0
        for _ in range(r):
            w = self.step(w)
        return scale * w

    @staticmethod
    def _half_step(x: np.ndarray, rows) -> np.ndarray:
        """Each segment's sum over the gathered x, as entry 0 + ((entry 1 +
        entry 2) + ...), running down the rows on their shrinking prefixes."""
        out = x[rows[0]]
        if len(rows) > 1:
            acc = x[rows[1]]
            for row in rows[2:]:
                acc[:len(row)] += x[row]
            out[:len(acc)] += acc
        return out

    def step(self, w: np.ndarray) -> np.ndarray:
        """A w / n for w in lattice-id order, returned in that order.

        Each half adds a segment as its first entry plus the sequential sum
        of the rest, the order of a sum down the corner axis of tables
        padded with 0.0, and a skipped pad only ever added +0.0: the laws are
        bit-identical to such padded gathers for every n <= FLOAT_LIMIT.
        Those in turn add as np.add.reduceat does while no segment holds
        more than 8 entries, so the laws equal _apply_counts(lat, w) / n to
        the bit for n <= 36; from n = 37 on, reduceat adds a segment of 9
        in numpy's pairwise blocks and the last digits may differ."""
        w = self._half_step(self._half_step(w, self.up), self.down)[self.ids]
        w /= self.lat.n
        return w

    def tv(self, law: np.ndarray) -> float:
        """TV distance to pi of a law in id order, by numpy's pairwise sum."""
        return float(np.abs(law - self.pi).sum() / 2)

    def tvs(self, r: int) -> tuple[float, ...]:
        """The TVs to pi after 0..R steps from (n), for some R >= r.

        The walk is memoized as (w_R, tvs), w_R = A^R e_s / n^R, and steps on
        from R to r through step (_walk_to).  (n) has id 0 and d = 1, so
        each TV is tv(dims * w), to the bit tv(law(R)) at that step R."""
        self._walk = walk = _walk_to(self._walk, r, self.step, lambda w: self.tv(self.dims * w))
        return walk[1]


def _walk_to(walk, r: int, step, tv):
    """The memo walk = (state_R, tvs), tvs the TVs after 0..R steps (none
    yet for a walk not started), or, when R < r, a new pair stepped on from
    R to r.  The pair is replaced whole, never changed in place, so a
    reader on any thread sees one consistent pair.  A memo grows to the
    longest walk asked of its engine, uncapped: the CLI caps exact output
    at sys.get_int_max_str_digits() digits (an exact one at n = 18 holds at
    most about 3425 TVs under the default 4300) and a walk at MAX_WALK_STEPS."""
    state, tvs = walk
    if len(tvs) > r:
        return walk
    more = [] if tvs else [tv(state)]  # a walk not started: its TV at step 0
    while len(tvs) + len(more) <= r:
        state = step(state)
        more.append(tv(state))
    return state, tvs + tuple(more)


# every exact size, each holding its lattice and its memo walk: at n = 18
# about 7.6 MB once its memo is walked to the CLI's digit cap, 0.5 MB for
# all sizes walked to three times their cutoffs (tracemalloc)
@lru_cache(maxsize=EXACT_KERNEL_LIMIT)
def _exact_engine(n: int) -> _ExactEngine:
    return _ExactEngine(n)


@lru_cache(maxsize=4)
def _float_engine(n: int) -> _FloatEngine:
    return _FloatEngine(n)


def _engine(n: int, mode: str):
    """The cached engine of the walk on S_n in mode, once _check_walk passes."""
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


# The samplers read words through randrange's one-word rejection written
# out, v = word() >> shift retried while v >= bound: the words
# rng.randrange(bound) reads, for every bound below 2^64.


def _prefix_sorted_shape(word, n: int, k: int) -> Partition:
    """The RSK shape of a uniform permutation of [n] whose first n - k
    entries increase, from the stream whose next_u64 is word.  A partial
    Fisher-Yates shuffle swaps position i with randrange(i + 1) for
    i = n - 1 down to n - k, and the first n - k entries are then sorted.
    The shape's law is Q_k, Plancherel growth run k steps from (n - k):
    RSK puts 1..n-k in the first row of the recording tableau exactly when
    the first n - k letters increase."""
    deck = list(range(n))
    for i in range(n - 1, n - k - 1, -1):
        shift = 64 - (i + 1).bit_length()
        v = word() >> shift
        while v > i:
            v = word() >> shift
        deck[i], deck[v] = deck[v], deck[i]
    m = n - k
    return rsk_shape(sorted(deck[:m]) + deck[m:])


def walk_samples(n: int, r: int, count: int, seed: int) -> list[Partition]:
    """count draws of the law after r steps from (n), from one seeded stream.

    eta^(x)r permutes the r-tuples of [n], so the law is sum_k P(K_r = k) Q_k,
    K_r the distinct points among r uniform draws and Q_k the law of
    _prefix_sorted_shape(., n, k).  A draw makes r draws randrange(n) for
    K_r, a point new when one is >= k, then shuffles K_r positions."""
    _check_sampler_size(n)
    _check_steps(r)
    word = SplitMix64(seed).next_u64
    shift = 64 - n.bit_length()
    out = []
    for _ in range(count):
        k = 0
        for _ in range(r):
            v = word() >> shift
            while v >= n:
                v = word() >> shift
            if v >= k:
                k += 1
        out.append(_prefix_sorted_shape(word, n, k))
    return out


def plancherel_samples(n: int, count: int, seed: int) -> list[Partition]:
    """count Plancherel-distributed partitions of n, the RSK shapes of
    uniform permutations (walk_samples' draw with K = n), from one seeded
    stream."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n:  # n = 0 draws the empty partition, below the samplers' own range
        _check_sampler_size(n)
    word = SplitMix64(seed).next_u64
    return [_prefix_sorted_shape(word, n, n) for _ in range(count)]


def rsk_shape(word) -> Partition:
    """Shape of the row-insertion tableau of a sequence of distinct values."""
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                x = None
                break
            row[pos], x = x, row[pos]
        if x is not None:
            rows.append([x])
    # row lengths of a tableau never increase
    return tuple.__new__(Partition, [len(row) for row in rows])


def rsk_samples(n: int, r: int, count: int, seed: int) -> list[Partition]:
    """RSK shapes after r top-to-random shuffles of the identity deck, count
    independent decks from one seeded stream: each shuffle moves the top
    card to position randrange(n).

    Distributed like walk_distribution(n, r) started at the one-row
    partition; the package tests this statistically rather than assuming it.
    """
    _check_sampler_size(n)
    _check_steps(r)
    word = SplitMix64(seed).next_u64
    shift = 64 - n.bit_length()
    out = []
    for _ in range(count):
        deck = list(range(1, n + 1))
        for _ in range(r):
            v = word() >> shift
            while v >= n:
                v = word() >> shift
            deck.insert(v, deck.pop(0))
        out.append(rsk_shape(deck))
    return out
