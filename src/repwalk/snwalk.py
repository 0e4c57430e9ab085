"""Tensor-product random walk on irreducible representations of S_n.

The chain steps from lam to rho with probability d_rho * mult(rho in
lam (x) eta) / (d_lam * n), where eta is the n-dimensional defining
representation.  It is the down-up corner-box chain: the Doob transform
of the symmetric common-corner matrix A = D D^T, where D is the containment
matrix of the partitions of n over those of n-1, since by Pieri's rule
mult(rho in lam (x) eta) = A(lam, rho).  Each walk runs on an engine from
_engine, _ExactEngine (ints over one denominator) or _FloatEngine (doubles),
with laws(start), the laws after 0, 1, 2, ... steps, and tv(law), the TV to
Plancherel measure.  The exact engine steps A with _apply_counts, two segment
sums through the partitions of n-1; the float engine steps it through two
jagged corner tables, rows sorted by corner count that store no pad, adding
each segment in the segment sums' order, so its laws are bit-identical to
theirs for n <= 36.  The float TVs of sn_tv_curve and sn-cutoff are read
from the walk from (n) that each cached float engine memoizes in tvs, kept
as long as its engine; the exact paths keep no memo.  With X the character
table, A X = X diag(fp), so the spectrum is indexed by conjugacy classes
with eigenvalue fixed_points/n; the tests hold this and Pieri's rule as
integer identities on A and X.
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
from functools import lru_cache
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
    dims, below, above = lat.dims, lat.below, lat.above
    down_off, up_off = lat.down_off, lat.up_off
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
    below, down_off, above, up_off = (np.frombuffer(a, dtype=np.int64)
                                      for a in (lat.below, lat.down_off, lat.above, lat.up_off))
    return np.add.reduceat(np.add.reduceat(w[above], up_off[:-1])[below], down_off[:-1])


def _partition_of(n: int, lam) -> Partition:
    """lam as a partition of n, whose partition_id numbers it in
    young_lattice(n); a ValueError names any other size."""
    lam = Partition(lam)
    if lam.size != n:
        raise ValueError(f"partition {lam} has size {lam.size}, expected {n}")
    return lam


def walk_distribution(n: int, r: int, start=None, mode: str = "exact") -> WalkDistribution:
    """Distribution after r steps from start (default: the one-row partition)."""
    _check_steps(r)
    if start is not None:
        start = _partition_of(n, start)
    eng = _engine(n, mode)  # its refusals before Partition((n,)) names n < 1
    law = next(islice(eng.laws(start or Partition((n,))), r, None))
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
        a, den = next(islice(eng.laws(Partition((n,))), r, None))
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
    running L2 sum.  Float TVs are read from the walk the cached float
    engine memoizes (_FloatEngine.tvs)."""
    _check_steps(rmax)
    eng = _engine(n, mode)
    if mode == "float":
        tvs = islice(eng.tvs(rmax), 1, None)
    else:
        tvs = map(eng.tv, islice(eng.laws(Partition((n,))), 1, None))
    return list(zip(range(1, rmax + 1), tvs, _upper_bounds(n)))


# ---------------------------------------------------------------------------
# engines


class _ExactEngine:
    """The walk in Python ints on the lattice of n, for any n it holds: K is
    the Doob transform of A, so the law after r steps is (a, den) with
    a = A^r e_s and den = n^r d_s, and rho has mass d_rho a_rho / den."""

    def __init__(self, n: int):
        self.lat = lat = young_lattice(n)
        self.n_fact = n_fact = math.factorial(n)
        self.scaled = [d * n_fact for d in lat.dims]
        self.squares = [d * d for d in lat.dims]

    def laws(self, start: Partition):
        """The laws (a, den) after 0, 1, 2, ... steps from start."""
        lat = self.lat
        s = partition_id(start)
        a = np.zeros(len(lat.dims), dtype=object)
        a[s] = 1
        den = lat.dims[s]
        while True:
            yield a, den
            a = _apply_counts(lat, a)
            den *= lat.n

    def tv(self, law) -> Fraction:
        """2 TV = sum_rho |d_rho a_rho n! - d_rho^2 den| / (den n!), one Fraction."""
        a, den = law
        num = sum(abs(x * y - z * den) for x, y, z in zip(self.scaled, a, self.squares))
        return Fraction(num, 2 * den * self.n_fact)


def _jagged_rows(targets, off, relabel=None):
    """The CSR segments targets[off[i]:off[i+1]] as jagged corner rows.

    The segments are ordered by a stable sort on their lengths, longest
    first, so the j-th entries of those that have one are a prefix of that
    order: row j lists them, each through relabel if given.  Returns the
    order and the rows, which store every entry once and no pad."""
    targets, off = np.frombuffer(targets, dtype=np.int64), np.frombuffer(off, dtype=np.int64)
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
        self._walk = None  # the walk from (n) that tvs memoizes

    def laws(self, start: Partition):
        """The laws after 0, 1, 2, ... steps from start."""
        s = partition_id(start)
        scale = self.dims / self.dims[s]
        w = np.zeros(len(scale))
        w[s] = 1.0
        while True:
            yield scale * w
            w = self.step(w)

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
        from R to r through step.  (n) has id 0 and d = 1, so each TV is
        tv(dims * w), to the bit tv of the law laws((n,)) yields at that
        step.  The pair is replaced whole, never changed in place, so a
        reader on any thread sees one consistent pair."""
        if self._walk is None:
            w = np.zeros(len(self.dims))
            w[0] = 1.0
            self._walk = (w, (self.tv(self.dims * w),))
        w, tvs = self._walk
        if len(tvs) <= r:
            more = []
            for _ in range(len(tvs), r + 1):
                w = self.step(w)
                more.append(self.tv(self.dims * w))
            tvs += tuple(more)
            self._walk = (w, tvs)
        return tvs


@lru_cache(maxsize=4)
def _float_engine(n: int) -> _FloatEngine:
    return _FloatEngine(n)


def _engine(n: int, mode: str):
    """The engine of the walk on S_n in mode, built once _check_walk passes."""
    _check_walk(n, mode)
    return _ExactEngine(n) if mode == "exact" else _float_engine(n)


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
