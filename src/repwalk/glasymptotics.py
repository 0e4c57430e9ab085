"""Asymptotics of GL(n,q) Plancherel measure and an exact Plancherel sampler.

The two-parameter measure on all partitions

    S(lam) = Z(u,q) * u^|lam| / (q^(sum lam_i^2) prod_b (1 - q^-h(b))^2),
    Z(u,q) = prod_{i>=1} prod_{j>=0} (1 - u q^-(i+j)) = prod_{t>=1} (1 - u/q^t)^t,

is the limit law of each cuspidal component of a Plancherel-random family.
Mixing Plancherel measures of GL(N,q) over N with weights
prod_m (1 - u/q^m) u^N/(1/q)_N makes the components exactly independent
S-distributed, so rejection on the total degree yields exact Plancherel
samples of GL(n,q).  The sampler's accept/reject path compares lazily
extended uniforms against certified rational interval thresholds; no
floating point is involved.  A representation-valued cycle index ties the
enumerated Plancherel data to the infinite product, coefficientwise.

The weight of S comes from glirreps (suq_weight), where the unipotent-part
bounds are it and the size tail of S (suq_size_tail_bound) at u = 1.
Z(u,q) is enclosed here, truncated by one depth rule (_normalizer_terms),
and limit_marginal multiplies it by the weight; the mixing weight
prod_m (1 - u/q^m) is (1 - u) Z(u,q)/Z(u/q,q), and every product
prod_d Z(u^d, q^d)^(N_d) goes through _z_power_product.

Certified enclosures of Z(u,q) are memoized by suq_normalizer, a bounded
lru cache on (u, q, prec) (512 entries, see cache_info()): one sampler's
count, component and high-degree thresholds share one Z(u^d, q^d) per
degree and precision, later samplers with the same (n, q, u) reuse it,
and euler_product_enclosure reads Z(u,q) and Z(u/q,q) from it.  The
sampler's threshold tables are cached too: _count_thresholds on
(u^d, q^d, N_d, max_count) and _component_thresholds on (u^d, q^d, n // d)
(TABLE_CACHE_SIZE = 512 each), and the high-degree entries on
(n, q, u, prec) (HIGH_DEGREE_CACHE_SIZE = 64).  Tables are read lazily,
component tables partition by partition in size order, only as far as
draws land, and a threshold set keeps of each threshold read only its
outcome and two 64-bit words; the rare draw those cannot decide reads the
builder anew at each precision.  No cache holds a sampler or a plan.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice

from .errors import CapacityError, SamplerError
from .glirreps import (
    CuspidalLabel,
    GLIrrep,
    cuspidal_count,
    plancherel_gl,
    suq_weight,
)
from .intervals import (
    Interval,
    ceil_scaled,
    enclosure_from_scaled,
    floor_scaled,
    guard_bits,
)
from .partitions import Partition, enumerate_partitions
from .rng import LazyUniform, SplitMix64
from .series import TruncSeries, _check_order, q_pochhammer

SAMPLE_N_LIMIT = 20
SAMPLE_Q_LIMIT = 3
DEFAULT_PREC = 320
DEFAULT_ATTEMPT_CAP = 10_000_000
EXPLICIT_DEGREES = 24  # degrees high_degree_empty_direct takes as exact powers
MAX_DOUBLINGS = 6  # precision doublings a threshold set tries before giving up
# count and component tables kept: every degree of every (n, q) the sampler
# takes at its default u is 2 * (1 + ... + SAMPLE_N_LIMIT) = 420 of each
TABLE_CACHE_SIZE = 512
HIGH_DEGREE_CACHE_SIZE = 64  # high-degree thresholds, one per (n, q, u, prec)


# ---------------------------------------------------------------------------
# the measure S_{u,q}


def _weierstrass_tail(u: Fraction, q: Fraction, t: int) -> Fraction:
    """sum_{s>t} s u/q^s = u z^(t+1) ((t+1) - t z) / (1 - z)^2 with z = 1/q:
    by the Weierstrass product inequality, prod_{s>t} (1 - u/q^s)^s is at
    least 1 minus this."""
    z = 1 / q
    return u * z ** (t + 1) * ((t + 1) - t * z) / (1 - z) ** 2


def _normalizer_terms(u: Fraction, q: Fraction, target: Fraction) -> int:
    """The depth rule: the smallest truncation depth 8 * 2^k whose
    Weierstrass remainder is below target."""
    t = 8
    while _weierstrass_tail(u, q, t) >= target:
        t *= 2
    return t


@lru_cache(maxsize=512)
def suq_normalizer(u, q, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of Z(u,q) = prod_{t>=1} (1 - u/q^t)^t for 0 < u < q.

    The head prod_{t<=terms} f_t^t, f_t = 1 - u/q^t, is the product of the
    suffix products S_m = prod_{m<=t<=terms} f_t, both kept as integer
    endpoints at a fixed dyadic scale and rounded outward after each of the
    2*terms products.  The omitted factors each lie in (1 - u/q^t, 1); the
    Weierstrass product inequality turns their sum into a rational lower
    bound on the tail; terms is the smallest depth whose tail stays below
    2^-(prec-16).  Memoized on (u, q, prec) in a bounded cache; every caller
    passes prec by keyword, so one enclosure has one cache key.
    """
    u, q = Fraction(u), Fraction(q)
    if not 0 < u < q or q <= 1:
        raise ValueError("need 0 < u < q and q > 1")
    terms = _normalizer_terms(u, q, Fraction(1, 1 << max(prec - 16, 16)))
    scale = prec + guard_bits(2 * terms)
    s_lo = s_hi = head_lo = head_hi = 1 << scale
    # f_t = (b c^t - a e^t) / (b c^t) for u = a/b, q = c/e; t runs downwards
    c_t, e_t = q.numerator**terms, q.denominator**terms
    for _ in range(terms):
        num = u.denominator * c_t - u.numerator * e_t
        den = u.denominator * c_t
        s_lo = s_lo * num // den
        s_hi = -(-s_hi * num // den)
        head_lo = head_lo * s_lo >> scale
        head_hi = -(-head_hi * s_hi >> scale)
        c_t //= q.numerator
        e_t //= q.denominator
    tail_lo = max(Fraction(0), 1 - _weierstrass_tail(u, q, terms))
    return enclosure_from_scaled(head_lo, head_hi, scale, prec, tail_lo)


def euler_product_enclosure(u, q, prec: int) -> Interval:
    """Enclosure of E(u,q) = prod_{m>=0} (1 - u/q^m), 0 < u < 1 < q, rounded
    outward to prec bits: Z(u,q)/Z(u/q,q) = prod_{t>=1} (1 - u/q^t), so E is
    (1 - u) Z(u,q)/Z(u/q,q), from two cached suq_normalizer enclosures."""
    u, q = Fraction(u), Fraction(q)
    if not 0 < u < 1 or q <= 1:
        raise ValueError("need 0 < u < 1 < q")
    ratio = suq_normalizer(u, q, prec=prec) / suq_normalizer(u / q, q, prec=prec)
    return ((1 - u) * ratio).rounded(prec)


def limit_marginal(q, c_degree: int, truncation_size: int) -> dict[Partition, Interval]:
    """Masses of S_{1, q^d} on |lam| <= truncation_size, each the certified
    enclosure Z(1, q^d) times the weight of lam: the large-n limit law of a
    degree-d component."""
    if c_degree < 1:
        raise ValueError("degree must be >= 1")
    qd = Fraction(q) ** c_degree
    z = suq_normalizer(1, qd, prec=DEFAULT_PREC)
    return {lam: z * suq_weight(1, qd, lam)
            for m in range(truncation_size + 1) for lam in enumerate_partitions(m)}


# ---------------------------------------------------------------------------
# cycle index


def _poly_trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs) if coeffs else (Fraction(0),)


def cycle_index_lhs(n_max: int, q: int, marker: str = "none") -> list[tuple[Fraction, ...]]:
    """Coefficients of u^m, m <= n_max, of 1 + sum_m Z-hat_m u^m/(1/q)_m.

    Z-hat_m averages, under Plancherel measure of GL(m,q), the product of
    component markers; marker 'none' sets every marker to 1, marker
    'unipotent' tracks t^(size of the unipotent part).  Each coefficient is
    returned as a dense polynomial in t (a plain tuple of rationals).
    """
    if marker not in ("none", "unipotent"):
        raise ValueError("marker must be 'none' or 'unipotent'")
    out = [(Fraction(1),)]
    for m in range(1, n_max + 1):
        poly = [Fraction(0)] * (m + 1)
        for phi, mass in plancherel_gl(m, q).items():
            t_pow = phi.unipotent_part.size if marker == "unipotent" else 0
            poly[t_pow] += mass
        scale = 1 / q_pochhammer(q, m)
        out.append(_poly_trim([c * scale for c in poly]))
    return out


def cycle_index_rhs(q: int, order: int, marker: str = "none") -> list[tuple[Fraction, ...]]:
    """Same coefficients from the product over cuspidal labels.

    Each degree-d label contributes 1 + sum_lam marker(lam) u^(d|lam|)
    w(lam), with w the S-weight at (u^d, q^d); the cuspidal_count(d,q)
    interchangeable copies give one series power.  When marker='unipotent'
    exactly one label (the unit character) is tracked, so the coefficient
    of u^i t^k is marked[k] * rest[i-k], marked[k] being its size-k weight
    and rest the product over the untracked labels.
    """
    if marker not in ("none", "unipotent"):
        raise ValueError("marker must be 'none' or 'unipotent'")
    _check_order(order, q)
    rest = TruncSeries.one(order)
    marked = [Fraction(1)]  # replaced at d = 1, which order 0 never reaches
    for d in range(1, order + 1):
        qd = Fraction(q) ** d
        # by_size[s] = total weight of the partitions of s, the u^(d s) coefficient
        by_size = [Fraction(1)] + [
            sum(suq_weight(1, qd, lam) for lam in enumerate_partitions(size))
            for size in range(1, order // d + 1)
        ]
        copies = cuspidal_count(d, q)
        if d == 1 and marker == "unipotent":
            marked = by_size
            copies -= 1
        plain = [Fraction(0)] * (order + 1)
        plain[::d] = by_size
        rest = rest * TruncSeries(order, tuple(plain)) ** copies
    if marker == "none":
        return [(c,) for c in rest.coeffs]
    return [_poly_trim([marked[k] * rest.coeffs[i - k] for k in range(i + 1)])
            for i in range(order + 1)]


# ---------------------------------------------------------------------------
# exact Plancherel sampler


def default_rejection_u(n: int) -> Fraction:
    """u = 1 - 1/max(n,2), clamped to [1/2, 63/64]: flattens P(N=n) near n."""
    u = 1 - Fraction(1, max(n, 2))
    return min(max(u, Fraction(1, 2)), Fraction(63, 64))


def _z_power_product(degrees: range, q: int, u: Fraction, prec: int) -> Interval:
    """prod_{d in degrees} Z(u^d, q^d)^(N_d), N_d = cuspidal_count(d, q),
    rounded outward to prec bits after every factor."""
    out = Interval.point(1)
    for d in degrees:
        z_d = suq_normalizer(u**d, Fraction(q) ** d, prec=prec)
        out = (out * z_d.pow_int(cuspidal_count(d, q), prec)).rounded(prec)
    return out


def high_degree_empty_direct(n: int, q: int, u) -> Interval:
    """Enclosure of prod_{d>n} Z(u^d, q^d)^(N_d) built degree by degree.

    EXPLICIT_DEGREES degrees enter as explicit interval powers; the rest are
    bounded below through 1 - Z_d <= sum_t t (u^d/q^(dt)) and the geometric
    envelope N_d * (that sum) <= (q/(q-1))^2 u^d.
    """
    u = Fraction(u)
    d = n + 1 + EXPLICIT_DEGREES
    explicit = _z_power_product(range(n + 1, d), q, u, DEFAULT_PREC)
    tail_deficit = Fraction(q, q - 1) ** 2 * u**d / (1 - u)
    lo = max(Fraction(0), explicit.lo * (1 - tail_deficit))
    return Interval(lo, explicit.hi)


def acceptance_probability(n: int, q: int, u) -> Interval:
    """P(total degree = n) = prod_{m>=0}(1 - u/q^m) u^n/(1/q)_n, enclosed."""
    u = Fraction(u)
    return euler_product_enclosure(u, q, DEFAULT_PREC) * (u**n / q_pochhammer(q, n))


_REJECT = object()


class _ThresholdSet:
    """Cumulative interval thresholds; locates a uniform draw among them.

    builder(prec) returns an iterable of (outcome, Interval) with increasing
    thresholds.  The set reads it lazily at DEFAULT_PREC, only as far as
    draws land, and keeps per threshold its outcome and the running maxima
    of floor(lo * 2^64) and ceil(hi * 2^64), nothing more.  A uniform beyond
    the last threshold maps to _REJECT.

    A draw costs one rng.next_u64() word v and one bisect: v alone decides
    unless some earlier threshold's 64-bit [lo, hi] straddles it (about
    2^-64 per threshold).  Only then does the exact scan run: it extends the
    uniform from v, 64 bits at a time, and compares it with each threshold
    as the builder yields them anew at DEFAULT_PREC << level; a comparison
    still unresolved moves to the next level, up to MAX_DOUBLINGS.  Both
    paths draw the same words and give the same outcome as that scan alone.
    Reading holds a lock, so samplers in several threads may share a set; a
    builder that raises is started again past the entries kept, on the next
    read.
    """

    def __init__(self, builder):
        self._builder = builder
        self._lock = threading.Lock()
        # the entry iterator: None before a start or restart, False once the
        # builder has ended
        self._entries = None
        # per threshold: its outcome and the running maxima of its 64-bit
        # ends; lo64 is appended last, so an index below len(self._lo64) is
        # complete in all three for a reader without the lock
        self._outcomes: list = []
        self._hi64: list[int] = []
        self._lo64: list[int] = []

    def _grow(self) -> bool:
        """Read one more threshold; False once the builder has ended."""
        with self._lock:
            if self._entries is None:
                self._entries = islice(self._builder(DEFAULT_PREC), len(self._lo64), None)
            if self._entries is False:
                return False
            try:
                outcome, iv = next(self._entries)
                lo64, hi64 = floor_scaled(iv.lo, 64), ceil_scaled(iv.hi, 64)
                if self._lo64:
                    lo64, hi64 = max(lo64, self._lo64[-1]), max(hi64, self._hi64[-1])
                self._hi64.append(hi64)
                self._outcomes.append(outcome)
                self._lo64.append(lo64)
            except StopIteration:
                self._entries = False
                return False
            except BaseException:
                # a generator that raised is finished but has not ended: drop
                # it, and any half-kept entry, so the next read starts again
                self._entries = None
                kept = len(self._lo64)
                del self._hi64[kept:], self._outcomes[kept:]
                raise
            return True

    def locate(self, rng: SplitMix64):
        """The outcome of the first threshold above a fresh uniform, or _REJECT."""
        v = rng.next_u64()
        lo64 = self._lo64
        end = len(lo64)  # once: another thread may append meanwhile
        # thresholds before j have lo64 <= v: none of them can hold U < t
        j = bisect_right(lo64, v, 0, end)
        past = j == end
        if past:
            j, past = self._read_past(v)
        if j and v < self._hi64[j - 1]:
            return self._scan(LazyUniform(rng, v))
        return _REJECT if past else self._outcomes[j]

    def _read_past(self, v: int) -> tuple[int, bool]:
        """For a word v past the thresholds read so far: read on until one
        lies above v.  Returns its index, or the count of thresholds and True
        when v is past all of them."""
        lo64 = self._lo64
        while True:
            end = len(lo64)
            j = bisect_right(lo64, v, 0, end)
            if j < end:
                return j, False
            # once the builder has ended, no other thread can append either
            if not self._grow() and len(lo64) == end:
                return j, True

    def _scan(self, u: LazyUniform):
        for level in range(MAX_DOUBLINGS + 1):
            scale = DEFAULT_PREC << level
            for outcome, iv in self._builder(scale):
                lo, hi = floor_scaled(iv.lo, scale), ceil_scaled(iv.hi, scale)
                res = u.compare_scaled(lo, hi, scale)
                if res is None:
                    break
                if res:
                    return outcome
            else:
                return _REJECT
        raise SamplerError("threshold enclosures failed to separate a uniform draw")


def _count_entries(ud: Fraction, qd: Fraction, n_labels: int, max_count: int, prec: int) -> list:
    """P(at most j of the n_labels degree-d labels are occupied), j <= max_count:
    each label is empty with probability Z(u^d, q^d), independently."""
    z = suq_normalizer(ud, qd, prec=prec)
    occ = z.one_minus()
    out = []
    cum = Interval.point(0)
    for j in range(max_count + 1):
        pmf = math.comb(n_labels, j) * occ.pow_int(j, prec) * z.pow_int(n_labels - j, prec)
        cum = (cum + pmf).rounded(prec)
        out.append((j, cum))
    return out


def _component_entries(ud: Fraction, qd: Fraction, sizes_cap: int, prec: int):
    """The law of an occupied label's partition, S(u^d, q^d) given lam nonempty:
    Z/(1-Z) times the cumulative weight, over the partitions of 1 .. sizes_cap
    in enumerate_partitions order; suq_weight runs only for the entries a
    reader reaches."""
    z = suq_normalizer(ud, qd, prec=prec)
    ratio = z / z.one_minus()
    one = 1 << prec
    cum = Fraction(0)
    for m in range(1, sizes_cap + 1):
        for lam in enumerate_partitions(m):
            cum += suq_weight(ud, qd, lam)
            # (ratio * cum).rounded(prec), in integers
            num, den = cum.numerator << prec, cum.denominator
            lo = ratio.lo.numerator * num // (ratio.lo.denominator * den)
            hi = -(-ratio.hi.numerator * num // (ratio.hi.denominator * den))
            yield lam, Interval(Fraction(lo, one), Fraction(hi, one))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _count_thresholds(ud: Fraction, qd: Fraction, n_labels: int, max_count: int) -> _ThresholdSet:
    return _ThresholdSet(partial(_count_entries, ud, qd, n_labels, max_count))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _component_thresholds(ud: Fraction, qd: Fraction, sizes_cap: int) -> _ThresholdSet:
    return _ThresholdSet(partial(_component_entries, ud, qd, sizes_cap))


class _DegreePlan:
    """Per-degree sampling machinery: occupation counts and component law.

    Both threshold sets come from the shared caches; components have size
    at most n // d, as a larger one alone exceeds the total degree n.
    """

    def __init__(self, n: int, q: int, u: Fraction, d: int):
        self.d = d
        self.n_labels = n_labels = cuspidal_count(d, q)
        ud, qd = u**d, Fraction(q) ** d
        self.count_thresholds = _count_thresholds(ud, qd, n_labels, min(n_labels, n // d))
        self.component_thresholds = _component_thresholds(ud, qd, n // d)


@lru_cache(maxsize=HIGH_DEGREE_CACHE_SIZE)
def _high_degree_entries(n: int, q: int, u: Fraction, prec: int) -> tuple:
    """Single threshold: probability that every label of degree > n is empty.

    Computed as prod_{m>=0}(1 - u/q^m) / prod_{d<=n} Z_d^(N_d): the full
    all-empty probability divided by the explicit low-degree factors.
    (high_degree_empty_direct bounds the same quantity degree by degree;
    the tests check the two enclosures overlap.)
    """
    iv = euler_product_enclosure(u, q, prec) / _z_power_product(range(1, n + 1), q, u, prec)
    iv = Interval(max(Fraction(0), iv.lo), min(Fraction(1), iv.hi))
    return ((True, iv),)


def _check_sample_size(n: int, q: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > SAMPLE_N_LIMIT or q > SAMPLE_Q_LIMIT:
        raise CapacityError("GL Plancherel sampler", (n, q), (SAMPLE_N_LIMIT, SAMPLE_Q_LIMIT))


class GLPlancherelSampler:
    """Exact Plancherel sampler for Irr(GL(n,q)) by rejection on total degree."""

    def __init__(self, n: int, q: int, u=None, seed: int = 0):
        _check_sample_size(n, q)
        self.n = n
        self.q = q
        self.u = Fraction(u) if u is not None else default_rejection_u(n)
        if not 0 < self.u < 1:
            raise ValueError("need 0 < u < 1")
        self.rng = SplitMix64(seed)
        self.attempts = 0
        self.plans = [_DegreePlan(n, q, self.u, d) for d in range(1, n + 1)]
        # the entries are cached; the set is the sampler's own, freed with it
        self.high_degree_empty = _ThresholdSet(partial(_high_degree_entries, n, q, self.u))

    def _draw_indices(self, count: int, pool: int) -> list[int]:
        """Uniform sorted count-subset of range(pool)."""
        if count == pool:
            return list(range(count))
        if pool <= 2048:
            arr = list(range(pool))
            for i in range(count):
                j = i + self.rng.randrange(pool - i)
                arr[i], arr[j] = arr[j], arr[i]
            return sorted(arr[:count])
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.rng.randrange(pool))
        return sorted(chosen)

    def _attempt(self) -> GLIrrep | None:
        self.attempts += 1
        rng = self.rng
        counts = []
        floor_total = 0
        for plan in self.plans:
            outcome = plan.count_thresholds.locate(rng)
            if outcome is _REJECT:
                return None
            counts.append(outcome)
            floor_total += plan.d * outcome
        if floor_total > self.n:
            return None
        if self.high_degree_empty.locate(rng) is _REJECT:
            return None
        assignment = []
        total = 0
        for plan, k in zip(self.plans, counts):
            if not k:
                continue
            indices = self._draw_indices(k, plan.n_labels)
            for idx in indices:
                lam = plan.component_thresholds.locate(rng)
                if lam is _REJECT:
                    return None
                total += plan.d * lam.size
                if total > self.n:
                    return None
                assignment.append((CuspidalLabel(plan.d, idx), lam))
        if total != self.n:
            return None
        return GLIrrep(self.n, self.q, tuple(assignment))

    def sample(self) -> GLIrrep:
        start, cap = self.attempts, DEFAULT_ATTEMPT_CAP
        while self.attempts - start < cap:
            phi = self._attempt()
            if phi is not None:
                return phi
        raise SamplerError(
            f"no acceptance within {cap} attempts; try a different u "
            f"(current u = {self.u})"
        )


def gl_plancherel_samples(n: int, q: int, count: int, u=None, seed: int = 0) -> list[GLIrrep]:
    """count exact Plancherel-distributed irreducible families of GL(n,q), from one sampler."""
    sampler = GLPlancherelSampler(n, q, u, seed)
    return [sampler.sample() for _ in range(count)]
