"""Asymptotics of GL(n,q) Plancherel measure and an exact Plancherel sampler.

The two-parameter measure on all partitions

    S(lam) = Z(u,q) * u^|lam| / (q^(sum lam_i^2) prod_b (1 - q^-h(b))^2),
    Z(u,q) = prod_{i>=1} prod_{j>=0} (1 - u q^-(i+j)) = prod_{t>=1} (1 - u/q^t)^t,

is the limit law of each cuspidal component of a Plancherel-random family.
Mixing Plancherel measures of GL(N,q) over N with weights
prod_m (1 - u/q^m) u^N/(1/q)_N makes the components exactly independent
S-distributed.  Labels of degree > n are empty whenever the total is n, an
event independent of the rest, so the sampler draws the labels of degree
<= n alone and rejects on their total: exact Plancherel samples of
GL(n,q).  Its accept/reject path compares lazily extended uniforms against
certified rational interval thresholds, with no floating point.  A
representation-valued cycle index ties the enumerated Plancherel data to
the infinite product, coefficientwise; the product is read off its
logarithm, whose coefficients have closed forms.

The weight of S comes from glirreps (suq_weight), whose unipotent-part
bounds are S at u = 1.  Z(u,q) is enclosed here, truncated by one depth
rule (_normalizer_terms), and limit_marginal multiplies it by the weight.
The sampler's u is a rule of n (_rejection_u): it sets the speed and the
words drawn, never the law.  The acceptance probability multiplies the
first entries of the count tables, P(no label of degree d occupied) =
Z(u^d, q^d)^(N_d), on the integer ends those tables use, as the cached
plan keeps them.

Certified enclosures of Z(u,q) are memoized by suq_normalizer, a bounded
lru cache on (u, q, prec) (512 entries, see cache_info()): one sampler's
count and component thresholds share one Z(u^d, q^d) per degree and
precision.  Every table a sampler reads, and the acceptance probability,
comes from one plan per (n, q), cached by _plan (PLAN_CACHE_SIZE = 40)
under (n, q, u) with u the rule's value: per degree d <= n, the count and
component threshold sets and P(no label occupied).  Samplers with the
same (n, q) share it; the plan holds no sampler, so a finished sampler is
freed at once.  Tables are read lazily, component tables partition by
partition in size order, only as far as draws land, and a threshold set
keeps of each threshold read only its outcome and two 64-bit words, one
table that a first word indexes by one bisect; the rare draw that cannot
decide reads the builder anew at each precision.  Every builder yields its
thresholds as integer ends at scale 2^prec: the count tables' binomial
tails and the component laws (one integer numerator of the cumulative
weight over a common denominator), like every interval power and
suq_normalizer's products, run on integers.  An attempt reads the count
and component tables in its own loops, one word, one bisect and one slot
per draw, except that a count word below its degree's cut, the count
table's first 64-bit end (most count words), is count 0 after one compare;
it draws a single label index by one randrange, and builds the
CuspidalLabels only once it is accepted.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from typing import NamedTuple

from .errors import CapacityError, SamplerError
from .glirreps import (
    CuspidalLabel,
    GLIrrep,
    cuspidal_count,
    suq_weight,
    unipotent_marginal,
)
from .intervals import (
    Interval,
    ceil_scaled,
    enclosure_from_scaled,
    floor_scaled,
    guard_bits,
)
from .partitions import Partition, _hook_lengths, enumerate_partitions
from .rng import LazyUniform, SplitMix64
from .series import _check_order, _exp_coefficients, q_pochhammer

SAMPLE_N_LIMIT = 20
SAMPLE_Q_LIMIT = 3
DEFAULT_PREC = 320
DEFAULT_ATTEMPT_CAP = 10_000_000
MAX_DOUBLINGS = 6  # precision doublings a threshold set tries before giving up
# sampler plans kept, one for every (n <= SAMPLE_N_LIMIT, q in 2..SAMPLE_Q_LIMIT)
PLAN_CACHE_SIZE = SAMPLE_N_LIMIT * (SAMPLE_Q_LIMIT - 1)


# ---------------------------------------------------------------------------
# the measure S_{u,q}


def _weierstrass_tail(u: Fraction, q: Fraction, t: int) -> tuple[int, int]:
    """sum_{s>t} s u/q^s as a numerator and denominator: with u = a/b and
    q = c/e it is a e^(t+1) ((t+1) c - t e) / (b c^t (c - e)^2).  By the
    Weierstrass product inequality, prod_{s>t} (1 - u/q^s)^s is at least 1
    minus this."""
    a, b, c, e = u.numerator, u.denominator, q.numerator, q.denominator
    return a * e ** (t + 1) * ((t + 1) * c - t * e), b * c**t * (c - e) ** 2


def _normalizer_terms(u: Fraction, q: Fraction, target: Fraction) -> int:
    """The depth rule: the smallest truncation depth 8 * 2^k whose
    Weierstrass remainder is below target."""
    t = 8
    while True:
        num, den = _weierstrass_tail(u, q, t)
        if num * target.denominator < den * target.numerator:
            return t
        t *= 2


@lru_cache(maxsize=512)
def suq_normalizer(u, q, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of Z(u,q) = prod_{t>=1} (1 - u/q^t)^t for 0 < u < q.

    The head prod_{t<=terms} f_t^t, f_t = 1 - u/q^t, is the product of the
    suffix products S_m = prod_{m<=t<=terms} f_t, both kept as integer
    endpoints at a fixed dyadic scale and rounded outward after each of the
    2*terms products.  With u = a/b, q = c/e, X = a e^t and D = b c^t, so
    that f_t = (D - X)/D, a suffix product s steps down by the identities
    floor(s (D - X)/D) = s - ceil(s X/D) and ceil(s (D - X)/D) =
    s - floor(s X/D): a product with the small X and a quotient of a few
    words, in place of the full product and quotient.  The omitted factors
    each lie in (1 - u/q^t, 1); the Weierstrass product inequality turns
    their sum into a lower bound on the tail, kept as an integer numerator
    and denominator; terms is the smallest depth whose tail stays below
    2^-(prec-16).  Memoized on (u, q, prec) in a bounded cache; every caller
    passes prec by keyword, so one enclosure has one cache key.
    """
    u, q = Fraction(u), Fraction(q)
    if not 0 < u < q or q <= 1:
        raise ValueError("need 0 < u < q and q > 1")
    terms = _normalizer_terms(u, q, Fraction(1, 1 << max(prec - 16, 16)))
    scale = prec + guard_bits(2 * terms)
    s_lo = s_hi = head_lo = head_hi = 1 << scale
    # f_t = (d_t - x_t) / d_t, x_t = a e^t, d_t = b c^t; t runs downwards
    c, e = q.numerator, q.denominator
    x_t, d_t = u.numerator * e**terms, u.denominator * c**terms
    for _ in range(terms):
        s_lo -= -(-s_lo * x_t // d_t)
        s_hi -= s_hi * x_t // d_t
        head_lo = head_lo * s_lo >> scale
        head_hi = -(-head_hi * s_hi >> scale)
        x_t //= e
        d_t //= c
    num, den = _weierstrass_tail(u, q, terms)
    return enclosure_from_scaled(head_lo, head_hi, scale, prec, max(den - num, 0), den)


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


def cycle_index_lhs(n_max: int, q: int) -> list[tuple[Fraction, ...]]:
    """Coefficients of u^m, m <= n_max, of 1 + sum_m Z-hat_m u^m/(1/q)_m.

    Z-hat_m averages t^(size of the unipotent part) under Plancherel measure
    of GL(m,q): it is the unipotent marginal grouped by size.  Each
    coefficient is returned as a dense polynomial in t (a plain tuple of
    rationals); at t = 1 it is the coefficient with every marker 1.
    """
    out = [(Fraction(1),)]
    for m in range(1, n_max + 1):
        poly = [Fraction(0)] * (m + 1)
        for lam, mass in unipotent_marginal(m, q).items():
            poly[lam.size] += mass
        scale = 1 / q_pochhammer(q, m)
        out.append(_poly_trim([c * scale for c in poly]))
    return out


def cycle_index_rhs(q: int, order: int) -> list[tuple[Fraction, ...]]:
    """Same coefficients from the product over cuspidal labels.

    A degree-d label contributes sum_lam w_{1,q^d}(lam) u^(d|lam|) =
    1/Z(u^d, q^d), of logarithm sum_k (u^(dk)/k) c_k(q^d), c_k(Q) =
    Q^k/(Q^k - 1)^2 = c_{dk}(q) (Cauchy's identity).  Exactly one label (the
    unit character) is tracked by t, so the coefficient of u^i t^k is
    marked[k] * rest[i-k], read off series._exp_coefficients: marked has
    m g_m = c_m(q), and rest, the other labels, m g_m = c_m(q) sum_{d|m} d N'_d,
    N'_d being cuspidal_count(d, q) less the unit label at d = 1.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}")
    _check_order(order, q)
    cs = [Fraction(q**m, (q**m - 1) ** 2) for m in range(1, order + 1)]
    copies = [0, q - 2] + [cuspidal_count(d, q) for d in range(2, order + 1)]
    marked = _exp_coefficients(order, cs)
    rest = _exp_coefficients(order, [
        c * sum(d * copies[d] for d in range(1, m + 1) if m % d == 0)
        for m, c in enumerate(cs, 1)
    ])
    return [_poly_trim([marked[k] * rest[i - k] for k in range(i + 1)])
            for i in range(order + 1)]


# ---------------------------------------------------------------------------
# exact Plancherel sampler


def _rejection_u(n: int) -> Fraction:
    """The sampler's u = 1 - 1/max(n,2), clamped to [1/2, 63/64]: flattens
    P(N=n) near n."""
    u = 1 - Fraction(1, max(n, 2))
    return min(max(u, Fraction(1, 2)), Fraction(63, 64))


def acceptance_probability(n: int, q: int) -> Interval:
    """P(an attempt is accepted) = P(the labels of degree <= n total n) =
    prod_{d<=n} Z(u^d, q^d)^(N_d) u^n/(1/q)_n at u = _rejection_u(n),
    enclosed: P(total degree = n), prod_{m>=0} (1 - u/q^m) u^n/(1/q)_n, over
    the independent probability prod_{d>n} Z(u^d, q^d)^(N_d) that every
    label of higher degree is empty.  Each factor is the first entry of
    degree d's count table, P(no label occupied), which the cached plan
    keeps (_DegreePlan.empty), and the running product stays on integer
    ends at scale 2^DEFAULT_PREC, floor below and ceiling above, as the
    count tables' binomial tails do."""
    _check_sample_size(n, q)
    u = _rejection_u(n)
    lo = hi = one = 1 << DEFAULT_PREC
    for plan in _plan(n, q, u):
        z_lo, z_hi = plan.empty
        lo = lo * z_lo >> DEFAULT_PREC
        hi = -(-hi * z_hi >> DEFAULT_PREC)
    return Interval(Fraction(lo, one), Fraction(hi, one)) * (u**n / q_pochhammer(q, n))


_REJECT = object()


class _ThresholdSet:
    """Cumulative interval thresholds; locates a uniform draw among them.

    builder(prec) returns an iterable of (outcome, lo, hi) with increasing
    thresholds, each enclosed by the integers [lo, hi] at scale 2^prec.  The
    set reads it lazily at DEFAULT_PREC, only as far as draws land, and keeps
    one 64-bit table: _ends holds, threshold by threshold, the running maxima
    of lo and hi shifted down to scale 2^64, floor below and ceiling above,
    which are floor(t_lo * 2^64) and ceil(t_hi * 2^64) of the enclosure
    [t_lo, t_hi] itself, and _slots[k] says what a word v with bisect_right(_ends, v) == k
    decides.  An even k is the gap below threshold k // 2, where U < t holds
    for it and for no earlier one: the slot holds its outcome.  An odd k is
    a word inside a threshold's 64-bit [lo, hi] (about 2^-64 per
    threshold), and k == len(_ends) a word past every threshold read: these
    slots hold None, except that the last becomes _REJECT once the builder
    has ended.

    A draw costs one rng.next_u64() word v, one bisect and one slot.  Only
    a None slot calls _settle, which reads on past v or runs the exact
    scan: it extends the uniform from v, 64 bits at a time, and compares it
    with each threshold as the builder yields them anew at DEFAULT_PREC <<
    level; a comparison still unresolved moves to the next level, up to
    MAX_DOUBLINGS.  Both paths draw the same words and give the same outcome
    as that scan alone.  Reading holds a lock, so samplers in several threads
    may share a set; a builder that raises is started again past the
    entries kept, on the next read.
    """

    def __init__(self, builder):
        self._builder = builder
        self._lock = threading.Lock()
        # the entry iterator: None before a start or restart, False once the
        # builder has ended
        self._entries = None
        # _slots grows before _ends, and a slot gets its outcome last, so a
        # reader without the lock finds a slot for every bisect of _ends,
        # holding the right outcome or None
        self._ends: list[int] = []
        self._slots: list = [None]

    def _grow(self):
        """Read one more threshold and return its entry (outcome, lo, hi);
        None once the builder has ended."""
        with self._lock:
            ends, slots = self._ends, self._slots
            if self._entries is None:
                self._entries = islice(self._builder(DEFAULT_PREC), len(ends) // 2, None)
            if self._entries is False:
                return None
            try:
                entry = outcome, lo, hi = next(self._entries)
                shift = DEFAULT_PREC - 64
                lo64 = max(lo >> shift, ends[-1] if ends else 0)
                hi64 = max(-(-hi >> shift), lo64)
                slots += (None, None)
                ends += (lo64, hi64)
                slots[-3] = outcome
            except StopIteration:
                self._entries = False
                slots[-1] = _REJECT
                return None
            except BaseException:
                # a generator that raised is finished but has not ended: drop
                # it, and any half-kept entry, so the next read starts again
                self._entries = None
                del slots[len(ends) + 1:]
                raise
            return entry

    def locate(self, rng: SplitMix64):
        """The outcome of the first threshold above a fresh uniform, or _REJECT."""
        v = rng.next_u64()
        outcome = self._slots[bisect_right(self._ends, v)]
        return self._settle(rng, v) if outcome is None else outcome

    def _settle(self, rng: SplitMix64, v: int):
        """The outcome for a first word v whose slot holds None: read on
        until a threshold lies above v, then take its gap's outcome, or scan
        when v lies inside a threshold's 64-bit ends."""
        ends = self._ends
        while True:
            end = len(ends)  # once: another thread may append meanwhile
            k = bisect_right(ends, v, 0, end)
            if k < end:
                break
            # once the builder has ended, no other thread can append either
            if not self._grow() and len(ends) == end:
                return _REJECT
        outcome = self._slots[k]
        # an odd k straddles; an even one is None only while another thread
        # is between extending _ends and filling the slot
        return self._scan(LazyUniform(rng, v)) if outcome is None else outcome

    def _scan(self, u: LazyUniform):
        for level in range(MAX_DOUBLINGS + 1):
            scale = DEFAULT_PREC << level
            for outcome, lo, hi in self._builder(scale):
                res = u.compare_scaled(lo, hi, scale)
                if res is None:
                    break
                if res:
                    return outcome
            else:
                return _REJECT
        raise SamplerError("threshold enclosures failed to separate a uniform draw")


def _count_entries(ud: Fraction, qd: Fraction, n_labels: int, max_count: int, prec: int):
    """P(at most j of the n_labels degree-d labels are occupied), j <= max_count:
    each label is empty with probability Z(u^d, q^d), independently.

    The binomial tail runs on integer endpoints at scale 2^prec: term j adds
    floor(C(n_labels, j) occ^j z^(n_labels-j) * 2^prec) below and its
    ceiling above, what rounding (cum + pmf) outward to prec bits adds.
    Entries are (j, lo, hi), the running sum's endpoints at that scale."""
    z = suq_normalizer(ud, qd, prec=prec)
    occ = z.one_minus()
    c_lo = c_hi = 0
    for j in range(max_count + 1):
        comb = math.comb(n_labels, j)
        a, b = occ.pow_int(j, prec), z.pow_int(n_labels - j, prec)
        c_lo += comb * floor_scaled(a.lo, prec) * floor_scaled(b.lo, prec) >> prec
        c_hi += -(-comb * ceil_scaled(a.hi, prec) * ceil_scaled(b.hi, prec) >> prec)
        yield j, c_lo, c_hi


def _component_entries(ud: Fraction, qd: Fraction, sizes_cap: int, prec: int):
    """The law of an occupied label's partition, S(u^d, q^d) given lam nonempty:
    Z/(1-Z) times the cumulative weight, over the partitions of 1 .. sizes_cap
    in enumerate_partitions order, weighed only for the entries a reader
    reaches.  Entries are ((lam, m), lo, hi), m = |lam| kept beside lam so a
    draw adds its size with no sum, and lo, hi the endpoints of
    (ratio * cum).rounded(prec) at scale 2^prec.

    The cumulative weight is one integer numerator over den = b^cap P^2,
    with u^d = a/b, q^d = c/e, cap = sizes_cap and
    P = prod_{i<=cap} (c^i - e^i): suq_weight's quotient for lam of size m,
    brought to den, adds
        a^m b^(cap-m) e^(sum lam_i^2) c^(2 sum h - sum lam_i^2) G^2,
    G = P / prod_h (c^h - e^h) over the hook lengths h.  G is exact, as
    [m]_q! / prod_h [h]_q is a polynomial in q with integer coefficients; a
    remainder raises ArithmeticError."""
    z = suq_normalizer(ud, qd, prec=prec)
    ratio = z / z.one_minus()
    a, b, c, e = ud.numerator, ud.denominator, qd.numerator, qd.denominator
    gaps = [c**h - e**h for h in range(sizes_cap + 1)]  # gaps[h] = c^h - e^h
    whole = math.prod(gaps[1:])
    den = b**sizes_cap * whole * whole
    lo_num, lo_den = ratio.lo.numerator << prec, ratio.lo.denominator * den
    hi_num, hi_den = ratio.hi.numerator << prec, ratio.hi.denominator * den
    cum = 0
    for m in range(1, sizes_cap + 1):
        size_factor = a**m * b ** (sizes_cap - m)
        for lam in enumerate_partitions(m):
            hooks = _hook_lengths(lam)
            squares = sum(p * p for p in lam)
            part, rest = divmod(whole, math.prod([gaps[h] for h in hooks]))
            if rest:
                raise ArithmeticError(f"gap product of {lam} does not divide P at q^d = {qd}")
            cum += size_factor * e**squares * c ** (2 * sum(hooks) - squares) * part * part
            yield (lam, m), lo_num * cum // lo_den, -(-hi_num * cum // hi_den)


class _DegreePlan(NamedTuple):
    """Degree d's tables: how many of its n_labels labels are occupied, and
    an occupied label's partition with its size, at most n // d, as a
    larger one alone exceeds the total degree n.  empty is the count table's
    first entry, P(no label occupied), as its integer ends [lo, hi] at scale
    2^DEFAULT_PREC, read when the plan is made, and empty_below its 64-bit
    lower end: a count word below it lies under that threshold and decides
    count 0 with no bisect."""

    d: int
    n_labels: int
    empty_below: int
    count_thresholds: _ThresholdSet
    component_thresholds: _ThresholdSet
    empty: tuple[int, int]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(n: int, q: int, u: Fraction) -> tuple[_DegreePlan, ...]:
    """Every table a sampler for (n, q) reads at u = _rejection_u(n): one
    plan per degree d <= n, each with its count table's first threshold
    read.  Keyed on the u the rule gave, so a patched rule reads no stale
    plan."""
    plans = []
    for d in range(1, n + 1):
        n_labels = cuspidal_count(d, q)
        ud, qd = u**d, Fraction(q) ** d
        counts = _ThresholdSet(partial(_count_entries, ud, qd, n_labels, min(n_labels, n // d)))
        _, lo, hi = counts._grow()  # the count 0 entry, which every count table yields
        plans.append(_DegreePlan(
            d, n_labels, counts._ends[0], counts,
            _ThresholdSet(partial(_component_entries, ud, qd, n // d)), (lo, hi)))
    return tuple(plans)


def _check_sample_size(n: int, q: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > SAMPLE_N_LIMIT or q > SAMPLE_Q_LIMIT:
        raise CapacityError("GL Plancherel sampler", (n, q), (SAMPLE_N_LIMIT, SAMPLE_Q_LIMIT))


class GLPlancherelSampler:
    """Exact Plancherel sampler for Irr(GL(n,q)) by rejection on total degree."""

    def __init__(self, n: int, q: int, seed: int = 0):
        _check_sample_size(n, q)
        self.n = n
        self.q = q
        self.rng = SplitMix64(seed)
        self.attempts = 0
        self.plans = _plan(n, q, _rejection_u(n))

    def _draw_indices(self, count: int, pool: int) -> list[int]:
        """Uniform sorted count-subset of range(pool)."""
        if count == pool:  # reads no word: the one degree-1 label at q = 2
            return list(range(count))
        # a partial Fisher-Yates shuffle of range(pool) that stores only the
        # positions it moved: position j holds moved.get(j, j), and position
        # i is not read again once drawn
        moved: dict[int, int] = {}
        out = []
        for i in range(count):
            j = i + self.rng.randrange(pool - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return sorted(out)

    def _attempt(self) -> GLIrrep | None:
        # each table read is locate with its call left out: one word, one
        # bisect, one slot, and _settle only for a slot holding None; a count
        # word below empty_below is slot 0, count 0, taken with one compare
        self.attempts += 1
        n, rng = self.n, self.rng
        next_u64 = rng.next_u64
        occupied = []
        floor_total = 0
        for d, n_labels, empty_below, counts, components, _ in self.plans:
            v = next_u64()
            if v < empty_below:
                continue
            k = counts._slots[bisect_right(counts._ends, v)]
            if k is None:
                k = counts._settle(rng, v)
            if k is _REJECT:
                return None
            if k:
                occupied.append((d, n_labels, k, components))
                floor_total += d * k
        if floor_total > n:
            return None
        drawn = []
        total = 0
        for d, n_labels, k, components in occupied:
            if k > 1:
                indices = self._draw_indices(k, n_labels)
            else:  # _draw_indices(1, n_labels), which reads no word from a pool of one
                indices = (rng.randrange(n_labels) if n_labels > 1 else 0,)
            for idx in indices:
                v = next_u64()
                outcome = components._slots[bisect_right(components._ends, v)]
                if outcome is None:
                    outcome = components._settle(rng, v)
                if outcome is _REJECT:
                    return None
                lam, size = outcome
                total += d * size
                if total > n:
                    return None
                drawn.append((d, idx, lam))
        if total != n:
            return None
        return GLIrrep(n, self.q, tuple((CuspidalLabel(d, idx), lam) for d, idx, lam in drawn))

    def sample(self) -> GLIrrep:
        start, cap = self.attempts, DEFAULT_ATTEMPT_CAP
        while self.attempts - start < cap:
            phi = self._attempt()
            if phi is not None:
                return phi
        raise SamplerError(f"no acceptance within {cap} attempts")


def gl_plancherel_samples(n: int, q: int, count: int, seed: int = 0) -> list[GLIrrep]:
    """count exact Plancherel-distributed irreducible families of GL(n,q), from one sampler."""
    sampler = GLPlancherelSampler(n, q, seed)
    return [sampler.sample() for _ in range(count)]
