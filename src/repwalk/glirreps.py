"""Irreducible representations of GL(n,q) as families of partitions.

Irr(GL(n,q)) is in bijection with assignments of partitions to cuspidal
labels with total weighted size n.  Cuspidal labels are opaque (degree,
index) pairs; no GL character values are ever computed.  Everything here
is polynomial in q, so q is any integer >= 2 (only prime powers are
group-theoretically meaningful; the brute-force test oracles require a
prime).  Dimensions, Plancherel measure, fixed-space element counts, the
L2 mixing bound, and the unipotent-part bounds are all exact.  The
unipotent-part bounds are the S_{1,q} weight and size tail:
suq_weight(1, q, lam) bounds the marginal mass of lam, and
unipotent_tail_bound the mass of the sizes >= c.  glasymptotics builds the
measure S_{u,q} on suq_weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError
from .intervals import _sqrt_up
from .partitions import EMPTY, Partition, enumerate_partitions

DEFAULT_ENUM_N = 5
DEFAULT_ENUM_Q = 4
TAIL_REL_TOL = Fraction(1, 10**15)


def _factorize(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime p dividing n >= 1, with p^e the power of p in n,
    in increasing p, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return (-1) ** len(factors)


@lru_cache(maxsize=256, typed=True)  # typed: a Fraction or float q equal to a cached int is refused
def cuspidal_count(d: int, q: int) -> int:
    """Number of cuspidal characters of GL(d,q): (1/d) sum_{e|d} mu(d/e)(q^e - 1).

    Equals the count of monic irreducible degree-d polynomials over the
    q-element field other than x; in particular q - 1 for d = 1.
    """
    if d < 1 or not isinstance(q, int) or q < 2:
        raise ValueError(f"need d >= 1 and an integer q >= 2, got d = {d}, q = {q}")
    total = sum(mobius(d // e) * (q**e - 1) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise ArithmeticError(f"Moebius sum {total} is not divisible by d = {d}")
    return total // d


@dataclass(frozen=True, order=True)
class CuspidalLabel:
    """Opaque cuspidal character label: degree d, index below cuspidal_count(d,q)."""

    degree: int
    index: int


UNIT_LABEL = CuspidalLabel(1, 0)  # the unit character e of GL(1,q)


@dataclass(frozen=True)
class GLIrrep:
    """A family: finite map from cuspidal labels to nonempty partitions."""

    n: int
    q: int
    assignment: tuple[tuple[CuspidalLabel, Partition], ...]

    def __post_init__(self):
        deg = 0
        seen = set()
        for label, lam in self.assignment:
            if not lam:
                raise ValueError("assigned partitions must be nonempty")
            if label in seen:
                raise ValueError("duplicate cuspidal label")
            if not 0 <= label.index < cuspidal_count(label.degree, self.q):
                raise ValueError(f"label index out of range: {label}")
            seen.add(label)
            deg += label.degree * lam.size
        if deg != self.n:
            raise ValueError(f"family degree {deg} != n = {self.n}")

    @property
    def unipotent_part(self) -> Partition:
        for label, lam in self.assignment:
            if label == UNIT_LABEL:
                return lam
        return EMPTY

    def descriptor(self) -> str:
        return ";".join(
            f"{label.degree}.{label.index}:{lam.to_string()}"
            for label, lam in self.assignment
        )

    @classmethod
    def from_descriptor(cls, n: int, q: int, text: str) -> "GLIrrep":
        assignment = []
        for chunk in text.split(";"):
            head, part = chunk.split(":")
            d, i = head.split(".")
            assignment.append((CuspidalLabel(int(d), int(i)), Partition.from_string(part)))
        return cls(n, q, tuple(sorted(assignment)))


def gl_enumerable(n: int, q: int) -> bool:
    """Whether GL(n,q) is within the family-enumeration limits."""
    return n <= DEFAULT_ENUM_N and q <= DEFAULT_ENUM_Q


def enumerate_gl_irreps(n: int, q: int) -> tuple[GLIrrep, ...]:
    """Every family of degree n exactly once, in a fixed canonical order."""
    if n < 1:
        raise ValueError("n must be positive")
    if not gl_enumerable(n, q):
        raise CapacityError("GL family enumeration", (n, q), (DEFAULT_ENUM_N, DEFAULT_ENUM_Q))

    labels = [CuspidalLabel(d, i) for d in range(1, n + 1) for i in range(cuspidal_count(d, q))]
    families: list[GLIrrep] = []

    def recurse(k: int, budget: int, acc: list):
        # labels[k:] may still be given a partition; labels[:k] are decided
        if budget == 0:
            families.append(GLIrrep(n, q, tuple(acc)))
            return
        for j in range(k, len(labels)):
            d = labels[j].degree
            if d > budget:  # labels come in degree order: none later fits
                return
            for size in range(1, budget // d + 1):
                for lam in enumerate_partitions(size):
                    recurse(j + 1, budget - d * size, acc + [(labels[j], lam)])

    recurse(0, n, [])
    families.sort(key=_family_sort_key)
    return tuple(families)


def _family_sort_key(phi: GLIrrep):
    """A total order on families: the sorted (degree, partition) pairs, then
    the labels used, then the partitions in label order."""
    pairs = sorted((label.degree, tuple(lam)) for label, lam in phi.assignment)
    idxs = sorted((label.degree, label.index) for label, lam in phi.assignment)
    return (pairs, idxs, [tuple(lam) for label, lam in sorted(phi.assignment)])


@lru_cache(maxsize=256)
def order_gl(n: int, q: int) -> int:
    """|GL(n,q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def dimension_gl(phi: GLIrrep) -> int:
    """(q^n - 1)...(q - 1) * prod over labels of q^(d n(lam)) / prod (q^(d h) - 1).

    One integer quotient: the leading product is |GL(n,q)| / q^C(n,2), and
    the power of q collects d n(lam) over the labels.
    """
    n, q = phi.n, phi.q
    num = order_gl(n, q) // q ** math.comb(n, 2)
    num *= q ** sum(label.degree * lam.n_stat() for label, lam in phi.assignment)
    den = 1
    for label, lam in phi.assignment:
        for h in lam.hooks():
            den *= q ** (label.degree * h) - 1
    if num % den:
        raise ArithmeticError(f"dimension of {phi.descriptor()} is not a positive integer")
    return num // den


def plancherel_gl(n: int, q: int) -> dict[GLIrrep, Fraction]:
    """Plancherel measure d_phi^2 / |GL(n,q)|; sums to 1 exactly.  The
    enumeration refuses sizes past its limits before the order is formed."""
    families = enumerate_gl_irreps(n, q)
    g = order_gl(n, q)
    masses = {phi: Fraction(dimension_gl(phi) ** 2, g) for phi in families}
    if sum(masses.values()) != 1:
        raise ArithmeticError("Plancherel masses do not sum to 1")
    return masses


def fixed_space_counts(n: int, q: int) -> dict[int, int]:
    """#{g in GL(n,q) : dim fix(g) = i}, exact, for i = 0..n.

    count(i) = (|GL_n|/|GL_i|) sum_{j=0}^{n-i} (-1)^j q^C(j,2) / (q^(ij) |GL_j|).
    """
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    out = {}
    for i in range(n + 1):
        total = Fraction(0)
        for j in range(n - i + 1):
            total += Fraction(
                (-1) ** j * q ** math.comb(j, 2),
                q ** (i * j) * order_gl(j, q),
            )
        value = Fraction(order_gl(n, q), order_gl(i, q)) * total
        if value.denominator != 1 or value < 0:
            raise ArithmeticError("fixed-space count is not a non-negative integer")
        out[i] = value.numerator
    if sum(out.values()) != order_gl(n, q):
        raise ArithmeticError("fixed-space counts do not sum to the group order")
    return out


def gl_upper_bound_squared(n: int, q: int, r: int) -> Fraction:
    """Exact square of the L2 bound: (1/4) sum_{i=1}^n count(n-i) q^(-2ri)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    counts = fixed_space_counts(n, q)
    total = Fraction(0)
    for i in range(1, n + 1):
        total += counts[n - i] * Fraction(1, q ** (2 * r * i))
    return total / 4


def gl_upper_bound(n: int, q: int, r: int) -> float:
    """L2 upper bound on TV distance after r steps, rounded up to a double,
    inf past the double range; <= 1/(2 q^c) at r = n + c."""
    squared = gl_upper_bound_squared(n, q, r)
    return _sqrt_up(squared.numerator, squared.denominator)


def unipotent_marginal(n: int, q: int) -> dict[Partition, Fraction]:
    """Distribution of the unipotent part under Plancherel measure (exact)."""
    out: dict[Partition, Fraction] = {}
    for phi, mass in plancherel_gl(n, q).items():
        lam = phi.unipotent_part
        out[lam] = out.get(lam, Fraction(0)) + mass
    return out


def suq_weight(u, q, lam: Partition) -> Fraction:
    """Unnormalized S_{u,q} weight u^|lam| / (q^(sum lam_i^2) prod (1 - q^-h)^2).

    With u = a/b, q = c/e and 1 - q^-h = (c^h - e^h)/c^h this is one integer
    quotient a^|lam| e^(sum lam_i^2) c^(2 sum h - sum lam_i^2) over
    b^|lam| prod (c^h - e^h)^2; the exponent of c is sum lam'_j^2 >= 0.
    """
    u, q = Fraction(u), Fraction(q)
    lam = Partition(lam)
    hooks = lam.hooks()
    squares = sum(p * p for p in lam)
    c, e = q.numerator, q.denominator
    den = u.denominator**lam.size
    for h in hooks:
        den *= (c**h - e**h) ** 2
    num = u.numerator**lam.size * e**squares * c ** (2 * sum(hooks) - squares)
    return Fraction(num, den)


def unipotent_tail_bound(q: int, c: int) -> Fraction:
    """Upper bound (1-1/q)^(-6) sum_{m>=c} 1/(q^m - 1) on P(|unipotent part| >= c):
    the S_{1,q} mass of {|lam| >= c}.

    The total weight in size m is at most 1/((q^m - 1)(1 - 1/q)^6) and the
    normalizer is at most 1.  The sum is evaluated exactly until the
    geometric remainder drops below TAIL_REL_TOL times the sum, then closed
    with that remainder, so the result stays an upper bound.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    q = Fraction(q)
    if q <= 1:
        raise ValueError("need q > 1")
    total = Fraction(0)
    m = c
    while True:
        total += 1 / (q**m - 1)
        m += 1
        # 1/(q^m - 1) <= 2 q^-m once q^m >= 2
        remainder = 2 / q**m / (1 - 1 / q)
        if remainder < TAIL_REL_TOL * total:
            return (1 - 1 / q) ** -6 * (total + remainder)


def _divisor_totients(m: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of m >= 1, from its factorization."""
    out = [(1, 1)]
    for p, e in _factorize(m):
        powers = [(1, 1)] + [(p**k, p**k - p ** (k - 1)) for k in range(1, e + 1)]
        out = [(d * pk, f * g) for d, f in out for pk, g in powers]
    return out


def _tail_denominator_log10(q: int, c: int) -> float:
    """A lower bound on log10 of the denominator unipotent_tail_bound(q, c)
    has in lowest terms, found without summing.

    The sum runs over m = c..M, and its stopping rule puts M - c between
    k_lo and k_hi below.  A primitive prime p of Phi_d(q) (q has order d
    mod p) divides q^m - 1 only when d | m.  For d > k_hi at most one m in
    the range is a multiple of d, so p keeps that term's power in the sum's
    denominator, through the prefactor and in 1 - bound.  For d >= 3 those
    primes make up Phi_d(q) / gcd(Phi_d(q), d), at least
    q^phi(d) (1/q; 1/q)_inf / d > q^phi(d) 10^-0.54 / d, and distinct d
    give distinct primes.
    """
    if q < 2 or c < 1:
        return 0.0
    log_q = math.log(q)
    k_lo = math.floor(math.log(1 / TAIL_REL_TOL) / log_q) - 2
    k_hi = max(math.ceil(math.log(2 * q / ((q - 1) * TAIL_REL_TOL)) / log_q) + 1, 2)
    total = 0.0
    for m in range(c, c + k_lo + 1):
        for d, phi in _divisor_totients(m):
            if d > k_hi:
                total += phi * math.log10(q) - 0.54 - math.log10(d)
    return total


def _check_lower_c(n: int, c: int) -> None:
    """Refuse c < 1, and c > n, whose r = n - c is a negative step count."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if c > n:
        raise ValueError(f"c must be at most n (r = n - c steps), got c = {c} > n = {n}")


def gl_lower_bound(n: int, q: int, c: int):
    """Certified lower bound on TV distance at r = n - c steps.

    The walk support at r = n - c keeps the first row of the unipotent part
    at size >= c, an event of full walk probability, so TV >= 1 - pi(A).
    Enumerable cases use the exact marginal; larger ones the tail bound.
    """
    _check_lower_c(n, c)
    if gl_enumerable(n, q):
        marg = unipotent_marginal(n, q)
        pa = sum(mass for lam, mass in marg.items() if lam and lam[0] >= c)
        return 1 - pa
    tail = unipotent_tail_bound(q, c)
    return 1 - min(Fraction(1), tail)
