"""Independent brute-force oracles used across the test suite.

Nothing here calls the code paths it is meant to check: character values
come from permutation modules, dimensions from explicit tableau counting,
GL counts from literal matrix enumeration over prime fields, cuspidal
counts from irreducible-polynomial enumeration.  The reference walks,
walk_step_chain, the sampler and GL table references and the two identity
sides at the end (pieri_sides, spectrum_sides) are the exception: they set
one package path against another, the Fraction kernel against the lattice
engines, the stepped exact walk against the one-pass law, the down-up
chain against the coupon-count sampler, the samplers' inlined word draws
against plain randrange, the Fraction interval products and running sums,
the Interval threshold entries and the full-product normalizer loop against
the integer endpoints, one locate per table against the inlined attempt,
the exact walk step against the Murnaghan-Nakayama table, the Euler
partial products and per-partition cycle index product against the
exponential recurrence, and the Euler product enclosure, over the
high-degree product built degree by degree, against the sampler's
acceptance probability.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations

from repwalk.glasymptotics import (
    _REJECT,
    DEFAULT_PREC,
    GLPlancherelSampler,
    suq_normalizer,
    suq_weight,
)
from repwalk.glirreps import CuspidalLabel, GLIrrep, cuspidal_count
from repwalk.intervals import Interval, ceil_scaled, floor_scaled, guard_bits
from repwalk.partitions import Partition, dimension_sn, enumerate_partitions, partition_id
from repwalk.rng import _GOLDEN, mix64
from repwalk.series import TruncSeries


def cycle_type_brute(perm: tuple[int, ...]) -> Partition:
    seen = [False] * len(perm)
    lengths = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        ln, p = 0, s
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            ln += 1
        lengths.append(ln)
    return Partition(sorted(lengths, reverse=True))


def class_sizes_brute(n: int) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for p in permutations(range(n)):
        ct = cycle_type_brute(p)
        out[ct] = out.get(ct, 0) + 1
    return out


def fixed_point_counts_brute(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in permutations(range(n)):
        k = sum(1 for i, v in enumerate(p) if i == v)
        out[k] = out.get(k, 0) + 1
    return out


def log_dimension_sn(lam: Partition) -> float:
    """Double-precision log of dimension_sn from the hook lengths."""
    lam = Partition(lam)
    if not lam:
        return 0.0
    return math.lgamma(lam.size + 1) - sum(math.log(h) for h in lam.hooks())


def plancherel_fc_moments(n: int, cycles: Partition) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of |C|^(1/2) chi^rho(C)/d_rho under Plancherel.

    Returned as (mean / |C|^(1/2), variance), both rational; the mean is 0
    and the variance 1 for every non-identity class by orthogonality.
    """
    from repwalk.characters import character_table

    table = character_table(n)
    cycles = Partition(cycles)
    n_fact = math.factorial(n)
    j = table.partitions.index(cycles)
    size = table.classes[j].class_size
    mean_red = Fraction(0)
    second = Fraction(0)
    for i, lam in enumerate(table.partitions):
        d = dimension_sn(lam)
        g = Fraction(table.values[i][j], d)
        pi = Fraction(d * d, n_fact)
        mean_red += pi * g
        second += pi * g * g * size
    return mean_red, second - mean_red * mean_red * size


def tv_witness(dist):
    """The event A = {dist > pi} and |dist(A) - pi(A)|, the max-form witness
    of the total variation distance of an exact WalkDistribution to Plancherel."""
    from repwalk.snwalk import plancherel_sn

    pi = plancherel_sn(dist.n)
    a = tuple(lam for lam, p in pi.masses.items() if dist.masses.get(lam, 0) > p)
    gap = abs(sum(dist.masses.get(l, 0) for l in a) - sum(pi.masses[l] for l in a))
    return a, gap


# ---------------------------------------------------------------------------
# symmetric group characters from permutation modules (Young's rule +
# Gram-Schmidt down the reverse-lex order; never touches Murnaghan-Nakayama)


def _tabloids(n: int, shape: Partition):
    """Ordered set partitions of range(n) with block sizes `shape`."""
    out = []

    def rec(remaining: frozenset, blocks: tuple, i: int):
        if i == len(shape):
            out.append(blocks)
            return
        from itertools import combinations

        for block in combinations(sorted(remaining), shape[i]):
            rec(remaining - set(block), blocks + (frozenset(block),), i + 1)

    rec(frozenset(range(n)), (), 0)
    return out


def _perm_for_class(cycles: Partition) -> tuple[int, ...]:
    out = [0] * cycles.size
    start = 0
    for length in cycles:
        for i in range(length):
            out[start + i] = start + (i + 1) % length
        start += length
    return tuple(out)


def young_permutation_character(n: int, shape: Partition) -> list[int]:
    """Character of the action on tabloids, one value per class."""
    tabs = _tabloids(n, shape)
    values = []
    for cycles in enumerate_partitions(n):
        g = _perm_for_class(Partition(cycles))
        fixed = 0
        for blocks in tabs:
            if all(frozenset(g[x] for x in b) == b for b in blocks):
                fixed += 1
        values.append(fixed)
    return values


@lru_cache(maxsize=None)
def character_table_brute(n: int) -> dict[Partition, tuple[int, ...]]:
    """Full character table from permutation modules alone."""
    sizes = class_sizes_brute(n)
    classes = list(enumerate_partitions(n))
    weights = [sizes[c] for c in classes]
    n_fact = math.factorial(n)

    def inner(a, b) -> Fraction:
        return Fraction(sum(w * x * y for w, x, y in zip(weights, a, b)), n_fact)

    table: dict[Partition, tuple[int, ...]] = {}
    for shape in classes:  # reverse-lex order refines dominance downwards
        v = [Fraction(x) for x in young_permutation_character(n, shape)]
        for chi in table.values():
            m = inner(v, chi)
            assert m.denominator == 1 and m >= 0
            if m:
                v = [a - m * b for a, b in zip(v, chi)]
        assert inner(v, v) == 1, "residue is not irreducible"
        ints = []
        for x in v:
            assert x.denominator == 1
            ints.append(x.numerator)
        table[shape] = tuple(ints)
    return table


def count_standard_tableaux(shape: Partition) -> int:
    """Number of standard Young tableaux by explicit recursive filling."""

    @lru_cache(maxsize=None)
    def rec(rows: tuple) -> int:
        if sum(rows) == 0:
            return 1
        total = 0
        for i, r in enumerate(rows):
            if r and (i == len(rows) - 1 or r > rows[i + 1]):
                total += rec(rows[:i] + (r - 1,) + rows[i + 1 :])
        return total

    return rec(tuple(shape))


# ---------------------------------------------------------------------------
# GL(n, p) brute force over prime fields


def _rank_mod_p(matrix: list[list[int]], p: int) -> int:
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank, row = 0, 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] % p), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(x * inv) % p for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def gl_elements_brute(n: int, p: int):
    """Yield every invertible n x n matrix over the prime field F_p."""
    total = p ** (n * n)
    for code in range(total):
        entries = []
        c = code
        for _ in range(n * n):
            entries.append(c % p)
            c //= p
        matrix = [entries[i * n : (i + 1) * n] for i in range(n)]
        if _rank_mod_p(matrix, p) == n:
            yield matrix


def fixed_space_counts_brute(n: int, p: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for g in gl_elements_brute(n, p):
        shifted = [[(v - (1 if i == j else 0)) % p for j, v in enumerate(row)]
                   for i, row in enumerate(g)]
        d = n - _rank_mod_p(shifted, p)
        out[d] = out.get(d, 0) + 1
    return out


# ---------------------------------------------------------------------------
# irreducible polynomials over F_p


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over F_p; polynomials as coefficient lists,
    lowest degree first, den monic."""
    num = num[:]
    while len(num) >= len(den) and any(num):
        while num and num[-1] % p == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        lead = num[-1] % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
    while num and num[-1] % p == 0:
        num.pop()
    return num


def irreducible_monic_count_brute(d: int, p: int, exclude_x: bool = True) -> int:
    """Count monic irreducible degree-d polynomials over F_p (minus x if asked)."""

    def monics(deg):
        for code in range(p**deg):
            coeffs = []
            c = code
            for _ in range(deg):
                coeffs.append(c % p)
                c //= p
            yield coeffs + [1]

    count = 0
    for poly in monics(d):
        if d == 1:
            if exclude_x and poly[0] == 0:
                continue
            count += 1
            continue
        divisible = False
        for deg in range(1, d // 2 + 1):
            for div in monics(deg):
                if not _poly_mod(poly, div, p):
                    divisible = True
                    break
            if divisible:
                break
        if not divisible:
            count += 1
    return count


def dimension_gl_fraction(phi) -> Fraction:
    """(q^n - 1)...(q - 1) * prod over labels of q^(d n(lam)) / prod (q^(d h) - 1),
    one Fraction factor at a time."""
    n, q = phi.n, phi.q
    value = Fraction(1)
    for k in range(1, n + 1):
        value *= q**k - 1
    for label, lam in phi.assignment:
        d = label.degree
        value *= Fraction(q ** (d * lam.n_stat()))
        for h in lam.hooks():
            value /= q ** (d * h) - 1
    return value


# ---------------------------------------------------------------------------
# certified GL enclosures, computed the direct way


def suq_weight_per_hook(u, q, lam: Partition) -> Fraction:
    """u^|lam| / (q^(sum lam_i^2) prod_h (1 - q^-h)^2), one division per hook."""
    u, q = Fraction(u), Fraction(q)
    w = u**lam.size / q ** sum(p * p for p in lam)
    for h in lam.hooks():
        w /= (1 - q**-h) ** 2
    return w


def suq_normalizer_pow_int(u, q, prec: int):
    """Z(u,q) = prod_{t>=1} (1 - u/q^t)^t enclosed factor by factor: each
    factor raised by its own rounded interval power, the tail closed by the
    Weierstrass bound."""
    u, q = Fraction(u), Fraction(q)
    z = 1 / q
    target = Fraction(1, 1 << max(prec - 16, 16))
    terms = 8
    while u * z ** (terms + 1) * ((terms + 1) - terms * z) / (1 - z) ** 2 >= target:
        terms *= 2
    head = Interval.point(1)
    for t in range(1, terms + 1):
        head = (head * Interval.point(1 - u * z**t).pow_int(t, prec)).rounded(prec)
    tail_sum = u * z ** (terms + 1) * ((terms + 1) - terms * z) / (1 - z) ** 2
    lo = head.lo * (1 - tail_sum) if tail_sum < 1 else Fraction(0)
    return Interval(max(lo, Fraction(0)), head.hi).rounded(prec)


def weierstrass_tail_fraction(u: Fraction, q: Fraction, t: int) -> Fraction:
    """sum_{s>t} s u/q^s = u z^(t+1) ((t+1) - t z) / (1 - z)^2 with z = 1/q."""
    z = 1 / q
    return u * z ** (t + 1) * ((t + 1) - t * z) / (1 - z) ** 2


def suq_normalizer_reference(u, q, prec: int) -> Interval:
    """Z(u,q) as suq_normalizer encloses it, by the full products: the depth
    rule on the Fraction tail, then each suffix product times
    f_t = (b c^t - a e^t) / (b c^t) for u = a/b, q = c/e, floored below
    and ceiled above, the head times each suffix product at the same scale,
    and the low end times the Fraction 1 - tail before the outward rounding
    to prec bits."""
    u, q = Fraction(u), Fraction(q)
    target = Fraction(1, 1 << max(prec - 16, 16))
    terms = 8
    while weierstrass_tail_fraction(u, q, terms) >= target:
        terms *= 2
    scale = prec + guard_bits(2 * terms)
    s_lo = s_hi = head_lo = head_hi = 1 << scale
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
    tail_lo = max(Fraction(0), 1 - weierstrass_tail_fraction(u, q, terms))
    shift = scale - prec
    lo = head_lo * tail_lo.numerator // (tail_lo.denominator << shift)
    return Interval(Fraction(lo, 1 << prec), Fraction(-(-head_hi >> shift), 1 << prec))


def euler_product_exact(u, q, terms: int) -> tuple[Fraction, Fraction]:
    """[head * (1 - u q^(1-terms)/(q-1)), head] with head the exact product
    of (1 - u/q^m) over m < terms."""
    u, q = Fraction(u), Fraction(q)
    head = Fraction(1)
    for m in range(terms):
        head *= 1 - u / q**m
    return head * max(Fraction(0), 1 - u * q ** (1 - terms) / (q - 1)), head


def euler_product_enclosure(u, q, prec: int) -> Interval:
    """Enclosure of E(u,q) = prod_{m>=0} (1 - u/q^m), 0 < u < 1 < q, rounded
    outward to prec bits: Z(u,q)/Z(u/q,q) = prod_{t>=1} (1 - u/q^t), so E is
    (1 - u) Z(u,q)/Z(u/q,q), from two cached suq_normalizer enclosures.
    E(u,q) u^n/(1/q)_n is P(total degree = n) under the mixed measure."""
    u, q = Fraction(u), Fraction(q)
    if not 0 < u < 1 or q <= 1:
        raise ValueError("need 0 < u < 1 < q")
    ratio = suq_normalizer(u, q, prec=prec) / suq_normalizer(u / q, q, prec=prec)
    return ((1 - u) * ratio).rounded(prec)


EXPLICIT_DEGREES = 24  # degrees high_degree_empty_direct takes as exact powers


def high_degree_empty_direct(n: int, q: int, u) -> Interval:
    """Enclosure of prod_{d>n} Z(u^d, q^d)^(N_d) built degree by degree: the
    probability that every label of degree > n is empty, the factor by which
    P(total degree = n) falls short of the sampler's acceptance probability.

    EXPLICIT_DEGREES degrees enter as explicit interval powers; the rest are
    bounded below through 1 - Z_d <= sum_t t (u^d/q^(dt)) and the geometric
    envelope N_d * (that sum) <= (q/(q-1))^2 u^d.
    """
    u = Fraction(u)
    d = n + 1 + EXPLICIT_DEGREES
    explicit = z_power_product_fraction(range(n + 1, d), q, u, DEFAULT_PREC)
    tail_deficit = Fraction(q, q - 1) ** 2 * u**d / (1 - u)
    lo = max(Fraction(0), explicit.lo * (1 - tail_deficit))
    return Interval(lo, explicit.hi)


# ---------------------------------------------------------------------------
# SplitMix64 as the scalar recurrence it was before the numpy word blocks


class ScalarSplitMix64:
    """The state advanced by the golden gamma once per word, each word
    mix64(state) computed on its own; randrange by k-bit rejection."""

    def __init__(self, seed: int):
        self._state = seed % (1 << 64)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) % (1 << 64)
        return mix64(self._state)

    def randbits(self, k: int) -> int:
        out = got = 0
        while got < k:
            out = (out << 64) | self.next_u64()
            got += 64
        return out >> (got - k)

    def randrange(self, n: int) -> int:
        k = n.bit_length()
        while True:
            v = self.randbits(k)
            if v < n:
                return v


# ---------------------------------------------------------------------------
# the S_n down-up step with corners rebuilt and weights looked up on every
# call, drawn by choose_weighted, and the S_n samplers drawn through plain
# randrange


def choose_weighted(rng, weights) -> int:
    """Index i with probability weights[i]/sum, weights exact integers: the
    first i whose running sum exceeds rng.randrange(sum)."""
    t = rng.randrange(sum(weights))
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if t < acc:
            return i
    raise AssertionError("weights exhausted")


def _choose_by_dimension_reference(rng, candidates):
    weights = [dimension_sn(c) for c in candidates]
    i = choose_weighted(rng, weights)
    return candidates[i], sum(weights)


def walk_step_reference(rng, lam: Partition) -> Partition:
    """One down-up move with exact rational thresholds."""
    n = lam.size
    mu, down_total = _choose_by_dimension_reference(rng, lam.removable_corners())
    if down_total != dimension_sn(lam):
        raise ArithmeticError(f"down-step weights of {lam} do not sum to d_lam")
    rho, up_total = _choose_by_dimension_reference(rng, mu.addable_corners())
    if up_total != n * dimension_sn(mu):
        raise ArithmeticError(f"up-step weights of {mu} do not sum to n d_mu")
    return rho


def prefix_sorted_samples_reference(n: int, r: int, count: int, seed: int,
                                    full: bool = False) -> list[Partition]:
    """walk_samples(n, r, count, seed), or plancherel_samples(n, count, seed)
    when full, on rng.randrange: r draws randrange(n) for K_r (none when
    full, where K = n), then randrange(i + 1) swaps for i = n - 1 down to
    n - K, then the RSK shape of the deck with its first n - K sorted."""
    from repwalk.rng import SplitMix64
    from repwalk.snwalk import rsk_shape

    rng, out = SplitMix64(seed), []
    for _ in range(count):
        k = n if full else 0
        for _ in range(0 if full else r):
            k += rng.randrange(n) >= k
        deck = list(range(n))
        for i in range(n - 1, n - k - 1, -1):
            j = rng.randrange(i + 1)
            deck[i], deck[j] = deck[j], deck[i]
        out.append(rsk_shape(sorted(deck[:n - k]) + deck[n - k:]))
    return out


def _stirling2_row(r: int) -> list[int]:
    """[S(r, k) for k = 0..r], Stirling numbers of the second kind, by
    S(r, k) = k S(r-1, k) + S(r-1, k-1)."""
    row = [1]
    for _ in range(r):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def walk_step_chain(n: int, r: int, count: int, seed: int) -> list[Partition]:
    """count r-step runs from (n) of the down-up chain, from one seeded
    stream: the walk whose law walk_samples draws without it.  Each step
    draws as snwalk.walk_step does, the same words, bisect and tie-break,
    on corner rows memoized here, since walk_step rebuilds its rows on
    every call."""
    from repwalk.rng import SplitMix64

    rng, out = SplitMix64(seed), []
    down: dict = {}
    up: dict = {}

    def draw(rows, key, corners):
        row = rows.get(key)
        if row is None:
            parts = corners(key)
            row = rows[key] = parts, list(accumulate(map(dimension_sn, parts)))
        parts, cum = row
        return parts[bisect_right(cum, rng.randrange(cum[-1]))]

    for _ in range(count):
        lam = Partition((n,))
        for _ in range(r):
            mu = draw(down, lam, Partition.removable_corners)
            lam = draw(up, mu, Partition.addable_corners)
        out.append(lam)
    return out


def growth_law(n: int, k: int) -> dict[Partition, Fraction]:
    """Q_k as exact Fractions: Plancherel growth run k steps from the
    one-row partition (n - k), or from the empty partition when k = n,
    each step adding rho to mu with chance d_rho / ((m+1) d_mu)."""
    q = {Partition((n - k,)) if k < n else Partition(()): Fraction(1)}
    for _ in range(k):
        grown: dict[Partition, Fraction] = {}
        for mu, p in q.items():
            den = (mu.size + 1) * dimension_sn(mu)
            for rho in mu.addable_corners():
                grown[rho] = grown.get(rho, 0) + p * Fraction(dimension_sn(rho), den)
        q = grown
    return q


def coupon_mixture_law(n: int, r: int) -> dict[Partition, Fraction]:
    """sum_k P(K_r = k) Q_k as exact Fractions, with no walk step.

    K_r is the number of distinct points among r uniform draws from [n]:
    P(K_r = k) = S(r, k) n! / ((n-k)! n^r), and Q_k is growth_law(n, k)."""
    law: dict[Partition, Fraction] = {}
    for k, s in enumerate(_stirling2_row(r)):
        if not s or k > n:
            continue
        weight = Fraction(s * math.perm(n, k), n**r)
        for rho, p in growth_law(n, k).items():
            law[rho] = law.get(rho, 0) + weight * p
    return law

# ---------------------------------------------------------------------------
# the Young lattice as it was built on plain tuples: a recursive enumeration,
# a tuple dict for ids, per-row count dicts and the hook product per partition


def _gen_partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


def young_lattice_reference(n: int):
    """The lattice of n as the tuple-dict build produced it:
    (n, parts, index, dims, off, dst, cnt), the partitions in reverse-lex
    order, their ids, dimensions and common-corner rows."""
    from array import array

    from repwalk.partitions import _hook_lengths

    parts = tuple(Partition(p) for p in _gen_partitions(n, n))
    index = {lam: i for i, lam in enumerate(parts)}
    # up[m]: ids of mu + one box, top row first, for the m-th partition mu
    # of n-1; below[i]: the m under parts[i], bottom corner first
    up: list[list[int]] = []
    below: list[list[int]] = [[] for _ in parts]
    for m, mu in enumerate(_gen_partitions(n - 1, n - 1)):
        ids = [index[mu[:j] + (mu[j] + 1,) + mu[j + 1:]]
               for j in range(len(mu)) if j == 0 or mu[j - 1] > mu[j]]
        ids.append(index[mu + (1,)])
        for i in ids:
            below[i].append(m)
        up.append(ids)
    off, dst, cnt = array("q", [0]), array("q"), array("B")
    for ms in below:
        counts: dict[int, int] = {}
        for m in ms:
            for j in up[m]:
                counts[j] = counts.get(j, 0) + 1
        dst.extend(counts)
        cnt.extend(counts.values())
        off.append(len(dst))
    n_fact = math.factorial(n)
    dims = tuple(n_fact // math.prod(_hook_lengths(lam)) for lam in parts)
    return n, parts, index, dims, off, dst, cnt


# ---------------------------------------------------------------------------
# GL threshold lookup as it was before the 64-bit first-word decision: a scan
# comparing a lazily revealed uniform with each threshold in turn


def scaled_entries(entries, prec: int) -> list:
    """(outcome, Interval) entries as a threshold builder yields them:
    (outcome, floor(lo * 2^prec), ceil(hi * 2^prec))."""
    return [(outcome, floor_scaled(iv.lo, prec), ceil_scaled(iv.hi, prec))
            for outcome, iv in entries]


def threshold_locate_reference(builder, rng):
    """Outcome of one uniform among the thresholds of builder, or
    glasymptotics._REJECT past them.

    The uniform U is revealed 64 bits at a time from its first comparison
    on.  builder(scale) yields each threshold as (outcome, lo, hi), the
    integers [lo, hi] enclosing it at scale 2^scale, for scale =
    DEFAULT_PREC << level; U < t is decided once U's known bits lie wholly
    below lo or at or above hi, and left unresolved SLACK_BITS past the
    scale, which rebuilds every threshold at the next level, up to
    MAX_DOUBLINGS.
    """
    from repwalk import glasymptotics
    from repwalk.errors import SamplerError
    from repwalk.rng import SLACK_BITS

    value = bits = 0

    def below(lo, hi, scale):
        """U < t for t in [lo, hi] / 2^scale: True, False or None (unresolved)."""
        nonlocal value, bits
        while True:
            if bits == 0:
                value, bits = rng.next_u64(), 64
            # U lies in [value, value + 1) / 2^bits; compare at the finer scale
            up, down = max(scale - bits, 0), max(bits - scale, 0)
            if (value + 1) << up <= lo << down:
                return True
            if value << up >= hi << down:
                return False
            if bits >= scale + SLACK_BITS:
                return None
            value, bits = (value << 64) | rng.next_u64(), bits + 64

    for level in range(glasymptotics.MAX_DOUBLINGS + 1):
        scale = glasymptotics.DEFAULT_PREC << level
        for outcome, lo, hi in builder(scale):
            res = below(lo, hi, scale)
            if res is None:
                break
            if res:
                return outcome
        else:
            return glasymptotics._REJECT
    raise SamplerError("threshold enclosures failed to separate a uniform draw")


# ---------------------------------------------------------------------------
# GL threshold tables and the attempt as they were before integer endpoints:
# Fraction products rounded outward after each multiply, Interval entries,
# and one locate call per table read


def pow_int_fraction(iv: Interval, k: int, prec: int) -> Interval:
    """iv^k by repeated squaring, each Fraction product rounded outward to
    prec bits."""
    out = Interval.point(1)
    base = iv
    while k:
        if k & 1:
            out = (out * base).rounded(prec)
        base = (base * base).rounded(prec)
        k >>= 1
    return out


def count_entries_fraction(ud, qd, n_labels: int, max_count: int, prec: int) -> list:
    """P(at most j of n_labels labels occupied), j <= max_count, as Fraction
    intervals: each binomial term formed exactly, the running sum rounded
    outward to prec bits."""
    z = suq_normalizer(ud, qd, prec=prec)
    occ = z.one_minus()
    out = []
    cum = Interval.point(0)
    for j in range(max_count + 1):
        pmf = math.comb(n_labels, j) * pow_int_fraction(occ, j, prec) \
            * pow_int_fraction(z, n_labels - j, prec)
        cum = (cum + pmf).rounded(prec)
        out.append((j, cum))
    return out


def z_power_product_fraction(degrees, q: int, u, prec: int) -> Interval:
    """prod_{d in degrees} Z(u^d, q^d)^(N_d) as a running Fraction interval
    product, rounded outward to prec bits after every factor."""
    out = Interval.point(1)
    for d in degrees:
        z_d = suq_normalizer(u**d, Fraction(q) ** d, prec=prec)
        out = (out * z_d.pow_int(cuspidal_count(d, q), prec)).rounded(prec)
    return out


def acceptance_probability_direct(n: int, q: int) -> Interval:
    """acceptance_probability(n, q) as it was formed before the plan kept
    its factors: each degree's P(no label occupied) read afresh as the
    first entry of _count_entries, multiplied on integer ends at scale
    2^DEFAULT_PREC, floor below and ceiling above, times u^n/(1/q)_n at the
    sampler's u."""
    from repwalk.glasymptotics import _count_entries, _rejection_u
    from repwalk.series import q_pochhammer

    u = _rejection_u(n)
    lo = hi = one = 1 << DEFAULT_PREC
    for d in range(1, n + 1):
        _, z_lo, z_hi = next(_count_entries(u**d, Fraction(q) ** d, cuspidal_count(d, q), 0,
                                            DEFAULT_PREC))
        lo = lo * z_lo >> DEFAULT_PREC
        hi = -(-hi * z_hi >> DEFAULT_PREC)
    return Interval(Fraction(lo, one), Fraction(hi, one)) * (u**n / q_pochhammer(q, n))


def component_entries_interval(ud, qd, sizes_cap: int, prec: int):
    """The component law's thresholds as Intervals: Z/(1-Z) times the
    cumulative weight, rounded outward to prec bits, over the partitions of
    1 .. sizes_cap in enumerate_partitions order."""
    z = suq_normalizer(ud, qd, prec=prec)
    ratio = z / z.one_minus()
    cum = Fraction(0)
    for m in range(1, sizes_cap + 1):
        for lam in enumerate_partitions(m):
            cum += suq_weight(ud, qd, lam)
            yield lam, (ratio * cum).rounded(prec)


def component_entries_fraction(ud, qd, sizes_cap: int, prec: int):
    """The component law's thresholds as integer ends at scale 2^prec, from a
    Fraction running sum of suq_weight, reduced at every partition: Z/(1-Z)
    times the cumulative weight, floor below and ceiling above, over the
    partitions of 1 .. sizes_cap in enumerate_partitions order, each outcome
    the partition with its size."""
    z = suq_normalizer(ud, qd, prec=prec)
    ratio = z / z.one_minus()
    lo_num, lo_den = ratio.lo.numerator, ratio.lo.denominator
    hi_num, hi_den = ratio.hi.numerator, ratio.hi.denominator
    cum = Fraction(0)
    for m in range(1, sizes_cap + 1):
        for lam in enumerate_partitions(m):
            cum += suq_weight(ud, qd, lam)
            num, den = cum.numerator << prec, cum.denominator
            yield (lam, m), lo_num * num // (lo_den * den), -(-hi_num * num // (hi_den * den))


def threshold_ends_reference(entries) -> list[int]:
    """A threshold set's 64-bit ends over (outcome, Interval) entries, as
    they were formed from the Intervals: the running maxima of
    floor(lo * 2^64) and ceil(hi * 2^64)."""
    ends = []
    for _, iv in entries:
        lo64 = max(floor_scaled(iv.lo, 64), ends[-1] if ends else 0)
        ends += (lo64, max(ceil_scaled(iv.hi, 64), lo64))
    return ends


def draw_indices_list(rng, count: int, pool: int) -> list[int]:
    """A uniform sorted count-subset of range(pool) by a partial
    Fisher-Yates shuffle of the whole list range(pool)."""
    if count == pool:
        return list(range(count))
    arr = list(range(pool))
    for i in range(count):
        j = i + rng.randrange(pool - i)
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:count])


class LocateSampler(GLPlancherelSampler):
    """The GL Plancherel sampler with every table read through its threshold
    set's locate, one call per draw, every label index drawn by
    _draw_indices, and the labels built as they are drawn."""

    def _attempt(self):
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
        assignment = []
        total = 0
        for plan, k in zip(self.plans, counts):
            if not k:
                continue
            for idx in self._draw_indices(k, plan.n_labels):
                outcome = plan.component_thresholds.locate(rng)
                if outcome is _REJECT:
                    return None
                lam, size = outcome
                assert size == lam.size
                total += plan.d * lam.size
                if total > self.n:
                    return None
                assignment.append((CuspidalLabel(plan.d, idx), lam))
        if total != self.n:
            return None
        return GLIrrep(self.n, self.q, tuple(assignment))


# ---------------------------------------------------------------------------
# exact S_n character sums, the direct way: Murnaghan-Nakayama on a sorted
# list of beta values, and the class walk as a sum of Fraction powers


@lru_cache(maxsize=1 << 15)
def mn_reference(shape: tuple, cycles: tuple) -> int:
    """chi^shape at the class of cycle lengths `cycles` (weakly decreasing):
    on the beta-set shape[i] + (len-1-i), removing a border strip of length
    k moves one beta value down by k, with sign (-1)^(values jumped over)."""
    if not cycles:
        return 1 if not shape else 0
    k = cycles[0]
    rest = cycles[1:]
    ell = len(shape)
    beta = [shape[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_shape = tuple(
            v
            for j, x in enumerate(new_beta)
            if (v := x - (ell - 1 - j)) > 0
        )
        sign = -1 if height % 2 else 1
        total += sign * mn_reference(new_shape, rest)
    return total


def class_walk_probability_reference(n: int, cycles: Partition, s: int) -> dict[Partition, Fraction]:
    """p(T) = (|T|/n!) sum_rho d_rho^2 (chi(T)/d)(chi(C)/d)^s, one Fraction
    multiply-add per (rho, T), over the package's character table."""
    from repwalk.characters import character_table

    table = character_table(n)
    ci = table.partitions.index(Partition(cycles))
    n_fact = math.factorial(n)
    dims = [dimension_sn(lam) for lam in table.partitions]
    weights = [d * Fraction(row[ci], d) ** s for d, row in zip(dims, table.values)]
    out = {}
    for tj, t in enumerate(table.classes):
        total = sum(w * row[tj] for w, row in zip(weights, table.values))
        out[t.cycle_lengths] = Fraction(t.class_size, n_fact) * total
    return out


def q_pochhammer_reference(q, r: int) -> Fraction:
    """(1/q)_r as the product of its r Fraction factors 1 - q^-k."""
    q = Fraction(q)
    out = Fraction(1)
    for k in range(1, r + 1):
        out *= 1 - q**-k
    return out


def gaussian_binomial(a: int, b: int, x: Fraction) -> Fraction:
    """[a choose b] at x: prod_{k=1}^{b} (1 - x^(a-b+k)) / (1 - x^k)."""
    x = Fraction(x)
    out = Fraction(1)
    for k in range(1, b + 1):
        out *= (1 - x ** (a - b + k)) / (1 - x**k)
    return out


def euler_partial_product(q, order: int, n_factors: int) -> TruncSeries:
    """prod_{m=0}^{n_factors-1} (1 - u/q^m)^(-1), truncated, one geometric
    factor sum_k (u/q^m)^k at a time."""
    q = Fraction(q)
    out = TruncSeries.one(order)
    for m in range(n_factors):
        out = out * TruncSeries.from_coeffs(order, [q ** (-m * k) for k in range(order + 1)])
    return out


def check_partial_product_closed_form(q: Fraction, limit: TruncSeries, series: TruncSeries,
                                      n_factors: int):
    """Raise unless coefficient n of the n_factors-factor partial product is
    limit.coeffs[n] * prod_{j<n} (1 - q^(-(n_factors+j))) for every n: the
    Gaussian binomial [n_factors+n-1, n] at 1/q when limit is the Euler
    series."""
    correction = Fraction(1)
    for n, (c, lim) in enumerate(zip(series.coeffs, limit.coeffs)):
        if c != lim * correction:
            raise ArithmeticError("partial product disagrees with its closed form")
        correction *= 1 - q ** -(n_factors + n)


def cycle_index_rhs_by_partitions(q: int, order: int) -> list[tuple[Fraction, ...]]:
    """cycle_index_rhs as a product over cuspidal labels of per-partition
    weight sums: a degree-d label's u^(d s) coefficient is the sum of
    suq_weight(1, q^d, lam) over the partitions of s, the cuspidal_count(d, q)
    labels of degree d give one series power, and the unit label, tracked by
    t, is left out of it."""
    rest = TruncSeries.one(order)
    marked = [Fraction(1)]
    for d in range(1, order + 1):
        qd = Fraction(q) ** d
        by_size = [Fraction(1)] + [
            sum(suq_weight(1, qd, lam) for lam in enumerate_partitions(size))
            for size in range(1, order // d + 1)
        ]
        copies = cuspidal_count(d, q)
        if d == 1:
            marked = by_size
            copies -= 1
        plain = [Fraction(0)] * (order + 1)
        plain[::d] = by_size
        rest = rest * TruncSeries(order, tuple(plain)) ** copies
    out = []
    for i in range(order + 1):
        poly = [marked[k] * rest.coeffs[i - k] for k in range(i + 1)]
        while len(poly) > 1 and not poly[-1]:
            poly.pop()
        out.append(tuple(poly))
    return out


def reference_walk(n: int, start: Partition, rmax: int) -> list[dict[Partition, Fraction]]:
    """[masses after r steps for r = 0..rmax], stepped as Fraction dicts by
    the package's kernel_downup, with no lattice count vector or engine."""
    from repwalk.snwalk import kernel_downup

    kernel = kernel_downup(n)
    masses = {start: Fraction(1)}
    out = [masses]
    for _ in range(rmax):
        masses = kernel.apply_dist(masses)
        out.append(masses)
    return out


def lattice(n: int):
    """Level n of the package's lattice, as the tests read it: n, the dims
    of _dims(n), the down edges below/down_off of _complete_level(n) and
    the up edges above/up_off that _up_edges turns from them, the fields
    apply_counts reads."""
    from types import SimpleNamespace

    from repwalk.partitions import _complete_level, _dims, _up_edges

    level = _complete_level(n)
    above, up_off = _up_edges(level.below, level.down_off)
    return SimpleNamespace(n=n, dims=_dims(n), below=level.below, down_off=level.down_off,
                           above=above, up_off=up_off)


def apply_counts(lat, w):
    """A w = D (D^T w) on lat = lattice(n), in w's own arithmetic (exact on
    Python ints): the first segment sum takes each partition of n-1 to the
    total of w over the lam above it, the second each lam to the total of
    those over the partitions below it.  For n >= 1 no segment is empty.
    The exact engine stepped its walk with it before its TVs were read off
    the path counts; _FloatEngine.step adds in its order on jagged
    tables."""
    import numpy as np

    return np.add.reduceat(np.add.reduceat(w[lat.above], lat.up_off[:-1])[lat.below],
                           lat.down_off[:-1])


def exact_law_tv(n: int, law) -> Fraction:
    """The TV to Plancherel measure of an exact law (a, den), rho's mass
    d_rho a_rho / den, as the exact engine read it off a stepped law: the
    sum of the positive u_rho = d_rho a_rho n! - d_rho^2 den over den n!, in
    object arrays.  sum_rho d_rho a_rho = den and sum_rho d_rho^2 = n!, so
    the u sum to 0, which is asserted."""
    import numpy as np

    from repwalk.partitions import _dims

    a, den = law
    dims, n_fact = np.array(_dims(n), dtype=object), math.factorial(n)
    u = dims * n_fact * a - dims * dims * den
    assert u.sum() == 0
    return Fraction(u[u > 0].sum(), den * n_fact)


def exact_reference_walk(n: int, start: Partition):
    """The exact laws (a, den) after 0, 1, 2, ... steps from start, a = A^r e_s
    and den = n^r d_s, stepped by apply_counts on lattice(n): the stepped
    walk the exact engine's one-pass law and path counts replaced."""
    import numpy as np

    lat = lattice(n)
    s = partition_id(start)
    a = np.zeros(len(lat.dims), dtype=object)
    a[s] = 1
    den = lat.dims[s]
    while True:
        yield a, den
        a = apply_counts(lat, a)
        den *= n


def _float_walk(lat, start: Partition, step):
    """The float laws (d_rho / d_s) w after 0, 1, 2, ... steps w <- step(w)
    from w = e_s, s the id of start."""
    import numpy as np

    dims = np.array(lat.dims, dtype=float)
    s = partition_id(start)
    scale = dims / dims[s]
    w = np.zeros(len(dims))
    w[s] = 1.0
    while True:
        yield scale * w
        w = step(w)


def float_reference_walk(n: int, start: Partition):
    """The float laws after 0, 1, 2, ... steps from start, stepped as
    w <- A w / n by the two np.add.reduceat segment sums over the lattice's
    CSR edges, with no corner tables: the float step before the corner
    tables, whose addition order fixes the last digits of every law."""
    lat = lattice(n)
    return _float_walk(lat, start, lambda w: apply_counts(lat, w) / n)


def float_law_reference(n: int, r: int, s: int = 0):
    """The float law after r steps from id s by Horner's rule up the
    complete levels, each U one np.add.reduceat over the level's CSR edges
    in lattice-id order: the float law before it ran on jagged rows, which
    adds as reduceat does while no partition has more than 8 below it.  The
    counts D^(n-j) e_s come from one down pass of np.add.at in doubles, and
    the dimensions are rounded once through an object array."""
    import numpy as np

    from repwalk.partitions import _complete_level, _dims
    from repwalk.snwalk import _stirling_row

    levels = [_complete_level(j) for j in range(n + 1)]
    x = np.zeros(len(levels[-1].dims))
    x[s] = 1.0
    counts = [x]
    for level, lower in zip(levels[:0:-1], levels[-2::-1]):
        x = np.zeros(len(lower.dims))
        np.add.at(x, level.below, np.repeat(counts[-1], np.diff(level.down_off)))
        counts.append(x)
    counts.reverse()
    coeffs = [c / n**r for c in _stirling_row(r, n)]
    y = np.zeros(1)
    for j, level in enumerate(levels):
        if j:
            y = np.add.reduceat(y[level.below], level.down_off[:-1])
        y += coeffs[n - j] * counts[j]
    dims = np.array(_dims(n), dtype=object).astype(float)
    return dims / dims[s] * y


def per_curve_down_table(n: int):
    """(down, ids) as the float step built them for each curve before they
    were cached per level: the partitions of n-1 sorted stably by how many
    lie above each, most first, then the jagged rows of level n's down
    edges by their place in that sort, with the lam sorted stably by how
    many lie below, and ids taking that sort back to lattice ids."""
    from repwalk.snwalk import _inverse, _jagged_rows

    lat = lattice(n)
    mu_order, _ = _jagged_rows(lat.above, lat.up_off)
    lam_order, down = _jagged_rows(lat.below, lat.down_off, _inverse(mu_order))
    return down, _inverse(lam_order)


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: a double formed from exact
    nonnegative values by k roundings of sums and products lies within
    relative gamma_k of its exact value (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3)."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def float_law_relerr(n: int, r: int) -> float:
    """An a priori bound on |h - s| / s for each mass of the one-r float law
    h (the Horner pass) and the stepped float law s, r steps on the
    partitions of n, from the sum lengths alone.  Every term is
    nonnegative, and m terms summed in any order cost m - 1 roundings, so a
    mass carries at most gamma_K, K the roundings on its longest chain:
      - stepped: per step one sum of at most `up` terms, one of at most
        `down` terms and one division by n;
      - Horner: per level j the down pass sums at most u_j terms and the up
        pass at most d_j, and one term is added; each coefficient is rounded
        once and multiplied by its count once;
      - either then scales by dims / d_s: two dims rounded from their
        integers, one quotient and one product.
    h = x(1 + a) and s = x(1 + b) give |h - s| <= (gamma_Kh + gamma_Ks) x,
    and x <= s / (1 - gamma_Ks)."""
    import numpy as np

    from repwalk.partitions import _complete_level

    lat = lattice(n)
    k_s = r * (int(np.diff(lat.up_off).max()) + int(np.diff(lat.down_off).max()) - 1) + 4
    k_h = 2 + 4
    for j in range(1, n + 1):
        level = _complete_level(j)
        k_h += int(np.bincount(level.below).max()) + int(np.diff(level.down_off).max()) - 1
    return (gamma(k_h) + gamma(k_s)) / (1 - gamma(k_s))


def float_tv_gap(n: int, r: int) -> float:
    """An a priori bound on the gap between the float TVs of the two laws
    of float_law_relerr: half the sum of |h - s| is at most that relerr, as
    the masses s sum to 1 up to far less than 1, and each TV sums p(n)
    rounded differences |law - pi| of total at most 2 by numpy's pairwise
    sum, blocks of at most 128 terms on 8 sequential accumulators (15 + 3
    roundings a term) halved above that, so each lies within
    gamma_(ceil(log2 p(n)) + 19) of its exact sum, which is at most 1."""
    p = len(enumerate_partitions(n))
    return float_law_relerr(n, r) + 2 * gamma(math.ceil(math.log2(p)) + 19)


def padded_float_step(n: int):
    """w -> A w / n through dense padded corner tables, the float step before
    the jagged ones: up[:, m] lists the lam above the m-th partition of n-1
    and down[:, i] the partitions below lam_i, in the lattice's CSR order,
    each padded to the longest with the index of one 0.0 appended to the
    vector it gathers from.  A half-step is one gather and one sum down the
    corner axis, g[0] + g[1:].sum(axis=0), which numpy adds row by row."""
    import numpy as np

    lat = lattice(n)

    def table(targets, off, pad):
        counts = np.diff(off)
        out = np.full((counts.max(), len(counts)), pad, dtype=np.intp)
        for j, row in enumerate(out):
            has = np.flatnonzero(counts > j)
            row[has] = targets[off[has] + j]
        return out

    up = table(lat.above, lat.up_off, len(lat.dims))
    down = table(lat.below, lat.down_off, up.shape[1])

    def step(w):
        g = np.append(w, 0.0)[up]
        g = np.append(g[0] + g[1:].sum(axis=0), 0.0)[down]
        return (g[0] + g[1:].sum(axis=0)) / n

    return step


def padded_reference_walk(n: int, start: Partition):
    """The float laws after 0, 1, 2, ... steps from start, stepped by
    padded_float_step(n)."""
    return _float_walk(lattice(n), start, padded_float_step(n))


def common_corner_matrix(n: int):
    """A = D D^T on the lattice of n, an array of Python ints in lattice-id
    order: the exact step apply_counts applied to the identity."""
    import numpy as np

    lat = lattice(n)
    return apply_counts(lat, np.eye(len(lat.dims), dtype=np.int64)).astype(object)


def _character_matrix(n: int):
    """The character table X of S_n as an array of Python ints, rows lam and
    columns C in lattice-id order, and the classes of its columns."""
    import numpy as np

    from repwalk.characters import character_table

    table = character_table(n)
    return np.array(table.values, dtype=object), table.classes


def pieri_sides(n: int):
    """(n! A, X diag(|C| fp(C)) X^T), the walk's own step against the
    Murnaghan-Nakayama table.  The second is n! mult(rho in lam (x) eta) at
    (lam, rho), so the two are equal exactly when every tensor multiplicity
    with the defining representation eta is a common-corner count, Pieri's
    rule, and the down-up kernel A(lam, rho) d_rho / (n d_lam) is the
    tensor-product kernel."""
    import numpy as np

    x, classes = _character_matrix(n)
    w = np.array([c.class_size * c.fixed_points for c in classes], dtype=object)
    return math.factorial(n) * common_corner_matrix(n), (x * w) @ x.T


def spectrum_sides(n: int):
    """(A X, X diag(fp(C))).  They are equal exactly when, for every class
    C, g_C(rho) = chi^rho(C)/d_rho solves K g_C = (fp(C)/n) g_C, K the
    Doob transform of A: the walk's eigenvalues are fixed_points/n."""
    import numpy as np

    x, classes = _character_matrix(n)
    return common_corner_matrix(n) @ x, x * np.array([c.fixed_points for c in classes], dtype=object)
