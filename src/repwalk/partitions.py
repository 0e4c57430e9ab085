"""Integer partitions, hooks, corners, and symmetric-group dimensions.

A partition is a weakly decreasing tuple of positive integers; it indexes
irreducible representations of S_n, conjugacy classes of S_n, and the
components of GL(n,q) irreducible families.  The canonical text encoding
joins parts with "+" ("3+2+1"); the empty partition encodes as "-".
The partitions of n are generated once, by counting, in reverse-
lexicographic order, each from a partition of a smaller size with one
first row added, and carry down that recursion their conjugates, hook
products and down edges.  enumerate_partitions makes tuples of their rows
as a zero-padded int8 matrix (so n stops at 127); the Young lattice numbers
them, in read-only int64 arrays built with numpy and no tuple, and records
which partitions of n-1 lie below each, by the numbers partition_id gives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError

# sizes kept by the per-size caches (enumerate_partitions here,
# characters.enumerate_classes): more than the FLOAT_LIMIT + 1 = 41 sizes a
# float sweep up to snwalk.FLOAT_LIMIT cycles through
SIZE_CACHE_SIZE = 64
# dimensions kept.  snwalk.walk_step reads those of the partitions of n and
# n - 1, and sn-walk --start one; 1 << 14 holds both levels whole for every
# n <= 32 (p(32) + p(31) = 15191), and the samplers read none
DIMENSION_CACHE_SIZE = 1 << 14


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def transpose(self) -> "Partition":
        # the column lengths of a valid partition are one
        return tuple.__new__(Partition, _columns(self))

    def n_stat(self) -> int:
        """sum_i (i-1)*parts[i], rows indexed from 1."""
        return sum(i * p for i, p in enumerate(self))

    def hooks(self) -> tuple[int, ...]:
        """Multiset of hook lengths parts[i] + transpose[j] - i - j - 1 (0-based),
        largest first."""
        return tuple(sorted(_hook_lengths(self), reverse=True))

    # A box added or removed at a corner of a valid partition leaves a valid
    # one, so the corner methods build their results without the checks.

    def removable_corners(self) -> list["Partition"]:
        """Partitions of size-1 obtained by deleting one corner box, in
        reverse-lex order: bottom corner first."""
        out = []
        for i in range(len(self) - 1, -1, -1):
            p = self[i]
            if i + 1 < len(self) and self[i + 1] == p:
                continue
            shorter = (p - 1,) if p > 1 else ()
            out.append(tuple.__new__(Partition, self[:i] + shorter + self[i + 1:]))
        return out

    def addable_corners(self) -> list["Partition"]:
        """Partitions of size+1 obtained by adding one corner box, in
        reverse-lex order: top row first."""
        out = [tuple.__new__(Partition, self[:i] + (self[i] + 1,) + self[i + 1:])
               for i in range(len(self)) if i == 0 or self[i - 1] > self[i]]
        out.append(tuple.__new__(Partition, self + (1,)))
        return out

    def to_string(self) -> str:
        return "+".join(str(p) for p in self) if self else "-"

    @classmethod
    def from_string(cls, s: str) -> "Partition":
        s = s.strip()
        if s == "-" or s == "":
            return cls(())
        return cls(int(tok) for tok in s.split("+"))

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition(())


class YoungLattice(NamedTuple):
    """Partitions of n as integer ids, their dimensions and containment edges.

    Ids follow enumerate_partitions(n), as characters.enumerate_classes does,
    so they number the conjugacy classes of S_n too; partition_id(lam) is
    the id of lam, and the lattice holds no partitions of its own.  The
    edges are the nonzero entries of D, the p(n) x p(n-1) containment
    matrix (D[lam, mu] = 1 when mu is lam less one corner box), kept as
    read-only int64 numpy CSR arrays in both directions:
    below[down_off[i]:down_off[i+1]] lists the ids of the partitions of n-1
    under the partition with id i, bottom corner first, and
    above[up_off[m]:up_off[m+1]] the ids of the lam over the partition of
    n-1 with id m, in id order (top row first).  The partitions of n-1 are
    numbered as in young_lattice(n-1), by partition_id.  The down-up
    chain's common-corner matrix is A = D D^T, so a step is two segment
    sums through the partitions of n-1.  Every field is read-only (a write
    into an array raises ValueError), as the cache hands the same lattice to
    every caller.  Sizes past 127 raise CapacityError.

    young_lattice builds it from level n of the counted partition recursion
    (_grow), which carries each partition's hook product and down edges
    with it: dims are n! // the hook products, and above is below sorted
    stably, with up_off its counts.
    """

    n: int
    dims: tuple[int, ...]
    below: np.ndarray
    down_off: np.ndarray
    above: np.ndarray
    up_off: np.ndarray


# parts are stored as int8
_MAX_PART = 127


def _check_lattice_size(n: int) -> None:
    if n > _MAX_PART:
        raise CapacityError("Young lattice size", n, _MAX_PART)


@lru_cache(maxsize=_MAX_PART + 1)
def _bounded_counts(j: int) -> tuple[int, ...]:
    """N(j, k) for k = 0..j, the number of partitions of j with no part
    above k: N(j, 0) is 1 for j = 0 and 0 otherwise, and
    N(j, k) = N(j, k-1) + N(j-k, min(k, j-k)), those with a part k counted
    by removing one."""
    row = [int(j == 0)]
    for k in range(1, j + 1):
        row.append(row[-1] + _bounded_counts(j - k)[min(k, j - k)])
    return tuple(row)


def partition_id(lam) -> int:
    """The id of the partition lam in young_lattice(|lam|), its place in
    enumerate_partitions order, ranked by counting (Nijenhuis and Wilf,
    Combinatorial Algorithms, 1978): p(n) - 1 less the partitions after
    lam, which agree with it on some first parts and have a smaller next
    part, N(m, lam_i - 1) of them for the m boxes from part i on.  Anything
    but a Partition is checked as Partition checks it."""
    if type(lam) is not Partition:
        lam = Partition(lam)
    n = sum(lam)
    _check_lattice_size(n)
    after, m = 0, n
    for p in lam:
        after += _bounded_counts(m)[p - 1]
        m -= p
    return _bounded_counts(n)[n] - 1 - after


class _Level(NamedTuple):
    """Level j of the partition recursion: the partitions of j with no part
    above some top, in reverse-lexicographic order, which are the last
    `rows` partitions of j.  A field the build did not ask for is None.

    parts holds them as zero-padded int8 rows of j + 1 columns; conj their
    conjugates, top by rows in int8, so conj[c, i] is the length of column
    c of row i and a column's lengths are contiguous; hooks their hook
    products, int64 up to SMALL_SIZE and Python ints past it;
    below[down_off[i]:down_off[i+1]] the ids of the partitions of j-1 under
    row i, numbered among all of them, bottom corner first."""

    rows: int
    parts: np.ndarray | None
    conj: np.ndarray | None
    hooks: np.ndarray | None
    below: np.ndarray | None
    down_off: np.ndarray | None


def _grow(j: int, top: int, stack: list[_Level], parts=False, lattice=False,
          last=False) -> _Level:
    """Level j with no part above top, from the levels stack[j-f] below it.

    For first parts f from top down to 1 it lists f over nu, for nu the last
    N(j-f, f) rows of level j-f, the partitions of j-f with no part above f
    (so stack[j-f] must hold those).  Each row carries down:
      - its conjugate, nu' plus one in the first f columns;
      - its hook product, H(nu) prod_{c<f} (f - c + nu'_c), the first row's
        hooks (Frame, Robinson and Thrall, 1954);
      - its down edges: nu's own, as ids of (f, mu) in level j-1, which are
        nu's ids less the p(j-f-1) - N(j-f-1, f) partitions of j-f-1 that
        have a part above f, plus the p(j-1) - N(j-1, f) partitions of j-1
        with a first part above f; then the first-row edge (f-1, nu), which
        only the last N(j-f, f-1) rows have, and whose ids run on from
        p(j-1) - N(j-1, f-1).
    A last level (the one asked for) keeps no conjugates and int64 edges."""
    counts = _bounded_counts
    rows = counts(j)[top]
    plan, edges = [], 0
    for f in range(top, 0, -1):
        src = stack[j - f]
        k = counts(j - f)[min(f, j - f)]
        m = counts(j - f)[min(f - 1, j - f)]
        s0 = src.rows - k
        plan.append((f, src, s0, k, m))
        if lattice:
            edges += int(src.down_off[-1] - src.down_off[s0]) + m
    out_parts = np.zeros((rows, j + 1), np.int8) if parts else None
    conj = hooks = below = down_off = None
    if lattice:
        prev = counts(j - 1)
        index = np.int64 if last or max(edges, prev[-1]) >> 31 else np.int32
        below = np.empty(edges, index)
        own = np.empty(edges - sum(m for *_, m in plan), index)  # nu's edges, shifted
        down_off = np.zeros(rows + 1, index)
        hooks = np.ones(rows, np.int64 if j <= SMALL_SIZE else object)  # H(()) = 1
        if not last:
            conj = np.zeros((top, rows), np.int8)
        per = 1  # each hook factor is at most j: per of them fit in int64
        while per < j and j ** (per + 1) < 1 << 63:
            per += 1
        down = np.arange(j, 0, -1)[:, None]  # f - c is down[j - f + c]
    r = e = 0
    firsts = []  # per block: its first row with a first-row edge, that edge's id, m
    for f, src, s0, k, m in plan:
        if parts:
            out_parts[r:r + k, 0] = f
            out_parts[r:r + k, 1:j - f + 2] = src.parts[s0:]
        if lattice:
            w = min(f, j - f)  # nu'_c = 0 from column w on
            nu = src.conj[:w, s0:]
            if conj is not None:
                conj[:f, r:r + k] = 1
                conj[:w, r:r + k] += nu
            fac = nu + down[j - f:j - f + w]
            # the f first-row hooks sum to S, so by AM-GM their product is
            # at most (S / f)^f: below 2^63 it is one int64 run
            if (f * (f + 1) // 2 + j - f) ** f < f ** f << 63:
                runs = [fac.prod(axis=0) * math.factorial(f - w)]
            else:
                runs = [fac[c:c + per].prod(axis=0) for c in range(0, w, per)]
                runs += [math.factorial(f - w)] if f > w else []
            h = hooks[r:r + k]
            np.multiply(src.hooks[s0:], runs[0], out=h, dtype=hooks.dtype)
            for run in runs[1:]:
                h *= run
            a = int(src.down_off[s0])
            np.add(src.down_off[s0:], e - a, out=down_off[r:r + k + 1], dtype=index)
            shift = 0
            if f < j:
                low = counts(j - f - 1)
                shift = prev[-1] - prev[f] - low[-1] + low[min(f, j - f - 1)]
            e_next = e + int(src.down_off[-1]) - a
            np.add(src.below[a:], shift, out=own[e:e_next], dtype=index)
            e = e_next
            firsts.append((r + k - m, prev[-1] - prev[f - 1], m))
        r += k
    if lattice:
        # the first-row edges go after each row's own, shifting the rows after
        start, first_id, m = np.array(firsts, np.int64).reshape(-1, 3).T
        rank = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        owners = rank + np.repeat(start, m)
        lift = np.zeros(rows + 1, index)
        lift[owners + 1] = 1
        down_off += np.cumsum(lift, out=lift)
        at = down_off[owners + 1] - 1
        keep = np.ones(edges, bool)
        keep[at] = False
        below[keep] = own
        below[at] = rank + np.repeat(first_id, m)
    return _Level(rows, out_parts, conj, hooks, below, down_off)


# sizes whose levels are built whole, with every field, and cached, each
# from the cached levels below it when first asked for: below it a build
# costs more in numpy calls than in rows, and these are the sizes exact
# walks and the GL sampler use
SMALL_SIZE = 20


@lru_cache(maxsize=SMALL_SIZE + 1)
def _small_level(j: int) -> _Level:
    level = _grow(j, j, [_small_level(i) for i in range(j)], parts=True, lattice=True)
    for a in level[1:]:
        a.flags.writeable = False  # shared by every later call
    return level


def _level(n: int, lattice: bool) -> _Level:
    """The partitions of n, complete, with their parts, or with their hook
    products and down edges if lattice.  Up to SMALL_SIZE this is the cached
    level.  Past it, level n takes every first part and a level j < n is
    read only for first parts up to n - j, so it keeps those up to
    min(j, n - j)."""
    if n <= SMALL_SIZE:
        return _small_level(n)
    stack = [_small_level(j) for j in range(SMALL_SIZE + 1)]
    for j in range(SMALL_SIZE + 1, n + 1):
        stack.append(_grow(j, min(j, n - j) if j < n else n, stack,
                           parts=not lattice, lattice=lattice, last=j == n))
    return stack[n]


def _partition_matrix(n: int) -> np.ndarray:
    """The partitions of n in reverse-lexicographic order as the rows of a
    zero-padded int8 matrix with one zero column past the longest, (1^n)."""
    return _level(n, lattice=False).parts


@lru_cache(maxsize=SIZE_CACHE_SIZE)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first: the
    rows of _partition_matrix(n) as Partition tuples, built without the
    checks, since each row is a partition.  The rows with k parts are cut
    to their first k columns in one numpy call, so no pad is listed.  Sizes
    past 127 raise CapacityError before any work."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_lattice_size(n)
    mat = _partition_matrix(n)
    lengths = np.count_nonzero(mat, axis=1)
    parts = [None] * len(mat)
    new = tuple.__new__
    for k in range(n + 1):
        ids = np.flatnonzero(lengths == k)
        for i, row in zip(ids.tolist(), mat[ids, :k].tolist()):
            parts[i] = new(Partition, row)
    return tuple(parts)


# four entries, as _float_engine keeps: a cached float engine steps its own
# jagged tables but holds its lattice for n and the dimensions, so a
# lattice kept here for one of them costs no memory of its own
@lru_cache(maxsize=4)
def young_lattice(n: int) -> YoungLattice:
    """The cached Young lattice of size n, read off level n of the counted
    recursion, as YoungLattice says."""
    _check_lattice_size(n)
    level = _level(n, lattice=True)
    dims = tuple((math.factorial(n) // level.hooks).tolist())
    rows = level.rows
    below = level.below.astype(np.int64, copy=False)
    down_off = level.down_off.astype(np.int64, copy=False)
    del level  # the hook products
    # stable, so the lam above one mu stay in id order; ids below p(39)
    # fit int16, which numpy sorts by radix
    lower = _bounded_counts(n - 1)[-1]  # p(-1) = 0
    order = np.argsort(below.astype(np.int16) if lower < 1 << 15 else below, kind="stable")
    above = np.repeat(np.arange(rows), np.diff(down_off))[order]
    up_off = np.zeros(lower + 1, np.int64)
    np.cumsum(np.bincount(below, minlength=lower), out=up_off[1:])
    edges = below, down_off, above, up_off
    for a in edges:
        a.flags.writeable = False
    return YoungLattice(n, dims, *edges)


def _columns(lam: tuple[int, ...]) -> list[int]:
    """The column lengths of a plain weakly decreasing tuple: column j has
    length i for lam[i] <= j < lam[i-1], with lam[len(lam)] = 0."""
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        cols += [i] * (lam[i - 1] - len(cols))
    return cols


def _hook_lengths(lam: tuple[int, ...]) -> list[int]:
    """The hook lengths of a plain weakly decreasing tuple, row by row."""
    cols = _columns(lam)
    return [cols[j] - j + p - i - 1 for i, p in enumerate(lam) for j in range(p)]


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def dimension_sn(lam: Partition) -> int:
    """Hook-length formula: |lam|! / prod of hooks, always an exact integer."""
    lam = Partition(lam)
    num = math.factorial(lam.size)
    den = math.prod(_hook_lengths(lam))
    if num % den:
        raise ArithmeticError(f"hook product does not divide {lam.size}! for {lam}")
    return num // den


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent of enumeration), 0 for n < 0."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n] if n >= 0 else 0
