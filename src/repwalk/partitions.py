"""Integer partitions, hooks, corners, and symmetric-group dimensions.

A partition is a weakly decreasing tuple of positive integers; it indexes
irreducible representations of S_n, cycle types in S_n, and the
components of GL(n,q) irreducible families.  The canonical text encoding
joins parts with "+" ("3+2+1"); the empty partition encodes as "-".
The partitions of n are generated by counting, in reverse-lexicographic
order, each from a partition of a smaller size with one first row added.
enumerate_partitions runs that recursion on plain tuples; the cached
levels of Young's lattice (_complete_level) run it on their down edges
alone, in numpy, numbering the partitions in read-only arrays with no
tuple, recording which partitions of n-1 lie below each, by partition_id,
and summing the dimensions up those edges by the branching rule.  Every
level keeps its edges in int16 ids and int32 offsets, as the walk laws
gather through their own rows (snwalk._sorted_level).  _dims reads a
level's dimensions, and _up_edges turns its down edges around.
Sizes past 127 (_MAX_PART) are refused.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import CapacityError

# sizes kept by the per-size caches (enumerate_partitions here,
# characters.fixed_point_profile): more than the FLOAT_LIMIT + 1 = 41 sizes
# a float sweep up to snwalk.FLOAT_LIMIT cycles through
SIZE_CACHE_SIZE = 64
# dimensions kept.  snwalk.walk_step reads those of the partitions of n and
# n - 1; 1 << 14 holds both levels whole for every n <= 32 (p(32) + p(31) =
# 15191).  The samplers read none, and sn-walk --start reads d_s off its engine
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
        return "+".join(map(str, self)) if self else "-"

    @classmethod
    def from_string(cls, s: str) -> "Partition":
        s = s.strip()
        if s == "-" or s == "":
            return cls(())
        try:
            parts = [int(tok) for tok in s.split("+")]
        except ValueError:
            raise ValueError(f"bad partition {s!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition(())


# the largest size ranked or enumerated: _bounded_counts recurses once per
# size below n and its cache holds every size up to this one, and no
# enumeration is feasible that far, as p(127) is about 3.9e9
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
    """The id of the partition lam among the partitions of |lam|: its row in
    _complete_level(|lam|) and its place in enumerate_partitions order,
    ranked by counting (Nijenhuis and Wilf, Combinatorial Algorithms,
    1978): p(n) - 1 less the partitions after lam, which agree with it on
    some first parts and have a smaller next part, N(m, lam_i - 1) of them
    for the m boxes from part i on.  Anything but a Partition is checked as
    Partition checks it."""
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
    """Level j of the lattice's partition recursion: the p(j) partitions of
    j in reverse-lexicographic order, held by their lattice fields alone.

    dims holds their dimensions; below[down_off[i]:down_off[i+1]] the ids
    of the partitions of j-1 under row i, bottom corner first, below in
    int16 and down_off in int32."""

    dims: np.ndarray
    below: np.ndarray
    down_off: np.ndarray


def _grow(j: int, stack: list[_Level]) -> _Level:
    """Level j from the levels stack[j-f] below it.

    For first parts f from j down to 1 it lists f over nu, for nu the last
    N(j-f, f) rows of level j-f, the partitions of j-f with no part above f.
    A row's down edges are nu's own, as ids of (f, mu) in level j-1, which
    are nu's ids less the p(j-f-1) - N(j-f-1, f) partitions of j-f-1 that
    have a part above f, plus the p(j-1) - N(j-1, f) partitions of j-1
    with a first part above f; then the first-row edge (f-1, nu), which
    only the last N(j-f, f-1) rows have, and whose ids run on from
    p(j-1) - N(j-1, f-1).  The level keeps below in int16 and down_off in
    int32: every id is below p(39) = 31185 < 2^15 and every offset below
    2^31.  The dimensions are level j-1's summed over the edges, by the
    branching rule d(lam) = sum of d(mu) over the mu under lam (Stanley,
    Differential posets, JAMS 1, 1988)."""
    counts = _bounded_counts
    rows = counts(j)[j]
    plan, edges = [], 0
    for f in range(j, 0, -1):
        src = stack[j - f]
        k = counts(j - f)[min(f, j - f)]
        m = counts(j - f)[min(f - 1, j - f)]
        s0 = len(src.dims) - k
        plan.append((f, src, s0, k, m))
        edges += int(src.down_off[-1] - src.down_off[s0]) + m
    prev = counts(j - 1)
    below = np.empty(edges, np.int16)
    own = np.empty(edges - sum(m for *_, m in plan), np.int16)  # nu's edges, shifted
    down_off = np.zeros(rows + 1, np.int32)
    r = e = 0
    firsts = []  # per block: its first row with a first-row edge, that edge's id, m
    for f, src, s0, k, m in plan:
        a = int(src.down_off[s0])
        np.add(src.down_off[s0:], e - a, out=down_off[r:r + k + 1], dtype=np.int64)
        shift = 0
        if f < j:
            low = counts(j - f - 1)
            shift = prev[-1] - prev[f] - low[-1] + low[min(f, j - f - 1)]
        e_next = e + int(src.down_off[-1]) - a
        np.add(src.below[a:], shift, out=own[e:e_next], dtype=np.int64)
        e = e_next
        firsts.append((r + k - m, prev[-1] - prev[f - 1], m))
        r += k
    # the first-row edges go after each row's own, shifting the rows after
    start, first_id, m = np.array(firsts, np.int64).reshape(-1, 3).T
    rank = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    owners = rank + np.repeat(start, m)
    lift = np.zeros(rows + 1, np.int64)
    lift[owners + 1] = 1
    down_off += np.cumsum(lift, out=lift)
    at = down_off[owners + 1] - 1
    keep = np.ones(edges, bool)
    keep[at] = False
    below[keep] = own
    below[at] = rank + np.repeat(first_id, m)
    del own, keep  # freed before the dimensions are gathered
    if not j:
        return _Level(np.ones(1, np.int64), below, down_off)  # d(()) = 1
    # the d^2 sum to j!, so while j! < 2^126 every d, and every partial sum
    # of a segment, is below 2^63: int64 up to j = 33, Python ints past it
    dtype = np.int64 if math.factorial(j) < 1 << 126 else object
    dims = np.add.reduceat(stack[-1].dims[below].astype(dtype, copy=False), down_off[:-1])
    return _Level(dims, below, down_off)


# the largest level kept complete, each built when first asked for: every
# size a walk law reads in one pass over the levels 0..n
# (snwalk.EXACT_KERNEL_LIMIT and snwalk.FLOAT_LIMIT), and so the largest n
# whose dimensions _dims, plancherel_sn and the character tables' check
# read.  The levels 0..36 hold 3.7 MB and the levels 0..40 10.7 MB
# (tracemalloc), most of it the dimensions, Python ints past j = 33, and
# the edges
LEVEL_LIMIT = 40


@lru_cache(maxsize=LEVEL_LIMIT + 1)
def _complete_level(j: int) -> _Level:
    """The partitions of j, complete, with their dimensions and down edges,
    built from the complete levels below it.  A size below 0 or past
    LEVEL_LIMIT is refused before any level is built."""
    if j < 0:
        raise ValueError("n must be non-negative")
    if j > LEVEL_LIMIT:
        raise CapacityError("Young lattice level", j, LEVEL_LIMIT)
    level = _grow(j, [_complete_level(i) for i in range(j)])
    for a in level:
        a.flags.writeable = False  # shared by every later call
    return level


def _dims(n: int) -> tuple[int, ...]:
    """The dimensions of the partitions of n in id order, level n's, as
    Python ints."""
    return tuple(_complete_level(n).dims.tolist())


@lru_cache(maxsize=SIZE_CACHE_SIZE)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first, by the
    lattice's counted recursion on plain tuples: level j lists f over the
    last N(j-f, min(f, j-f)) tuples of level j-f, f from its top down, the
    top being n at level n and min(j, n - j) below it.  Level n's entries
    are built as Partitions, without the checks and with no tuple copy of
    the level.  Sizes past 127 raise CapacityError before any work."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_lattice_size(n)
    levels = [[EMPTY]]  # level 0 is level n at n = 0
    for j in range(1, n + 1):
        # tuple() hands a tuple back as it is; level n is built as Partitions
        make = tuple if j < n else partial(tuple.__new__, Partition)
        level = []
        for f in range(min(j, n - j) if j < n else n, 0, -1):
            src = levels[j - f]
            tail = src[len(src) - _bounded_counts(j - f)[min(f, j - f)]:]
            level += [make((f, *nu)) for nu in tail]
        levels.append(level)
    return tuple(levels[n])


def _up_edges(below: np.ndarray, down_off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(above, up_off), a level's down edges turned around, read-only as
    they are: above[up_off[m]:up_off[m+1]] lists the ids of the lam over the
    partition of n-1 with id m, in id order (top row first).  Every
    partition of n-1 has a lam above, so bincount counts all.  above holds
    the ids in int16 while p(n) < 2^15 (n <= 39) and in int32 past it: only
    the float step's jagged up rows read it in bulk, and they are built in
    intp."""
    counts = np.bincount(below)
    # stable, so the lam above one mu stay in id order; numpy sorts the
    # int16 ids by radix
    order = np.argsort(below, kind="stable")
    ids = np.arange(len(down_off) - 1, dtype=np.int16 if len(down_off) <= 1 << 15 else np.int32)
    edges = (np.repeat(ids, np.diff(down_off))[order], np.concatenate([[0], np.cumsum(counts)]))
    for a in edges:
        a.flags.writeable = False
    return edges


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
