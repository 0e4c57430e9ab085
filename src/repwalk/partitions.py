"""Integer partitions, hooks, corners, and symmetric-group dimensions.

A partition is a weakly decreasing tuple of positive integers; it indexes
irreducible representations of S_n, conjugacy classes of S_n, and the
components of GL(n,q) irreducible families.  The canonical text encoding
joins parts with "+" ("3+2+1"); the empty partition encodes as "-".
The Young lattice of size n numbers the partitions of n and records which
of them share a partition of n-1 below, as flat integer arrays.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

# sizes kept by the per-size caches (enumerate_partitions here,
# characters.enumerate_classes): more than the FLOAT_LIMIT + 1 = 41 sizes a
# float sweep up to snwalk.FLOAT_LIMIT cycles through
SIZE_CACHE_SIZE = 64
# dimensions kept: 2 * snwalk.STEP_TABLE_LIMIT, so the partitions the
# samplers' row tables hold between two clears never evict each other
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
        if not self:
            return self
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def n_stat(self) -> int:
        """sum_i (i-1)*parts[i], rows indexed from 1."""
        return sum(i * p for i, p in enumerate(self))

    def hooks(self) -> tuple[int, ...]:
        """Multiset of hook lengths parts[i] + transpose[j] - i - j - 1 (0-based)."""
        t = self.transpose()
        out = []
        for i, p in enumerate(self):
            for j in range(p):
                out.append(p + t[j] - i - j - 1)
        return tuple(sorted(out, reverse=True))

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


def _gen_partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=SIZE_CACHE_SIZE)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(Partition(p) for p in _gen_partitions(n, n))


class YoungLattice(NamedTuple):
    """Partitions of n as integer ids, their dimensions and common corners.

    Ids follow enumerate_partitions(n).  Row i of the CSR arrays lists the
    partitions rho that share a partition of n-1 with lam = parts[i]:
    dst[off[i]:off[i+1]] holds their ids and cnt the number of partitions
    of n-1 below both (the number of removable corners of lam on the
    diagonal, 1 elsewhere).  A row lists rho in down-up order: remove a
    corner of lam, bottom row first, then add a box, top row first; the
    first path to reach rho fixes its place.  Every field is read-only, as
    the cache hands the same lattice to every caller.
    """

    n: int
    parts: tuple[Partition, ...]
    index: Mapping[tuple, int]
    dims: tuple[int, ...]
    off: memoryview
    dst: memoryview
    cnt: memoryview


# four entries, as _float_engine keeps: a cached engine steps its lattice in place
@lru_cache(maxsize=4)
def young_lattice(n: int) -> YoungLattice:
    """The cached Young lattice of size n, built on plain tuples."""
    parts = enumerate_partitions(n)
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
    dims = tuple(n_fact // _hook_product(lam) for lam in parts)
    return YoungLattice(n, parts, MappingProxyType(index), dims,
                        *(memoryview(a).toreadonly() for a in (off, dst, cnt)))


def _hook_product(lam: tuple[int, ...]) -> int:
    """Product of the hook lengths of a plain weakly decreasing tuple."""
    cols = [0] * (lam[0] if lam else 0)
    for p in lam:
        for j in range(p):
            cols[j] += 1
    prod = 1
    for i, p in enumerate(lam):
        for j in range(p):
            prod *= p - j + cols[j] - i - 1
    return prod


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def dimension_sn(lam: Partition) -> int:
    """Hook-length formula: |lam|! / prod of hooks, always an exact integer."""
    lam = Partition(lam)
    num = math.factorial(lam.size)
    den = _hook_product(lam)
    if num % den:
        raise ArithmeticError(f"hook product does not divide {lam.size}! for {lam}")
    return num // den


def log_dimension_sn(lam: Partition) -> float:
    """Double-precision log of dimension_sn, usable far beyond exact range."""
    lam = Partition(lam)
    if not lam:
        return 0.0
    return math.lgamma(lam.size + 1) - sum(math.log(h) for h in lam.hooks())


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent of enumeration)."""
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
    return p[n]
