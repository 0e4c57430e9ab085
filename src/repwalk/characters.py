"""Conjugacy classes and irreducible characters of the symmetric group.

A shape is its beta-set (first-column hook lengths lam_i + len - 1 - i)
held as a bead bitmask, one set bit per beta value, with no bead at 0: a
zero part is dropped by shifting the mask down.  A border strip of length
k moves one bead from b to b - k, with sign the parity of the beads
strictly between.  Full tables are signed rim-hook matrix products over
the smaller tables (Murnaghan-Nakayama on the first cycle), built on
demand, orthogonality-checked and cached per n; _mn gives single values.
Fixed-point statistics use exact derangement numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import CapacityError
from .partitions import SIZE_CACHE_SIZE, Partition, _bounded_counts, _dims, enumerate_partitions

DEFAULT_TABLE_LIMIT = 12
# Murnaghan-Nakayama values kept for single lookups by mn_character; the
# tables are matrix products and read none of them
MN_CACHE_SIZE = 1 << 15


@dataclass(frozen=True)
class CycleType:
    """A conjugacy class of S_n, labelled by its cycle lengths."""

    cycle_lengths: Partition
    class_size: int
    fixed_points: int

    @property
    def n(self) -> int:
        return self.cycle_lengths.size

    @classmethod
    def from_partition(cls, lam: Partition) -> "CycleType":
        lam = Partition(lam)
        return cls(lam, class_size_of(lam), sum(1 for p in lam if p == 1))


def cycle_lengths(cycle_type) -> Partition:
    """The cycle lengths of a CycleType, or of anything Partition accepts."""
    if isinstance(cycle_type, CycleType):
        return cycle_type.cycle_lengths
    return Partition(cycle_type)


def class_size_of(lam: Partition) -> int:
    """n! / prod(i^m_i * m_i!) with m_i the multiplicity of part i."""
    lam = Partition(lam)
    den = 1
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        den *= p**m * math.factorial(m)
    return math.factorial(lam.size) // den


def enumerate_classes(n: int) -> tuple[CycleType, ...]:
    """One class per partition of n, in enumerate_partitions order."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(CycleType.from_partition(lam) for lam in enumerate_partitions(n))


def derangements(m: int) -> int:
    """Number of fixed-point-free permutations of m symbols."""
    d = 1
    for k in range(1, m + 1):
        d = k * d + (-1) ** k
    return d


@lru_cache(maxsize=SIZE_CACHE_SIZE)
def fixed_point_profile(n: int) -> Mapping[int, int]:
    """Map i -> #permutations of n symbols with exactly i fixed points,
    read-only and cached per n.

    Zero counts (always i = n-1) are omitted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = {}
    for i in range(n + 1):
        c = math.comb(n, i) * derangements(n - i)
        if c:
            out[i] = c
    return MappingProxyType(out)


def _beads(lam) -> int:
    """The beta-set of a partition with positive parts, as a bead bitmask."""
    top = len(lam) - 1
    return sum(1 << (p + top - i) for i, p in enumerate(lam))


def _strips(beads: int, k: int):
    """(bitmask left, (-1)^height) for each border strip of length k: each
    bead b >= k with b - k empty moves there."""
    movable = (beads & ~(beads << k)) >> k
    while movable:
        low = movable & -movable
        movable ^= low
        new = beads ^ (low | low << k)
        while new & 1:
            new >>= 1
        jumped = beads >> low.bit_length() & ((1 << (k - 1)) - 1)
        yield new, -1 if jumped.bit_count() & 1 else 1


@lru_cache(maxsize=MN_CACHE_SIZE)
def _mn(beads: int, cycles: tuple) -> int:
    # cycles is weakly decreasing
    if not cycles:
        return 0 if beads else 1
    rest = cycles[1:]
    return sum(sign * _mn(new, rest) for new, sign in _strips(beads, cycles[0]))


def mn_character(lam: Partition, cycle_type) -> int:
    """Character value of the irreducible labelled lam at the given class."""
    lam = Partition(lam)
    cycles = cycle_lengths(cycle_type)
    if lam.size != cycles.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size} vs |{cycles}| = {cycles.size}")
    return _mn(_beads(lam), tuple(sorted(cycles, reverse=True)))


@dataclass(frozen=True)
class CharacterTable:
    """The characters of S_n, rows and columns both in enumerate_partitions
    order, so partition_id numbers the irreducibles and the classes."""

    n: int
    partitions: tuple[Partition, ...]
    classes: tuple[CycleType, ...]
    values: tuple[tuple[int, ...], ...]  # [partition index][class index]

    def fourier_law(self, w) -> list[Fraction]:
        """(d_rho/n!) sum_C w[C] chi^rho(C) for each row rho, w a class function
        listed by class id, d_rho the row's identity column (the last): the
        hidden-subgroup law and the spectral walk law are this sum for two
        choices of w."""
        n_fact = math.factorial(self.n)
        return [Fraction(row[-1] * sum(map(mul, w, row)), n_fact) for row in self.values]

    def verify_orthogonality(self) -> None:
        """Check V diag(|C|) V^T = n! I and the identity column.  The column
        relation V^T V = n! diag(|C|)^-1 follows: V is square, so the row
        relation makes n!^-1 diag(|C|) V^T the inverse of V."""
        n_fact = math.factorial(self.n)
        # |Gram entry| <= n! max|chi|^2, so a table under this bound cannot wrap
        rows = self.values
        if n_fact * max(max(map(max, rows)), -min(map(min, rows))) ** 2 >> 63:
            raise ArithmeticError(f"character values too large to check in int64 at n = {self.n}")
        v = np.array(rows, np.int64)
        sizes = np.array([c.class_size for c in self.classes], np.int64)
        gram = (v * sizes) @ v.T
        bad = np.argwhere(np.triu(gram != n_fact * np.eye(len(v), dtype=np.int64)))
        if len(bad):
            raise ArithmeticError(f"row orthogonality fails at {bad[0][0]},{bad[0][1]}")
        # the identity class (1^n) is last in reverse-lex order
        for lam, row, d in zip(self.partitions, self.values, _dims(self.n)):
            if row[-1] != d:
                raise ArithmeticError(f"identity column is not the dimension at {lam}")


_table_cache: dict[int, CharacterTable] = {}


def character_table(n: int) -> CharacterTable:
    """Full character table of S_n, orthogonality-verified and cached."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_TABLE_LIMIT:
        raise CapacityError("character table", n, DEFAULT_TABLE_LIMIT)
    if n not in _table_cache:
        _build_tables(n)
    return _table_cache[n]


def _build_tables(n: int) -> None:
    """Build, check and cache each missing table up to n.  The classes of m
    with first part k are contiguous and, k stripped, are in order the last
    N(m-k, min(k, m-k)) classes of m-k, so their columns are R X_{m-k} on
    those, R(lam, nu) = (-1)^height for each k-strip lam/nu."""
    mats, ids = [np.ones((1, 1), np.int64)], [{0: 0}]  # S_0
    for m in range(1, n + 1):
        parts = enumerate_partitions(m)
        beads = list(map(_beads, parts))
        ids.append({b: i for i, b in enumerate(beads)})
        if m in _table_cache:
            mats.append(np.array(_table_cache[m].values, np.int64))
            continue
        blocks = []
        for k in range(m, 0, -1):
            below = ids[m - k]
            strip = np.zeros((len(parts), len(below)), np.int64)
            for i, b in enumerate(beads):
                for new, sign in _strips(b, k):
                    strip[i, below[new]] = sign
            tail = _bounded_counts(m - k)[min(k, m - k)]
            blocks.append(strip @ mats[m - k][:, len(below) - tail:])
        mats.append(np.hstack(blocks))
        table = CharacterTable(m, parts, enumerate_classes(m), tuple(map(tuple, mats[m].tolist())))
        table.verify_orthogonality()
        _table_cache[m] = table
