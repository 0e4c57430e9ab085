"""Conjugacy classes and irreducible characters of the symmetric group.

Character values come from the Murnaghan-Nakayama rule with memoization,
the largest cycle stripped first.  A shape is its beta-set (first-column
hook lengths lam_i + len - 1 - i) held as a bead bitmask, one set bit per
beta value, with no bead at 0: a zero part is dropped by shifting the mask
down.  A border strip of length k moves one bead from b to b - k, with
sign the parity of the beads strictly between.  Full tables are built on
demand, orthogonality-checked, and cached per n.  Fixed-point statistics
use exact derangement numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .errors import CapacityError
from .partitions import SIZE_CACHE_SIZE, Partition, enumerate_partitions, young_lattice

DEFAULT_TABLE_LIMIT = 12
# Murnaghan-Nakayama values kept: the tables for n <= DEFAULT_TABLE_LIMIT
# use 12648 of them, all told
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


@lru_cache(maxsize=SIZE_CACHE_SIZE)
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


@lru_cache(maxsize=MN_CACHE_SIZE)
def _mn(beads: int, cycles: tuple) -> int:
    # cycles is weakly decreasing; each bead b >= k with b - k empty is one
    # border strip of length k
    if not cycles:
        return 0 if beads else 1
    k = cycles[0]
    rest = cycles[1:]
    total = 0
    movable = (beads & ~(beads << k)) >> k
    while movable:
        low = movable & -movable
        movable ^= low
        nb = low.bit_length() - 1
        new = beads ^ (low | low << k)
        while new & 1:
            new >>= 1
        jumped = beads >> (nb + 1) & ((1 << (k - 1)) - 1)
        value = _mn(new, rest)
        total += -value if jumped.bit_count() & 1 else value
    return total


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
    order, so young_lattice(n).index numbers the irreducibles and the classes."""

    n: int
    partitions: tuple[Partition, ...]
    classes: tuple[CycleType, ...]
    values: tuple[tuple[int, ...], ...]  # [partition index][class index]

    def fourier_law(self, w) -> list[Fraction]:
        """(d_rho/n!) sum_C w[C] chi^rho(C) for each row rho, w a class function
        listed by class id: the hidden-subgroup law and the spectral walk law
        are this sum for two choices of w."""
        n_fact = math.factorial(self.n)
        return [Fraction(d * sum(map(mul, w, row)), n_fact)
                for d, row in zip(young_lattice(self.n).dims, self.values)]

    def verify_orthogonality(self) -> None:
        """Check V diag(|C|) V^T = n! I and the identity column.  The column
        relation V^T V = n! diag(|C|)^-1 follows: V is square, so the row
        relation makes n!^-1 diag(|C|) V^T the inverse of V."""
        n_fact = math.factorial(self.n)
        sizes = [c.class_size for c in self.classes]
        rows = self.values
        m = len(rows)
        for a in range(m):
            weighted = [x * y for x, y in zip(sizes, rows[a])]
            for b in range(a, m):
                if sum(map(mul, weighted, rows[b])) != (n_fact if a == b else 0):
                    raise ArithmeticError(f"row orthogonality fails at {a},{b}")
        lat = young_lattice(self.n)
        id_col = lat.index[(1,) * self.n]
        for lam, row, d in zip(self.partitions, self.values, lat.dims):
            if row[id_col] != d:
                raise ArithmeticError(f"identity column is not the dimension at {lam}")


_table_cache: dict[int, CharacterTable] = {}


def character_table(n: int) -> CharacterTable:
    """Full character table of S_n, orthogonality-verified and cached."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_TABLE_LIMIT:
        raise CapacityError("character table", n, DEFAULT_TABLE_LIMIT)
    if n not in _table_cache:
        parts = enumerate_partitions(n)
        classes = enumerate_classes(n)
        # class labels are weakly decreasing already, as _mn takes them
        values = tuple(
            tuple(_mn(beads, c.cycle_lengths) for c in classes)
            for beads in map(_beads, parts)
        )
        table = CharacterTable(n, parts, classes, values)
        table.verify_orthogonality()
        _table_cache[n] = table
    return _table_cache[n]

