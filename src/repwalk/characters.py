"""Conjugacy classes and irreducible characters of the symmetric group.

Character values come from the Murnaghan-Nakayama rule, implemented on
beta-sets (first-column hook lengths) with memoization; the largest cycle
is stripped first.  Full tables are built on demand, orthogonality-checked,
and cached per n.  Fixed-point statistics use exact derangement numbers.
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


@lru_cache(maxsize=MN_CACHE_SIZE)
def _mn(shape: tuple, cycles: tuple) -> int:
    # Murnaghan-Nakayama on the beta-set shape[i] + (len-1-i); removing a
    # border strip of length k moves one beta value down by k, with sign
    # (-1)^(number of beta values jumped over).
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
        total += sign * _mn(new_shape, rest)
    return total


def mn_character(lam: Partition, cycle_type) -> int:
    """Character value of the irreducible labelled lam at the given class."""
    lam = Partition(lam)
    cycles = cycle_lengths(cycle_type)
    if lam.size != cycles.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size} vs |{cycles}| = {cycles.size}")
    return _mn(tuple(lam), tuple(sorted(cycles, reverse=True)))


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
        listed by class id: the hidden-subgroup law, the tensor multiplicity rows
        of kernel_from_tensor and the spectral walk law are this sum for three
        choices of w."""
        n_fact = math.factorial(self.n)
        return [Fraction(d * sum(map(mul, w, row)), n_fact)
                for d, row in zip(young_lattice(self.n).dims, self.values)]

    def verify_orthogonality(self) -> None:
        n_fact = math.factorial(self.n)
        sizes = [c.class_size for c in self.classes]
        m = len(self.partitions)
        for a in range(m):
            for b in range(a, m):
                dot = sum(sizes[j] * self.values[a][j] * self.values[b][j] for j in range(m))
                if dot != (n_fact if a == b else 0):
                    raise ArithmeticError(f"row orthogonality fails at {a},{b}")
        for a in range(m):
            for b in range(a, m):
                dot = sum(self.values[i][a] * self.values[i][b] for i in range(m))
                want = n_fact // sizes[a] if a == b else 0
                if dot != want:
                    raise ArithmeticError(f"column orthogonality fails at {a},{b}")
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
        values = tuple(
            tuple(mn_character(lam, c) for c in classes) for lam in parts
        )
        table = CharacterTable(n, parts, classes, values)
        table.verify_orthogonality()
        _table_cache[n] = table
    return _table_cache[n]

