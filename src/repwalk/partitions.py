"""Integer partitions, hooks, corners, and symmetric-group dimensions.

A partition is a weakly decreasing tuple of positive integers; it indexes
irreducible representations of S_n, conjugacy classes of S_n, and the
components of GL(n,q) irreducible families.  The canonical text encoding
joins parts with "+" ("3+2+1"); the empty partition encodes as "-".
The Young lattice of size n numbers the partitions of n and records which
partitions of n-1 lie below each of them, as flat integer arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError

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


def _reverse_lex(n: int) -> Iterator[Partition]:
    """The partitions of n >= 1 in reverse-lexicographic order, built without
    Partition's checks (each is valid by construction): ZS1 of Zoghbi and
    Stojmenovic (1998).  x[:m] is the current partition, x[h] its last part
    above 1, and every entry of x after h is 1."""
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    new = tuple.__new__
    yield new(Partition, x[:1])
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            # lower x[h] to r and spread the freed box and the trailing ones
            # over parts of size r, then one smaller remainder
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield new(Partition, x[:m])


@lru_cache(maxsize=SIZE_CACHE_SIZE)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_reverse_lex(n)) if n else (EMPTY,)


class YoungLattice(NamedTuple):
    """Partitions of n as integer ids, their dimensions and containment edges.

    Ids follow enumerate_partitions(n), as characters.enumerate_classes does,
    so they number the conjugacy classes of S_n too.  The edges are the nonzero
    entries of D, the p(n) x p(n-1) containment matrix (D[lam, mu] = 1 when
    mu is lam less one corner box), kept as int64 CSR arrays in both directions:
    below[down_off[i]:down_off[i+1]] lists the ids of the partitions of n-1
    under lam = parts[i], bottom corner first, and
    above[up_off[m]:up_off[m+1]] the ids of the lam over the m-th partition
    of n-1, in id order (top row first).  The down-up chain's common-corner
    matrix is A = D D^T, so a step is two segment sums through the
    partitions of n-1.  These are numbered in the order of their keys (see
    below) and named by these arrays alone.  Every field is read-only, as
    the cache hands the same lattice to every caller.

    young_lattice builds it with numpy from the partitions as a zero-padded
    int8 matrix.  Each edge lam -> mu = lam - e_a, for a removable row a,
    gets the linear key of mu, sum_i mu_i KEY_BASE^(i+1) mod 2^64: the key
    of lam less one weight.  Sorting the edges by key lists the lam above
    each mu, and a build that finds fewer distinct keys than partitions of
    n-1 raises ArithmeticError.  Dimensions are n! // the product of the
    hook lengths, which come from the conjugate counts of the cells,
    multiplied in int64 runs short enough not to overflow, LATTICE_BLOCK
    rows at a time.
    """

    n: int
    parts: tuple[Partition, ...]
    index: Mapping[tuple, int]
    dims: tuple[int, ...]
    below: memoryview
    down_off: memoryview
    above: memoryview
    up_off: memoryview


# rows of the lattice built per numpy pass: a pass's temporaries hold a few
# entries per cell of LATTICE_BLOCK rows, whatever p(n)
LATTICE_BLOCK = 1024
# odd multiplier of the linear partition keys
KEY_BASE = 0x9E3779B97F4A7C15
# parts are stored as int8
_MAX_PART = 127


# four entries, as _float_engine keeps: a cached float engine steps its own
# jagged tables but holds its lattice for the index and n, so a lattice kept
# here for one of them costs no memory of its own
@lru_cache(maxsize=4)
def young_lattice(n: int) -> YoungLattice:
    """The cached Young lattice of size n, built in numpy row blocks."""
    if n > _MAX_PART:
        raise CapacityError("Young lattice size", n, _MAX_PART)
    parts = enumerate_partitions(n)
    width = n + 1  # a zero column past the longest partition, (1^n)
    mat = np.frombuffer(b"".join([bytes(lam).ljust(width, b"\0") for lam in parts]),
                        np.int8).reshape(len(parts), width)
    edges = _containment(mat)
    dims = _dimensions(mat)
    # the index last, so no build's temporaries are held beside it
    index = dict(zip(parts, range(len(parts))))
    return YoungLattice(n, parts, MappingProxyType(index), dims,
                        *(memoryview(a).toreadonly() for a in edges))


def _containment(mat: np.ndarray):
    """The edge arrays below, down_off, above, up_off of the lattice whose
    partitions are the rows of mat, zero-padded past the longest, built as
    YoungLattice says."""
    n = mat.shape[1] - 1
    # each temporary is deleted once used: the peak stays near the output's size
    removable = mat[:, :-1] > mat[:, 1:]
    down_off = np.concatenate([[0], np.cumsum(removable.sum(axis=1))])
    lam, col = np.nonzero(removable[:, ::-1])  # id order, bottom corner first
    del removable
    weights = np.array([pow(KEY_BASE, i + 1, 1 << 64) for i in range(n + 1)], np.uint64)
    keys = np.concatenate([mat[i:i + LATTICE_BLOCK].astype(np.uint64) @ weights
                           for i in range(0, len(mat), LATTICE_BLOCK)])
    key = keys[lam] - weights[n - 1 - col]
    del keys, col
    # stable, so the lam above one mu stay in id order
    by_mu = np.argsort(key, kind="stable")
    key = key[by_mu]
    new_mu = np.ones(len(key), bool)
    new_mu[1:] = key[1:] != key[:-1]
    del key
    # every partition of n-1 lies below some lam, so fewer keys than
    # partitions of n-1 means two of them share a key
    if np.count_nonzero(new_mu) != partition_count(n - 1):
        raise ArithmeticError(f"two partitions of {n - 1} share a lattice key")
    below = np.empty(len(new_mu), np.int64)
    below[by_mu] = np.cumsum(new_mu) - 1
    up_off = np.append(np.flatnonzero(new_mu), len(new_mu))
    return below, down_off, lam[by_mu], up_off


def _dimensions(mat: np.ndarray) -> tuple[int, ...]:
    """n! // the hook product of each row of mat, the hooks multiplied in
    int64 runs short enough not to overflow, the runs in Python ints."""
    n = mat.shape[1] - 1
    per = 1  # each hook is at most n
    while per < n and n ** (per + 1) < 1 << 63:
        per += 1
    n_fact = math.factorial(n)
    dims: list[int] = []
    for r0 in range(0, len(mat), LATTICE_BLOCK):
        runs = _hook_runs(mat[r0:r0 + LATTICE_BLOCK], per).astype(object)
        dims.extend((n_fact // runs.prod(axis=1)).tolist())
    return tuple(dims)


def _hook_runs(blk: np.ndarray, per: int) -> np.ndarray:
    """Products of the hook lengths of each row of blk, per at a time.

    The cells of a partition are listed row by row; the cell (i, j) has
    hook lam_i - j + lam'_j - i - 1, with the conjugate lam'_j counted over
    the cells of column j.
    """
    rows, width = blk.shape
    n = width - 1
    flat = blk.ravel().astype(np.int64)
    i = np.repeat(np.tile(np.arange(width), rows), flat)
    j = np.arange(rows * n) - np.repeat(np.cumsum(flat) - flat, flat)
    cell = np.repeat(np.arange(rows), n) * width + j
    conj = np.bincount(cell, minlength=rows * width)
    runs = -(-n // per)
    padded = np.ones((rows, runs * per), np.int64)
    padded[:, :n] = (np.repeat(flat, flat) - j + conj[cell] - i - 1).reshape(rows, n)
    return padded.reshape(rows, runs, per).prod(axis=2)


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
