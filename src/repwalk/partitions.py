"""Integer partitions, hooks, corners, and symmetric-group dimensions.

A partition is a weakly decreasing tuple of positive integers; it indexes
irreducible representations of S_n, conjugacy classes of S_n, and the
components of GL(n,q) irreducible families.  The canonical text encoding
joins parts with "+" ("3+2+1"); the empty partition encodes as "-".
The partitions of n are generated once, by counting, as the rows of a
zero-padded int8 matrix (so n stops at 127) in reverse-lexicographic order.
enumerate_partitions makes them tuples; the Young lattice numbers them, in
read-only int64 arrays built with numpy and no tuple, and records which
partitions of n-1 lie below each.  partition_id gives a partition's number.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
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
    above[up_off[m]:up_off[m+1]] the ids of the lam over the m-th partition
    of n-1, in id order (top row first).  The
    down-up chain's common-corner matrix is A = D D^T, so a step is two
    segment sums through the partitions of n-1.  These are numbered in the
    order of their keys (see below) and named by these arrays alone.  Every
    field is read-only (a write into an array raises ValueError), as the
    cache hands the same lattice to every caller.  Sizes past 127 raise
    CapacityError.

    young_lattice builds it with numpy from the partitions as a zero-padded
    int8 matrix, generated by _partition_matrix.  Each edge
    lam -> mu = lam - e_a, for a removable row a, gets the linear key of mu,
    sum_i mu_i KEY_BASE^(i+1) mod 2^64: the key of lam less one weight.
    Sorting the edges by key lists the lam above each mu, and a build that
    finds fewer distinct keys than partitions of n-1 raises ArithmeticError.
    Dimensions are n! // the product of the hook lengths, which come from
    the conjugate counts of the cells, multiplied in int64 runs short enough
    not to overflow, LATTICE_BLOCK rows at a time.
    """

    n: int
    dims: tuple[int, ...]
    below: np.ndarray
    down_off: np.ndarray
    above: np.ndarray
    up_off: np.ndarray


# rows of the lattice built per numpy pass: a pass's temporaries hold a few
# entries per cell of LATTICE_BLOCK rows, whatever p(n)
LATTICE_BLOCK = 1024
# odd multiplier of the linear partition keys
KEY_BASE = 0x9E3779B97F4A7C15
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
    part, N(m, lam_i - 1) of them for the m boxes from part i on."""
    n = sum(lam)
    _check_lattice_size(n)
    after, m = 0, n
    for p in lam:
        after += _bounded_counts(m)[p - 1]
        m -= p
    return _bounded_counts(n)[n] - 1 - after


def _stacked_levels(tops: list[int]) -> tuple[np.ndarray, list[int]]:
    """Partitions of 0, 1, ..., len(tops) - 1 in reverse-lexicographic order,
    level j those of j with no part above tops[j], stacked as the rows of one
    zero-padded int8 matrix with a zero column past the longest; level j
    ends at row ends[j].

    Level 0 is the one zero row, the empty partition.  Level j lists, for
    first parts f from tops[j] down to 1, f over the last N(j-f, f) rows of
    level j-f, the partitions of j-f with no part above f, shifted one
    column right; so tops[j - f] must be at least min(f, j - f)."""
    sizes = [_bounded_counts(j)[top] for j, top in enumerate(tops)]
    ends = list(accumulate(sizes))
    firsts, heights, copies = [0], [1], []
    for j in range(1, len(tops)):
        row = ends[j - 1]
        for f in range(tops[j], 0, -1):
            k = _bounded_counts(j - f)[min(f, j - f)]
            firsts.append(f)
            heights.append(k)
            if f < j:  # over the empty partition the row stays zero
                copies.append((row, ends[j - f] - k, k))
            row += k
    mat = np.zeros((ends[-1], len(tops)), np.int8)
    mat[:, 0] = np.repeat(np.array(firsts, np.int8), heights)
    for dst, src, k in copies:
        mat[dst:dst + k, 1:] = mat[src:src + k, :-1]
    return mat, ends


# sizes whose partitions are sliced from one cached stack of every level up
# to it (2714 rows of 21 int8 columns, 57 kB): below it a build costs more
# in numpy calls than in rows, and these are the sizes exact walks use
SMALL_SIZE = 20


@lru_cache(maxsize=1)
def _small_levels() -> tuple[np.ndarray, tuple[int, ...]]:
    mat, ends = _stacked_levels(list(range(SMALL_SIZE + 1)))
    mat.flags.writeable = False  # shared by every later call
    return mat, tuple(ends)


def _partition_matrix(n: int) -> np.ndarray:
    """The partitions of n in reverse-lexicographic order as the rows of a
    zero-padded int8 matrix with one zero column past the longest, (1^n).

    Up to SMALL_SIZE they are level n of the cached complete levels.  Past
    it, level n takes every first part and a level j < n is read only for
    first parts up to n - j, so it keeps those up to min(j, n - j)."""
    if n <= SMALL_SIZE:
        mat, ends = _small_levels()
        return mat[ends[n] - _bounded_counts(n)[n]:ends[n], :n + 1].copy()
    mat, ends = _stacked_levels([min(j, n - j) for j in range(n)] + [n])
    # a copy, so the lower levels are freed before the lattice is built on it
    return mat[ends[n - 1]:].copy()


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
    """The cached Young lattice of size n, built in numpy row blocks."""
    _check_lattice_size(n)
    mat = _partition_matrix(n)
    edges = _containment(mat)
    for a in edges:
        a.flags.writeable = False
    return YoungLattice(n, _dimensions(mat), *edges)


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
    # KEY_BASE^(i+1) mod 2^64, as uint64 products wrap
    weights = np.cumprod(np.full(n + 1, KEY_BASE, np.uint64))
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
    if np.count_nonzero(new_mu) != (_bounded_counts(n - 1)[-1] if n else 0):
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
