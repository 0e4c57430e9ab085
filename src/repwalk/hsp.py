"""Weak-standard-method sampling distributions and distinguishability bounds.

Quantum Fourier sampling over a hidden subgroup H <= S_n induces the
distribution P_H(rho) = (d_rho/n!) sum_{h in H} chi^rho(h) on Irr(S_n),
which equals one step of the tensor walk driven by the permutation
representation on cosets of H.  Distinguishing H from the trivial subgroup
is controlled by exact total variation and two class-intersection bounds
(a Cauchy-Schwarz-sharp one and the classical linear one), with the
contract exact_tv <= bound_sharp <= bound_ks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import permutations
from typing import NamedTuple

from .characters import character_table
from .errors import CapacityError
from .intervals import _sqrt_up
from .partitions import Partition
from .snwalk import WalkDistribution, tv_to_plancherel

CLOSURE_CAP = 10**6
INDUCED_CHECK_LIMIT = 8  # the check enumerates all n! permutations


def parse_permutation(text: str, n: int) -> tuple[int, ...]:
    """Cycle notation to an image tuple on {0..n-1}: '(1 2)(3 4)' etc.

    The cycles of one permutation are disjoint: a point in two of them is
    refused, naming the point."""
    images = list(range(n))
    text = text.strip()
    if text in ("", "()"):
        return tuple(images)
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError(f"bad cycle notation: {text!r}")
    seen: set[int] = set()
    for cycle in text[1:-1].split(")("):
        try:
            points = [int(tok) - 1 for tok in cycle.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"bad cycle notation: {text!r}") from None
        if len(points) != len(set(points)):
            raise ValueError(f"repeated point in cycle {cycle!r}")
        for p in points:
            if not 0 <= p < n:
                raise ValueError(f"point {p + 1} outside 1..{n}")
            if p in seen:
                raise ValueError(f"point {p + 1} is in two cycles of {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def parse_generators(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Comma-separated generators, each a product of cycles.  Only commas
    outside parentheses separate generators, so '(1,2)' is one
    transposition; an empty generator, as in '(1 2),', and unbalanced
    parentheses, as in '(1,2', are refused, naming the whole text."""
    text = text.strip()
    if not text:
        return ()
    gens, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and not depth:
            gens.append(text[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    gens.append(text[start:])
    if not all(tok.strip() for tok in gens):
        raise ValueError(f"empty generator in {text!r}")
    return tuple(parse_permutation(tok, n) for tok in gens)


def cycle_type_of(perm: tuple[int, ...]) -> Partition:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


@dataclass(frozen=True)
class SubgroupSpec:
    """A concrete permutation subgroup with its class-intersection profile."""

    n: int
    generators: tuple[tuple[int, ...], ...]
    elements: frozenset[tuple[int, ...]]
    class_intersections: dict[Partition, int]

    @property
    def order(self) -> int:
        return len(self.elements)


def subgroup_closure(n: int, generators) -> SubgroupSpec:
    """Breadth-first closure of the generators inside S_n."""
    if isinstance(generators, str):
        generators = parse_generators(generators, n)
    gens = tuple(tuple(g) for g in generators)
    identity = tuple(range(n))
    for g in gens:
        if sorted(g) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {g}")
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = _compose(g, h)
                if e not in elements:
                    if len(elements) >= CLOSURE_CAP:
                        raise CapacityError("subgroup closure", f"> {CLOSURE_CAP}", CLOSURE_CAP)
                    elements.add(e)
                    nxt.append(e)
        frontier = nxt
    intersections: dict[Partition, int] = {}
    for e in elements:
        ct = cycle_type_of(e)
        intersections[ct] = intersections.get(ct, 0) + 1
    if math.factorial(n) % len(elements):
        raise ArithmeticError("closure order does not divide n! (closure bug)")
    return SubgroupSpec(n, gens, frozenset(elements), intersections)


def weak_sampling_distribution(H: SubgroupSpec) -> WalkDistribution:
    """P_H(rho) = (d_rho/n!) sum_C |C meet H| chi^rho(C), exact."""
    table = character_table(H.n)
    law = table.fourier_law([H.class_intersections.get(c.cycle_lengths, 0) for c in table.classes])
    if min(law) < 0:
        raise ArithmeticError("negative sampling probability")
    if sum(law) != 1:
        raise ArithmeticError("P_H does not sum to 1")
    return WalkDistribution(H.n, "exact", dict(zip(table.partitions, law)))


class HspBounds(NamedTuple):
    exact_tv: Fraction
    bound_sharp: float
    bound_ks: float
    sharp_squared: Fraction  # exact square of the sharp bound, at most bound_sharp**2
    law: WalkDistribution  # P_H, the law the TV is measured on


def hsp_bounds(H: SubgroupSpec) -> HspBounds:
    """Exact TV distance of P_H from Plancherel plus the two class bounds,
    with P_H itself, so a caller printing both computes it once.

    bound_sharp = (1/2) sqrt(sum |C meet H|^2 / |C|) over non-identity
    classes, rounded up to a double whose exact square is at least
    sharp_squared; bound_ks = (1/2) sum |C meet H| / sqrt(|C|), raised to
    bound_sharp where rounding leaves it below (Cauchy-Schwarz puts the
    exact ks at or above the exact sharp).  Always, with no slack,
    exact_tv <= bound_sharp <= bound_ks.
    """
    law = weak_sampling_distribution(H)
    tv = tv_to_plancherel(law)
    identity = Partition([1] * H.n)
    sharp_sq = Fraction(0)
    ks = 0.0
    table = character_table(H.n)
    for c in table.classes:
        if c.cycle_lengths == identity:
            continue
        inter = H.class_intersections.get(c.cycle_lengths, 0)
        sharp_sq += Fraction(inter * inter, c.class_size)
        ks += inter / math.sqrt(c.class_size)
    sharp = _sqrt_up(sharp_sq.numerator, 4 * sharp_sq.denominator)
    return HspBounds(tv, sharp, max(ks / 2, sharp), sharp_sq / 4, law)


def induced_character_check(H: SubgroupSpec) -> bool:
    """Verify chi^eta(C)/d_eta = |C meet H|/|C| for the coset representation.

    eta is the permutation action on left cosets of H; its character at g
    counts cosets xH with x^-1 g x in H, evaluated here by direct coset
    enumeration against one representative per class.
    """
    if H.n > INDUCED_CHECK_LIMIT:
        raise CapacityError("induced character check", H.n, INDUCED_CHECK_LIMIT)
    table = character_table(H.n)
    elements = sorted(permutations(range(H.n)))
    cosets = _left_cosets(H, elements)
    for c in table.classes:
        rep = _class_representative(c.cycle_lengths)
        fixed = 0
        for coset in cosets:
            x = coset[0]
            if _compose(_invert(x), _compose(rep, x)) in H.elements:
                fixed += 1
        inter = H.class_intersections.get(c.cycle_lengths, 0)
        # chi^eta(g)/d_eta with d_eta = [G:H] = number of cosets
        if Fraction(fixed, len(cosets)) != Fraction(inter, c.class_size):
            return False
    return True


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def _left_cosets(H: SubgroupSpec, elements) -> list[list[tuple[int, ...]]]:
    seen = set()
    cosets = []
    for x in elements:
        if x in seen:
            continue
        coset = sorted(_compose(x, h) for h in H.elements)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def _class_representative(cycles: Partition) -> tuple[int, ...]:
    out = [0] * cycles.size
    start = 0
    for length in cycles:
        for i in range(length):
            out[start + i] = start + (i + 1) % length
        start += length
    return tuple(out)


def load_catalogue() -> list[dict]:
    """Named subgroup generator sets of S_4 and S_5 shipped with the package."""
    text = resources.files("repwalk.data").joinpath("subgroups.json").read_text()
    return json.loads(text)["catalogue"]
