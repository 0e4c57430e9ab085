import math
from fractions import Fraction

import pytest

from repwalk import hsp
from repwalk.errors import CapacityError
from repwalk.hsp import (
    cycle_type_of,
    hsp_bounds,
    induced_character_check,
    load_catalogue,
    parse_generators,
    parse_permutation,
    subgroup_closure,
    weak_sampling_distribution,
)
from repwalk.partitions import Partition, enumerate_partitions
from repwalk.snwalk import plancherel_sn


def test_parse_permutation():
    assert parse_permutation("(1 2)", 3) == (1, 0, 2)
    assert parse_permutation("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_permutation("", 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_permutation("(1 5)", 3)
    with pytest.raises(ValueError):
        parse_permutation("(1 1)", 3)
    # the cycles of one generator are disjoint; this returned (1, 2, 1)
    with pytest.raises(ValueError, match="point 2 is in two cycles"):
        parse_permutation("(1 2)(2 3)", 3)


def test_parse_generators_commas_split():
    gens = parse_generators("(1 2),(3 4)", 4)
    assert gens == ((1, 0, 2, 3), (0, 1, 3, 2))
    assert parse_generators("", 4) == ()
    # commas inside a cycle separate its points, not generators
    assert parse_generators("(1,2),(3,4)", 4) == gens
    assert parse_generators("(1,2)(3,4)", 4) == ((1, 0, 3, 2),)
    for text in ("(1 2),", ",(1 2)", "(1 2),,(3 4)", ","):
        with pytest.raises(ValueError, match="empty generator"):
            parse_generators(text, 4)


def test_cycle_type():
    assert cycle_type_of((1, 0, 2)) == Partition((2, 1))
    assert cycle_type_of((1, 2, 3, 0)) == Partition((4,))


def test_closure_examples():
    trivial = subgroup_closure(3, "")
    assert trivial.order == 1
    h = subgroup_closure(3, "(1 2)")
    assert h.order == 2
    assert h.class_intersections == {Partition((1, 1, 1)): 1, Partition((2, 1)): 1}
    c4 = subgroup_closure(4, "(1 2 3 4)")
    assert c4.order == 4
    a5 = subgroup_closure(5, "(1 2 3),(1 2 3 4 5)")
    assert a5.order == 60


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(hsp, "CLOSURE_CAP", 10)
    with pytest.raises(CapacityError):
        subgroup_closure(5, "(1 2),(1 2 3 4 5)")


def test_intersections_sum_to_order():
    for gens, n in (("(1 2),(3 4)", 4), ("(1 2 3 4 5),(2 3 5 4)", 5)):
        h = subgroup_closure(n, gens)
        assert sum(h.class_intersections.values()) == h.order
        assert math.factorial(n) % h.order == 0


def test_trivial_subgroup_gives_plancherel():
    for n in (3, 4, 5):
        h = subgroup_closure(n, "")
        assert weak_sampling_distribution(h).masses == plancherel_sn(n).masses


def test_weak_sampling_s3_example():
    h = subgroup_closure(3, "(1 2)")
    dist = weak_sampling_distribution(h)
    assert dist.masses == {
        Partition((3,)): Fraction(1, 3),
        Partition((2, 1)): Fraction(2, 3),
        Partition((1, 1, 1)): Fraction(0),
    }


def test_hsp_bounds_trivial():
    h = subgroup_closure(4, "")
    b = hsp_bounds(h)
    assert b.exact_tv == 0 and b.bound_sharp == 0 and b.bound_ks == 0


def test_hsp_bounds_s3_worked_example():
    b = hsp_bounds(subgroup_closure(3, "(1 2)"))
    assert b.exact_tv == Fraction(1, 6)
    assert b.sharp_squared == Fraction(1, 12)
    assert b.bound_sharp == pytest.approx(1 / (2 * math.sqrt(3)))
    assert b.bound_ks == pytest.approx(1 / (2 * math.sqrt(3)))


def test_full_group_distribution():
    # H = G concentrates the distribution on the trivial representation
    h = subgroup_closure(4, "(1 2),(1 2 3 4)")
    dist = weak_sampling_distribution(h)
    assert dist.masses[Partition((4,))] == 1
    assert induced_character_check(h)


def test_catalogue_contract():
    for entry in load_catalogue():
        h = subgroup_closure(entry["n"], entry["generators"])
        b = hsp_bounds(h)
        # exact_tv <= bound_sharp, compared through exact squares
        assert b.exact_tv**2 <= b.sharp_squared
        # bound_sharp <= bound_ks (l2 vs l1 norm of the same vector)
        assert b.bound_sharp <= b.bound_ks + 1e-12
        # Cauchy-Schwarz sanity: sharp^2 <= ks * max term
        terms = [
            inter / math.sqrt(_class_size(entry["n"], ct)) / 2
            for ct, inter in h.class_intersections.items()
            if ct != Partition([1] * entry["n"])
        ]
        if terms:
            assert float(b.sharp_squared) <= b.bound_ks * max(terms) + 1e-12
        # P_H is a probability distribution
        dist = weak_sampling_distribution(h)
        assert sum(dist.masses.values()) == 1
        assert all(m >= 0 for m in dist.masses.values())



def _cycle_generator(cycles: Partition) -> str:
    """One permutation of cycle type cycles, its cycles on consecutive points."""
    out, start = [], 1
    for c in cycles:
        if c > 1:
            out.append("(" + " ".join(map(str, range(start, start + c))) + ")")
        start += c
    return "".join(out)


def test_bound_order_holds_with_no_slack():
    # the printed sharp is a double whose exact square is at least the exact
    # sharp_squared, and the printed ks is never below it: exact_tv <= sharp
    # <= ks as compared, over the catalogue and every cyclic subgroup
    # generated by one class of S_n, n <= 12
    groups = [(e["n"], e["generators"]) for e in load_catalogue()]
    groups += [(n, _cycle_generator(lam)) for n in range(2, 13) for lam in enumerate_partitions(n)]
    for n, gens in groups:
        b = hsp_bounds(subgroup_closure(n, gens))
        assert b.exact_tv <= Fraction(b.bound_sharp), (n, gens)
        assert Fraction(b.bound_sharp) ** 2 >= b.sharp_squared, (n, gens)
        assert b.bound_sharp <= b.bound_ks, (n, gens)


def test_catalogue_induced_characters():
    for entry in load_catalogue():
        h = subgroup_closure(entry["n"], entry["generators"])
        assert induced_character_check(h), entry["name"]


def _class_size(n, cycles):
    from repwalk.characters import class_size_of

    return class_size_of(cycles)
