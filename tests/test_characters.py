import dataclasses
import math

import pytest

from repwalk.characters import (
    DEFAULT_TABLE_LIMIT,
    character_table,
    class_size_of,
    derangements,
    enumerate_classes,
    fixed_point_profile,
    mn_character,
)
from repwalk.errors import CapacityError
from repwalk.partitions import Partition, _bounded_counts, dimension_sn, enumerate_partitions

from oracles import (
    character_table_brute,
    class_sizes_brute,
    fixed_point_counts_brute,
    mn_reference,
    plancherel_fc_moments,
)


def test_class_sizes_brute_force():
    for n in range(1, 6):
        brute = class_sizes_brute(n)
        for c in enumerate_classes(n):
            assert brute[c.cycle_lengths] == c.class_size


def test_class_size_examples():
    assert {str(c.cycle_lengths): c.class_size for c in enumerate_classes(3)} == {
        "3": 2, "2+1": 3, "1+1+1": 1,
    }
    assert enumerate_classes(1)[0].class_size == 1
    assert class_size_of(Partition((5,))) == 24


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(c.class_size for c in enumerate_classes(n)) == math.factorial(n)


def test_no_class_has_n_minus_1_fixed_points():
    for n in range(2, 10):
        assert all(c.fixed_points != n - 1 for c in enumerate_classes(n))


def test_mn_against_permutation_modules():
    for n in range(1, 6):
        brute = character_table_brute(n)
        table = character_table(n)
        for i, lam in enumerate(table.partitions):
            assert table.values[i] == brute[lam]


def test_mn_trivial_and_sign():
    for n in range(1, 8):
        trivial = Partition((n,))
        sign = Partition([1] * n)
        for c in enumerate_classes(n):
            assert mn_character(trivial, c) == 1
            parity = (-1) ** (n - len(c.cycle_lengths))
            assert mn_character(sign, c) == parity


def test_mn_standard_example():
    assert mn_character(Partition((2, 1)), Partition((2, 1))) == 0


def test_mn_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character(Partition((2, 1)), Partition((2, 2)))


def test_table_small_values():
    # columns follow enumeration order, so the identity class comes last
    t2 = character_table(2)
    assert t2.values == ((1, 1), (-1, 1))
    t3 = character_table(3)
    id_col = t3.partitions.index(Partition((1, 1, 1)))
    dims = [row[id_col] for row in t3.values]
    assert dims == [1, 2, 1]


def test_table_capacity():
    with pytest.raises(CapacityError):
        character_table(13)


def test_table_orthogonality_n6():
    character_table(6).verify_orthogonality()


def test_table_entries_match_the_beta_list_rule():
    # the bead-bitmask recursion against Murnaghan-Nakayama on sorted
    # beta-value lists, every entry of every table the package builds
    for n in range(1, DEFAULT_TABLE_LIMIT + 1):
        table = character_table(n)
        for lam, row in zip(table.partitions, table.values):
            assert row == tuple(mn_reference(tuple(lam), tuple(c.cycle_lengths))
                                for c in table.classes)


def _mutated(table, i, j, value):
    rows = [list(row) for row in table.values]
    rows[i][j] = value
    return dataclasses.replace(table, values=tuple(map(tuple, rows)))


def test_orthogonality_catches_one_changed_entry():
    table = character_table(6)
    id_col = table.partitions.index(Partition([1] * 6))
    # the trivial row's entry on the diagonal: its own norm fails first
    with pytest.raises(ArithmeticError, match="row orthogonality fails at 0,0"):
        _mutated(table, 0, 0, 2).verify_orthogonality()
    # a sign flip off the diagonal keeps every norm, so only the dot
    # product of two different rows can fail
    i, j = 3, 5
    assert table.values[i][j]
    with pytest.raises(ArithmeticError, match=r"row orthogonality fails at (\d+),(?!\1\b)\d+"):
        _mutated(table, i, j, -table.values[i][j]).verify_orthogonality()
    with pytest.raises(ArithmeticError, match="orthogonality fails"):
        _mutated(table, 4, id_col, table.values[4][id_col] + 1).verify_orthogonality()


def test_orthogonality_checks_the_identity_column():
    # a negated row keeps both orthogonality relations; only the identity
    # column, which must hold the dimensions, tells it from a character
    table = character_table(6)
    rows = list(table.values)
    rows[2] = tuple(-x for x in rows[2])
    with pytest.raises(ArithmeticError, match="identity column is not the dimension"):
        dataclasses.replace(table, values=tuple(rows)).verify_orthogonality()


def test_orthogonality_refuses_a_table_int64_could_wrap():
    # 6! M^2 >= 2^63 for M = 10^12, whose Gram sums int64 would wrap, so the
    # table is refused before the product; M = 10^8 is still under the bound
    # and the product itself finds the changed entry
    table = character_table(6)
    assert math.factorial(6) * 10**24 >= 1 << 63 > math.factorial(6) * 10**16
    with pytest.raises(ArithmeticError, match="too large to check in int64"):
        _mutated(table, 3, 5, 10**12).verify_orthogonality()
    with pytest.raises(ArithmeticError, match="row orthogonality fails"):
        _mutated(table, 3, 5, 10**8).verify_orthogonality()


def test_true_tables_fit_the_int64_check_at_the_table_limit():
    # |chi| <= d, so n! max(d)^2 < 2^63 means no true table is refused; a
    # raised DEFAULT_TABLE_LIMIT past that fails here, not by overflow
    n = DEFAULT_TABLE_LIMIT
    dims = [dimension_sn(lam) for lam in enumerate_partitions(n)]
    assert math.factorial(n) * max(dims) ** 2 < 1 << 63
    table = character_table(n)
    assert all(abs(x) <= d for row, d in zip(table.values, dims) for x in row)


def test_first_part_blocks_are_suffixes_of_the_smaller_classes():
    # the layout the table build relies on: classes with first part k are
    # contiguous, and with k stripped they are, in order, the last
    # N(n-k, min(k, n-k)) partitions of n-k
    for n in range(1, 21):
        cycles = [c.cycle_lengths for c in enumerate_classes(n)]
        start = 0
        for k in range(n, 0, -1):
            width = _bounded_counts(n - k)[min(k, n - k)]
            block = cycles[start:start + width]
            start += width
            assert all(lam[0] == k for lam in block)
            smaller = enumerate_partitions(n - k)
            assert [tuple(lam[1:]) for lam in block] == \
                [tuple(nu) for nu in smaller[len(smaller) - width:]]
        assert start == len(cycles)


def test_derangements():
    assert [derangements(m) for m in range(6)] == [1, 0, 1, 2, 9, 44]


def test_fixed_point_profile_brute():
    for n in range(1, 7):
        assert fixed_point_profile(n) == fixed_point_counts_brute(n)


def test_fixed_point_profile_examples():
    assert fixed_point_profile(3) == {0: 2, 1: 3, 3: 1}
    assert fixed_point_profile(1) == {1: 1}
    assert fixed_point_profile(4) == {0: 9, 1: 8, 2: 6, 4: 1}


def test_fixed_point_profile_moments():
    # mean number of fixed points is 1, second moment is 2
    for n in range(2, 11):
        profile = fixed_point_profile(n)
        assert sum(c * i for i, c in profile.items()) == math.factorial(n)
        assert sum(c * i * i for i, c in profile.items()) == 2 * math.factorial(n)
        assert sum(profile.values()) == math.factorial(n)
        assert profile.get(n - 1, 0) == 0


def test_fixed_point_count_bound():
    # at most n!/(2 i!) permutations with exactly i <= n-2 fixed points
    for n in range(2, 12):
        profile = fixed_point_profile(n)
        for i, c in profile.items():
            if i <= n - 2:
                assert 2 * c * math.factorial(i) <= math.factorial(n)


def test_plancherel_fc_moments():
    for n in (3, 4, 5, 6):
        for c in enumerate_classes(n):
            if c.fixed_points == n:
                continue
            mean_red, var = plancherel_fc_moments(n, c.cycle_lengths)
            assert mean_red == 0
            assert var == 1


def test_identity_column_is_dimension():
    for n in range(2, 8):
        table = character_table(n)
        id_col = table.partitions.index(Partition([1] * n))
        for i, lam in enumerate(table.partitions):
            assert table.values[i][id_col] == dimension_sn(lam)
