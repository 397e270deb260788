import math
from itertools import combinations_with_replacement

import pytest

from covercount.errors import DomainError
from covercount.symmetric import (
    Partition,
    character,
    character_column,
    class_elements,
    conjugacy_class_size,
    cycle_type,
    irrep_dimension,
    partitions_of,
    perm_from_cycle_lengths,
    perm_mult,
)

from .oracles import mn_character, perms_of_type


def test_partition_views_agree():
    mu = Partition([2, 1, 1])
    assert mu.m == 4 and mu.num_parts == 3 and mu.degeneracy == 1
    assert mu.aut == 2
    assert mu == Partition.from_multiplicities({1: 2, 2: 1})


def test_empty_partition():
    mu = Partition(())
    assert mu.m == 0 and mu.num_parts == 0 and mu.degeneracy == 0 and mu.aut == 1


def test_partition_rejects_nonpositive():
    with pytest.raises(DomainError):
        Partition([0, 1])


def test_cycle_type_extraction():
    p = perm_from_cycle_lengths((3, 2), 6)
    assert cycle_type(p) == Partition([3, 2, 1])


@pytest.mark.parametrize(
    "parts,n,size",
    [
        ((1, 1, 1, 1), 4, 1),
        ((2,), 4, 6),
        ((3,), 4, 8),
        ((2, 2), 4, 3),
        ((4,), 4, 6),
        ((3, 2), 5, 20),
    ],
)
def test_class_sizes(parts, n, size):
    full = Partition(list(parts) + [1] * (n - sum(parts)))
    assert conjugacy_class_size(full) == size
    assert conjugacy_class_size(Partition([p for p in parts if p >= 2]), n) == size


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_elements_complete_and_distinct(n):
    for shape in partitions_of(n):
        lengths = tuple(b for b in shape.parts if b >= 2)
        got = list(class_elements(n, lengths))
        assert len(got) == len(set(got)) == conjugacy_class_size(shape)
        want = set(perms_of_type(n, lengths))
        assert set(got) == want


def test_perm_mult_left_to_right():
    a = perm_from_cycle_lengths((2,), 3)  # (0 1)
    b = (0, 2, 1)  # (1 2)
    # apply a then b: 0->1->2
    assert perm_mult(a, b)[0] == 2


def test_character_table_s3():
    classes = [Partition(p) for p in ([1, 1, 1], [2, 1], [3])]
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    for shape_parts, values in table.items():
        shape = Partition(shape_parts)
        assert [character(shape, c) for c in classes] == values


def test_character_table_s4_spot_checks():
    # standard table values
    assert character(Partition([2, 2]), Partition([1, 1, 1, 1])) == 2
    assert character(Partition([2, 2]), Partition([2, 1, 1])) == 0
    assert character(Partition([2, 2]), Partition([2, 2])) == 2
    assert character(Partition([2, 2]), Partition([3, 1])) == -1
    assert character(Partition([2, 2]), Partition([4])) == 0
    assert character(Partition([3, 1]), Partition([2, 1, 1])) == 1
    assert character(Partition([3, 1]), Partition([4])) == -1


@pytest.mark.parametrize("n", range(9))
def test_beta_set_characters_match_ribbon_recursion(n):
    # every (shape, class) pair of S_n, n <= 8, against the former
    # border-ribbon recursion on part tuples
    for shape in partitions_of(n):
        assert irrep_dimension(shape) == mn_character(shape.parts, (1,) * n)
        for cls in partitions_of(n):
            assert character(shape, cls) == mn_character(shape.parts, cls.parts), (shape, cls)


# the profile classes of the multi-profile covering counts
PROFILE_PARTS = ((2,), (3,), (2, 2), (4,), (3, 2), (2, 2, 2), (5,), (3, 3), (4, 2))


@pytest.mark.parametrize("n", [9, 10])
def test_character_columns_match_ribbon_recursion(n):
    # every profile class, and every product class of two or three of them,
    # that fits in S_n: the whole column against the ribbon recursion
    classes = {
        tuple(sorted(sum(combo, ()), reverse=True))
        for r in (1, 2, 3)
        for combo in combinations_with_replacement(PROFILE_PARTS, r)
    }
    checked = 0
    for parts in sorted(classes):
        if sum(parts) > n:
            continue
        full = parts + (1,) * (n - sum(parts))
        expected = [mn_character(shape.parts, full) for shape in partitions_of(n)]
        assert character_column(n, parts) == expected, parts
        checked += 1
    assert checked == {9: 22, 10: 29}[n]  # distinct classes that fit


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dimensions_square_sum_to_group_order(n):
    total = sum(irrep_dimension(shape) ** 2 for shape in partitions_of(n))
    assert total == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_column_orthogonality_identity_vs_transposition(n):
    tr = Partition([2] + [1] * (n - 2))
    s = sum(
        irrep_dimension(shape) * character(shape, tr) for shape in partitions_of(n)
    )
    assert s == 0


def test_class_sizes_sum_to_group_order():
    for n in range(1, 7):
        assert sum(conjugacy_class_size(p) for p in partitions_of(n)) == math.factorial(n)
