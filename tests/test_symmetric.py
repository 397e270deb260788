import math
from itertools import combinations_with_replacement

import pytest

from covercount import symmetric
from covercount.errors import DomainError
from covercount.monodromy import clear_caches
from covercount.symmetric import (
    Partition,
    character,
    character_column,
    conjugacy_class_size,
    shape_table,
)

from .oracles import (
    character_column_from_leaves,
    class_elements,
    irrep_dimension,
    mn_character,
    partitions_of,
    perm_cycles,
    perm_from_cycle_lengths,
    perm_mult,
    perms_of_type,
    shape_table_from_partitions,
)


def test_partition_views_agree():
    mu = Partition([2, 1, 1])
    assert mu.m == 4 and mu.num_parts == 3 and mu.degeneracy == 1
    assert mu.aut == 2


def test_empty_partition():
    mu = Partition(())
    assert mu.m == 0 and mu.num_parts == 0 and mu.degeneracy == 0 and mu.aut == 1


def test_partition_rejects_nonpositive():
    with pytest.raises(DomainError):
        Partition([0, 1])


def test_cycle_type_extraction():
    p = perm_from_cycle_lengths((3, 2), 6)
    assert perm_cycles(p) == [[0, 1, 2], [3, 4], [5]]
    assert Partition(len(c) for c in perm_cycles(p)) == Partition([3, 2, 1])


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
    # border-ribbon recursion on part tuples: one column per class, and one
    # character() call per class, on the shape at the class's own position
    shapes = list(partitions_of(n))
    for shape in shapes:
        assert irrep_dimension(shape) == mn_character(shape.parts, (1,) * n)
    for i, cls in enumerate(partitions_of(n)):
        column = character_column(n, cls.nontrivial())
        assert column == [mn_character(shape.parts, cls.parts) for shape in shapes], cls
        assert character(shapes[i], cls) == column[i], (shapes[i], cls)


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


@pytest.mark.parametrize("n", range(21))
def test_branching_shape_table_matches_partition_route(n):
    # the bead masks of partitions_of(n) in order, with their dimensions
    # from the beta-set formula and their content sums box by box; the
    # squares sum to n!
    assert shape_table(n) == shape_table_from_partitions(n)
    assert sum(dim * dim for dim in shape_table(n)[1]) == math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_content_sum_is_transposition_central_character(n):
    # f_(2) = C(n, 2) chi(transposition) / dim
    _, dims, contents = shape_table(n)
    column = character_column(n, (2,))
    assert [math.comb(n, 2) * chi // dim for chi, dim in zip(column, dims)] == list(contents)


@pytest.mark.parametrize("m", range(15))
def test_step_columns_match_leaves_pass(m):
    # every class of nontrivial parts that fits in S_m, m <= 14: one rim-hook
    # step from the stored column of the class's prefix, against the pass
    # from the leaves
    clear_caches()
    classes = [
        p.parts for j in range(m + 1) for p in partitions_of(j) if min(p.parts, default=2) > 1
    ]
    for parts in classes:
        assert character_column(m, parts) == character_column_from_leaves(m, parts), parts
    assert len(classes) == len(shape_table(m)[0])  # one per class of S_m


def test_clear_caches_empties_the_column_store():
    columns = {parts: character_column(9, parts) for parts in [(2,), (3, 2), (2, 2, 2), (5, 4)]}
    assert symmetric._COLUMNS
    clear_caches()
    assert not symmetric._COLUMNS and shape_table.cache_info().currsize == 0
    assert {parts: character_column(9, parts) for parts in columns} == columns


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
