import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from covercount import monodromy
from covercount.errors import BudgetExceeded, DomainError
from covercount.monodromy import (
    CoveringSpec,
    clear_caches,
    hurwitz_connected,
    hurwitz_disconnected,
)
from covercount.symmetric import Partition, partitions_of

from .oracles import (
    class_dp_connected,
    cut_join_connected,
    cut_join_table,
    dp_start,
    dp_walk,
    naive_connected_count,
    naive_total_count,
)


def test_spec_derives_simple_point_count():
    spec = CoveringSpec(0, 3, [])
    assert spec.c == 4
    spec = CoveringSpec(1, 2, [Partition([2])])
    assert spec.c == 2 * 2 + 2 - 2 - 1


def test_spec_rejects_oversized_partition():
    with pytest.raises(DomainError):
        CoveringSpec(0, 2, [Partition([3])])


def test_spec_rejects_negative_c():
    with pytest.raises(DomainError):
        CoveringSpec(0, 2, [Partition([2]), Partition([2]), Partition([2])])


def test_genus0_three_sheets_no_profile():
    assert hurwitz_connected(CoveringSpec(0, 3, [])) == 4


def test_genus1_two_sheets_no_profile():
    assert hurwitz_connected(CoveringSpec(1, 2, [])) == F(1, 2)


def test_genus0_three_sheets_marked_trivial_profile():
    assert hurwitz_connected(CoveringSpec(0, 3, [Partition([1, 1, 1])])) == 4


def test_disconnected_genus0_three_sheets():
    assert hurwitz_disconnected(CoveringSpec(0, 3, [])) == F(9, 2)


def test_single_sheet_connected_equals_disconnected():
    spec = CoveringSpec(0, 1, [])
    assert hurwitz_connected(spec) == hurwitz_disconnected(spec) == 1


def test_full_cycle_forces_transitivity():
    for n in range(2, 6):
        spec = CoveringSpec(0, n, [Partition([n])])
        assert hurwitz_connected(spec) == hurwitz_disconnected(spec)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 2, []),
        (0, 3, []),
        (1, 2, []),
        (0, 3, [(2,)]),
        (0, 3, [(3,)]),
        (0, 4, [(2,)]),
        (0, 4, [(2, 2)]),
        (0, 4, [(3, 1)]),
        (1, 3, [(2,)]),
        (0, 3, [(1, 1)]),
        (2, 2, []),
    ],
)
def test_walk_count_matches_naive_enumeration(g, n, mus):
    spec = CoveringSpec(g, n, [Partition(mu) for mu in mus])
    assert hurwitz_connected(spec) == naive_connected_count(g, n, mus)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 3, [(2,), (2,)]),
        (0, 3, [(2,), (3,)]),
        (0, 4, [(2,), (2,)]),
        (0, 4, [(2,), (2,), (2,)]),
        (1, 2, [(2,), (2,)]),
    ],
)
def test_multi_profile_matches_naive_enumeration(g, n, mus):
    spec = CoveringSpec(g, n, [Partition(mu) for mu in mus])
    assert hurwitz_connected(spec) == naive_connected_count(g, n, mus)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 3, []),
        (0, 4, [(2,)]),
        (1, 3, []),
        (0, 4, [(2, 1)]),
    ],
)
def test_character_route_matches_naive_total(g, n, mus):
    spec = CoveringSpec(g, n, [Partition(mu) for mu in mus])
    assert hurwitz_disconnected(spec) == naive_total_count(g, n, mus)


def test_connected_never_exceeds_disconnected():
    cases = [
        CoveringSpec(0, n, [Partition(mu)])
        for n in range(2, 6)
        for mu in [(), (2,), (1, 1), (2, 1)]
        if sum(mu) <= n
    ]
    for spec in cases:
        assert hurwitz_connected(spec) <= hurwitz_disconnected(spec)


def test_trivial_profile_markings_decouple():
    # mu = 1^a only: the count is C(n, a) times the no-profile count
    for n in range(2, 6):
        base = hurwitz_connected(CoveringSpec(0, n, []))
        for a in range(1, 4):
            if a > n:
                continue
            spec = CoveringSpec(0, n, [Partition([1] * a)])
            assert hurwitz_connected(spec) == math.comb(n, a) * base


def test_unmarked_nontrivial_profile_weight_is_one():
    # a profile without 1-parts carries no binomial factor
    assert CoveringSpec(0, 4, [Partition([2, 2])]).marking_weight() == 1
    assert CoveringSpec(0, 4, [Partition([2, 1])]).marking_weight() == 2


def _identity_product_total(spec):
    """Walk the class DP without the transitivity filter: one step per
    profile after the first, then the transposition steps, accepting every
    state whose running product is the identity (any block structure)."""
    nus = [mu.nontrivial() for mu in spec.mus]
    vec = dp_walk(dp_start(spec.n, nus[0] if nus else ()), nus[1:], spec.c)
    return sum(
        w for state, w in vec.items() if all(l == 1 for block in state for l in block)
    )


@pytest.mark.parametrize(
    "n,mus",
    [(6, []), (7, []), (6, [(2,)]), (7, [(3,)]), (8, []), (6, [(2, 2)])],
)
def test_walk_multiplicities_against_character_route(n, mus):
    # dropping the transitivity filter from the class walk must reproduce
    # the character-sum count exactly; this pins the transition
    # multiplicities at sizes no naive enumeration can reach
    spec = CoveringSpec(0, n, [Partition(m) for m in mus])
    total = _identity_product_total(spec)
    dp_route = F(spec.marking_weight() * total, math.factorial(n))
    assert dp_route == hurwitz_disconnected(spec)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 6, [(2, 2), (3,)]),
        (0, 7, [(3, 2), (2, 2, 2)]),
        (1, 6, [(2,), (3,)]),
        (0, 6, [(2, 2), (2, 2)]),
        (0, 8, [(4,), (2, 2), (3,)]),
        (0, 7, [(3,), (3,), (2,)]),
        (0, 8, [(2, 1, 1), (3, 3)]),
    ],
)
def test_profile_step_multiplicities_against_character_route(g, n, mus):
    # the same filter-free walk with whole profile classes as steps: pins
    # the profile-step multiplicities for two and three profiles, equal
    # profile types and marked 1-parts
    spec = CoveringSpec(g, n, [Partition(m) for m in mus])
    total = _identity_product_total(spec)
    dp_route = F(spec.marking_weight() * total, math.factorial(n))
    assert dp_route == hurwitz_disconnected(spec)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 7, [(2,), (3,), (3, 2)]),
        (2, 7, [(3,), (2, 2), (4,)]),
        (0, 8, [(2,), (3,), (2, 2)]),
    ],
)
def test_count_invariant_under_profile_rotation(g, n, mus):
    # the table is symmetric in the profiles by construction, so each
    # rotation is checked against the class DP, which walks them in order
    for k in range(len(mus)):
        rotated = mus[k:] + mus[:k]
        count = hurwitz_connected(CoveringSpec(g, n, rotated))
        assert count == class_dp_connected(g, n, rotated) != 0


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 9, [(3, 3), (4, 2)]),
        (0, 10, [(5,), (4, 2)]),
        (1, 8, [(2, 2), (2, 2)]),
        (0, 10, [(2,), (2,), (3,)]),
        (2, 7, [(3,), (2, 2), (4,)]),
        (0, 8, [(2, 1, 1), (3, 3), (2,)]),
        (1, 7, [(3, 1), (2, 2, 1)]),
    ],
)
def test_multi_profile_matches_class_dp(g, n, mus):
    # two and three profiles, equal profile types, marked 1-parts
    spec = CoveringSpec(g, n, [Partition(m) for m in mus])
    assert hurwitz_connected(spec) == class_dp_connected(g, n, mus)


# The benchmark's pool of multi-profile specs (two and three profiles, n 7-10,
# g 0-3), counted once by the class DP of tests/oracles.py.
PROFILE_POOL_COUNTS = [
    (0, 10, ((2, 2, 2), (4, 2)), F(3262533120000)),
    (0, 10, ((3, 2), (4, 2)), F(4316868864000)),
    (0, 10, ((3, 3), (4, 2)), F(162294451200)),
    (0, 10, ((5,), (4, 2)), F(80337600000)),
    (1, 10, ((3, 3), (4, 2)), F(688635692236800)),
    (2, 10, ((3, 2), (4, 2)), F(53829981109121817600)),
    (2, 10, ((5,), (4, 2)), F(1263664778856480000)),
    (3, 10, ((2, 2, 2), (4, 2)), F(87758709949517967360000)),
    (3, 10, ((3, 2), (4, 2)), F(133143987584781844070400)),
    (3, 10, ((5,), (4, 2)), F(3281674629615782400000)),
    (0, 7, ((2,), (3,), (3, 2)), F(1682100)),
    (0, 7, ((2, 2), (4,), (2, 2, 2)), F(18816)),
    (0, 7, ((3,), (3,), (3, 3)), F(8910)),
    (0, 7, ((4,), (2, 2, 2), (2, 2, 2)), F(992)),
    (0, 8, ((2,), (3,), (2, 2)), F(2670796800)),
    (0, 10, ((2,), (2,), (3,)), F(1868106240000000)),
    (1, 7, ((4,), (2, 2, 2), (2, 2, 2)), F(633920)),
    (1, 10, ((2,), (2,), (3,)), F(8204813396043264000)),
    (2, 7, ((2,), (2, 2), (3, 3)), F(34505873640)),
    (2, 7, ((2,), (2, 2, 2), (3, 3)), F(1741551840)),
    (2, 7, ((2,), (3,), (3, 2)), F(675539657100)),
    (2, 7, ((3,), (2, 2), (4,)), F(77383028520)),
    (3, 7, ((3,), (3,), (4,)), F(24577679918880)),
    (3, 9, ((2,), (2,), (2, 2)), F(61733755806436211097600)),
    (3, 10, ((2,), (2,), (3,)), F(60448820280782896714752000)),
]


@pytest.mark.parametrize("rotate", [0, 1])
def test_profile_pool_counts_on_cold_tables(rotate):
    # the table keys the profiles as a sorted multiset, so the rotated order
    # reads the same entries; each order is counted on cold tables against
    # the pinned class-DP values
    clear_caches()
    for g, n, mus, expected in PROFILE_POOL_COUNTS:
        mus = mus[rotate:] + mus[:rotate]
        assert hurwitz_connected(CoveringSpec(g, n, mus)) == expected, (g, n, mus)


def test_budget_refuses_three_profiles_cold_and_warm():
    # g = 0, n = 3, three (2) profiles, c = 1.  Each profile has 2
    # sub-multisets, so 8 in all; the table bound is 3 * 8 * (1//2 + 1) = 24
    # entries, each up to 2 * p(3) = 6 shape terms plus 3 * 8 * 1 products:
    # 24 * 30 = 720.  The bound depends on the spec alone, so a table that
    # already holds the answer must not let a smaller budget through.
    spec = CoveringSpec(0, 3, [Partition([2])] * 3)
    clear_caches()
    for _ in ("cold", "warm"):
        with pytest.raises(BudgetExceeded):
            hurwitz_connected(spec, node_budget=719)
        assert hurwitz_connected(spec, node_budget=720) == naive_connected_count(
            0, 3, [(2,)] * 3
        )


def test_concurrent_counts_match_serial():
    # table entries are written once, fully computed, so threads racing on
    # cold tables at worst duplicate work
    specs = [
        CoveringSpec(0, 7, [Partition(m) for m in mus])
        for mus in [[(2,), (3,), (3, 2)], [(3,), (3,), (3, 3)], [(2, 2), (4,), (2, 2, 2)]]
    ] + [
        CoveringSpec(1, 6, [Partition([2]), Partition([2, 2])]),
        CoveringSpec(1, 7, [Partition([3, 2])]),
        CoveringSpec(2, 8, []),
    ]
    clear_caches()
    serial = [hurwitz_connected(spec) for spec in specs]

    def run(k):
        return [hurwitz_connected(spec) for spec in specs[k:] + specs[:k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):  # each round races on cold tables
            clear_caches()
            # two threads per order: they reach the same entries together
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, (0, 0, 1, 1), timeout=120))
            for k, got in zip((0, 0, 1, 1), results):
                assert got == serial[k:] + serial[:k]
    finally:
        sys.setswitchinterval(interval)


def test_rows_grow_by_publishing_new_lists():
    # a stored row is never changed in place: a concurrent fill may hold a
    # reference to it, so a longer row must be a new list
    clear_caches()
    hurwitz_connected(CoveringSpec(0, 6, [Partition([2, 2]), Partition([3])]))
    tables = (monodromy._DISC, monodromy._CONN)
    held = [{key: (row, list(row)) for key, row in table.items()} for table in tables]
    hurwitz_connected(CoveringSpec(3, 6, [Partition([2, 2]), Partition([3])]))
    for table, rows in zip(tables, held):
        assert any(len(table[key]) > len(copy) for key, (_, copy) in rows.items())
        for key, (row, copy) in rows.items():
            assert row == copy, key


def test_budget_refusal():
    from covercount.monodromy import clear_caches

    clear_caches()  # cold tables; the next test refuses with a warm one
    with pytest.raises(BudgetExceeded):
        hurwitz_connected(CoveringSpec(0, 8, []), node_budget=50)


def test_budget_refusal_with_warm_table():
    # the budget is an up-front bound on the count table's fill, so a table
    # already filled by a larger spec must not let a small budget through
    clear_caches()
    hurwitz_connected(CoveringSpec(0, 9, []))
    with pytest.raises(BudgetExceeded):
        hurwitz_connected(CoveringSpec(0, 8, []), node_budget=50)


@pytest.mark.parametrize("g", [0, 1, 2])
def test_count_table_matches_class_dp(g):
    # every single-profile spec with n <= 8, the empty partition and
    # profiles with 1-parts included; the spec without profiles has no DP
    # route of its own and is compared through the marked profile (1)
    for n in range(1, 9):
        for m in range(n + 1):
            for mu in partitions_of(m):
                spec = CoveringSpec(g, n, [mu])
                assert hurwitz_connected(spec) == class_dp_connected(g, n, [mu.parts]), (
                    g,
                    n,
                    mu,
                )
        marked = class_dp_connected(g, n, [(1,)])
        assert marked == n * hurwitz_connected(CoveringSpec(g, n, [])), (g, n)


@pytest.mark.parametrize("g", [3, 4])
def test_count_table_matches_cut_and_join(g):
    # single profiles at genera where the class DP is too slow, n <= 9
    table = cut_join_table(g, 9)
    for n in range(1, 10):
        for m in range(n + 1):
            for mu in partitions_of(m):
                spec = CoveringSpec(g, n, [mu])
                assert hurwitz_connected(spec) == cut_join_connected(g, n, mu.parts, table), (
                    g,
                    n,
                    mu,
                )


def test_character_limit_refusal():
    with pytest.raises(BudgetExceeded):
        hurwitz_disconnected(CoveringSpec(0, 12, []), character_limit=10)


def test_no_transpositions_available_gives_zero():
    # one sheet, two simple points required: S_1 has no transpositions
    assert hurwitz_connected(CoveringSpec(1, 1, [Partition([1])])) == 0


def test_genus2_two_sheets_by_hand():
    # S_2 has one transposition; the only 6-tuple is (12)^6 = id, transitive
    assert hurwitz_connected(CoveringSpec(2, 2, [])) == F(1, 2)


def test_genus1_exception_values():
    # (2n)!/(24 n n!) A_n for n <= 4; includes h_{1,2} = 1/2
    from covercount.algebra import a_closed

    for n in range(1, 5):
        expected = F(math.factorial(2 * n), 24 * n * math.factorial(n)) * a_closed(n)
        assert hurwitz_connected(CoveringSpec(1, n, [])) == expected
