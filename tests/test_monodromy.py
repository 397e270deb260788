import math
from fractions import Fraction as F

import pytest

from covercount.errors import BudgetExceeded, DomainError
from covercount.monodromy import (
    DEFAULT_NODE_BUDGET,
    CoveringSpec,
    _class_dp_count,
    clear_caches,
    hurwitz_connected,
    hurwitz_disconnected,
)
from covercount.symmetric import Partition, partitions_of

from .oracles import naive_connected_count, naive_total_count


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


def _walk_total_identity_product(n, start, steps):
    """Walk the class DP without the transitivity filter: accept every state
    whose running product is the identity (any block structure)."""
    from covercount.monodromy import _STATES, _transitions

    vec = dict(start)
    for _ in range(steps):
        new = {}
        for sid, w in vec.items():
            for tid, m in _transitions(sid):
                new[tid] = new.get(tid, 0) + w * m
        vec = new
    return sum(
        w
        for sid, w in vec.items()
        if all(l == 1 for block in _STATES[sid] for l in block)
    )


@pytest.mark.parametrize(
    "n,mus",
    [(6, []), (7, []), (6, [(2,)]), (7, [(3,)]), (8, []), (6, [(2, 2)])],
)
def test_walk_multiplicities_against_character_route(n, mus):
    # dropping the transitivity filter from the class walk must reproduce
    # the character-sum count exactly; this pins the transition
    # multiplicities at sizes no naive enumeration can reach
    from covercount.monodromy import _canon, _intern
    from covercount.symmetric import conjugacy_class_size, Partition as P

    spec = CoveringSpec(0, n, [Partition(m) for m in mus])
    if not mus:
        start = {_intern(_canon([[1]] * n)): 1}
    else:
        parts = [b for b in mus[0] if b >= 2]
        blocks = [[p] for p in parts] + [[1]] * (n - sum(parts))
        start = {_intern(_canon(blocks)): conjugacy_class_size(P(parts), n)}
    total = _walk_total_identity_product(n, start, spec.c)
    dp_route = F(spec.marking_weight() * total, math.factorial(n))
    assert dp_route == hurwitz_disconnected(spec)


def test_budget_refusal():
    from covercount.monodromy import clear_caches

    clear_caches()  # a memoized value legitimately bypasses the budget
    with pytest.raises(BudgetExceeded):
        hurwitz_connected(CoveringSpec(0, 8, []), node_budget=50)


def test_budget_refusal_with_warm_table():
    # the cut-and-join budget is an up-front size estimate, so a table
    # already filled by a larger spec must not let a small budget through
    clear_caches()
    hurwitz_connected(CoveringSpec(0, 9, []))
    with pytest.raises(BudgetExceeded):
        hurwitz_connected(CoveringSpec(0, 8, []), node_budget=50)


def _class_dp_value(spec):
    count = _class_dp_count(spec, DEFAULT_NODE_BUDGET)
    return F(spec.marking_weight() * count, math.factorial(spec.n))


@pytest.mark.parametrize("g", [0, 1, 2])
def test_cut_and_join_matches_class_dp(g):
    # every single-profile spec with n <= 8, the empty partition and
    # profiles with 1-parts included; the spec without profiles has no DP
    # route of its own and is compared through the marked profile (1)
    for n in range(1, 9):
        for m in range(n + 1):
            for mu in partitions_of(m):
                spec = CoveringSpec(g, n, [mu])
                assert hurwitz_connected(spec) == _class_dp_value(spec), (g, n, mu)
        marked = _class_dp_value(CoveringSpec(g, n, [Partition([1])]))
        assert marked == n * hurwitz_connected(CoveringSpec(g, n, [])), (g, n)
    # memoized counts skip the budget check; keep budget tests order-independent
    clear_caches()


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
