import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from covercount import monodromy, symmetric
from covercount.errors import BudgetExceeded, DomainError
from covercount.gravity import TauSpec, _bracket_terms, h_tau_series
from covercount.hurwitz_series import h0_closed, h_series, oracle_data
from covercount.monodromy import (
    CoveringSpec,
    clear_caches,
    hurwitz_connected,
    hurwitz_disconnected,
)
from covercount.symmetric import Partition, conjugacy_class_size

from .oracles import (
    class_dp_connected,
    cut_join_connected,
    character_column_from_leaves,
    cut_join_table,
    dp_start,
    dp_walk,
    gjv_one_part,
    irrep_dimension,
    kp_residual,
    naive_connected_count,
    naive_total_count,
    partitions_of,
    table_connected,
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


# --- a (2) profile is one more simple point: the table never keys it


def test_two_profiles_store_the_rows_of_the_spec_without_them():
    # f_(2) is the content sum, so (2) and (2, 1, 1) profiles read the rows of
    # the same spec without them at the same genus, whose c is larger by one
    # for each; the 1-parts still weigh the count by C(8 - 2, 2) = 15
    folded = CoveringSpec(0, 8, [(2,), (3,), (2, 1, 1), (2, 2), (2,)])
    plain = CoveringSpec(0, 8, [(3,), (2, 2)])
    assert folded.c + 3 == plain.c
    tables = []
    for spec in (folded, plain):
        clear_caches()
        counts = hurwitz_connected(spec), hurwitz_disconnected(spec)
        tables.append((counts, dict(monodromy._CONN), dict(monodromy._DISC)))
    (counts, conn, disc), (plain_counts, plain_conn, plain_disc) = tables
    assert counts == tuple(15 * x for x in plain_counts)
    assert conn == plain_conn and disc == plain_disc
    assert (8, ((2, 2), (3,))) in conn


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 4, [(2,), (2,), (3,)]),
        (0, 4, [(2, 1, 1), (2,), (2,), (2, 2)]),
        (1, 4, [(2,), (2,), (4,)]),
        (0, 5, [(2,), (2,), (4,), (4,)]),
        (0, 5, [(2,), (2, 1, 1), (3, 1), (5,)]),
    ],
)
def test_folded_counts_match_naive_enumeration(g, n, mus):
    # two or three (2) profiles beside others, each (2) a tuple slot of its own
    spec = CoveringSpec(g, n, [Partition(mu) for mu in mus])
    assert hurwitz_connected(spec) == naive_connected_count(g, n, mus)
    assert hurwitz_disconnected(spec) == naive_total_count(g, n, mus)


@pytest.mark.parametrize(
    "g,n,mus",
    [
        (0, 7, [(2,), (2,), (3, 2)]),
        (1, 6, [(2,), (2, 1, 1), (2,), (4,)]),
        (2, 7, [(2,), (2,), (2,), (3, 3)]),
        (0, 7, [(2, 1, 1, 1, 1, 1), (2,), (5,)]),
    ],
)
def test_folded_counts_match_class_dp(g, n, mus):
    # the class DP walks each (2) profile as a step of its own
    spec = CoveringSpec(g, n, [Partition(mu) for mu in mus])
    assert hurwitz_connected(spec) == class_dp_connected(g, n, mus)
    total = F(spec.marking_weight() * _identity_product_total(spec), math.factorial(n))
    assert hurwitz_disconnected(spec) == total


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


def test_profile_pool_counts_on_warm_tables():
    # the whole pool on one table, in two fixed shuffled orders: specs share
    # the plans of common sub-multisets, and a spec of larger genus extends
    # rows another spec stored by parity steps.  Every stored T_conn row must
    # equal the row of a cold fill through the same c.
    clear_caches()
    for seed in (1, 2):
        for g, n, mus, expected in random.Random(seed).sample(PROFILE_POOL_COUNTS, 25):
            assert hurwitz_connected(CoveringSpec(g, n, mus)) == expected, (g, n, mus)
    warm = dict(monodromy._CONN)
    assert len(warm) > 100
    for (m, rho), row in warm.items():
        clear_caches()
        rows = monodromy._rows(m, monodromy._plan(rho))
        assert monodromy._fill(m, rho, len(row) - 1, rows)[m] == row, (m, rho)


def _table_nu(mus):
    """nu of the table entry that counts a spec of these profiles: the
    nontrivial parts of each profile, with each (2) profile left out, since
    it is one more transposition and adds 1 to c instead."""
    classes = [tuple(b for b in mu if b > 1) for mu in mus]
    return tuple(sorted(p for p in classes if p and p != (2,)))


def _readable_limits(n, nu):
    """{rho: the largest m at which a count of (n, nu) can read a row of rho},
    by brute force over every profilewise assignment of nu's parts: the parts
    left out of rho need sheets of their own, at least one."""
    limits = {nu: n}
    subsets = [
        [idx for r in range(len(parts) + 1) for idx in combinations(range(len(parts)), r)]
        for parts in nu
    ]
    for pick in product(*subsets):
        taken = [tuple(parts[i] for i in idx) for parts, idx in zip(nu, pick)]
        left = [sum(parts) - sum(t) for parts, t in zip(nu, taken)]
        rho = tuple(sorted(t for t in taken if t))
        limits[rho] = max(limits.get(rho, 0), n - max(left + [1]))
    return limits


def _folded_rows(n, nu):
    """The rows a cold count of (n, nu) stores: the readable rows, each key
    without its (2) pieces (they sort first), with the largest number k of
    pieces a readable row of the key held, and each key's m from its own
    size up to its largest readable m."""
    tops = {}
    for rho, top in _readable_limits(n, nu).items():
        if max([sum(parts) for parts in rho] + [1]) <= top:
            k = rho.count((2,))
            old_top, old_k = tops.get(rho[k:], (0, 0))
            tops[rho[k:]] = max(old_top, top), max(old_k, k)
    return {
        (m, rho): k
        for rho, (top, k) in tops.items()
        for m in range(max([sum(parts) for parts in rho] + [1]), top + 1)
    }


READABLE_ROW_SPECS = [PROFILE_POOL_COUNTS[k][:3] for k in (0, 4, 10, 14, 23)] + [
    (1, 9, ((3, 2, 2, 1),)),
    (2, 8, ()),
    (4, 27, ((3,) * 9,)),  # the largest count of <tau_2^9>_4
    (0, 7, ((2, 2), (3, 3))),  # () is read at m = 1 only, ((3,),) also with a (2) piece
]
# rows a cold count stores; n x (sub-multisets of nu) would be 160 and 270,
# and the readable rows before (2) pieces were folded 38 and 9
STORED_ROWS = {READABLE_ROW_SPECS[0]: 30, READABLE_ROW_SPECS[7]: 9}


@pytest.mark.parametrize("g, n, mus", READABLE_ROW_SPECS)
def test_cold_fill_stores_exactly_the_readable_rows(g, n, mus):
    # a proper sub-multiset rho of nu is read only at m <= n - size(nu - rho);
    # the rows of nu itself are stored for every m <= n, so the smaller n of
    # a series read them.  A rho holding k (2) pieces is read as the row of rho
    # without them at c + k, so each stored row runs through c + k, k the
    # most pieces a readable row of its key holds.  A count of genus <= 1 and
    # one profile takes the closed form and stores no row, so such a spec is
    # counted through a fill
    clear_caches()
    spec = CoveringSpec(g, n, mus)
    nu, c = _table_nu(mus), monodromy._table_key(spec)[2]
    (table_connected if g <= 1 and len(nu) <= 1 else hurwitz_connected)(spec)
    expected = _folded_rows(n, nu)
    if (1, ()) in expected:  # a row of any key may read the row (1, ()) through its own c
        expected[1, ()] = max(expected.values())
    assert {(m, nu) for m in range(max([sum(parts) for parts in nu] + [1]), n + 1)} <= set(
        monodromy._CONN
    )
    assert set(monodromy._CONN) == set(expected)
    assert set(monodromy._DISC) == set(expected)
    for (m, rho), k in expected.items():
        top = c + k - (c + k - sum(b - 1 for parts in rho for b in parts)) % 2
        assert len(monodromy._CONN[m, rho]) == top + 1, (m, rho)
    # the budget's row count R and entry counts (see _check_budget) are these rows'
    rows = monodromy._rows(n, monodromy._plan(nu))
    assert sum(len(ms) for ms, _ in rows.values()) == len(expected)
    assert len(expected) == STORED_ROWS.get((g, n, mus), len(expected))
    assert {(m, rho): k for rho, (ms, k) in rows.items() for m in ms} == expected


@pytest.mark.parametrize("g, n, mus", [READABLE_ROW_SPECS[k] for k in (0, 2, 5)])
def test_counts_extend_the_rows_a_first_fill_skipped(g, n, mus):
    # after a count of (n, nu), each (n, rho) of a proper sub-multiset rho is a
    # row the fill skipped; counting it extends the warm tables and must give
    # the cold value
    nu = _table_nu(mus)
    subs = [rho for rho in _readable_limits(n, nu) if rho != nu]
    clear_caches()
    hurwitz_connected(CoveringSpec(g, n, mus))
    warm = {}
    for rho in subs:
        assert (n, rho) not in monodromy._CONN, rho
        warm[rho] = hurwitz_connected(CoveringSpec(g, n, rho))
    for rho in subs:
        clear_caches()
        assert hurwitz_connected(CoveringSpec(g, n, rho)) == warm[rho], rho


def test_split_off_two_pieces_are_read_as_shifted_rows():
    # a (2) piece that a split takes off a larger profile is one more
    # transposition, so the tables key its rows without it: after each cold
    # count of a spec whose profiles hold a 2 beside other parts, no key holds
    # a (2) profile, and the counts keep their class-DP (or genus-0 closed
    # form) values.  hurwitz_connected answers the genus-0 (2, 2, 2) spec by
    # the closed form and stores no row, so it is counted by a fill
    specs = [
        (g, n, mus, expected, hurwitz_connected)
        for g, n, mus, expected in PROFILE_POOL_COUNTS
        if any(2 in mu and len(mu) > 1 for mu in mus)
    ]
    assert {mu for _, _, mus, *_ in specs for mu in mus} >= {(2, 2), (3, 2), (4, 2), (2, 2, 2)}
    specs.append((0, 15, ((2, 2, 2),), h0_closed(15, (2, 2, 2)), table_connected))
    for g, n, mus, expected, count in specs:
        clear_caches()
        assert count(CoveringSpec(g, n, mus)) == expected, (g, n, mus)
        assert monodromy._CONN, (g, n, mus)
        for table in (monodromy._CONN, monodromy._DISC):
            assert [rho for _, rho in table if (2,) in rho] == [], (g, n, mus)


def test_clear_caches_empties_every_module_cache():
    # every module-level dict and lru_cache of both modules, found by
    # introspection, so a cache added later cannot be left out
    spec = CoveringSpec(1, 7, [Partition([3]), Partition([2, 2]), Partition([2, 2])])
    hurwitz_connected(spec)
    hurwitz_disconnected(spec)
    caches = {
        (module.__name__, name): obj
        for module in (monodromy, symmetric)
        for name, obj in vars(module).items()
        if not name.startswith("__") and (isinstance(obj, dict) or hasattr(obj, "cache_info"))
    }

    def size(obj):
        return obj.cache_info().currsize if hasattr(obj, "cache_info") else len(obj)

    assert ("covercount.monodromy", "_PLANS") in caches and len(caches) >= 10
    assert all(size(obj) for obj in caches.values()), caches  # every one is in use
    clear_caches()
    assert [key for key, obj in caches.items() if size(obj)] == []


def test_budget_refuses_three_profiles_cold_and_warm():
    # g = 1, n = 4, three (3) profiles, c = 2.  The fill stores R = 3 rows:
    # (3, nu) and (4, nu) for nu = ((3,), (3,), (3,)), and (1, ()); a proper
    # nonempty sub-multiset would need m <= 4 - 3 = 1 sheets, fewer than its
    # 3.  Each row is charged the 2^3 = 8 splits of nu; R * (2//2 + 1) = 6
    # entries, each up to 2 * p(4) = 10 shape terms plus 6 products; and
    # 4 * p(4) = 20 for the shape tables: 3 * 8 + 6 * 16 + 20 = 140.
    # The bound depends on the spec alone, so a table that already holds the
    # answer must not let a smaller budget through.
    spec = CoveringSpec(1, 4, [Partition([3])] * 3)
    clear_caches()
    for _ in ("cold", "warm"):
        with pytest.raises(BudgetExceeded):
            hurwitz_connected(spec, node_budget=139)
        assert hurwitz_connected(spec, node_budget=140) == naive_connected_count(
            1, 4, [(3,)] * 3
        )


@pytest.mark.parametrize("g, k, bound", [(0, 3, 147), (20, 40, 5187)])
def test_budget_charges_the_folded_spec(g, k, bound):
    # n = 3 with k (2) profiles is the spec without them, nu = () at
    # c = 2g + 4: R = 3 rows (m = 1..3) of the 1 split of (), R (c//2 + 1)
    # entries of 2 p(3) = 6 shape terms plus as many products, and
    # 3 p(3) = 9: at g = 0, 3 + 9 * (6 + 9) + 9 = 147, and at g = 20,
    # 3 + 69 * (6 + 69) + 9 = 5187.  As forty profiles of their own, the
    # (2)s would give nu 2^40 splits, past any budget.  At g = 0 the
    # connected count reads Hurwitz's formula, charged N^2 with
    # N = c + l + 2 = 4 + 3 + 2 = 9: 81, for the folded and the plain spec
    spec, plain = CoveringSpec(g, 3, [Partition([2])] * k), CoveringSpec(g, 3, [])
    clear_caches()
    charges = ((hurwitz_disconnected, bound), (hurwitz_connected, 81 if g == 0 else bound))
    for count, charge in charges:
        for s in (spec, plain):
            with pytest.raises(BudgetExceeded):
                count(s, node_budget=charge - 1)
        assert count(spec, node_budget=charge) == count(plain, node_budget=charge) != 0


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


def test_a_count_indexes_the_rows_its_fill_returns(monkeypatch):
    # a fill at a smaller c that stores its shorter rows of nu last, here
    # cut to 2 entries right after the real fill, must not reach the count:
    # it indexes the rows its own fill returned
    clear_caches()
    serial = oracle_data(2, (3,), range(3, 9))
    fill = monodromy._fill

    def stale(n, nu, cmax, rows):
        held = fill(n, nu, cmax, rows)
        for key in [key for key in monodromy._CONN if key[1] == nu]:
            monodromy._CONN[key] = monodromy._CONN[key][:2]
        return held

    clear_caches()
    monkeypatch.setattr(monodromy, "_fill", stale)
    assert oracle_data(2, (3,), range(3, 9)) == serial


def test_a_count_refills_a_row_it_finds_too_short():
    # on warm tables a shortened row of a smaller n than the largest is
    # read once, found too short, and the count refills instead of indexing it
    clear_caches()
    serial = oracle_data(2, (3,), range(3, 9))
    monodromy._CONN[4, ((3,),)] = monodromy._CONN[4, ((3,),)][:2]
    assert oracle_data(2, (3,), range(3, 9)) == serial
    assert len(monodromy._CONN[4, ((3,),)]) > 8


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


# --- one fill per series: the series builders ask for their largest n first


@pytest.fixture
def fills(monkeypatch):
    """Cold tables, and a list that records the (n, rho, c) of every fill."""
    calls = []
    fill = monodromy._fill

    def counted(n, nu, cmax, rows):
        calls.append((n, nu, cmax))
        return fill(n, nu, cmax, rows)

    clear_caches()
    monkeypatch.setattr(monodromy, "_fill", counted)
    return calls


def test_h_series_fills_once(fills):
    # the (2) profile is one more transposition: n = 9, c = 19 + 1 on nu = ();
    # genus 2, since counts of genus <= 1 and one profile take no fill
    h_series(2, [(2,)], 9)
    assert fills == [(9, (), 20)]


def test_oracle_data_fills_once_and_keeps_the_callers_order(fills):
    data = oracle_data(2, (), range(1, 12))
    assert [n for n, _ in data] == list(range(1, 12))
    assert fills == [(11, (), 24)]
    assert oracle_data(2, (), [5, 3, 5]) == [data[4], data[2], data[4]]
    assert len(fills) == 1


def _per_n_counts(g, mu, ns, node_budget=monodromy.DEFAULT_NODE_BUDGET):
    """oracle_data as one hurwitz_connected per n: the specs built in the
    callers' order, then counted largest n first."""
    specs = [CoveringSpec(g, n, [mu]) for n in ns]
    largest_first = sorted(specs, key=lambda spec: spec.n, reverse=True)
    counts = {spec.n: hurwitz_connected(spec, node_budget) for spec in largest_first}
    return [(n, counts[n]) for n in ns]


@pytest.mark.parametrize("g, mu", [(0, ()), (1, ()), (2, (2, 2, 1)), (1, (3, 2)), (0, (2, 1, 1))])
def test_oracle_data_equals_per_n_counts(g, mu):
    # ascending, descending and repeated n.  A valid spec always has marking
    # weight >= 1 and c at or above the connected bound (c = 2n - 2 - deg + 2g
    # in table terms), so the zeros here are the counts of one sheet at g >= 1
    lo = max(sum(mu), 1)
    for ns in (range(lo, lo + 6), range(lo + 5, lo - 1, -1), [lo + 3, lo, lo + 3, lo + 1, lo]):
        clear_caches()
        data = oracle_data(g, mu, ns)
        per_n = []
        for n in ns:  # each count on cold tables
            clear_caches()
            per_n += _per_n_counts(g, mu, [n])
        assert data == per_n, ns
    assert (g != 0) == (oracle_data(g, (), [1])[0][1] == 0)


@pytest.mark.parametrize("g, mu, ns", [(2, (), range(1, 12)), (1, (2, 2, 1), [5, 10, 7])])
def test_range_refusal_matches_the_per_n_loop(g, mu, ns):
    # the budget lies between the charges of the smallest and the largest n
    # (g = 2, a fill: 17 at n = 1, 37092 at n = 11; g = 1 and (2, 2, 1),
    # Vakil's formula, 2 N^2 + 3 l^3 with N = 3n + 14 and l = n - 2: 1763 at
    # n = 5, 5408 at n = 10), so the per-n loop refuses its first count, the
    # largest n
    refusals = []
    for count in (_per_n_counts, oracle_data):
        clear_caches()
        with pytest.raises(BudgetExceeded) as refused:
            count(g, mu, ns, node_budget=5000)
        refusals.append(str(refused.value))
        assert not monodromy._CONN and not monodromy._DISC and not monodromy._PLANS
    assert refusals[0] == refusals[1]


@pytest.mark.parametrize(
    "g, mu, ns",
    [(0, (3,), [5, 2, 0]), (0, (3,), [0, 2]), (-1, (), [3]), (0, (3, 3), [6, 4, 3]), (0, (), [2, 1.0])],
)
def test_range_domain_error_matches_the_per_n_loop(g, mu, ns):
    # an invalid range raises what the first invalid spec in the callers'
    # order raises
    errors = []
    for count in (_per_n_counts, oracle_data):
        with pytest.raises((DomainError, TypeError)) as raised:
            count(g, mu, ns)
        errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "g, ds, bracket",
    [(0, (0, 0, 0, 1, 1), 2), (1, (0, 0, 2, 2), F(1, 6)), (2, (4,), F(1, 1152))],
)
def test_h_tau_series_fills_once_per_profile(fills, g, ds, bracket):
    # at g >= 2, one fill per profile of the bracket, its largest n first; the
    # profiles 1^a and (2, 1^b) both read rows of nu = (), each in a fill of
    # its own.  At g <= 1 the closed form gives every count of one profile:
    # no fill runs and no row is stored
    spec = TauSpec(g, ds)
    assert h_tau_series(spec).bracket == bracket
    nus = [_table_nu([mu]) for mu in _bracket_terms(spec)]
    assert len(nus) >= 3
    if g <= 1:
        assert fills == [] and not monodromy._CONN and not monodromy._DISC
    else:
        assert sorted(rho for _, rho, _ in fills) == sorted(nus)


def _formula_entries_equal_the_table_fill(g):
    """Every table entry of genus g <= 1 with at most one profile, n <= 15,
    each read through its own fill, against the closed form; a profile
    without 1-parts has marking weight 1, and a (2) profile folds into c, so
    its entries are those of () at c + 1."""
    clear_caches()
    parts = [mu.parts for m in range(16) for mu in partitions_of(m) if 1 not in mu.parts]
    assert {(2, 2), (2, 2, 2), (3,), (3, 2), (3, 3), (4,), (), (2,)} <= set(parts)
    checked = 0
    for lam in parts:
        ns = range(max(sum(lam), 1), 16)
        for n, closed in zip(ns, monodromy._closed_entries(g, ns, lam)):
            entry = table_connected(CoveringSpec(g, n, [lam])) * math.factorial(n)
            assert entry == closed, (n, lam)
            checked += 1
    assert len(parts) == 176 and checked == 683


def test_genus0_formula_entries_equal_the_table_fill():
    _formula_entries_equal_the_table_fill(0)


def test_genus1_formula_entries_equal_the_table_fill():
    _formula_entries_equal_the_table_fill(1)


def test_genus0_one_profile_counts_store_no_row():
    # the budget charges Hurwitz's formula, which stores no row; the (2) and
    # (2, 1) profiles fold into c, leaving one profile
    clear_caches()
    spec = CoveringSpec(0, 12, [(2,), (3, 3, 1), (2, 1)])
    with pytest.raises(BudgetExceeded):
        hurwitz_connected(spec, node_budget=10)
    count = hurwitz_connected(spec)
    assert not monodromy._CONN and not monodromy._DISC
    assert count == 60 * h0_closed(12, (3, 3)) == table_connected(spec)  # C(6, 1) C(10, 1)


def test_closed_counts_build_no_plan_and_run_no_fill(monkeypatch):
    # a count of genus <= 1 with at most one profile in its key is charged its
    # closed form alone: cold, one n or a range, it builds no split plan, runs
    # no fill and stores no row, and keeps the table's values
    cases = [(0, (3, 3, 1), 12), (1, (2, 2), 10), (0, (), 9), (1, (4,), 8), (1, (2, 1), 7)]
    expected = {}
    for g, mu, top in cases:
        ns = range(max(sum(mu), 1), top + 1)
        expected[g, mu] = [(n, table_connected(CoveringSpec(g, n, [mu]))) for n in ns]

    def refuse(*args):
        raise AssertionError("a closed-form count built a split plan or ran a fill")

    monkeypatch.setattr(monodromy, "_split_plan", refuse)
    monkeypatch.setattr(monodromy, "_fill", refuse)
    for g, mu, top in cases:
        clear_caches()
        assert hurwitz_connected(CoveringSpec(g, top, [mu])) == expected[g, mu][-1][1]
        assert oracle_data(g, mu, [n for n, _ in expected[g, mu]]) == expected[g, mu]
        assert not monodromy._PLANS and not monodromy._CONN and not monodromy._DISC
    clear_caches()
    spec = CoveringSpec(0, 12, [(2,), (3, 3, 1), (2, 1)])  # two profiles fold into c
    assert hurwitz_connected(spec) == 60 * h0_closed(12, (3, 3))
    assert not monodromy._PLANS and not monodromy._CONN and not monodromy._DISC


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_count_table_matches_one_part_formula(g):
    # one point of full ramification (d) and one of profile beta, every beta
    # of d <= 10, against Goulden-Jackson-Vakil (|Aut beta| labels the beta
    # preimages)
    for d in range(1, 11):
        for beta in partitions_of(d):
            spec = CoveringSpec(g, d, [Partition([d]), beta])
            assert hurwitz_connected(spec) * beta.aut == gjv_one_part(g, beta.parts), (d, beta)


@pytest.mark.parametrize(
    "g, beta",
    [(4, (1,) * 25), (3, (1,) * 27), (2, (2,) + (1,) * 18), (4, (2, 2) + (1,) * 18)]
    + [(1, (3,) + (1,) * 21), (3, (7, 7, 7)), (2, (13, 13)), (0, (5, 4, 3, 3, 2, 2, 1, 1, 1))],
)
def test_count_table_matches_one_part_formula_at_frontier_sizes(g, beta):
    # d = 20..27 on cold tables
    clear_caches()
    d = sum(beta)
    spec = CoveringSpec(g, d, [Partition([d]), Partition(beta)])
    assert hurwitz_connected(spec) * Partition(beta).aut == gjv_one_part(g, beta)


def test_counts_do_not_depend_on_the_order_asked():
    specs = [CoveringSpec(g, n, [Partition([2, 2])]) for g in (0, 1) for n in range(4, 10)]
    clear_caches()
    ascending = [hurwitz_connected(spec) for spec in specs]
    clear_caches()
    descending = [hurwitz_connected(spec) for spec in reversed(specs)][::-1]
    assert ascending == descending


def test_series_budget_refuses_before_any_work():
    # g = 2, no profiles: a fill of n sheets stores the n rows of the empty
    # profile set, each charged the 1 split of (), so n = 10 (c = 22) bounds
    # 10 + 10 * 12 * (2 p(10) + 10 * 12) + 10 p(10) = 24910 products and
    # n = 11 (c = 24) 11 + 11 * 13 * (2 p(11) + 11 * 13) + 11 p(11) = 37092,
    # so this budget admits every n but the largest.  The largest is asked
    # for first and refused while the table is still empty.
    clear_caches()
    with pytest.raises(BudgetExceeded):
        oracle_data(2, (), range(1, 12), node_budget=24910)
    assert not monodromy._CONN and not monodromy._DISC
    assert len(oracle_data(2, (), range(1, 11), node_budget=24910)) == 10


@pytest.mark.parametrize("g", [0, 1, 2])
def test_count_table_matches_class_dp(g):
    # every single-profile spec with n <= 8, the empty partition and
    # profiles with 1-parts included; the spec without profiles has no DP
    # route of its own and is compared through the marked profile (1).  At
    # g <= 1 hurwitz_connected reads the closed form (Hurwitz's at genus 0,
    # Vakil's at genus 1), so there this compares the formula with the DP
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


def test_disconnected_budget_refusal():
    # a disconnected count keeps the fill's charge: g = 0, n = 12 (c = 22),
    # no profiles, 12 rows of 12 entries, 12 + 144 * (2 p(12) + 144) +
    # 12 p(12) = 43848.  The connected count of the same spec reads Hurwitz's
    # formula, charged N^2 with N = c + l + 2 = 36: 1296, so the two differ
    spec = CoveringSpec(0, 12, [])
    clear_caches()
    for count, charge in ((hurwitz_disconnected, 43848), (hurwitz_connected, 1296)):
        with pytest.raises(BudgetExceeded):
            count(spec, node_budget=charge - 1)
        assert count(spec, node_budget=charge) == count(spec)
    assert hurwitz_connected(spec, node_budget=1296) != 0
    with pytest.raises(BudgetExceeded):
        hurwitz_disconnected(spec, node_budget=1296)


@pytest.mark.parametrize(
    "spec, budget",
    [
        # Hurwitz's formula at n = 400 is charged N^2 = (c + l + 2)^2 = 1200^2
        (CoveringSpec(0, 400, []), 10**6),
        # 40 (3) profiles: nu has 2^40 splits, refused before its plan is
        # enumerated, though the fill would store only the row (3, nu)
        (CoveringSpec(38, 3, [Partition([3])] * 40), 10**9),
    ],
)
def test_refusal_builds_no_table(spec, budget):
    # both counts refuse from the spec alone, before any split plan, shape
    # table, character column or row is built
    clear_caches()
    for count in (hurwitz_disconnected, hurwitz_connected):
        with pytest.raises(BudgetExceeded):
            count(spec, node_budget=budget)
        assert symmetric.shape_table.cache_info().currsize == 0
        assert monodromy._splits.cache_info().currsize == 0 and not monodromy._PLANS
        assert not symmetric._COLUMNS and not monodromy._DISC and not monodromy._CONN


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


def test_central_characters_are_formed_once_and_cleared():
    # every row that holds a class reads the one stored f list of (m, class)
    spec = CoveringSpec(0, 8, [Partition([3]), Partition([3, 2]), Partition([3])])
    clear_caches()
    count = hurwitz_connected(spec)
    assert monodromy._CENTRAL and (8, (3,)) in monodromy._CENTRAL
    for (m, parts), f in monodromy._CENTRAL.items():
        size = conjugacy_class_size(Partition(parts), m)
        dims = [irrep_dimension(shape) for shape in partitions_of(m)]
        chi = character_column_from_leaves(m, parts)
        assert f == [size * x // dim for x, dim in zip(chi, dims)], (m, parts)
    assert (8, (2,)) not in monodromy._CENTRAL  # f_(2) is the content column
    clear_caches()
    assert not monodromy._CENTRAL
    assert hurwitz_connected(spec) == count


# --- the count table is a KP tau function

KP_NMAX, KP_CMAX = 12, 22


@pytest.fixture(scope="module")
def kp_free_energy():
    """F = sum H(mu, c) p_mu beta^c / c! over mu |- n <= 12 and c <= 22 in
    the times t_k = p_k / k, as {(mu, c): coefficient of prod t_{mu_i}
    beta^c}: H(mu, c) = hurwitz_connected of the one profile mu (a full
    partition marks no point), at the genus c = n + len(mu) + 2g - 2 fixes."""
    clear_caches()
    series = {}
    for n in range(1, KP_NMAX + 1):
        for mu in partitions_of(n):
            for c in range(n + len(mu) - 2, KP_CMAX + 1, 2):
                g = (c - n - len(mu) + 2) // 2
                h = hurwitz_connected(CoveringSpec(g, n, [mu]))
                series[mu.parts, c] = h * math.prod(mu.parts) / math.factorial(c)
    return series


def _kp_reached(parts, c):
    # every term of the residual at |parts| <= 8 reads F at n <= 12
    return sum(parts) <= KP_NMAX - 4 and c <= KP_CMAX


def test_count_table_satisfies_the_kp_equation(kp_free_energy):
    # F_1111 + 6 F_11^2 + 3 F_22 - 4 F_13 = 0 (Okounkov 2000); the t_2
    # direction reads the (2, 1^(n-2)) counts, which the table folds into c
    residual = kp_residual(kp_free_energy, _kp_reached)
    assert len(residual) >= 300
    assert [key for key, x in residual.items() if x] == []


@pytest.mark.parametrize(
    "key", [((2, 1, 1, 1, 1, 1, 1), 13), ((2, 2, 2, 2, 1), 14), ((3, 1), 4), ((1,) * 6, 10)]
)
def test_kp_residual_catches_a_count_off_by_one(kp_free_energy, key):
    series = dict(kp_free_energy)
    parts, c = key
    series[key] += F(math.prod(parts), math.factorial(c))  # H(mu, c) + 1
    assert any(kp_residual(series, _kp_reached).values())
