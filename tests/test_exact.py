import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount import cli
from covercount.algebra import LaurentPolyX, series_y, series_z, y_over_q_power
from covercount.exact import (
    LinearSolution,
    LinearSystem,
    TruncatedSeries,
    _convolve,
    as_rational,
    format_rational,
    series_exp,
    solve_exact,
)
from covercount.hurwitz_series import h1_empty_series, h_series

from .oracles import (
    a_closed_fractions,
    cauchy_product,
    gauss_jordan,
    series_exp_fractions,
    series_inverse,
)

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=12
)


def small_series(order=8):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(TruncatedSeries)


# Zeros are frequent, so the kernels' zero skipping is exercised, and the
# denominators reach primes (up to 97) that divide no i! at these orders.
sparse_rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-50, max_value=50, max_denominator=97)
)
nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=97).filter(bool)


def any_order_series(max_order=12):
    return st.lists(sparse_rationals, min_size=1, max_size=max_order + 1).map(TruncatedSeries)


def unit_series(max_order=12):
    return st.tuples(nonzero_rationals, st.lists(sparse_rationals, max_size=max_order)).map(
        lambda t: TruncatedSeries([t[0], *t[1]])
    )


# integer lists with up to four leading zeros, which the kernel skips; the
# length is drawn evenly, so a long first factor meets a short second one
padded_ints = st.tuples(st.integers(0, 4), st.integers(1, 10)).flatmap(
    lambda t: st.lists(st.integers(-9, 9), min_size=t[1], max_size=t[1]).map(
        lambda tail: [0] * t[0] + tail
    )
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_convolve_matches_binomial_sum(data):
    a = data.draw(padded_ints)
    b = a if data.draw(st.booleans()) else data.draw(padded_ints)
    hi = data.draw(st.integers(0, len(a) + len(b) - 1))
    lo = data.draw(st.integers(0, hi))
    expected = [
        sum(math.comb(k, i) * a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(lo, hi + 1)
    ]
    assert _convolve(a, b, lo, hi) == expected


def test_convolve_leading_zeros_of_a_shorter_second_factor():
    # at k < 3 b's leading zeros leave no term: the range of i ends below 0
    assert _convolve([1] * 10, [0, 0, 0, 1], 0, 5) == [0, 0, 0, 1, 4, 10]


def _ints(n, zeros=0):
    """n ints, the first `zeros` of them 0 and the rest nonzero."""
    return [0] * zeros + [(-1) ** i * (3 * i % 11 + 1) for i in range(zeros, n)]


# (a, b) for `_convolve`, b = None for the square a is b.  A factor of
# length 1-3 against one of length 40 leaves the mirror of most terms past
# an end; leading zeros past the midpoint leave orders with no pair at all.
EDGE_SHAPES = {
    "1x40": ([5], _ints(40)),
    "40x1": (_ints(40), [5]),
    "2x40": ([4, -7], _ints(40)),
    "40x2": (_ints(40), [4, -7]),
    "3x40": ([2, 0, 9], _ints(40)),
    "40x3": (_ints(40), [2, 0, 9]),
    "40x17": (_ints(40), _ints(17)),
    "a-zeros-past-middle": (_ints(40, 25), _ints(40)),
    "b-zeros-past-middle": (_ints(40), _ints(40, 30)),
    "both-zeros": (_ints(40, 22), _ints(17, 9)),
    "short-zeros": ([0, 0, 3], _ints(40, 1)),
    "square": (_ints(40), None),
    "square-zeros": (_ints(40, 3), None),
}


def _binomial_sum(a, b, k):
    return sum(math.comb(k, i) * a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_convolve_edge_shapes_match_binomial_sum(name):
    a, b = EDGE_SHAPES[name]
    b = a if b is None else b
    top = len(a) + len(b) - 2
    expected = [_binomial_sum(a, b, k) for k in range(top + 1)]
    assert _convolve(a, b, 0, top) == expected
    assert _convolve(a, b, 7, top - 5) == expected[7 : top - 4]
    for k in range(top + 1):  # one order per call, as the inverse and exp call it
        assert _convolve(a, b, k, k) == [expected[k]]


@pytest.mark.parametrize("w0", [0, 3])
def test_convolve_online_calls_match_binomial_sum(w0):
    # inverse and series_exp call _convolve(w, h, k, k) with len(h) = k
    w, h = [w0, *_ints(30)[1:]], _ints(30)
    for k in range(1, 31):
        assert _convolve(w, h[:k], k, k) == [_binomial_sum(w, h[:k], k)]


def test_convolve_edge_shapes_reach_every_window():
    # per order: (some i pairs with k - i, a single below k/2, one above),
    # where a single is a term whose mirror k - i is not a term
    seen = set()
    for a, b in EDGE_SHAPES.values():
        b = a if b is None else b
        for k in range(len(a) + len(b) - 1):
            terms = {i for i in range(len(a)) if 0 <= k - i < len(b) and a[i] and b[k - i]}
            singles = {i for i in terms if k - i not in terms}
            below, above = any(2 * i < k for i in singles), any(2 * i > k for i in singles)
            seen.add((terms > singles, below, above))
    assert seen >= {
        (True, False, False),  # the full window
        (True, True, False),  # a window clipped by singles below
        (True, False, True),  # ... or above
        (False, True, False),  # no pair: every term a single
        (False, False, True),
    }


def test_difference_of_squares():
    one = TruncatedSeries.one(2)
    q = TruncatedSeries.monomial(1, 2)
    assert (one + q) * (one - q) == TruncatedSeries([1, 0, -1])


def test_cauchy_square_coefficient():
    # Y = q + q^2 + 3/2 q^3 + ...; [q^3] Y^2 = 2 c1 c2 computed by hand
    y = TruncatedSeries([0, 1, 1, F(3, 2)])
    assert (y * y).coefficient(3) == 2 * 1 * 1


def test_scale_by_zero_annihilates():
    y = TruncatedSeries([0, 1, 1, F(3, 2)])
    assert (y * 0).is_zero()


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1] * 11)
    b = TruncatedSeries([1] * 5)
    assert (a * b).order == 4
    assert (a + b).order == 4


def test_euler_operator_scales_each_coefficient():
    s = TruncatedSeries([5, 1, 1, 1])
    assert s.euler_d() == TruncatedSeries([0, 1, 2, 3])
    assert TruncatedSeries.one(5).euler_d().is_zero()
    q3 = TruncatedSeries.monomial(3, 5)
    assert q3.euler_d() == q3 * 3


def test_exp_of_zero_is_one():
    assert series_exp(TruncatedSeries.zero(6)) == TruncatedSeries.one(6)


def test_exp_of_q_has_inverse_factorials():
    e = series_exp(TruncatedSeries.monomial(1, 8))
    for n in range(9):
        assert e.coefficient(n) == F(1, math.factorial(n))


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.one(4))


def test_exp_solves_tree_function_equation():
    # Y = q exp(Y), the equation of the rooted-tree series, at order 40
    y = series_y(40)
    assert TruncatedSeries.monomial(1, 40) * series_exp(y) == y
    # e^Y = Y/q at order 200, whose coefficients Lagrange inversion gives
    assert series_exp(series_y(200)) == y_over_q_power(1, 200)


def test_exp_rejects_nonzero_constant_term_of_any_size():
    with pytest.raises(ValueError):
        series_exp(series_y(10) + F(-1, 3))


@given(small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    lhs = (a * b).euler_d()
    rhs = a.euler_d() * b + a * b.euler_d()
    assert lhs == rhs


@given(small_series(6), small_series(6))
@settings(max_examples=40, deadline=None)
def test_exp_is_multiplicative(a, b):
    a = TruncatedSeries([0] + list(a.coeffs[1:]))
    b = TruncatedSeries([0] + list(b.coeffs[1:]))
    assert series_exp(a + b) == series_exp(a) * series_exp(b)


def test_exp_multiplicative_at_order_30():
    a = TruncatedSeries.monomial(1, 30) + TruncatedSeries.monomial(3, 30) * F(2, 7)
    b = TruncatedSeries.monomial(2, 30) * F(1, 5)
    assert series_exp(a + b) == series_exp(a) * series_exp(b)


@given(any_order_series(), any_order_series())
@settings(max_examples=150, deadline=None)
def test_product_matches_fraction_convolution(a, b):
    got = a * b
    assert got.order == min(a.order, b.order)
    assert list(got.coeffs) == cauchy_product(a.coeffs, b.coeffs)
    assert all(type(c) is F for c in got.coeffs)


def test_product_edge_cases():
    q2 = TruncatedSeries.monomial(2, 9, F(3, 7))
    q3 = TruncatedSeries.monomial(3, 5, F(-5, 11))
    assert q2 * q3 == TruncatedSeries.monomial(5, 5, F(-15, 77))
    assert (q2 * TruncatedSeries.zero(9)).is_zero()
    assert (TruncatedSeries.zero(0) * q2) == TruncatedSeries.zero(0)
    a = TruncatedSeries([F(1, 101)] * 41)
    b = TruncatedSeries([F(-k, 103) for k in range(41)])
    assert list((a * b).coeffs) == cauchy_product(a.coeffs, b.coeffs)


@given(unit_series())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_fraction_recurrence(f):
    inv = f.inverse()
    assert inv.order == f.order
    assert list(inv.coeffs) == series_inverse(f.coeffs)


@given(any_order_series())
@settings(max_examples=150, deadline=None)
def test_square_of_one_object_matches_fraction_convolution(a):
    got = a * a
    assert got.order == a.order
    assert list(got.coeffs) == cauchy_product(a.coeffs, a.coeffs)
    assert all(type(c) is F for c in got.coeffs)


def repeated_product(coeffs, k):
    out = [F(1)] + [F(0)] * (len(coeffs) - 1)
    for _ in range(k):
        out = cauchy_product(out, coeffs)
    return out


@given(any_order_series(8))
@settings(max_examples=40, deadline=None)
def test_powers_match_repeated_fraction_products(f):
    for k in range(7):
        got = f ** k
        assert got.order == f.order
        assert list(got.coeffs) == repeated_product(f.coeffs, k), k


@given(unit_series(8))
@settings(max_examples=40, deadline=None)
def test_negative_powers_match_fraction_inverse(f):
    inv = series_inverse(f.coeffs)
    for k in range(1, 4):
        assert list((f ** -k).coeffs) == repeated_product(inv, k), k


# short orders and both sides of powers of two (where the former Newton
# iteration stopped a step short), with random nonzero heads: a_0 != 1 among
# them, where the kernel reads a scaled copy of the numerators
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 7, 8, 15, 16, 31])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_inverse_at_newton_step_boundaries(order, data):
    head = data.draw(nonzero_rationals)
    tail = data.draw(st.lists(sparse_rationals, min_size=order, max_size=order))
    f = TruncatedSeries([head, *tail])
    inv = f.inverse()
    assert inv.order == order
    assert list(inv.coeffs) == series_inverse(f.coeffs)


def test_square_and_inverse_closed_forms_at_order_200():
    z = series_z(200)
    # [q^n] Z^2 = A_n / n!, and (1 + Z)^-1 = 1 - Y with [q^n] Y = n^(n-1) / n!
    assert [c * math.factorial(n) for n, c in enumerate((z ** 2).coeffs)] == [
        a_closed_fractions(n) for n in range(201)
    ]
    assert list((1 + z).inverse().coeffs) == [F(1)] + [
        F(-(n ** (n - 1)), math.factorial(n)) for n in range(1, 201)
    ]
    # Z + Z^2 = Z (1 + Z), a general product of factors with different leading zeros
    assert [c * math.factorial(n) for n, c in enumerate((z * (1 + z)).coeffs)] == [0] + [
        n**n + a_closed_fractions(n) for n in range(1, 201)
    ]
    # (3 + 3Z)^-1 = X/3, with a_0 = 3 != 1
    assert list((3 + 3 * z).inverse().coeffs) == [F(1, 3)] + [
        F(-(n ** (n - 1)), 3 * math.factorial(n)) for n in range(1, 201)
    ]


def test_inverse_rejects_zero_constant_term():
    for f in (TruncatedSeries([0, 1, 2]), TruncatedSeries.zero(3), TruncatedSeries([0])):
        with pytest.raises(ValueError):
            f.inverse()
        with pytest.raises(ValueError):
            f ** -1


def test_series_inverse_roundtrip():
    s = TruncatedSeries([1, 2, F(1, 3), 0, 5])
    assert s * s.inverse() == TruncatedSeries.one(4)


# --- exact solver ---


def test_solve_identity_system():
    res = solve_exact(LinearSystem([[1, 0], [0, 1]], [2, 3]))
    assert res.ok and res.solution == (F(2), F(3))


def test_solve_contradictory_rows():
    res = solve_exact(LinearSystem([[1], [1]], [1, 2]))
    assert res.status == "inconsistent"


def test_solve_redundant_row():
    res = solve_exact(LinearSystem([[1], [2]], [3, 6]))
    assert res.ok and res.solution == (F(3),)


def test_solve_underdetermined_distinct_from_inconsistent():
    res = solve_exact(LinearSystem([[1, 1]], [2]))
    assert res.status == "underdetermined"


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=5
    ),
    st.lists(rationals, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_solution_reproduces_rhs(matrix, x):
    rhs = [sum(row[j] * x[j] for j in range(3)) for row in matrix]
    res = solve_exact(LinearSystem(matrix, rhs))
    assert res.status != "inconsistent"
    if res.ok:
        for row, b in zip(matrix, rhs):
            assert sum(r * s for r, s in zip(row, res.solution)) == b


# built from two integers: st.fractions is several times slower to draw
small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def overdetermined_systems(draw):
    """A (rows x cols) system of rank at most `rank`, rows >= cols.

    The matrix is a product of random (rows x rank) and (rank x cols)
    factors; the right side is A x for a random x, and then optionally has
    one entry bumped, often the last one, so that the system is unique,
    rank-deficient consistent, rank-deficient inconsistent, or inconsistent
    only in its last row.
    """
    cols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=cols, max_value=7))
    rank = draw(st.integers(min_value=0, max_value=cols))

    def block(r, c):
        flat = draw(st.lists(small_rationals, min_size=r * c, max_size=r * c))
        return [flat[i * c : (i + 1) * c] for i in range(r)]

    left, right = block(rows, rank), block(rank, cols)
    matrix = [
        [sum((left[i][t] * right[t][j] for t in range(rank)), F(0)) for j in range(cols)]
        for i in range(rows)
    ]
    x = draw(st.lists(small_rationals, min_size=cols, max_size=cols))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    bumped = draw(st.one_of(st.none(), st.just(rows - 1), st.integers(0, rows - 1)))
    if bumped is not None:
        rhs[bumped] += draw(small_rationals.filter(bool))
    return LinearSystem(matrix, rhs)


@given(overdetermined_systems())
@settings(max_examples=200, deadline=None)
def test_solve_matches_gauss_jordan_over_every_row(system):
    assert solve_exact(system) == gauss_jordan(system)


@st.composite
def identification_systems(draw):
    """Integer rows with factorial-sized entries, like an identification's
    n! [q^n] X^j rows, and Fraction right sides A x, sometimes bumped."""
    cols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=cols, max_value=cols + 6))
    matrix = [
        [draw(st.integers(-5, 5)) * math.factorial(n + j) for j in range(cols)]
        for n in range(rows)
    ]
    x = draw(st.lists(sparse_rationals, min_size=cols, max_size=cols))
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]
    bumped = draw(st.one_of(st.none(), st.integers(0, rows - 1)))
    if bumped is not None:
        rhs[bumped] += draw(nonzero_rationals)
    return LinearSystem(matrix, rhs)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def coprime_denominator_systems(draw):
    """Rows whose entries have pairwise coprime (prime) denominators, so that
    clearing a row multiplies by their product."""
    cols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=cols, max_value=cols + 2))

    def row(width):
        dens = draw(st.permutations(PRIMES))[:width]
        return [F(draw(st.integers(-40, 40)), d) for d in dens]

    matrix = [row(cols) for _ in range(rows)]
    if draw(st.booleans()):
        x = row(cols)
        rhs = [sum((a * b for a, b in zip(r, x)), F(0)) for r in matrix]
    else:
        rhs = row(rows)
    return LinearSystem(matrix, rhs)


@given(st.one_of(identification_systems(), coprime_denominator_systems()))
@settings(max_examples=150, deadline=None)
def test_solve_matches_gauss_jordan_on_integer_and_coprime_rows(system):
    assert solve_exact(system) == gauss_jordan(system)


@given(overdetermined_systems(), small_rationals.filter(bool))
@settings(max_examples=80, deadline=None)
def test_zero_row_with_nonzero_rhs_after_full_rank_is_inconsistent(system, b):
    # appended last, so a full-rank system meets it as a surplus row
    cols = len(system.matrix[0])
    bad = LinearSystem([*system.matrix, (F(0),) * cols], [*system.rhs, b])
    assert solve_exact(bad) == gauss_jordan(bad) == LinearSolution("inconsistent")


@given(overdetermined_systems())
@settings(max_examples=80, deadline=None)
def test_solve_with_negative_leading_entries(system):
    # every row's first nonzero entry negative, so pivots are negative
    matrix, rhs = [], []
    for row, b in zip(system.matrix, system.rhs):
        lead = next((v for v in row if v), 0)
        sign = -1 if lead > 0 else 1
        matrix.append([sign * v for v in row])
        rhs.append(sign * b)
    negated = LinearSystem(matrix, rhs)
    assert solve_exact(negated) == gauss_jordan(negated) == gauss_jordan(system)


@pytest.mark.parametrize(
    "matrix, rhs, status",
    [
        ([[1, 0], [0, 1], [1, 1], [2, 3]], [1, 2, 3, 8], "unique"),
        ([[1, 0], [0, 1], [1, 1], [2, 3]], [1, 2, 3, 9], "inconsistent"),
        ([[1, 2], [2, 4], [3, 6]], [1, 2, 3], "underdetermined"),
        ([[1, 2], [2, 4], [3, 6]], [1, 2, 4], "inconsistent"),
        ([[0, 0], [0, 0]], [0, 1], "inconsistent"),
    ],
)
def test_solve_status_on_surplus_rows(matrix, rhs, status):
    system = LinearSystem(matrix, rhs)
    assert solve_exact(system).status == status == gauss_jordan(system).status


def test_as_rational_refuses_bool():
    for x in (True, False):
        with pytest.raises(TypeError):
            as_rational(x)
    assert as_rational(1) == 1 and as_rational("3/4") == F(3, 4)


def test_linear_system_keeps_ints_and_refuses_bools():
    system = LinearSystem([[1, F(1, 2)]], ["3/4"])
    assert [type(x) for x in system.matrix[0]] == [int, F] and system.rhs == (F(3, 4),)
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            LinearSystem([[bad]], [1])


def test_rational_formatting():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-5, 1)) == "-5"
    assert format_rational(F(0)) == "0"


# ---------------------------------------------------------------------------
# the stored form: EGF numerators over one canonical denominator

coefficient_lists = st.lists(sparse_rationals, min_size=1, max_size=13)


def assert_canonical(s):
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert all(type(x) is int for x in (s.den, *s.nums))
    assert s.nums == tuple(c * s.den * math.factorial(k) for k, c in enumerate(s.coeffs))


@given(coefficient_lists, coefficient_lists, sparse_rationals)
@settings(max_examples=150, deadline=None)
def test_linear_operations_match_fraction_references(a, b, r):
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    n = min(len(a), len(b))
    assert list(sa.coeffs) == a
    cases = [
        (sa + sb, [x + y for x, y in zip(a, b)]),
        (sa - sb, [x - y for x, y in zip(a, b)]),
        (-sa, [-x for x in a]),
        (sa * r, [x * r for x in a]),
        (r * sa, [r * x for x in a]),
        (sa + r, [a[0] + r, *a[1:]]),
        (r - sa, [r - a[0], *(-x for x in a[1:])]),
        (sa.euler_d(), [k * x for k, x in enumerate(a)]),
        (sa * sb, cauchy_product(a, b)),
        (sa * sa, cauchy_product(a, a)),
        (sa ** 3, cauchy_product(cauchy_product(a, a), a)),
    ]
    for got, expected in cases:
        assert_canonical(got)
        assert list(got.coeffs) == expected
    # operands of mixed order truncate to the smaller order
    assert (sa + sb).order == (sa - sb).order == (sa * sb).order == n - 1


@given(st.lists(sparse_rationals, max_size=10))
@settings(max_examples=100, deadline=None)
def test_exp_matches_fraction_recursion(tail):
    a = [F(0), *tail]
    got = series_exp(TruncatedSeries(a))
    assert_canonical(got)
    assert list(got.coeffs) == series_exp_fractions(a)


@given(unit_series())
@settings(max_examples=60, deadline=None)
def test_inverse_is_canonical(f):
    assert_canonical(f.inverse())


@given(
    st.dictionaries(st.integers(-3, 2), nonzero_rationals, min_size=1, max_size=4),
    st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_one_series_built_three_ways_has_one_stored_form(coeffs, order):
    p = LaurentPolyX(coeffs)
    by_to_series = p.to_series(order)
    from_fractions = TruncatedSeries([p.coefficient(n) for n in range(order + 1)])
    x = (1 + series_z(order)).inverse()  # X = (1 + Z)^-1
    by_products = TruncatedSeries.zero(order)
    for j, c in p.coeffs.items():
        by_products = by_products + x**j * c
    for s in (from_fractions, by_products):
        assert (s.den, s.nums) == (by_to_series.den, by_to_series.nums)
        assert s == by_to_series and hash(s) == hash(by_to_series)
    assert_canonical(by_to_series)


def test_from_egf_brings_numerators_to_canonical_form():
    s = TruncatedSeries.from_egf([4, -6, 10], -8)
    assert (s.den, s.nums) == (4, (-2, 3, -5))
    assert s == TruncatedSeries([F(-1, 2), F(3, 4), F(-5, 8)])
    assert (TruncatedSeries.zero(3).den, TruncatedSeries.from_egf([0, 0], 6).den) == (1, 1)
    for nums, den in (([1], 0), ([], 1)):
        with pytest.raises(ValueError):
            TruncatedSeries.from_egf(nums, den)


def test_builders_match_their_fraction_formulas():
    def fractions(f, order):
        return [F(f(n), math.factorial(n)) for n in range(order + 1)]

    for order in (0, 1, 2, 9):
        assert list(series_y(order).coeffs) == fractions(lambda n: n ** (n - 1) if n else 0, order)
        assert list(series_z(order).coeffs) == fractions(lambda n: n**n if n else 0, order)
        cayley = fractions(lambda n: F(n) ** (n - 2) if n else 0, order)
        assert list(cli._SERIES["cayley"](order).coeffs) == cayley
        h1 = fractions(lambda n: F(a_closed_fractions(n), 24 * n) if n else 0, order)
        assert list(h1_empty_series(order).coeffs) == h1
        for a in (-3, -1, 0, 2):
            expected = fractions(lambda j: a * F(j + a) ** (j - 1) if j else 1, order)
            assert list(y_over_q_power(a, order).coeffs) == expected
        for k in (1, 2, 3):
            # Y^k = (1 - X)^k: k n^(n-k-1) / (n-k)! on q^n, zero below q^k
            expected = [
                F(k * F(n) ** (n - k - 1), math.factorial(n - k)) if n >= k else 0
                for n in range(order + 1)
            ]
            y_power = (LaurentPolyX({0: 1, 1: -1}) ** k).to_series(order)
            assert list(y_power.coeffs) == expected
        for s in (series_y(order), cli._SERIES["cayley"](order), h1_empty_series(order)):
            assert_canonical(s)


def test_stored_form_survives_copy_deepcopy_and_pickle():
    s = (1 + series_z(30)).inverse() * F(5, 7)
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and hash(clone) == hash(s) and clone is not s
        assert (clone.den, clone.nums) == (s.den, s.nums) and repr(clone) == repr(s)


def test_repr_shows_the_first_six_coefficients():
    assert repr(TruncatedSeries([0, 1, F(-3, 4)])) == "TruncatedSeries([0, 1, -3/4], order=2)"
    assert repr(series_z(8)) == "TruncatedSeries([0, 1, 2, 9/2, 32/3, 625/24, ...], order=8)"
    assert repr((1 + series_z(7)).inverse() * F(5, 7)) == (
        "TruncatedSeries([5/7, -5/7, -5/7, -15/14, -40/21, -625/168, ...], order=7)"
    )
    assert repr(TruncatedSeries.zero(0)) == "TruncatedSeries([0], order=0)"


def test_negative_orders_have_no_coefficient():
    z = series_z(4)
    for read in (z.coefficient, z.egf_coefficient):
        with pytest.raises(ValueError, match="n must be >= 0"):
            read(-1)
        with pytest.raises(TypeError):  # True is no index 1
            read(True)
        with pytest.raises(IndexError):
            read(5)


def test_monomial_refuses_negative_degree():
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(-1, 3)
    assert TruncatedSeries.monomial(0, 3) == TruncatedSeries.one(3)
    assert TruncatedSeries.monomial(5, 3) == TruncatedSeries.zero(3)
    for n in (True, False):
        with pytest.raises(TypeError):
            TruncatedSeries.monomial(n, 3)


def test_power_refuses_non_integer_exponents():
    z = series_z(4)
    for k in (F(1, 2), 1.5, True, False):
        with pytest.raises(TypeError):
            z**k


@pytest.mark.parametrize(
    "build",
    [
        TruncatedSeries.zero,
        TruncatedSeries.one,
        lambda b: TruncatedSeries.monomial(1, b),
        series_y,
        series_z,
        lambda b: y_over_q_power(b, 3),
        lambda b: y_over_q_power(1, b),
        LaurentPolyX({-1: 1}).to_series,
        h1_empty_series,
        lambda b: h_series(0, [], b),
    ],
    ids=[
        "zero",
        "one",
        "monomial-order",
        "series_y",
        "series_z",
        "y_over_q_power-a",
        "y_over_q_power-order",
        "to_series",
        "h1_empty_series",
        "h_series",
    ],
)
@pytest.mark.parametrize("b", [True, False])
def test_series_builders_refuse_bool_orders(build, b):
    # a bool is an int to Python; as an order or exponent it is a slip
    with pytest.raises(TypeError):
        build(b)


@pytest.mark.parametrize(
    "build",
    [
        TruncatedSeries.zero,
        TruncatedSeries.one,
        lambda order: TruncatedSeries.monomial(5, order),
        series_y,
        series_z,
        lambda order: y_over_q_power(2, order),
        LaurentPolyX({-1: 1}).to_series,
        h1_empty_series,
        lambda order: h_series(0, [], order),
    ],
    ids=[
        "zero",
        "one",
        "monomial",
        "series_y",
        "series_z",
        "y_over_q_power",
        "to_series",
        "h1_empty_series",
        "h_series",
    ],
)
@pytest.mark.parametrize("order", [-1, -5])
def test_series_builders_refuse_negative_orders(build, order):
    # one(-3), y_over_q_power(2, -5) and monomial(5, -5) once returned
    # series of order 0, 0 and 1
    with pytest.raises(ValueError):
        build(order)
