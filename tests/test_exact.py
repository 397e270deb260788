import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount.algebra import series_y
from covercount.exact import (
    LinearSystem,
    TruncatedSeries,
    format_rational,
    series_exp,
    solve_exact,
)

from .oracles import cauchy_product, gauss_jordan, series_inverse

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


def test_inverse_rejects_zero_constant_term():
    for f in (TruncatedSeries([0, 1, 2]), TruncatedSeries.zero(3), TruncatedSeries([0])):
        with pytest.raises(ValueError):
            f.inverse()
        with pytest.raises(ValueError):
            f ** -1


def test_series_inverse_roundtrip():
    s = TruncatedSeries([1, 2, F(1, 3), 0, 5])
    assert s * s.inverse() == TruncatedSeries.one(4)


def test_shift_down_requires_divisibility():
    s = TruncatedSeries([0, 0, 3, 4])
    assert s.shift_down(2) == TruncatedSeries([3, 4])
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2]).shift_down(1)


# --- exact solver ---


def test_solve_identity_system():
    res = solve_exact(LinearSystem([[1, 0], [0, 1]], [2, 3]))
    assert res.ok and res.solution == (F(2), F(3))


def test_solve_contradictory_rows():
    res = solve_exact(LinearSystem([[1], [1]], [1, 2]))
    assert res.status == "inconsistent"
    assert not res.consistent


def test_solve_redundant_row():
    res = solve_exact(LinearSystem([[1], [2]], [3, 6]))
    assert res.ok and res.solution == (F(3),)


def test_solve_underdetermined_distinct_from_inconsistent():
    res = solve_exact(LinearSystem([[1, 1]], [2]))
    assert res.status == "underdetermined"
    assert res.consistent


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
    assert res.consistent
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


def test_rational_formatting():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-5, 1)) == "-5"
    assert format_rational(F(0)) == "0"
