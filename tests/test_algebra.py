import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount.algebra import (
    LaurentPolyX,
    Radical,
    ScaledRational,
    ZPoly,
    _dk_zpower,
    _egf_rows,
    _x_power_egf,
    _yx_column,
    a_closed,
    dkz_poly,
    double_factorial,
    identify_in_a,
    inv_gamma_half_scaled,
    leading_asymptotic,
    seq_a,
    series_y,
    series_z,
    y_over_q_power,
    zpower_in_basis,
)
from covercount.errors import ConsistencyError
from covercount.exact import LinearSolution, TruncatedSeries, series_exp

from .oracles import (
    a_closed_fractions,
    a_closed_horner,
    cauchy_product,
    dk_laurent,
    dkz2_poly,
    first_correction,
    laurent_coefficient_spanning,
    laurent_to_zpoly,
    log_leading,
    seq_a_convolution,
    series_inverse,
    ypower_closed,
    zbasis_element,
    zpoly_to_laurent,
    zpower_in_basis_x,
)


def test_y_and_z_first_coefficients():
    y = series_y(3)
    assert [y.coefficient(n) for n in range(4)] == [0, 1, 1, F(3, 2)]
    z = series_z(3)
    assert [z.coefficient(n) for n in range(4)] == [0, 1, 2, F(9, 2)]


def test_defining_relation_between_y_and_z():
    y, z = series_y(30), series_z(30)
    one = TruncatedSeries.one(30)
    assert (one - y) * (one + z) == one
    assert y.euler_d() == z


def test_functional_equation_of_y():
    y = series_y(30)
    q = TruncatedSeries.monomial(1, 30)
    assert q * series_exp(y) == y


def test_a_sequence_first_values():
    assert seq_a(5) == [0, 2, 24, 312, 4720]


def test_a_sequence_matches_defining_convolution():
    assert seq_a(60) == seq_a_convolution(60)


def test_a_two_term_closed_form_small_case():
    # A_3 = 3! (1 + 3): the closed sum has exactly two terms at n = 3
    assert a_closed(3) == math.factorial(3) * (1 + 3)


def test_a_matches_z_squared():
    z2 = series_z(20) ** 2
    for n in range(1, 21):
        assert z2.egf_coefficient(n) == a_closed(n)


def test_a_closed_matches_fraction_sum():
    for n in [*range(301), 2000]:
        assert a_closed(n) == a_closed_fractions(n)


def test_a_closed_matches_horner_across_split_boundaries():
    # short ranges run inline, longer ones split: n - 2 = 32, 33, 64, 65, ...
    for n in [*range(301), 1999, 2000, 2001, 4096]:
        assert a_closed(n) == a_closed_horner(n), n


def test_a_closed_memo_repeats_and_recomputes():
    first = a_closed(777)
    assert a_closed(777) == first
    a_closed.cache_clear()
    assert a_closed(777) == first == a_closed_horner(777)


def test_a_closed_concurrent_calls_agree():
    a_closed.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(a_closed, 3000) for _ in range(4)]
            values = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert values == [a_closed_horner(3000)] * 4


def test_tree_series_products_match_fraction_routes():
    y, z = series_y(60), series_z(60)
    assert list((z * z).coeffs) == cauchy_product(z.coeffs, z.coeffs)
    assert list((y * z).coeffs) == cauchy_product(y.coeffs, z.coeffs)
    assert list((1 + z).inverse().coeffs) == series_inverse((1 + z).coeffs)


def test_ypower_closed_reduces_to_y_at_k1():
    assert ypower_closed(1, 15) == series_y(15)


def test_ypower_closed_single_value():
    # k=2, n=3: 2 * 3^0 / 1! ; the Cauchy square gives 2 c1 c2 = 2
    assert ypower_closed(2, 3).coefficient(3) == 2
    y = series_y(3)
    assert (y * y).coefficient(3) == 2


@pytest.mark.parametrize("k", [2, 3, 5, 7, 10])
def test_ypower_closed_equals_repeated_product(k):
    assert ypower_closed(k, 30) == series_y(30) ** k


def test_ypower_closed_below_its_lowest_order():
    assert ypower_closed(5, 3) == TruncatedSeries.zero(3)
    assert ypower_closed(3, 3) == TruncatedSeries([0, 0, 0, 1])


@pytest.mark.parametrize("a", range(-8, 9))
def test_y_over_q_power_is_exp_of_a_y(a):
    # Y = q e^Y, so (Y/q)^a = e^{aY}; series_exp runs its own recursion
    assert y_over_q_power(a, 20) == series_exp(a * series_y(20))


@pytest.mark.parametrize("m", range(1, 11))
def test_y_over_q_power_negative_matches_inverted_power(m):
    # the former route of the bracket series: power Y/q, then invert
    order = 20
    y_over_q = TruncatedSeries(series_y(order + 1).coeffs[1:])
    assert y_over_q_power(-m, order) == (y_over_q**m).inverse()


def test_dkz_small_cases():
    assert dkz_poly(0) == ZPoly([0, 1])
    assert dkz_poly(1) == ZPoly([0, 1, 2, 1])  # Z + 2Z^2 + Z^3
    assert dkz2_poly(0) == ZPoly([0, 0, 1])
    assert dkz2_poly(1) == ZPoly([0, 0, 2, 4, 2])


@pytest.mark.parametrize("k", range(9))
def test_dkz_leading_coefficients(k):
    p = dkz_poly(k)
    assert p.degree == 2 * k + 1
    assert p.coeffs[-1] == double_factorial(2 * k - 1)
    p2 = dkz2_poly(k)
    assert p2.degree == 2 * k + 2
    assert p2.coeffs[-1] == double_factorial(2 * k)


@pytest.mark.parametrize("k", range(1, 13))
def test_dkz_coefficients_positive_integers(k):
    for p in (dkz_poly(k), dkz2_poly(k)):
        for c in p.coeffs[1:]:
            if c != 0:
                assert c.denominator == 1 and c > 0


def test_dkz_matches_series_route():
    # D^k Z computed on the series equals the polynomial evaluated at Z
    z = series_z(18)
    s = z
    for k in range(5):
        assert zpoly_to_laurent(dkz_poly(k)).to_series(18) == s
        s = s.euler_d()


def test_zpoly_euler_matches_power_rule():
    # D(Z^k) = k Z^{k-1} Z (1+Z)^2 expanded, with Z = X^{-1} - 1
    z = LaurentPolyX({-1: 1, 0: -1})
    dz = z * LaurentPolyX({-2: 1})  # Z (1+Z)^2 = Z X^{-2}
    for k in range(1, 6):
        assert (z**k).euler_d() == z ** (k - 1) * k * dz


@pytest.mark.parametrize("k", range(13))
def test_spanning_list_matches_x_route(k):
    # the integer Z-coefficient recurrence against D on LaurentPolyX, and the
    # triangular solve on Z-coefficient rows against Gauss-Jordan on X^(-d) rows
    assert dkz_poly(k) == laurent_to_zpoly(dk_laurent(1, k))
    assert ZPoly(_dk_zpower(2, k)) == dkz2_poly(k)
    if k:
        assert zpower_in_basis(k) == zpower_in_basis_x(k)


def test_zpower_identity_case():
    assert zpower_in_basis(1) == [F(1)]


def test_zpower_three_by_expansion():
    combo = zpower_in_basis(3)
    acc = LaurentPolyX({})
    for c, i in zip(combo, range(3)):
        acc = acc + zpoly_to_laurent(zbasis_element(i)) * c
    assert laurent_to_zpoly(acc) == ZPoly([0, 0, 0, 1])


@pytest.mark.parametrize("k", range(1, 9))
def test_zpower_reexpansion_all_k(k):
    # the combination re-expanded on the series route
    combo = zpower_in_basis(k)
    s = TruncatedSeries.zero(16)
    for c, i in zip(combo, range(k)):
        s = s + zpoly_to_laurent(zbasis_element(i)).to_series(16) * c
    assert s == series_z(16) ** k


# --- identification ---


def test_identify_z_as_inverse_minus_one():
    ident = identify_in_a(series_z(12), -2, 2)
    assert ident.ok
    assert ident.element == LaurentPolyX({-1: 1, 0: -1})
    assert ident.verified_orders == 13 - 5


def test_identify_cayley_series():
    # coefficients n^{n-2}/n!: the doubly-rooted tree count series
    s = TruncatedSeries(
        [0] + [F(n) ** (n - 2) / math.factorial(n) for n in range(1, 15)]
    )
    ident = identify_in_a(s, -3, 3)
    assert ident.ok
    assert ident.element == LaurentPolyX({0: F(1, 2), 2: F(-1, 2)})


def test_identify_rejects_exp():
    e = series_exp(TruncatedSeries.monomial(1, 20))
    ident = identify_in_a(e, -3, 3)
    assert ident.status == "inconsistent"


def test_identify_rejects_change_in_last_coefficient_only():
    # the solve fixes the answer on the first rows; the last of the 41 rows
    # is only ever checked by substitution, and that check must still bite
    p = LaurentPolyX({-3: 2, -2: -1, -1: 3, 0: -2, 1: 1, 2: F(1, 2)})
    coeffs = list(p.to_series(40).coeffs)
    assert identify_in_a(TruncatedSeries(coeffs), -3, 2).element == p
    coeffs[-1] += F(1, 10**6)
    assert identify_in_a(TruncatedSeries(coeffs), -3, 2).status == "inconsistent"


def test_identify_underdetermined_when_order_too_small():
    ident = identify_in_a(series_z(6), -3, 3)
    assert ident.status == "underdetermined"


def test_identify_passes_the_solver_status_through(monkeypatch):
    # past the order check, a solve without a unique solution is the result
    from covercount import algebra

    monkeypatch.setattr(algebra, "solve_exact", lambda system: LinearSolution("underdetermined"))
    assert identify_in_a(series_z(20), -3, 3).status == "underdetermined"


@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=10),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=25, deadline=None)
def test_identify_roundtrip_random_elements(coeffs):
    p = LaurentPolyX(coeffs)
    if p.is_zero():
        return
    ident = identify_in_a(p.to_series(25), min(p.support), max(p.support))
    assert ident.ok and ident.element == p


@pytest.mark.parametrize("jmin, jmax", [(-4, 3), (-3, -1), (2, 4), (0, 0), (-8, 8), (-2, -2)])
def test_x_powers_match_binary_powering(jmin, jmax):
    # column j of the rows n! [q^n] X^j, n <= 20, is the series of X^j
    one = TruncatedSeries.one(20)
    x, xinv = one - series_y(20), one + series_z(20)
    powers = {j: (x if j >= 0 else xinv) ** abs(j) for j in range(jmin, jmax + 1)}
    rows = [_x_power_egf(n, jmin, jmax) for n in range(21)]
    for t, j in enumerate(range(jmin, jmax + 1)):
        s = TruncatedSeries([F(row[t], math.factorial(n)) for n, row in enumerate(rows)])
        assert s == powers[j]
    # `_egf_rows` on integer columns over the window: fit_phi's (1-X)^a X^jmin,
    # two ends, each bare power and the empty column, against the same powers
    a = jmax - jmin
    cols = [
        {jmin + t: (-1) ** t * math.comb(a, t) for t in range(a + 1)},
        {jmin: 3, jmax: -2} if a else {jmin: 3},
        *({j: 1} for j in powers),
        {},
    ]
    assert _yx_column(a, jmin) == cols[0]
    for c, col in enumerate(zip(*_egf_rows(range(21), cols))):
        expected = sum((powers[j] * w for j, w in cols[c].items()), TruncatedSeries.zero(20))
        assert TruncatedSeries.from_egf(col) == expected, cols[c]


def test_laurent_pow_rejects_negative_exponent_before_multiplying(monkeypatch):
    calls = []
    mul = LaurentPolyX.__mul__
    monkeypatch.setattr(LaurentPolyX, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    with pytest.raises(ValueError):
        LaurentPolyX({1: 1, 0: 2}) ** -3
    assert calls == []
    assert LaurentPolyX({1: 1, 0: 2}) ** 2 == LaurentPolyX({2: 1, 1: 4, 0: 4})


@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=10),
        max_size=5,
    )
)
@settings(max_examples=25, deadline=None)
def test_laurent_coefficient_matches_series_random_elements(coeffs):
    p = LaurentPolyX(coeffs)
    expected = [laurent_coefficient_spanning(p, n) for n in range(21)]
    assert [p.coefficient(n) for n in range(21)] == expected
    assert list(p.to_series(20).coeffs) == expected


def test_laurent_coefficient_closed_form_matches_series():
    p = LaurentPolyX({-3: 2, -1: F(1, 3), 0: -1, 2: F(5, 7)})
    for n in range(15):
        assert p.coefficient(n) == laurent_coefficient_spanning(p, n)


@pytest.mark.parametrize("jmin, jmax", [(-3, 2), (-8, 0)])
def test_laurent_coefficient_matches_spanning_list_at_2000(jmin, jmax):
    p = LaurentPolyX({j: F(j + 10, 3 - j) for j in range(jmin, jmax + 1)})
    assert p.coefficient(2000) == laurent_coefficient_spanning(p, 2000)


def test_criterion_12_coefficients_match_spanning_list_at_2000():
    from covercount.gravity import TauSpec, h_tau_series

    z = LaurentPolyX({-1: 1, 0: -1})
    y = LaurentPolyX({0: 1, 1: -1})
    h_tau0_cubed = h_tau_series(TauSpec(0, (0, 0, 0))).element
    for p in (z, z * z, z * z * z, y, h_tau0_cubed):
        assert p.coefficient(2000) == laurent_coefficient_spanning(p, 2000), p


@pytest.mark.parametrize("coeffs", [{}, {1: 1}, {-3: 1, 2: F(1, 2)}])
def test_laurent_coefficient_rejects_negative_n(coeffs):
    with pytest.raises(ValueError):
        LaurentPolyX(coeffs).coefficient(-1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        LaurentPolyX(coeffs).to_series(-1)


def test_readers_refuse_bool_integers():
    # a bool is an int to Python; as an index or a window end it is a slip
    z = series_z(20)
    with pytest.raises(TypeError):
        LaurentPolyX({-1: 1}).coefficient(True)
    for jmin, jmax in [(True, 2), (-2, True), (False, 2)]:
        with pytest.raises(TypeError):
            identify_in_a(z, jmin, jmax)


def test_integer_arguments_refuse_bools():
    # a_closed's cache is typed: with the entry of 1 warm, True still reaches
    # the int check instead of answering A_1
    assert a_closed(1) == 0
    power = LaurentPolyX({1: 1}).__pow__
    for call in (
        a_closed, seq_a, dkz_poly, zpower_in_basis, double_factorial, power, inv_gamma_half_scaled
    ):
        with pytest.raises(TypeError):
            call(True)


def test_zpoly_laurent_roundtrip():
    zp = ZPoly([1, F(1, 2), 0, 3])
    assert laurent_to_zpoly(zpoly_to_laurent(zp)) == zp


# --- D on LaurentPolyX, and the Z-coefficient record ---

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=10)


def laurent_elements(jmin, jmax):
    keys = st.integers(min_value=jmin, max_value=jmax)
    return st.dictionaries(keys, fractions, max_size=5).map(LaurentPolyX)


zpolys = st.lists(fractions, max_size=7).map(ZPoly)


@given(laurent_elements(-6, 4))
@settings(max_examples=50, deadline=None)
def test_laurent_euler_matches_series_euler(p):
    assert p.euler_d().to_series(12) == p.to_series(12).euler_d()


@given(laurent_elements(-6, 4), laurent_elements(-6, 4))
@settings(max_examples=50, deadline=None)
def test_laurent_euler_leibniz_rule(p, q):
    assert (p * q).euler_d() == p.euler_d() * q + p * q.euler_d()


@given(zpolys)
@settings(max_examples=50, deadline=None)
def test_zpoly_to_laurent_and_back(z):
    assert laurent_to_zpoly(zpoly_to_laurent(z)) == z


@given(laurent_elements(-8, 0))
@settings(max_examples=50, deadline=None)
def test_laurent_to_zpoly_and_back(p):
    assert zpoly_to_laurent(laurent_to_zpoly(p)) == p


@given(zpolys)
@settings(max_examples=50, deadline=None)
def test_euler_d_is_z_chain_rule(z):
    # D(P(Z)) = P'(Z) DZ with DZ = Z (1+Z)^2, all on LaurentPolyX
    derivative = ZPoly([i * c for i, c in enumerate(z.coeffs)][1:])
    dz = LaurentPolyX({-3: 1, -2: -1})  # Z (1+Z)^2 = Z X^{-2}
    assert zpoly_to_laurent(z).euler_d() == zpoly_to_laurent(derivative) * dz


def test_to_zpoly_rejects_positive_powers():
    with pytest.raises(ValueError):
        laurent_to_zpoly(LaurentPolyX({-1: 1, 1: 2}))


# --- asymptotics ---


def test_asymptotic_z_squared():
    term = leading_asymptotic(LaurentPolyX({-1: 1, 0: -1}) * LaurentPolyX({-1: 1, 0: -1}))
    assert term.constant.value == F(1, 2)
    assert term.constant.radical is Radical.ONE
    assert term.gamma2 == 2


def test_asymptotic_z():
    term = leading_asymptotic(LaurentPolyX({-1: 1, 0: -1}))
    assert term.constant == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert term.gamma2 == 1


def test_asymptotic_y_polynomial_case():
    term = leading_asymptotic(LaurentPolyX({0: 1, 1: -1}))  # Y = 1 - X
    assert term.constant == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert term.gamma2 == -1


def test_asymptotic_rejects_weightless_polynomial():
    with pytest.raises(ValueError):
        leading_asymptotic(LaurentPolyX({0: 5}))  # constant: sum k a_k = 0


@pytest.mark.parametrize(
    "element,ratio_margin",
    [
        ("Z", 0.05),
        ("Z2", 0.05),
        ("Y", 0.05),
        ("Y2", 0.05),
    ],
)
def test_numeric_asymptotics_at_2000(element, ratio_margin):
    z = LaurentPolyX({-1: 1, 0: -1})
    y = LaurentPolyX({0: 1, 1: -1})
    p = {"Z": z, "Z2": z * z, "Y": y, "Y2": y * y}[element]
    n = 2000
    exact = p.coefficient(n)
    term = leading_asymptotic(p)
    log_ratio = (
        math.log(exact.numerator) - math.log(exact.denominator) - log_leading(term, n)
    )
    assert abs(math.exp(log_ratio) - 1.0) < ratio_margin


def test_numeric_asymptotics_z3_known_deficit():
    # Z^3 = X^-3 - 3 X^-2 + ... has first correction c1 = -sqrt(2 pi)
    # (oracles.first_correction), so the plain exact/leading ratio at
    # n = 2000 sits near 1 - sqrt(2 pi / n) + O(1/n) = 0.9447; pin the
    # computed value so any drift in the leading term is caught
    z = LaurentPolyX({-1: 1, 0: -1})
    p = z * z * z
    assert abs(first_correction(p) + math.sqrt(2 * math.pi)) < 1e-12
    n = 2000
    exact = p.coefficient(n)
    term = leading_asymptotic(p)
    ratio = math.exp(
        math.log(exact.numerator) - math.log(exact.denominator) - log_leading(term, n)
    )
    assert abs(ratio - 0.944741) < 1e-4


def test_numeric_asymptotics_y_tight_at_1e4():
    y = LaurentPolyX({0: 1, 1: -1})
    n = 10**4
    exact = y.coefficient(n)
    term = leading_asymptotic(y)
    ratio = math.exp(
        math.log(exact.numerator) - math.log(exact.denominator) - log_leading(term, n)
    )
    assert abs(ratio - 1.0) < 0.01


def test_scaled_rational_multiplies_by_rationals_only():
    r2 = ScaledRational(F(3), Radical.SQRT2)
    assert r2 * F(1, 6) == F(1, 6) * r2 == ScaledRational(F(1, 2), Radical.SQRT2)
    assert 2 * r2 == ScaledRational(F(6), Radical.SQRT2)
    for other in (r2, ScaledRational(F(1)), ScaledRational(F(1), Radical.INV_SQRT_2PI)):
        with pytest.raises(TypeError):
            _ = r2 * other


def test_scaled_rational_rendering():
    assert str(ScaledRational(F(7, 4320), Radical.INV_SQRT_2PI)) == "7/4320 * (2*pi)^(-1/2)"
    assert str(ScaledRational(F(7, 11520), Radical.SQRT2)) == "7/11520 * sqrt(2)"


def test_serialization_formats():
    p = LaurentPolyX({-1: 1, 0: F(-1, 2)})
    assert p.to_json() == {"-1": "1", "0": "-1/2"}
    assert LaurentPolyX.from_json(p.to_json()) == p
    term = leading_asymptotic(p)
    assert term.to_json() == {"constant": "1", "radical": "inv_sqrt_2pi", "gamma2": 1}


def test_route_disagreement_raises_consistency_error(monkeypatch):
    # seq_a has one route, the closed form, so a broken closed form for A_n
    # shows against the convolution oracle; a solve behind Z^k that finds no
    # unique solution raises (a wrong solution is criterion 02's to catch),
    # and ConsistencyError is an AssertionError too, so callers still catch it
    from covercount import algebra

    monkeypatch.setattr(algebra, "a_closed", lambda n: -1)
    assert seq_a(4) == [-1] * 4 != seq_a_convolution(4)

    monkeypatch.setattr(algebra, "solve_exact", lambda system: LinearSolution("inconsistent"))
    with pytest.raises(ConsistencyError, match="did not resolve"):
        zpower_in_basis(2)
    assert issubclass(ConsistencyError, AssertionError)
