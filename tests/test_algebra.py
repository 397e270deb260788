import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercount.algebra import (
    LaurentPolyX,
    Radical,
    ScaledRational,
    ZPoly,
    a_closed,
    dkz2_poly,
    dkz_poly,
    double_factorial,
    identify_in_a,
    leading_asymptotic,
    seq_a,
    series_y,
    series_z,
    x_powers,
    ypower_closed,
    zbasis_element,
    zpower_in_basis,
)
from covercount.errors import ConsistencyError
from covercount.exact import LinearSolution, TruncatedSeries, series_exp

from .oracles import a_closed_fractions, cauchy_product, first_correction, series_inverse


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
        assert dkz_poly(k).to_series(18) == s
        s = s.euler_d()


def test_zpoly_euler_matches_power_rule():
    # D(Z^k) = k Z^{k-1} Z (1+Z)^2 expanded
    for k in range(1, 6):
        zk = ZPoly([0] * k + [1])
        expected = ZPoly([0] * (k - 1) + [1]) * k * ZPoly([0, 1, 2, 1])
        assert zk.euler_d() == expected


def test_zpower_identity_case():
    assert zpower_in_basis(1) == [F(1)]


def test_zpower_three_by_expansion():
    combo = zpower_in_basis(3)
    acc = ZPoly([0])
    for c, i in zip(combo, range(3)):
        acc = acc + zbasis_element(i) * c
    assert acc == ZPoly([0, 0, 0, 1])


@pytest.mark.parametrize("k", range(1, 9))
def test_zpower_reexpansion_all_k(k):
    # zpower_in_basis re-verifies internally; also check the series route
    combo = zpower_in_basis(k)
    s = TruncatedSeries.zero(16)
    for c, i in zip(combo, range(k)):
        s = s + zbasis_element(i).to_series(16) * c
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


def test_identify_underdetermined_when_order_too_small():
    ident = identify_in_a(series_z(6), -3, 3)
    assert ident.status == "underdetermined"


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


@pytest.mark.parametrize("jmin, jmax", [(-4, 3), (-3, -1), (2, 4), (0, 0)])
def test_x_powers_match_binary_powering(jmin, jmax):
    one = TruncatedSeries.one(20)
    x, xinv = one - series_y(20), one + series_z(20)
    powers = x_powers(jmin, jmax, 20)
    assert list(powers) == list(range(jmin, jmax + 1))
    for j, s in powers.items():
        assert s == (x if j >= 0 else xinv) ** abs(j)


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
    s = p.to_series(20)
    assert [p.coefficient(n) for n in range(21)] == list(s.coeffs)


def test_laurent_coefficient_closed_form_matches_series():
    p = LaurentPolyX({-3: 2, -1: F(1, 3), 0: -1, 2: F(5, 7)})
    s = p.to_series(14)
    for n in range(15):
        assert p.coefficient(n) == s.coefficient(n)


def test_zpoly_laurent_roundtrip():
    zp = ZPoly([1, F(1, 2), 0, 3])
    assert zp.to_laurent().to_zpoly() == zp


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
        math.log(exact.numerator) - math.log(exact.denominator) - term.log_predicted(n)
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
        math.log(exact.numerator) - math.log(exact.denominator) - term.log_predicted(n)
    )
    assert abs(ratio - 0.944741) < 1e-4


def test_numeric_asymptotics_y_tight_at_1e4():
    y = LaurentPolyX({0: 1, 1: -1})
    n = 10**4
    exact = y.coefficient(n)
    term = leading_asymptotic(y)
    ratio = math.exp(
        math.log(exact.numerator) - math.log(exact.denominator) - term.log_predicted(n)
    )
    assert abs(ratio - 1.0) < 0.01


def test_scaled_rational_products_closed():
    r2 = ScaledRational(F(3), Radical.SQRT2)
    assert r2 * r2 == ScaledRational(F(18), Radical.ONE)
    with pytest.raises(ValueError):
        _ = r2 * ScaledRational(F(1), Radical.INV_SQRT_2PI)


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
    # a broken closed form for A_n, and a wrong solve behind Z^k; both are
    # AssertionErrors too, so existing callers still catch them
    from covercount import algebra

    monkeypatch.setattr(algebra, "a_closed", lambda n: -1)
    with pytest.raises(ConsistencyError):
        seq_a(4)

    def zero_solution(system):
        return LinearSolution("unique", (F(0),) * len(system.matrix[0]))

    monkeypatch.setattr(algebra, "solve_exact", zero_solution)
    with pytest.raises(ConsistencyError):
        zpower_in_basis(2)
    assert issubclass(ConsistencyError, AssertionError)
