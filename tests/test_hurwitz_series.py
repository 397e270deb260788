import math
from fractions import Fraction as F

import pytest

from covercount.algebra import LaurentPolyX, ZPoly, a_closed, identify_in_a, series_z
from covercount.errors import ConsistencyError, DomainError
from covercount.hurwitz_series import (
    PhiPolynomial,
    fit_phi,
    h0_closed,
    h1_empty_series,
    h_series,
    normal_form_series,
    oracle_data,
    phi_degree_bound,
)
from covercount.monodromy import CoveringSpec, hurwitz_connected
from covercount.symmetric import Partition


def test_h0_closed_three_sheets_no_profile():
    assert h0_closed(3, ()) == 4


def test_h0_closed_three_marked_sheets():
    assert h0_closed(3, (1, 1, 1)) == 4


def test_h0_closed_matches_oracle_n4_single_double_point():
    assert h0_closed(4, (2,)) == hurwitz_connected(CoveringSpec(0, 4, [Partition([2])]))


def test_h0_closed_domain_bound():
    with pytest.raises(DomainError):
        h0_closed(2, (2, 1))  # p + r = 3 > n


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "mu", [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2)]
)
def test_h0_closed_oracle_equivalence(n, mu):
    if sum(mu) > n or n < len(mu) + sum(b - 1 for b in mu):
        return
    assert h0_closed(n, mu) == hurwitz_connected(CoveringSpec(0, n, [Partition(mu)]))


def test_h1_empty_series_values():
    s = h1_empty_series(8)
    assert s.coefficient(1) == 0  # A_1 = 0
    assert s.coefficient(2) == F(1, 48)
    # h_{1,2;empty} = (2n)! * coefficient = 1/2
    assert math.factorial(4) * s.coefficient(2) == F(1, 2)
    for n in range(1, 9):
        assert s.coefficient(n) == F(a_closed(n), 24 * n * math.factorial(n))


def test_h1_empty_series_not_in_algebra():
    ident = identify_in_a(h1_empty_series(20), -4, 4)
    assert ident.status == "inconsistent"


def test_h1_marked_variant_is_in_algebra():
    # one marked sheet: D of the empty series, equal to Z^2/24
    s = h1_empty_series(20).euler_d()
    assert s == series_z(20) ** 2 * F(1, 24)
    ident = identify_in_a(s, -4, 4)
    assert ident.ok
    assert ident.element == LaurentPolyX({-2: F(1, 24), -1: F(-1, 12), 0: F(1, 24)})


# --- the normal form and its inversion ---


def test_phi_degree_bounds():
    assert phi_degree_bound(0, 3) == 0
    assert phi_degree_bound(1, 1) == 1
    assert phi_degree_bound(2, 0) == 3
    assert phi_degree_bound(0, 1) == 1  # outside the stable range; genuinely degree 1
    assert phi_degree_bound(0, 2) == 0


def test_phi_degree_bound_enforced():
    with pytest.raises(DomainError):
        PhiPolynomial(0, Partition([1, 1, 1]), ZPoly([0, 0, 1]))


def test_normal_form_series_zero_phi():
    phi = PhiPolynomial(1, Partition([1]), ZPoly([0]))
    assert normal_form_series(1, (1,), phi, 10).is_zero()


def fit_from_oracle(g, mu, points):
    mu = Partition(mu)
    n0 = max(1, mu.m)
    data = oracle_data(g, mu, range(n0, n0 + points))
    return fit_phi(g, mu, data)


def test_fit_genus0_single_marked_sheet():
    fit = fit_from_oracle(0, (1,), 6)
    assert fit.phi.poly == ZPoly([1, F(1, 2)])
    assert fit.surplus_verified >= 2


def test_fit_genus0_double_point():
    fit = fit_from_oracle(0, (2,), 6)
    assert fit.phi.poly == ZPoly([F(1, 4), F(1, 12)])


def test_fit_genus0_three_marked_sheets():
    fit = fit_from_oracle(0, (1, 1, 1), 5)
    assert fit.phi.poly == ZPoly([1])


def test_fit_genus1_single_marked_sheet():
    # phi = Z/24: the 1/24 of the genus-one normal form sits on the
    # degree-one coefficient; the constant term vanishes exactly
    fit = fit_from_oracle(1, (1,), 6)
    assert fit.phi.poly == ZPoly([0, F(1, 24)])
    assert fit.phi.constant_term == 0


def test_fit_genus1_double_point_constant_term():
    fit = fit_from_oracle(1, (2,), 6)
    assert fit.phi.poly == ZPoly([F(1, 24), F(1, 24)])
    assert fit.phi.constant_term == F(1, 24)


def test_fitted_phi_reproduces_closed_form_beyond_fit_range():
    # fit on n <= 8, then compare series out to n = 12 against the closed form
    fit = fit_from_oracle(0, (2, 1), 6)
    assert fit.phi.poly == ZPoly([F(1, 3)])
    series = normal_form_series(0, (2, 1), fit.phi, 12)
    for n in range(3, 13):
        cn = 2 * n - 2 - 1
        assert series.coefficient(n) == h0_closed(n, (2, 1)) / math.factorial(cn)


def test_phi_constant_term_is_one_for_three_part_genus0():
    for mu in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        fit = fit_from_oracle(0, mu, 5)
        assert fit.phi.constant_term == 1


@pytest.mark.parametrize("g,mu", [(5, (2,)), (4, (3, 2))])
def test_fit_at_high_genus_predicts_further_counts(g, mu):
    # the normal form holds on every surplus row of the fit, and the fitted
    # series predicts the next two counts
    fit = fit_from_oracle(g, mu, phi_degree_bound(g, len(mu)) + 3)
    assert fit.surplus_verified >= 2
    assert fit.phi.poly.degree == phi_degree_bound(g, len(mu))
    n_last = max(1, sum(mu)) + phi_degree_bound(g, len(mu)) + 2
    series = normal_form_series(g, mu, fit.phi, n_last + 2)
    for n in (n_last + 1, n_last + 2):
        cn = 2 * n + 2 * g - 2 - (sum(mu) - len(mu))
        h = hurwitz_connected(CoveringSpec(g, n, [Partition(mu)]))
        assert series.coefficient(n) == h / math.factorial(cn)


def test_fit_rejects_too_few_points():
    mu = Partition([1])
    data = oracle_data(0, mu, range(1, 3))
    with pytest.raises(DomainError):
        fit_phi(0, mu, data)


def test_fit_raises_on_corrupted_data():
    mu = Partition([1])
    data = dict(oracle_data(0, mu, range(1, 7)))
    data[6] += 1  # sabotage one count
    with pytest.raises(ConsistencyError):
        fit_phi(0, mu, list(data.items()))


def test_normal_form_series_matches_oracle_for_genus1():
    fit = fit_from_oracle(1, (1,), 6)
    series = normal_form_series(1, (1,), fit.phi, 9)
    for n, h in oracle_data(1, (1,), range(1, 10)):
        assert series.coefficient(n) == h / math.factorial(2 * n)


# --- full series with certificates ---


def test_h_series_genus0_no_profile():
    result = h_series(0, [], 14)
    assert result.in_algebra
    # closed form: coefficients n^{n-3}/n!
    for n in range(1, 15):
        assert result.series.coefficient(n) == F(n) ** (n - 3) / math.factorial(n)
    assert result.certificate.element.coefficient(5) == result.series.coefficient(5)


def test_h_series_two_double_points_lies_in_algebra():
    result = h_series(0, [(2,), (2,)], 14, window=(-2, 5))
    assert result.in_algebra
    assert result.certificate.verified_orders >= 5
    assert result.certificate.element == LaurentPolyX(
        {0: F(3, 2), 1: -4, 2: F(7, 2), 3: -1}
    )


def test_h_series_two_marked_sheets_genus1():
    # two separately marked sheets at genus one: D^2 of the empty series
    result = h_series(1, [(1,), (1,)], 12, window=(-4, 2))
    assert result.in_algebra
    assert result.certificate.element == LaurentPolyX(
        {-4: F(1, 12), -3: F(-1, 6), -2: F(1, 12)}
    )


def test_h_series_genus1_no_profile_fails_identification():
    result = h_series(1, [], 16)
    assert not result.in_algebra
    assert result.certificate.status == "inconsistent"
