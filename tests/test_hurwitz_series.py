import math
from fractions import Fraction as F

import pytest

from covercount import cli, exact, monodromy
from covercount.algebra import LaurentPolyX, ZPoly, a_closed, identify_in_a, series_z
from covercount.errors import ConsistencyError, DomainError
from covercount.exact import TruncatedSeries
from covercount.hurwitz_series import (
    PhiPolynomial,
    default_window,
    fit_phi,
    h0_closed,
    h1_empty_series,
    h_series,
    normal_form_prefactor,
    oracle_data,
    phi_degree_bound,
)
from covercount.monodromy import CoveringSpec, hurwitz_connected
from covercount.symmetric import Partition

from .oracles import class_dp_connected, normal_form_series, table_connected, zpoly_to_laurent


def test_h0_closed_three_sheets_no_profile():
    assert h0_closed(3, ()) == 4


def test_h0_closed_three_marked_sheets():
    assert h0_closed(3, (1, 1, 1)) == 4


def test_h0_closed_matches_oracle_n4_single_double_point():
    spec = CoveringSpec(0, 4, [Partition([2])])
    assert h0_closed(4, (2,)) == table_connected(spec) == class_dp_connected(0, 4, [(2,)])


def test_h0_closed_domain_bound():
    with pytest.raises(DomainError):
        h0_closed(2, (2, 1))  # p + r = 3 > n
    for n in (0, -1):  # no sheets: the empty profile fits, but no cover has n < 1 sheets
        with pytest.raises(DomainError, match=r"needs n >= max\(1, p \+ r\) = 1"):
            h0_closed(n, ())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "mu", [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2)]
)
def test_h0_closed_oracle_equivalence(n, mu):
    # hurwitz_connected answers these specs by the same formula, so the
    # formula is checked against the count table and the class DP
    if sum(mu) > n or n < len(mu) + sum(b - 1 for b in mu):
        return
    spec = CoveringSpec(0, n, [Partition(mu)])
    assert h0_closed(n, mu) == table_connected(spec) == class_dp_connected(0, n, [mu])


def test_h1_empty_series_values():
    s = h1_empty_series(8)
    assert s.coefficient(1) == 0  # A_1 = 0
    assert s.coefficient(2) == F(1, 48)
    # h_{1,2;empty} = (2n)! * coefficient = 1/2
    assert math.factorial(4) * s.coefficient(2) == F(1, 2)
    for n in range(1, 9):
        assert s.coefficient(n) == F(a_closed(n), 24 * n * math.factorial(n))


def test_h1_empty_series_equals_the_genus1_counts():
    # [q^n] times c(n)! = (2n)! is h_{1,n} without profiles, which
    # hurwitz_connected reads off Vakil's formula and a fill off the table
    s = h1_empty_series(12)
    for n in range(1, 13):
        spec = CoveringSpec(1, n, [])
        count = math.factorial(2 * n) * s.coefficient(n)
        assert count == hurwitz_connected(spec) == table_connected(spec), n


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


@pytest.mark.parametrize(
    "call, args",
    [
        (h0_closed, (True, [])),
        (phi_degree_bound, (True, 1)),
        (phi_degree_bound, (0, True)),
        (default_window, (True, [])),
        (h_series, (True, [], 0)),
    ],
)
def test_closed_form_and_degree_bound_refuse_bools(call, args):
    # True is the int 1 to Python; as a sheet count, genus or part count it is a slip
    with pytest.raises(TypeError):
        call(*args)


def test_phi_degree_bound_enforced():
    with pytest.raises(DomainError):
        PhiPolynomial(0, Partition([1, 1, 1]), ZPoly([0, 0, 1]))


def test_phi_coefficient_refuses_negative_index():
    # -1 must not index from the end, where Z's coefficient 1/12 sits
    phi = PhiPolynomial(0, Partition([1]), ZPoly([F(1, 4), F(1, 12)]))
    assert [phi.coefficient(l) for l in range(3)] == [F(1, 4), F(1, 12), 0]
    with pytest.raises(ValueError, match="l must be >= 0"):
        phi.coefficient(-1)


def test_normal_form_series_zero_phi():
    phi = PhiPolynomial(1, Partition([1]), ZPoly([0]))
    assert normal_form_series(phi, 10).is_zero()


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
    assert fit.phi.coefficient(0) == 0


def test_fit_genus1_double_point_constant_term():
    fit = fit_from_oracle(1, (2,), 6)
    assert fit.phi.poly == ZPoly([F(1, 24), F(1, 24)])
    assert fit.phi.coefficient(0) == F(1, 24)


def test_fitted_phi_reproduces_closed_form_beyond_fit_range():
    # fit on n <= 8, then compare series out to n = 12 against the closed form
    fit = fit_from_oracle(0, (2, 1), 6)
    assert fit.phi.poly == ZPoly([F(1, 3)])
    series = normal_form_series(fit.phi, 12)
    for n in range(3, 13):
        cn = 2 * n - 2 - 1
        assert series.coefficient(n) == h0_closed(n, (2, 1)) / math.factorial(cn)


def test_phi_constant_term_is_one_for_three_part_genus0():
    for mu in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        fit = fit_from_oracle(0, mu, 5)
        assert fit.phi.coefficient(0) == 1


@pytest.mark.parametrize("g,mu", [(5, (2,)), (4, (3, 2))])
def test_fit_at_high_genus_predicts_further_counts(g, mu):
    # the normal form holds on every surplus row of the fit, and the fitted
    # series predicts the next two counts
    fit = fit_from_oracle(g, mu, phi_degree_bound(g, len(mu)) + 3)
    assert fit.surplus_verified >= 2
    assert fit.phi.poly.degree == phi_degree_bound(g, len(mu))
    n_last = max(1, sum(mu)) + phi_degree_bound(g, len(mu)) + 2
    series = normal_form_series(fit.phi, n_last + 2)
    for n in (n_last + 1, n_last + 2):
        cn = 2 * n + 2 * g - 2 - (sum(mu) - len(mu))
        h = hurwitz_connected(CoveringSpec(g, n, [Partition(mu)]))
        assert series.coefficient(n) == h / math.factorial(cn)


@pytest.mark.parametrize("g,mu", [(0, (1,)), (0, (2, 1)), (1, (2,)), (2, ())])
def test_fit_scales_with_the_data(g, mu):
    # counts over 7 give right sides that are not integers on the integer rows
    mu = Partition(mu)
    n0 = max(1, mu.m)
    data = oracle_data(g, mu, range(n0, n0 + phi_degree_bound(g, mu.num_parts) + 3))
    phi = fit_phi(g, mu, data).phi.poly
    scaled = fit_phi(g, mu, [(n, h / 7) for n, h in data]).phi.poly
    assert not phi.is_zero()
    assert scaled == ZPoly([c / 7 for c in phi.coeffs])


def test_fit_and_z2_never_reach_the_convolution_kernel(capsys, monkeypatch):
    # the fit's columns and Z2 are read off X-power rows, not series products
    data = {
        (g, mu): oracle_data(g, mu, range(max(1, sum(mu)), max(1, sum(mu)) + 3 * g + 4))
        for g, mu in [(2, (2, 1)), (4, ())]
    }
    calls, convolve = [], exact._convolve

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(exact, "_convolve", counted)
    for (g, mu), points in data.items():
        assert fit_phi(g, mu, points).surplus_verified >= 2
    assert cli.main(["series", "--name", "Z2", "--order", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 39
    assert calls == []


@pytest.mark.parametrize("g,mu", [(0, (2,)), (1, (2,)), (2, (2, 1)), (3, ())])
def test_fit_on_gapped_and_reversed_data_matches_sorted(g, mu):
    # the fit sorts its data, so the order given must not matter, and the
    # right side is padded with zeros between the given n
    mu = Partition(mu)
    n0 = max(1, mu.m)
    need = phi_degree_bound(g, mu.num_parts) + 3
    data = oracle_data(g, mu, range(n0, n0 + 2 * need, 2))
    fit = fit_phi(g, mu, data)
    assert fit_phi(g, mu, data[::-1]) == fit
    assert fit == fit_phi(g, mu, oracle_data(g, mu, range(n0, n0 + need)))


def test_fit_rejects_too_few_points():
    mu = Partition([1])
    data = oracle_data(0, mu, range(1, 3))
    with pytest.raises(DomainError):
        fit_phi(0, mu, data)


@pytest.mark.parametrize("g,mu,n", [(0, (2,), 1), (5, (2,), -3)])
def test_fit_refuses_points_outside_the_valid_range(g, mu, n):
    # c(1) < 0 at genus 0; at genus 5, c(-3) >= 0 but no cover has -3 sheets
    mu = Partition(mu)
    data = oracle_data(g, mu, range(2, 2 + phi_degree_bound(g, 1) + 3))
    with pytest.raises(DomainError, match=f"data point n={n} is outside the valid range"):
        fit_phi(g, mu, [(n, F(1))] + data)


def test_fit_refuses_bool_integers():
    mu = Partition((2,))
    data = oracle_data(1, mu, range(2, 9))
    with pytest.raises(TypeError):
        fit_phi(True, mu, data)
    with pytest.raises(TypeError):
        fit_phi(1, mu, [(True, F(0))] + data[1:])
    with pytest.raises(TypeError):
        fit_phi(1, mu, data).phi.coefficient(True)
    # counts are exact values: floats equal to them are refused, not fitted
    with pytest.raises(TypeError):
        fit_phi(1, mu, [(n, float(h)) for n, h in data])


@pytest.mark.parametrize("g, order", [(-1, 1), (-3, 3), (-1, 8)])
def test_series_and_fit_refuse_a_negative_genus(g, order):
    # at order 1, c(1) < 0 leaves no n to count, so only the genus check can
    # refuse; the fit checks the genus before its data
    monodromy.clear_caches()
    with pytest.raises(DomainError, match="genus must be >= 0"):
        h_series(g, [], order)
    with pytest.raises(DomainError, match="genus must be >= 0"):
        fit_phi(g, (), [(n, F(0)) for n in range(order + 3)])
    assert not monodromy._CONN and not monodromy._PLANS


def test_fit_raises_on_corrupted_data():
    mu = Partition([1])
    data = dict(oracle_data(0, mu, range(1, 7)))
    data[6] += 1  # sabotage one count
    with pytest.raises(ConsistencyError, match="do not fit the normal form"):
        fit_phi(0, mu, list(data.items()))


@pytest.mark.parametrize("first", [True, False])
def test_fit_refuses_a_repeated_point(first):
    # a second count at one n, raised by one: kept or dropped by its place in
    # the data, it would decide the fit; wherever it sits, the fit refuses it
    mu = Partition((2,))
    data = oracle_data(1, mu, range(2, 9))
    copy = (2, data[0][1] + 1)
    with pytest.raises(DomainError, match="n=2 is given more than once"):
        fit_phi(1, mu, [copy] + data if first else data + [copy])


def test_fit_on_zero_rows_is_under_determined():
    # 7 points for 5 unknowns, but Y^3 has no q^0..q^2 term: the zero counts
    # at n = 0, 1, 2 give zero rows, and 4 rows cannot fix 5 unknowns
    mu = Partition((3,))
    data = [(n, F(0)) for n in range(3)] + oracle_data(2, mu, range(3, 7))
    with pytest.raises(DomainError, match="leaves the fit under-determined"):
        fit_phi(2, mu, data)


@pytest.mark.parametrize(
    "g,mu",
    [(0, (1,)), (0, (2,)), (0, (1, 1)), (0, (2, 1)), (0, (3,)), (1, (1,)), (1, (2,)),
     (1, (2, 1)), (1, (3,)), (1, (2, 2)), (2, ()), (2, (1,)), (2, (2,)), (2, (2, 1)),
     (2, (3,)), (3, ())],
)
def test_identified_element_is_the_fitted_normal_form(g, mu):
    # two fits on different columns and different data: the certificate's
    # element over default_window's powers X^j, and phi over the normal-form
    # columns, must give prefactor (1-X)^m X^(-chi) phi(X^-1 - 1)
    mu = Partition(mu)
    n0 = max(1, mu.m)
    bound = phi_degree_bound(g, mu.num_parts)
    phi = fit_phi(g, mu, oracle_data(g, mu, range(n0, n0 + bound + 5))).phi.poly
    jmin, jmax = default_window(g, [mu])
    certificate = h_series(g, [mu], jmax - jmin + 1 + 5 + n0 + 2).certificate
    chi = 2 * g - 2 + mu.num_parts
    y_power = LaurentPolyX({0: 1, 1: -1}) ** mu.m
    expected = normal_form_prefactor(mu) * y_power * LaurentPolyX({-chi: 1}) * zpoly_to_laurent(phi)
    assert certificate.ok and certificate.element == expected


def test_normal_form_series_matches_oracle_for_genus1():
    fit = fit_from_oracle(1, (1,), 6)
    series = normal_form_series(fit.phi, 9)
    for n, h in oracle_data(1, (1,), range(1, 10)):
        assert series.coefficient(n) == h / math.factorial(2 * n)


# --- full series with certificates ---


def test_h_series_genus0_no_profile():
    result = h_series(0, [], 14)
    assert result.certificate.ok
    # closed form: coefficients n^{n-3}/n!
    for n in range(1, 15):
        assert result.series.coefficient(n) == F(n) ** (n - 3) / math.factorial(n)
    assert result.certificate.element.coefficient(5) == result.series.coefficient(5)


def test_h_series_two_double_points_lies_in_algebra():
    result = h_series(0, [(2,), (2,)], 14)  # default window (-2, 5)
    assert result.certificate.ok
    assert result.certificate.verified_orders >= 5
    assert result.certificate.element == LaurentPolyX(
        {0: F(3, 2), 1: -4, 2: F(7, 2), 3: -1}
    )


def test_h_series_two_marked_sheets_genus1():
    # two separately marked sheets at genus one: D^2 of the empty series
    # the default window (-5, 3) has 9 unknowns and needs 9 + 5 coefficients
    result = h_series(1, [(1,), (1,)], 13)
    assert result.certificate.ok
    assert result.certificate.element == LaurentPolyX(
        {-4: F(1, 12), -3: F(-1, 6), -2: F(1, 12)}
    )


def test_h_series_rejects_negative_order():
    with pytest.raises(DomainError, match="order must be >= 0"):
        h_series(0, [], -1)


@pytest.mark.parametrize(
    "g, mus, order", [(0, [], 8), (1, [(2,)], 7), (0, [(2,), (2,)], 6), (2, [(3,)], 4)]
)
def test_h_series_matches_fraction_route(g, mus, order):
    # sum h_{g,n} / c(n)! q^n with each coefficient divided out as a Fraction
    r = sum(sum(mu) - len(mu) for mu in mus)
    coeffs = [F(0)] * (order + 1)
    for n in range(max([1] + [sum(mu) for mu in mus]), order + 1):
        c = 2 * n + 2 * g - 2 - r
        if c >= 0:
            coeffs[n] = hurwitz_connected(CoveringSpec(g, n, mus)) / math.factorial(c)
    assert h_series(g, mus, order).series == TruncatedSeries(coeffs)


def test_h_series_genus1_no_profile_fails_identification():
    result = h_series(1, [], 16)
    assert not result.certificate.ok
    assert result.certificate.status == "inconsistent"
