import math
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from covercount import gravity, monodromy
from covercount.algebra import LaurentPolyX, Radical, ScaledRational, leading_asymptotic
from covercount.errors import ConsistencyError, DomainError
from covercount.gravity import (
    TauSpec,
    _bracket_terms,
    b_constant,
    free_energy_coefficient,
    h_tau_series,
    hg_empty_leading,
    painleve_solve,
    string_dilaton_check,
    tau_bracket,
    tau_coefficient,
)
from covercount.hurwitz_series import fit_phi, oracle_data
from covercount.monodromy import clear_caches

from .oracles import (
    bracket_terms_by_tuples,
    dvv_bracket,
    painleve_fractions,
    painleve_residual,
    painleve_u,
    partitions_of,
)


def test_bracket_three_tau0_genus0():
    assert tau_bracket(TauSpec(0, (0, 0, 0))) == 1


def test_bracket_tau1_genus1():
    assert tau_bracket(TauSpec(1, (1,))) == F(1, 24)


def test_bracket_reference_values():
    assert tau_bracket(TauSpec(1, (0, 0, 2, 2))) == 2 * F(1, 12)
    assert tau_bracket(TauSpec(0, (0, 0, 0, 0, 0, 2, 2))) == 2 * 3


def test_bracket_known_small_table():
    # independent cross-checks against standard psi-intersection values
    assert tau_bracket(TauSpec(0, (0, 0, 0, 1))) == 1
    assert tau_bracket(TauSpec(1, (0, 2))) == F(1, 24)
    assert tau_bracket(TauSpec(1, (1, 1))) == F(1, 24)
    assert tau_bracket(TauSpec(1, (0, 1, 2))) == F(1, 12)
    assert tau_bracket(TauSpec(1, (0, 0, 1, 2, 2))) == 2 * F(1, 3)


def test_bracket_dimension_violation_is_zero():
    assert tau_bracket(TauSpec(0, (1, 1, 1))) == 0
    assert tau_bracket(TauSpec(1, (0,))) == 0


def test_bracket_higher_genus_known_values():
    # standard one- and two-point values at genus 2 and 3
    assert tau_bracket(TauSpec(2, (4,))) == F(1, 1152)
    assert tau_bracket(TauSpec(2, (3, 2))) == F(29, 5760)
    assert tau_bracket(TauSpec(3, (7,))) == F(1, 82944)


@pytest.mark.parametrize(
    "g, ds",
    [
        (0, (0, 0, 0)),
        (1, (1,)),
        (0, (0, 1, 2, 3)),
        (1, (0, 0, 2, 2)),
        (2, (0, 1, 1, 3, 4)),
        (2, (2, 2, 2)),
        (3, (1, 2, 3, 4, 4)),
        (3, (2,) * 6),
        (4, (2,) * 9),
        (4, (0, 3, 3, 3, 3, 3)),
    ],
)
def test_bracket_terms_match_tuple_expansion(g, ds):
    # factor by factor against one tuple of multiplicities at a time: the same
    # profiles with the same coefficients, in the same order
    terms = _bracket_terms(TauSpec(g, ds))
    expected = bracket_terms_by_tuples(ds)
    assert terms == expected and list(terms) == list(expected)


def test_tau_coefficient_values():
    # every weight with d <= 2
    assert tau_coefficient(0, 1) == 1
    assert [tau_coefficient(1, b) for b in (1, 2)] == [-1, F(1, 2)]
    assert [tau_coefficient(2, b) for b in (1, 2, 3)] == [F(1, 2), F(-1, 2), F(1, 9)]


@pytest.mark.parametrize("d", range(7))
def test_vanishing_combination_formal_expansion(d):
    # c_b = tau_coefficient(d, b) b^b / b! and
    # sum_b c_b/(1 - b psi) = sum_j (sum_b c_b b^j) psi^j: the orders below
    # d vanish and psi^d has coefficient 1
    combo = [(b, tau_coefficient(d, b) * F(b**b, math.factorial(b))) for b in range(1, d + 2)]
    for j in range(d + 1):
        total = sum(c * b**j for b, c in combo)
        assert total == (1 if j == d else 0), j


# --- string and dilaton ---


@pytest.mark.parametrize(
    "g,ds",
    [
        (0, (0, 0, 1)),
        (0, (0, 1, 1)),
        (1, (2,)),
        (1, (0, 3)),
        (1, (1, 2)),
    ],
)
def test_string_dilaton_reductions(g, ds):
    report = string_dilaton_check(g, ds)
    assert report.ok


def test_dilaton_concrete_genus1():
    # <tau_1 tau_1>_1 = (2g-2+p) <tau_1>_1 with p = 1
    assert tau_bracket(TauSpec(1, (1, 1))) == 1 * tau_bracket(TauSpec(1, (1,)))


# --- the bracket series theorem ---


def test_h_tau_series_three_tau0():
    result = h_tau_series(TauSpec(0, (0, 0, 0)))
    assert result.bracket == 1
    assert result.element == LaurentPolyX({-1: 1})
    assert result.identification.verified_orders >= 5


def test_h_tau_series_tau1_genus1():
    result = h_tau_series(TauSpec(1, (1,)))
    assert result.bracket == F(1, 24)
    assert result.element == LaurentPolyX({-1: F(1, 24)})


def test_h_tau_series_dimension_violation_gives_zero():
    result = h_tau_series(TauSpec(0, (1, 1, 1)))
    assert result.series.is_zero()


@pytest.mark.parametrize(
    "surplus, error", [(True, TypeError), (-1, DomainError), (-5, DomainError)]
)
def test_h_tau_series_refuses_a_bad_surplus_before_any_count(surplus, error):
    # True is not 1 surplus order, and below 0 no order would verify the
    # bracket; genus 2 would fill a count table, and neither call does
    clear_caches()
    with pytest.raises(error):
        h_tau_series(TauSpec(2, (4,)), surplus=surplus)
    assert not monodromy._CONN and not monodromy._DISC and not monodromy._PLANS


def test_bracket_series_constant_term_matches_direct_bracket():
    # h_tau_series reads the bracket off the series' q^0 coefficient; the
    # string equation and DVV recursion, which read no covering count, must
    # agree on every stable, dimension-valid bracket with g <= 2 and p <= 4
    specs = [
        TauSpec(g, ds)
        for g in range(3)
        for p in range(1, 5)
        if 2 * g - 2 + p > 0
        for ds in combinations_with_replacement(range(3 * g - 2 + p), p)
        if sum(ds) == 3 * g - 3 + p
    ]
    assert len(specs) == 35
    for spec in specs:
        assert h_tau_series(spec).bracket == dvv_bracket(spec.g, spec.ds), spec


@pytest.mark.parametrize("point", [0, 3, -1])
def test_h_tau_series_raises_on_one_perturbed_count(monkeypatch, point):
    # tau_1 at genus one expands to the profiles (1) and (2); one count of
    # the first term off by 1/7 breaks the single (Z+1)^1 term
    spec = TauSpec(1, (1,))
    assert len(_bracket_terms(spec)) == 2
    real = gravity.oracle_data
    calls = []

    def perturbed(*args, **kwargs):
        data = real(*args, **kwargs)
        calls.append(data)
        if len(calls) == 1:
            n, h = data[point]
            data[point] = (n, h + F(1, 7))
        return data

    monkeypatch.setattr(gravity, "oracle_data", perturbed)
    with pytest.raises(ConsistencyError):
        h_tau_series(spec)
    monkeypatch.undo()
    assert h_tau_series(spec).bracket == F(1, 24)


def test_tau_series_asymptotic_statement():
    spec = TauSpec(0, (0, 0, 0))
    term = leading_asymptotic(LaurentPolyX({-spec.chi: F(1)}))
    # chi = 1: constant 1/(2^{1/2} Gamma(1/2)) = (2 pi)^{-1/2}, gamma = 1/2
    assert term.constant == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert term.gamma2 == 1


def test_tau_series_asymptotic_agrees_with_element_route():
    # chi = 4 at genus 1: bracket * X^{-chi} fed through the generic machinery
    bracket = F(1, 6)
    spec = TauSpec(1, (0, 0, 2, 2))
    term = leading_asymptotic(LaurentPolyX({-spec.chi: bracket}))
    assert spec.chi == 4
    assert term.constant == ScaledRational(F(1, 24), Radical.ONE)
    assert term.gamma2 == 4


# --- Painleve I ---


def test_painleve_first_coefficients():
    sol = painleve_solve(5)
    assert sol.e[2] == F(7, 1440)
    assert sol.e[3] == F(245, 20736)


def test_painleve_residual_vanishes_through_g10():
    # the Fraction residual of u built from e: painleve_solve checks none of
    # its own.  It vanishes below the first unsolved order s^{5(g_max+1)-2}.
    for g_max in (10, 60):
        u = painleve_u(painleve_solve(g_max).e)
        for t in range(-2, 5 * (g_max + 1) - 2):
            assert painleve_residual(u, t) == 0, (g_max, t)


@pytest.mark.parametrize("g", range(2, 7))
def test_painleve_residual_sees_a_perturbed_constant(g):
    # the residual check above is not vacuous: moving one e_g by 1/10^6
    # leaves the residual at s^{5g-2}, the order that fixes a_g, nonzero
    e = painleve_solve(6).e
    e[g] += F(1, 10**6)
    assert painleve_residual(painleve_u(e), 5 * g - 2) != 0


@pytest.mark.parametrize("g_max", [2, 3, 10, 60])
def test_painleve_integer_route_matches_fractions(g_max):
    sol, ref = painleve_solve(g_max), painleve_fractions(g_max)
    assert sol.e == ref


def test_painleve_requires_g2():
    with pytest.raises(DomainError):
        painleve_solve(1)


# --- gravity constants ---


def test_b_low_genus_values():
    assert b_constant(0).b == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert b_constant(1).b == ScaledRational(F(1, 2**4 * 3), Radical.ONE)


def test_b_constant_refuses_a_bool_genus():
    # True is the int 1 to Python; as a genus it is a slip, not b_1, and as
    # a tau index or preimage multiplicity it is no weight
    for call, args in [
        (b_constant, (True,)),
        (free_energy_coefficient, (True,)),
        (painleve_solve, (True,)),
        (tau_coefficient, (True, 1)),
        (tau_coefficient, (1, True)),
        (tau_bracket, (TauSpec(0, (1, 1, 1)), True)),  # off dimension: no count runs
        (h_tau_series, (TauSpec(0, (1, 1, 1)), 5, True)),
    ]:
        with pytest.raises(TypeError):
            call(*args)


def test_b2_matches_listed_value():
    assert b_constant(2).b == ScaledRational(F(7, 2**5 * 3**3 * 5), Radical.INV_SQRT_2PI)


def test_b3_matches_listed_value():
    assert b_constant(3).b == ScaledRational(F(5 * 7**2, 2**16 * 3**5), Radical.ONE)


def test_b4_matches_listed_value():
    assert b_constant(4).b == ScaledRational(
        F(7 * 5297, 2**11 * 3**8 * 5**2 * 11 * 13), Radical.INV_SQRT_2PI
    )


def test_radical_parity_rule():
    sol = painleve_solve(8)
    for g in range(2, 9):
        b = b_constant(g, sol).b
        assert b.radical is (Radical.INV_SQRT_2PI if g % 2 == 0 else Radical.ONE)


def test_free_energy_coefficients():
    assert free_energy_coefficient(2) == ScaledRational(F(7, 11520), Radical.SQRT2)
    assert free_energy_coefficient(3).radical is Radical.ONE
    sol = painleve_solve(6)
    coeffs = {g: free_energy_coefficient(g, sol) for g in range(2, 7)}
    for g, value in coeffs.items():
        assert value.radical is (Radical.SQRT2 if g % 2 == 0 else Radical.ONE)
    # e_g / 2^{5(g-1)/2} cross-check at g = 3
    assert coeffs[3] == ScaledRational(sol.e[3] / 2**5, Radical.ONE)


def test_two_path_consistency_at_genus2():
    assert hg_empty_leading(2) == painleve_solve(2).e[2] == F(7, 1440)


def test_hg_empty_leading_matches_painleve_through_genus12():
    # e_g from covering counts alone (fitted normal form) against the
    # Painleve I recursion
    sol = painleve_solve(12)
    for g in range(2, 13):
        assert hg_empty_leading(g) == sol.e[g], g


def test_dvv_matches_covering_brackets():
    # string equation + DVV recursion against the covering-count brackets on
    # every stable, dimension-valid bracket with g <= 3 and p <= 5
    specs = [
        (g, ds)
        for g in range(4)
        for p in range(1, 6)
        if 2 * g - 2 + p > 0
        for ds in combinations_with_replacement(range(3 * g - 2 + p), p)
        if sum(ds) == 3 * g - 3 + p
    ]
    assert len(specs) == 140
    for g, ds in specs:
        assert dvv_bracket(g, ds) == tau_bracket(TauSpec(g, ds)), (g, ds)


def test_genus4_nine_point_bracket_matches_painleve():
    # <tau_2^9>_4 = 9! e_4 from covering counts on cold tables: 55 counts,
    # each of one profile with nine parts in 1..3, up to n = 27 sheets
    clear_caches()
    bracket = tau_bracket(TauSpec(4, (2,) * 9))
    assert bracket == math.factorial(9) * painleve_solve(4).e[4] == F(1816871, 48)


def test_dvv_matches_painleve_through_genus8():
    # e_g = <tau_2^(3g-3)>_g / (3g-3)!, with no covering count on either side
    sol = painleve_solve(8)
    for g in range(2, 9):
        assert dvv_bracket(g, (2,) * (3 * g - 3)) / math.factorial(3 * g - 3) == sol.e[g], g


@pytest.mark.parametrize("g", range(1, 5))
def test_profile_top_coefficient_is_the_string_solution(g):
    # phi's top coefficient depends on mu only through p: it is
    # <tau_0^p tau_2^(3g-3+p)>_g / (3g-3+p)!, which F_g = e_g (1 - 2x)^(-(5g-5)/2)
    # (g >= 2) and F_1 = -log(1 - 2x)/48 give in closed form
    e = painleve_solve(max(g, 2)).e
    for mu in (mu for m in range(1, 5) for mu in partitions_of(m)):
        p = mu.num_parts
        top = 3 * g - 3 + p
        fit = fit_phi(g, mu, oracle_data(g, mu, range(mu.m, mu.m + top + 3)))
        bracket = dvv_bracket(g, (0,) * p + (2,) * top) / math.factorial(top)
        if g == 1:
            closed = F(2**p * math.factorial(p - 1), 48)
        else:
            closed = 2**p * math.prod(F(5 * g - 5, 2) + i for i in range(p)) * e[g]
        assert fit.phi.coefficient(top) == bracket == closed, (g, mu)


def test_hg_empty_leading_exceptional_genera():
    with pytest.raises(DomainError):
        hg_empty_leading(0)
    with pytest.raises(DomainError):
        hg_empty_leading(1)


# --- the KdV coefficient identity (genus 1 and 2) ---


def test_kdv_t2_coefficient_identity_genus1():
    lhs = tau_bracket(TauSpec(1, (0, 0, 1, 2, 2))) / math.factorial(2)
    rhs = (
        tau_bracket(TauSpec(1, (0, 0, 2, 2))) / math.factorial(2)
        * tau_bracket(TauSpec(0, (0, 0, 0)))
        + F(1, 12) * tau_bracket(TauSpec(0, (0, 0, 0, 0, 0, 2, 2))) / math.factorial(2)
    )
    assert lhs == rhs == F(1, 3)


def test_kdv_t2_coefficient_identity_genus2():
    # brackets beyond the oracle budget enter through known reference
    # values and the string/dilaton reduction products
    e2 = painleve_solve(2).e[2]
    lhs = (5 * 2 - 5) * (5 * 2 - 3) * (5 * 2 - 1) * e2  # <t0^2 t1 t2^5>_2 / 5!
    bracket_0022_1 = tau_bracket(TauSpec(1, (0, 0, 2, 2))) / 2  # = 1/12
    bracket_000222_1 = tau_bracket(TauSpec(1, (0, 0, 0, 2, 2, 2))) / math.factorial(3)
    # sum over g' + g'' = 2: the (g'=1, g''=1) and (g'=2, g''=0) products,
    # plus the 1/12 term with the listed value <t0^5 t2^5>_1 / 5! = 16
    rhs = bracket_0022_1 * bracket_000222_1
    rhs += ((5 * 2 - 5) * (5 * 2 - 3) * e2) * tau_bracket(TauSpec(0, (0, 0, 0)))
    rhs += F(1, 12) * 16
    assert lhs == rhs == F(49, 32)
    assert bracket_000222_1 == F(1, 3)  # listed value, recomputed from counts
