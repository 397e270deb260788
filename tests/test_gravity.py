import math
from fractions import Fraction as F

import pytest

from covercount.algebra import LaurentPolyX, Radical, ScaledRational
from covercount.errors import DomainError
from covercount.gravity import (
    TauSpec,
    b_constant,
    free_energy_coefficient,
    free_energy_coeffs,
    h_tau_series,
    hg_empty_leading,
    painleve_solve,
    string_dilaton_check,
    tau_bracket,
    tau_coefficient,
    tau_series_asymptotic,
    vanishing_combination,
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


def test_tau_coefficient_values():
    assert tau_coefficient(1, 1) == -1
    assert tau_coefficient(1, 2) == F(1, 2)
    assert tau_coefficient(2, 3) == F(1, 9)


def test_vanishing_combination_small_cases():
    assert vanishing_combination(0) == [(1, F(1))]
    assert vanishing_combination(1) == [(1, F(-1)), (2, F(1))]
    assert vanishing_combination(2) == [(1, F(1, 2)), (2, F(-1)), (3, F(1, 2))]


@pytest.mark.parametrize("d", range(7))
def test_vanishing_combination_formal_expansion(d):
    combo = vanishing_combination(d)  # verifies internally by expansion
    # independent re-check out to order d+3: tail starts at psi^d with value 1
    for j in range(d + 1):
        total = sum(c * b**j for b, c in combo)
        assert total == (1 if j == d else 0)


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


def test_tau_series_asymptotic_statement():
    spec = TauSpec(0, (0, 0, 0))
    term = tau_series_asymptotic(spec, F(1))
    # chi = 1: constant 1/(2^{1/2} Gamma(1/2)) = (2 pi)^{-1/2}, gamma = 1/2
    assert term.constant == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert term.gamma2 == 1


def test_tau_series_asymptotic_agrees_with_element_route():
    # chi = 4 at genus 1: bracket * X^{-4} fed through the generic machinery
    from covercount.algebra import leading_asymptotic

    bracket = F(1, 6)
    spec = TauSpec(1, (0, 0, 2, 2))
    direct = tau_series_asymptotic(spec, bracket)
    generic = leading_asymptotic(LaurentPolyX({-4: bracket}))
    assert direct == generic
    assert direct.constant == ScaledRational(F(1, 24), Radical.ONE)
    assert direct.gamma2 == 4


# --- Painleve I ---


def test_painleve_first_coefficients():
    sol = painleve_solve(5)
    assert sol.e[2] == F(7, 1440)
    assert sol.e[3] == F(245, 20736)
    # the genus-one term is an input, not solved
    assert sol.u.coefficient(4) == F(1, 12)
    assert sol.u.coefficient(-1) == -1


def test_painleve_residual_vanishes_through_g10():
    sol = painleve_solve(10)
    for t in range(-2, sol.residual_max_order(10) + 1):
        assert sol.u.residual_coefficient(t) == 0


def test_painleve_requires_g2():
    with pytest.raises(DomainError):
        painleve_solve(1)


# --- gravity constants ---


def test_b_low_genus_values():
    assert b_constant(0).b == ScaledRational(F(1), Radical.INV_SQRT_2PI)
    assert b_constant(1).b == ScaledRational(F(1, 2**4 * 3), Radical.ONE)


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
    coeffs = dict(free_energy_coeffs(6))
    for g, value in coeffs.items():
        assert value.radical is (Radical.SQRT2 if g % 2 == 0 else Radical.ONE)
    # e_g / 2^{5(g-1)/2} cross-check at g = 3
    sol = painleve_solve(3)
    assert coeffs[3] == ScaledRational(sol.e[3] / 2**5, Radical.ONE)


def test_two_path_consistency_at_genus2():
    assert hg_empty_leading(2) == painleve_solve(2).e[2] == F(7, 1440)


def test_hg_empty_leading_matches_painleve_through_genus8():
    # e_g from covering counts alone (fitted normal form) against the
    # Painleve I recursion
    sol = painleve_solve(8)
    for g in range(2, 9):
        assert hg_empty_leading(g) == sol.e[g], g


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
