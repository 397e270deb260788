"""Intersection numbers from covering counts, and the 2D-gravity constants.

tau brackets are finite exact linear combinations of covering counts; the
combination coefficients come from the finite-difference identity that
isolates psi^d.  Downstream: the bracket series theorem, string/dilaton
reductions, the formal Painleve I solution, and the asymptotic constants
b_g with their radical bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

from .algebra import (
    AsymptoticTerm,
    Identification,
    LaurentPolyX,
    Radical,
    ScaledRational,
    identify_in_a,
    inv_gamma_half_scaled,
    series_y,
)
from .errors import ConsistencyError, DomainError
from .exact import TruncatedSeries, as_rational
from .hurwitz_series import fit_phi, oracle_data, phi_degree_bound
from .monodromy import DEFAULT_NODE_BUDGET, CoveringSpec, hurwitz_connected
from .symmetric import Partition


@dataclass(frozen=True)
class TauSpec:
    """A bracket <tau_{d_1} ... tau_{d_p}>_g; ds is an unordered multiset."""

    g: int
    ds: tuple[int, ...]

    def __init__(self, g: int, ds):
        ds = tuple(sorted(int(d) for d in ds))
        if any(d < 0 for d in ds):
            raise DomainError("tau indices must be nonnegative")
        if not ds:
            raise DomainError("at least one tau factor is required")
        object.__setattr__(self, "g", int(g))
        object.__setattr__(self, "ds", ds)
        if self.g < 0:
            raise DomainError("genus must be >= 0")

    @property
    def p(self) -> int:
        return len(self.ds)

    @property
    def dimension_ok(self) -> bool:
        """Nonzero brackets need sum d_i = 3g - 3 + p."""
        return sum(self.ds) == 3 * self.g - 3 + self.p

    @property
    def chi(self) -> int:
        return 2 * self.g - 2 + self.p


def tau_coefficient(d: int, b: int) -> Fraction:
    """Weight of the b-fold preimage term inside one tau_d replacement."""
    if not 1 <= b <= d + 1:
        raise DomainError("need 1 <= b <= d+1")
    return Fraction((-1) ** (d + 1 - b), math.factorial(d + 1 - b) * b ** (b - 1))


def vanishing_combination(d: int) -> list[tuple[int, Fraction]]:
    """Coefficients c_b with sum_b c_b/(1 - b psi) = psi^d + O(psi^{d+1}).

    Returns [(b, (1/d!) (-1)^{d+1-b} C(d, b-1))] and verifies the first d
    orders vanish and the psi^d coefficient is 1 by direct expansion.
    """
    if d < 0:
        raise DomainError("d must be >= 0")
    combo = [
        (b, Fraction((-1) ** (d + 1 - b) * math.comb(d, b - 1), math.factorial(d)))
        for b in range(1, d + 2)
    ]
    for j in range(d + 1):
        total = sum((c * b**j for b, c in combo), Fraction(0))
        expected = Fraction(1 if j == d else 0)
        if total != expected:
            raise ConsistencyError(f"psi^{j} coefficient is {total}, expected {expected}")
    return combo


def _bracket_terms(spec: TauSpec) -> dict[tuple[int, ...], Fraction]:
    """Expand prod_i tau_{d_i} over preimage multiplicities b_i in 1..d_i+1:
    {profile mu = sorted b: summed coefficient}, zero coefficients dropped."""
    consts: dict[tuple[int, ...], Fraction] = {}
    for bs in _iproduct(*[range(1, d + 2) for d in spec.ds]):
        coeff = Fraction(1)
        for d, b in zip(spec.ds, bs):
            coeff *= tau_coefficient(d, b)
        mu = tuple(sorted(bs, reverse=True))
        consts[mu] = consts.get(mu, Fraction(0)) + coeff
    return {mu: const for mu, const in consts.items() if const != 0}


def tau_bracket(spec: TauSpec, node_budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """Exact bracket value as a finite combination of covering counts.

    Each tau_d contributes preimage multiplicities b in 1..d+1; a term with
    multiplicities (b_1..b_p) reads off the count at n = sum b_i with
    c(n) = n + p + 2g - 2 simple points.
    """
    if not spec.dimension_ok:
        return Fraction(0)
    total = Fraction(0)
    for parts, const in _bracket_terms(spec).items():
        mu = Partition(parts)
        n = mu.m
        cn = n + spec.p + 2 * spec.g - 2
        h = hurwitz_connected(CoveringSpec(spec.g, n, [mu]), node_budget)
        total += const * mu.aut * h / math.factorial(cn)
    return total


@dataclass(frozen=True)
class TauSeriesResult:
    spec: TauSpec
    bracket: Fraction
    series: TruncatedSeries
    identification: Identification

    @property
    def element(self) -> LaurentPolyX:
        return self.identification.element


def h_tau_series(
    spec: TauSpec,
    surplus: int = 5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TauSeriesResult:
    """The bracket series: sum of const * |Aut| * H_{g;mu} / Y^{sum b}.

    Identifies the sum as a single power bracket * (Z+1)^{2g-2+p} with the
    requested number of surplus verified coefficients; any other outcome
    falsifies the bracket/oracle pair and raises.
    """
    if not spec.dimension_ok:
        return TauSeriesResult(
            spec,
            Fraction(0),
            TruncatedSeries.zero(surplus + 1),
            Identification("identified", LaurentPolyX({}), surplus + 1),
        )
    order = surplus + 1  # one order solves the single unknown
    total = TruncatedSeries.zero(order)
    for mu_parts, const in _bracket_terms(spec).items():
        mu = Partition(mu_parts)
        m = mu.m
        r = mu.degeneracy
        coeffs = []
        for n in range(m, m + order + 1):
            cn = 2 * n + 2 * spec.g - 2 - r
            h = hurwitz_connected(CoveringSpec(spec.g, n, [mu]), node_budget)
            coeffs.append(h / math.factorial(cn))
        h_shifted = TruncatedSeries(coeffs)  # H_{g;mu} / q^m
        unit = series_y(order + m).shift_down(1) ** m  # (Y/q)^m, constant term 1
        quotient = h_shifted * unit.truncate(order).inverse()
        total = total + quotient * (const * mu.aut)
    chi = spec.chi
    ident = identify_in_a(total, -chi, -chi, slack=min(surplus, total.order))
    if not ident.ok:
        raise ConsistencyError(
            f"bracket series for {spec} did not identify as a single (Z+1)^{chi} term"
        )
    bracket = tau_bracket(spec, node_budget)
    if ident.element.coeffs.get(-chi, Fraction(0)) != bracket:
        raise ConsistencyError(
            f"bracket series coefficient {ident.element} disagrees with the "
            f"bracket value {bracket}"
        )
    return TauSeriesResult(spec, bracket, total, ident)


def tau_series_asymptotic(spec: TauSpec, bracket: Fraction) -> AsymptoticTerm:
    """Leading growth of the bracket series: bracket/(2^{chi/2} Gamma(chi/2))
    e^n n^{chi/2 - 1}."""
    chi = spec.chi
    if chi < 1:
        raise DomainError("asymptotic statement needs chi >= 1")
    return AsymptoticTerm(bracket * inv_gamma_half_scaled(chi), gamma2=chi)


# ---------------------------------------------------------------------------
# string and dilaton reductions


@dataclass(frozen=True)
class ReductionReport:
    spec: TauSpec
    string_lhs: Fraction
    string_rhs: Fraction
    dilaton_lhs: Fraction
    dilaton_rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.string_lhs == self.string_rhs and self.dilaton_lhs == self.dilaton_rhs


def string_dilaton_check(
    g: int, ds, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReductionReport:
    """Check tau_0 insertion (string) and tau_1 insertion (dilaton) on a
    base bracket, all sides via independent bracket evaluations.

    The base must be stable (2g - 2 + p > 0): below that the reduced
    brackets are initial data, not values the reductions can reach.
    """
    base = TauSpec(g, ds)
    if 2 * g - 2 + base.p <= 0:
        raise DomainError(
            f"reductions need a stable base; 2g-2+p = {2 * g - 2 + base.p}"
        )
    string_lhs = tau_bracket(TauSpec(g, base.ds + (0,)), node_budget)
    string_rhs = Fraction(0)
    for j, d in enumerate(base.ds):
        if d >= 1:
            reduced = base.ds[:j] + (d - 1,) + base.ds[j + 1 :]
            string_rhs += tau_bracket(TauSpec(g, reduced), node_budget)
    dilaton_lhs = tau_bracket(TauSpec(g, base.ds + (1,)), node_budget)
    dilaton_rhs = (2 * g - 2 + base.p) * tau_bracket(base, node_budget)
    report = ReductionReport(base, string_lhs, string_rhs, dilaton_lhs, dilaton_rhs)
    if not report.ok:
        raise ConsistencyError(f"string/dilaton reduction failed: {report}")
    return report


# ---------------------------------------------------------------------------
# Painleve I


class PainleveSeries:
    """A finite Laurent expansion in s = (2y)^{-1/2}, exponent -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        object.__setattr__(
            self, "terms", {int(k): as_rational(v) for k, v in terms.items() if v != 0}
        )

    def __setattr__(self, *a):
        raise AttributeError("PainleveSeries is immutable")

    def coefficient(self, k: int) -> Fraction:
        return self.terms.get(k, Fraction(0))

    def residual_coefficient(self, t: int) -> Fraction:
        """Coefficient of s^t in u^2 + u''/6 - 2y.

        The y-derivative acts as -s^3 d/ds, so a term a s^k contributes
        k(k+2) a s^{k+4} to u''; 2y itself is s^{-2}.
        """
        r = Fraction(0)
        for k1, a1 in self.terms.items():
            k2 = t - k1
            if k2 < k1:
                continue
            a2 = self.terms.get(k2)
            if a2 is not None:
                r += a1 * a2 * (1 if k1 == k2 else 2)
        k = t - 4
        if k in self.terms:
            r += Fraction(k * (k + 2), 6) * self.terms[k]
        if t == -2:
            r -= 1
        return r


@dataclass(frozen=True)
class PainleveSolution:
    u: PainleveSeries
    e: dict[int, Fraction]  # genus -> <tau_2^{3g-3}>/(3g-3)!

    def residual_max_order(self, g_max: int) -> int:
        """Residual vanishes identically up to (excluding) the first unsolved
        order s^{5(g_max+1)-2}."""
        return 5 * (g_max + 1) - 3


def painleve_solve(g_max: int) -> PainleveSolution:
    """Order-by-order formal solution of u^2 + u''/6 = 2y.

    The ansatz is u = -s^{-1} + (1/12) s^4 + sum_{g>=2} (5-5g)(3-5g) e_g
    s^{5g-1}; the genus-one term is an input, every e_g for g >= 2 is forced
    by the vanishing of the residual at s^{5g-2}.
    """
    if g_max < 2:
        raise DomainError("g_max must be >= 2")
    terms = {-1: Fraction(-1), 4: Fraction(1, 12)}
    e: dict[int, Fraction] = {}
    for g in range(2, g_max + 1):
        u = PainleveSeries(terms)
        rho = u.residual_coefficient(5 * g - 2)
        # adding a s^{5g-1} to u shifts this residual coefficient by -2a
        a = rho / 2
        cg = (5 - 5 * g) * (3 - 5 * g)
        if cg == 0:
            raise ConsistencyError(f"ansatz coefficient vanished at genus {g}")
        e[g] = a / cg
        terms[5 * g - 1] = a
    u = PainleveSeries(terms)
    sol = PainleveSolution(u, e)
    for t in range(-2, sol.residual_max_order(g_max) + 1):
        if u.residual_coefficient(t) != 0:
            raise ConsistencyError(f"Painleve residual is nonzero at s^{t}")
    return sol


# ---------------------------------------------------------------------------
# gravity constants


@dataclass(frozen=True)
class GravityConstant:
    """b_g in coeff ~ e^n n^{(5/2)(g-1)-1} b_g; radical marker is
    (2pi)^{-1/2} for even genus and absent for odd genus."""

    g: int
    b: ScaledRational

    def __post_init__(self):
        expected = Radical.INV_SQRT_2PI if self.g % 2 == 0 else Radical.ONE
        if self.b.value != 0 and self.b.radical is not expected:
            raise ConsistencyError(
                f"b_{self.g} carries radical {self.b.radical}, expected {expected}"
            )


_B_LOW_GENUS = {
    0: ScaledRational(Fraction(1), Radical.INV_SQRT_2PI),
    1: ScaledRational(Fraction(1, 48), Radical.ONE),
}


def b_constant(g: int, solution: PainleveSolution | None = None) -> GravityConstant:
    """b_g = e_g / (2^{5(g-1)/2} Gamma(5(g-1)/2)) for g >= 2; the genus
    zero and one values sit outside the Gamma domain and are stored."""
    if g < 0:
        raise DomainError("genus must be >= 0")
    if g <= 1:
        return GravityConstant(g, _B_LOW_GENUS[g])
    if solution is None or g not in solution.e:
        solution = painleve_solve(g)
    return GravityConstant(g, solution.e[g] * inv_gamma_half_scaled(5 * (g - 1)))


def free_energy_coefficient(g: int, solution: PainleveSolution | None = None) -> ScaledRational:
    """Gamma(5(g-1)/2) b_g = e_g / 2^{5(g-1)/2}; a plain rational for odd
    genus and a rational multiple of sqrt(2) for even genus."""
    if g < 2:
        raise DomainError("the coefficient list starts at genus 2")
    if solution is None or g not in solution.e:
        solution = painleve_solve(g)
    e_g = solution.e[g]
    if g % 2 == 1:
        t = 5 * (g - 1) // 2
        return ScaledRational(e_g / 2**t, Radical.ONE)
    t = (5 * (g - 1) - 1) // 2
    return ScaledRational(e_g / 2 ** (t + 1), Radical.SQRT2)


def free_energy_coeffs(g_max: int) -> list[tuple[int, ScaledRational]]:
    solution = painleve_solve(g_max)
    return [(g, free_energy_coefficient(g, solution)) for g in range(2, g_max + 1)]


def hg_empty_leading(g: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """Top Z-coefficient of the no-profile series at genus g >= 2.

    Fitted from covering counts through the normal form; the value must
    agree with the Painleve route e_g (two independent derivations).
    """
    if g == 0:
        raise DomainError("genus zero has no leading-Z form; use h0_closed")
    if g == 1:
        raise DomainError("the genus-one no-profile series is not in the algebra")
    unknowns = phi_degree_bound(g, 0) + 1
    data = oracle_data(g, Partition(()), range(1, unknowns + 3), node_budget)
    fit = fit_phi(g, Partition(()), data)
    return fit.phi.coefficient(3 * g - 3)
