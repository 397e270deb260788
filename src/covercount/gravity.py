"""Intersection numbers from covering counts, and the 2D-gravity constants.

tau brackets are finite exact linear combinations of covering counts; the
combination coefficients come from the finite-difference identity that
isolates psi^d.  The bracket series sums those terms as generating series,
and a bracket is its q^0 coefficient: one sum serves the bracket and the
bracket series theorem, and reads its counts through `oracle_data`.
Downstream: string/dilaton reductions, the formal Painleve I solution, and
the asymptotic constants b_g with their radical bookkeeping.

The brackets are the psi-class intersection numbers of Witten's
conjecture ("Two-dimensional gravity and intersection theory on moduli
space", Surveys in Differential Geometry 1, 1991), proved by Kontsevich
("Intersection theory on the moduli space of curves and the matrix Airy
function", Comm. Math. Phys. 147, 1992): their generating function solves
the KdV hierarchy, and the string equation with the recursion of
Dijkgraaf, Verlinde and Verlinde ("Loop equations and Virasoro
constraints in non-perturbative two-dimensional quantum gravity", Nucl.
Phys. B 348, 1991) determines them.  That recursion is a test oracle here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    Identification,
    LaurentPolyX,
    Radical,
    ScaledRational,
    inv_gamma_half_scaled,
    y_over_q_power,
)
from .errors import ConsistencyError, DomainError, Record, as_int
from .exact import TruncatedSeries
from .hurwitz_series import count_series, fit_phi, oracle_data, phi_degree_bound
from .monodromy import DEFAULT_NODE_BUDGET, _genus
from .symmetric import Partition


class TauSpec(Record):
    """A bracket <tau_{d_1} ... tau_{d_p}>_g; ds is an unordered multiset."""

    g: int
    ds: tuple[int, ...]

    def __init__(self, g: int, ds):
        ds = tuple(sorted(map(as_int, ds)))
        if any(d < 0 for d in ds):
            raise DomainError("tau indices must be nonnegative")
        if not ds:
            raise DomainError("at least one tau factor is required")
        object.__setattr__(self, "g", as_int(g))
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
    """Weight of the b-fold preimage term inside one tau_d replacement.

    Times b^b / b!, the factor a part b carries in the ELSV formula
    (Ekedahl, Lando, Shapiro and Vainshtein, "Hurwitz numbers and
    intersections on moduli spaces of curves", Invent. Math. 146, 2001), it
    is c_b = (-1)^{d+1-b} C(d, b-1) / d!, and these c_b satisfy
    sum_b c_b/(1 - b psi) = psi^d + O(psi^{d+1}).  A part b contributes
    1/(1 - b psi) to the ELSV integrand, so a sum of counts with these
    weights keeps psi^d from each marked point; the higher orders and the
    Hodge classes exceed the dimension of a bracket with
    sum d_i = 3g - 3 + p and integrate to 0.
    """
    if not 1 <= as_int(b) <= as_int(d) + 1:
        raise DomainError("need 1 <= b <= d+1")
    return Fraction((-1) ** (d + 1 - b), math.factorial(d + 1 - b) * b ** (b - 1))


def _bracket_terms(spec: TauSpec) -> dict[tuple[int, ...], Fraction]:
    """Expand prod_i tau_{d_i} over preimage multiplicities b_i in 1..d_i+1:
    {profile mu = sorted b: summed coefficient}, zero coefficients dropped.
    The factors expand one at a time on the profiles of the ones before, so
    tuples with the same profile are never expanded apart."""
    consts: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for d in spec.ds:
        weights = [tau_coefficient(d, b) for b in range(1, d + 2)]
        grown: dict[tuple[int, ...], Fraction] = {}
        for mu, c in consts.items():
            for b, w in enumerate(weights, 1):
                key = tuple(sorted(mu + (b,), reverse=True))
                grown[key] = grown.get(key, 0) + c * w
        consts = grown
    return {mu: const for mu, const in consts.items() if const != 0}


def _bracket_series(spec: TauSpec, order: int, node_budget: int) -> TruncatedSeries:
    """The bracket series through q^order: the sum over the bracket's terms
    of const * |Aut| * H_{g;mu} / Y^{sum b}, and 0 off dimension.  (Y/q)^-m
    starts at 1, so its q^0 coefficient sums the counts at n = m = sum b.
    The budget is checked even off dimension, where no count runs."""
    as_int(node_budget)
    total = TruncatedSeries.zero(order)
    terms = _bracket_terms(spec) if spec.dimension_ok else {}
    for mu_parts, const in terms.items():
        mu = Partition(mu_parts)
        m = mu.m
        data = oracle_data(spec.g, mu, range(m, m + order + 1), node_budget)
        h_shifted = count_series(spec.g, mu.degeneracy, data)  # H_{g;mu} / q^m
        quotient = h_shifted * y_over_q_power(-m, order)  # / (Y/q)^m
        total = total + quotient * (const * mu.aut)
    return total


def tau_bracket(spec: TauSpec, node_budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """Exact bracket value as a finite combination of covering counts: the
    q^0 coefficient of the bracket series.

    Each tau_d contributes preimage multiplicities b in 1..d+1; a term with
    multiplicities (b_1..b_p) reads off the count at n = sum b_i with its
    c = n + p + 2g - 2 simple points.
    """
    return _bracket_series(spec, 0, node_budget).coefficient(0)


class TauSeriesResult(Record):
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

    The theorem makes it the single term bracket * (Z+1)^{2g-2+p}, so the
    sum through q^(surplus + 1) must equal that term's series; any other
    outcome falsifies the bracket/oracle pair and raises.  A surplus below 0
    raises DomainError before any count.
    """
    if as_int(surplus) < 0:
        raise DomainError("surplus must be >= 0")
    order = surplus + 1  # q^0 gives the bracket, the rest verify it
    total = _bracket_series(spec, order, node_budget)
    bracket = total.coefficient(0)
    element = LaurentPolyX({-spec.chi: bracket})
    if total != element.to_series(order):
        raise ConsistencyError(f"bracket series for {spec} is not the single term {element}")
    return TauSeriesResult(spec, bracket, total, Identification("identified", element, order))


# ---------------------------------------------------------------------------
# string and dilaton reductions


class ReductionReport(Record):
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


class PainleveSolution(Record):
    e: dict[int, Fraction]  # genus -> <tau_2^{3g-3}>/(3g-3)!


def painleve_solve(g_max: int) -> PainleveSolution:
    """Order-by-order formal solution of u^2 + u''/6 = 2y.

    u = sum_{g>=0} a_g s^{5g-1}, a_0 = -1, the genus-one input a_1 = 1/12 and
    a_g = (5-5g)(3-5g) e_g forced by the residual at s^{5g-2}.  On integers
    b_g = 24^g a_g that residual vanishes when 12 b_g = 6 sum_{0<i<g}
    b_i b_{g-i} + 24 k(k+2) b_{g-1}, k = 5g - 6; the division must be exact
    (a scale of 12 fails at g = 2).  No residual is checked afterwards: 24^m
    times the residual at s^{5m-2} (no other order holds a term) is 1/6 of
    that equation, and b_0 = -1, b_1 = 2 make it b_0^2 - 1 = 0 and -4 + 4 = 0
    at m = 0 and 1.  The tests check the `Fraction` residual of the result.
    """
    if as_int(g_max) < 2:
        raise DomainError("g_max must be >= 2")
    b = [-1, 2]
    for g in range(2, g_max + 1):
        k = 5 * g - 6
        rhs = 6 * sum(b[i] * b[g - i] for i in range(1, g)) + 24 * k * (k + 2) * b[g - 1]
        bg, rem = divmod(rhs, 12)
        if rem:
            raise ConsistencyError(f"Painleve numerator b_{g} is not an integer")
        b.append(bg)
    e = {g: Fraction(b[g], 24**g * (5 - 5 * g) * (3 - 5 * g)) for g in range(2, g_max + 1)}
    return PainleveSolution(e)


# ---------------------------------------------------------------------------
# gravity constants


class GravityConstant(Record):
    """b_g in coeff ~ e^n n^{(5/2)(g-1)-1} b_g; radical marker is
    (2pi)^{-1/2} for even genus and absent for odd genus."""

    g: int
    b: ScaledRational

    def _validate(self):
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
    if as_int(g) < 0:
        raise DomainError("genus must be >= 0")
    if g <= 1:
        return GravityConstant(g, _B_LOW_GENUS[g])
    if solution is None or g not in solution.e:
        solution = painleve_solve(g)
    return GravityConstant(g, solution.e[g] * inv_gamma_half_scaled(5 * (g - 1)))


def free_energy_coefficient(g: int, solution: PainleveSolution | None = None) -> ScaledRational:
    """Gamma(5(g-1)/2) b_g = e_g / 2^{5(g-1)/2}; a plain rational for odd
    genus and a rational multiple of sqrt(2) for even genus."""
    if as_int(g) < 2:
        raise DomainError("the coefficient list starts at genus 2")
    if solution is None or g not in solution.e:
        solution = painleve_solve(g)
    e_g = solution.e[g]
    if g % 2 == 1:
        t = 5 * (g - 1) // 2
        return ScaledRational(e_g / 2**t, Radical.ONE)
    t = (5 * (g - 1) - 1) // 2
    return ScaledRational(e_g / 2 ** (t + 1), Radical.SQRT2)


def hg_empty_leading(g: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """Top Z-coefficient of the no-profile series at genus g >= 2.

    Fitted from covering counts through the normal form.  Nothing here
    compares it with the Painleve route e_g; the tests and the benchmark's
    `brackets` workload check that the two derivations agree.
    """
    if _genus(g) == 0:
        raise DomainError("genus zero has no leading-Z form; use h0_closed")
    if g == 1:
        raise DomainError("the genus-one no-profile series is not in the algebra")
    unknowns = phi_degree_bound(g, 0) + 1
    data = oracle_data(g, Partition(()), range(1, unknowns + 3), node_budget)
    fit = fit_phi(g, Partition(()), data)
    return fit.phi.coefficient(3 * g - 3)
