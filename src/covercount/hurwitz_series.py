"""Generating series of covering counts and their algebra-element normal form.

The series attached to ramification data is sum_n h_{g,n}/c(n)! q^n.  For a
single profile it factors as

    prefactor * Y^m * (Z+1)^{2g-2+p} * phi(Z),

with phi a polynomial whose degree is capped by the dimension of the
underlying moduli problem; phi is never integrated here, always fitted
exactly from covering counts and then over-verified on surplus orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    IDENTIFY_SLACK,
    Identification,
    ZPoly,
    a_closed,
    identify_in_a,
    series_y,
    series_z,
)
from .errors import ConsistencyError, DomainError
from .exact import LinearSystem, TruncatedSeries, solve_exact
from .monodromy import DEFAULT_NODE_BUDGET, CoveringSpec, hurwitz_connected
from .symmetric import Partition

FIT_SLACK = 2


def _as_partition(mu) -> Partition:
    return mu if isinstance(mu, Partition) else Partition(mu)


def h0_closed(n: int, mu) -> Fraction:
    """Genus-zero covering count in closed form.

    (2n-2-r)!/|Aut| * prod b^b/b! * n^{n-r-3}/(n-p-r)!, valid for any
    n >= p + r including the empty profile.
    """
    mu = _as_partition(mu)
    p, r = mu.num_parts, mu.degeneracy
    if n < p + r:
        raise DomainError(f"closed form needs n >= p + r = {p + r}, got {n}")
    value = Fraction(math.factorial(2 * n - 2 - r), mu.aut)
    for b in mu.parts:
        value *= Fraction(b**b, math.factorial(b))
    value *= Fraction(n) ** (n - r - 3) / math.factorial(n - p - r)
    return value


def h1_empty_series(order: int) -> TruncatedSeries:
    """The genus-one no-profile series: (1/24) sum A_n/n q^n/n!.

    The unique case whose series lies outside the algebra; identification
    against any support window must report inconsistency.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    coeffs = [Fraction(0)]
    for n in range(1, order + 1):
        coeffs.append(Fraction(a_closed(n), 24 * n * math.factorial(n)))
    return TruncatedSeries(coeffs)


def phi_degree_bound(g: int, p: int) -> int:
    """Degree cap for the normal-form polynomial.

    3g-3+p from the dimension count, floored at 0; the genus-zero single-part
    case sits outside the stable range and genuinely needs degree 1 (the
    fitted polynomial is 1/b^2 + Z/(b^2 (b+1))).
    """
    if g == 0 and p == 1:
        return 1
    return max(3 * g - 3 + p, 0)


@dataclass(frozen=True)
class PhiPolynomial:
    """The fitted normal-form polynomial for one (genus, profile) pair."""

    g: int
    mu: Partition
    poly: ZPoly

    def __post_init__(self):
        bound = phi_degree_bound(self.g, self.mu.num_parts)
        if not self.poly.is_zero() and self.poly.degree > bound:
            raise DomainError(
                f"phi degree {self.poly.degree} exceeds bound {bound} for genus "
                f"{self.g}, profile {self.mu}"
            )

    @property
    def constant_term(self) -> Fraction:
        return self.poly.coeffs[0]

    def coefficient(self, l: int) -> Fraction:
        return self.poly.coeffs[l] if l < len(self.poly.coeffs) else Fraction(0)


def normal_form_prefactor(mu: Partition) -> Fraction:
    value = Fraction(1, mu.aut)
    for b in mu.parts:
        value *= Fraction(b**b, math.factorial(b))
    return value


def _normal_form_base(g: int, mu: Partition, order: int) -> TruncatedSeries:
    """prefactor * Y^m * (Z+1)^{2g-2+p} as a series."""
    chi = 2 * g - 2 + mu.num_parts
    base = series_y(order) ** mu.m if mu.m else TruncatedSeries.one(order)
    if chi >= 0:
        base = base * (TruncatedSeries.one(order) + series_z(order)) ** chi
    else:
        base = base * (TruncatedSeries.one(order) - series_y(order)) ** (-chi)
    return base * normal_form_prefactor(mu)


def normal_form_series(g: int, mu, phi: PhiPolynomial, order: int) -> TruncatedSeries:
    """Evaluate the normal form prefactor * Y^m (Z+1)^{2g-2+p} phi(Z)."""
    mu = _as_partition(mu)
    if (phi.g, phi.mu) != (g, mu):
        raise DomainError("phi was fitted for a different (genus, profile) pair")
    return _normal_form_base(g, mu, order) * phi.poly.to_series(order)


@dataclass(frozen=True)
class PhiFit:
    phi: PhiPolynomial
    surplus_verified: int


def fit_phi(g: int, mu, data: Iterable[tuple[int, Fraction]], slack: int = FIT_SLACK) -> PhiFit:
    """Solve for phi's coefficients from exact covering counts.

    data holds (n, h_{g,n;mu}) pairs.  The linear system is over-determined
    by at least `slack` rows; any inconsistency falsifies either the normal
    form or the counting oracle, so it raises instead of returning.
    """
    mu = _as_partition(mu)
    data = sorted(dict(data).items())
    bound = phi_degree_bound(g, mu.num_parts)
    unknowns = bound + 1
    if len(data) < unknowns + slack:
        raise DomainError(
            f"need at least {unknowns + slack} data points for degree {bound}, "
            f"got {len(data)}"
        )
    order = max(n for n, _ in data)
    base = _normal_form_base(g, mu, order)
    z = series_z(order)
    cols = []
    cur = base
    for _ in range(unknowns):
        cols.append(cur)
        cur = cur * z
    rows, rhs = [], []
    r = mu.degeneracy
    for n, h in data:
        cn = 2 * n + 2 * g - 2 - r
        if cn < 0:
            raise DomainError(f"data point n={n} is outside the valid range")
        rows.append([cols[l].coefficient(n) for l in range(unknowns)])
        rhs.append(Fraction(h) / math.factorial(cn))
    solution = solve_exact(LinearSystem(rows, rhs))
    if solution.status == "inconsistent":
        raise ConsistencyError(
            f"covering counts for genus {g}, profile {mu} do not fit the normal form"
        )
    if solution.status == "underdetermined":
        raise DomainError(
            f"data for genus {g}, profile {mu} leaves the fit under-determined"
        )
    phi = PhiPolynomial(g, mu, ZPoly(solution.solution))
    return PhiFit(phi, surplus_verified=len(data) - unknowns)


def oracle_data(
    g: int, mu, n_range: Sequence[int], node_budget: int = DEFAULT_NODE_BUDGET
) -> list[tuple[int, Fraction]]:
    """Exact covering counts for the given sheet numbers."""
    mu = _as_partition(mu)
    out = []
    for n in n_range:
        out.append((n, hurwitz_connected(CoveringSpec(g, n, [mu]), node_budget)))
    return out


@dataclass(frozen=True)
class HurwitzSeries:
    """An oracle-built generating series with its membership certificate."""

    g: int
    mus: tuple[Partition, ...]
    series: TruncatedSeries
    certificate: Identification

    @property
    def in_algebra(self) -> bool:
        return self.certificate.ok


def default_window(g: int, mus: Sequence[Partition]) -> tuple[int, int]:
    """Support window heuristic from the normal-form shape."""
    p = sum(mu.num_parts for mu in mus)
    m = sum(mu.m for mu in mus)
    chi = 2 * g - 2 + p
    dmax = max(3 * g - 3 + p, 1)
    return (min(0, -chi - dmax) - 1, max(m, m - chi) + 1)


def h_series(
    g: int,
    mus,
    order: int,
    window: tuple[int, int] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    slack: int = IDENTIFY_SLACK,
) -> HurwitzSeries:
    """Build sum h_{g,n}/c(n)! q^n from the counting oracle and certify it.

    The certificate is the exact identification over the support window;
    it fails (by design) only for genus one with no profiles.
    """
    mus = tuple(_as_partition(mu) for mu in mus)
    n_min = max([1] + [mu.m for mu in mus])
    r = sum(mu.degeneracy for mu in mus)
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(n_min, order + 1):
        cn = 2 * n + 2 * g - 2 - r
        if cn < 0:
            continue
        h = hurwitz_connected(CoveringSpec(g, n, mus), node_budget)
        coeffs[n] = h / math.factorial(cn)
    series = TruncatedSeries(coeffs)
    jmin, jmax = window if window is not None else default_window(g, mus)
    certificate = identify_in_a(series, jmin, jmax, slack=slack)
    return HurwitzSeries(g, mus, series, certificate)
