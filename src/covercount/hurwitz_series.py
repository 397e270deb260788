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
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import Identification, ZPoly, _fit, _yx_column, a_closed, identify_in_a
from .errors import ConsistencyError, DomainError, Record, as_int
from .exact import TruncatedSeries, as_rational
from .monodromy import (
    DEFAULT_NODE_BUDGET,
    CoveringSpec,
    _closed_entries,
    _connected_counts,
    _genus,
    _marking_weights,
)
from .symmetric import Partition

FIT_SLACK = 2


def h0_closed(n: int, mu) -> Fraction:
    """Genus-zero covering count in closed form, Hurwitz's formula.

    (2n-2-r)!/|Aut| * prod b^b/b! * n^{n-r-3}/(n-p-r)!, valid for any
    n >= max(1, p + r) including the empty profile: the marking weight
    times the count table's genus-0 entry (``monodromy._closed_entries``)
    over n!.
    It takes no budget; ``hurwitz_connected`` reads the same entry and
    charges its budget the formula's work.
    """
    mu = Partition(mu)
    if as_int(n) < max(mu.m, 1):
        raise DomainError(f"closed form needs n >= max(1, p + r) = {max(mu.m, 1)}, got {n}")
    entry = _closed_entries(0, [n], mu.nontrivial())[0]
    return Fraction(_marking_weights([n], [mu])[0] * entry, math.factorial(n))


def h1_empty_series(order: int) -> TruncatedSeries:
    """The genus-one no-profile series: (1/24) sum A_n/n q^n/n!.

    The unique case whose series lies outside the algebra; identification
    against any support window must report inconsistency.
    """
    if as_int(order) < 0:
        raise DomainError("order must be >= 0")
    # A_n / n = sum_{k<=n-2} n^k (n-1)!/k!, and k < n makes each term an integer
    return TruncatedSeries.from_egf([0] + [a_closed(n) // n for n in range(1, order + 1)], 24)


def phi_degree_bound(g: int, p: int) -> int:
    """Degree cap for the normal-form polynomial.

    3g-3+p from the dimension count, floored at 0; the genus-zero single-part
    case sits outside the stable range and genuinely needs degree 1 (the
    fitted polynomial is 1/b^2 + Z/(b^2 (b+1))).
    """
    if (as_int(g), as_int(p)) == (0, 1):
        return 1
    return max(3 * g - 3 + p, 0)


class PhiPolynomial(Record):
    """The fitted normal-form polynomial for one (genus, profile) pair."""

    g: int
    mu: Partition
    poly: ZPoly

    def _validate(self):
        bound = phi_degree_bound(self.g, self.mu.num_parts)
        if self.poly.degree > bound:
            raise DomainError(
                f"phi degree {self.poly.degree} exceeds bound {bound} for genus "
                f"{self.g}, profile {self.mu}"
            )

    def coefficient(self, l: int) -> Fraction:
        if as_int(l) < 0:
            raise ValueError("l must be >= 0")
        return self.poly.coeffs[l] if l < len(self.poly.coeffs) else Fraction(0)


def normal_form_prefactor(mu: Partition) -> Fraction:
    value = Fraction(1, mu.aut)
    for b in mu.parts:
        value *= Fraction(b**b, math.factorial(b))
    return value


class PhiFit(Record):
    phi: PhiPolynomial
    surplus_verified: int


def fit_phi(g: int, mu, data: Iterable[tuple[int, Fraction]]) -> PhiFit:
    """Solve for phi's coefficients from exact covering counts.

    data holds (n, h_{g,n;mu}) pairs, each n at most once, in any order.
    The linear system is over-determined by at least FIT_SLACK rows; any
    inconsistency falsifies either the normal form or the counting oracle,
    so it raises instead of returning.  Column l is
    Y^m (Z+1)^chi Z^l = Y^(m+l) X^(-chi-l), chi = 2g-2+p, the integer
    column `algebra._yx_column(m + l, -chi - l)`; `algebra._fit` solves the
    columns at the sorted data n against `count_series`'s numerators there,
    divided by that series' denominator times the prefactor.
    """
    g, mu = _genus(g), Partition(mu)
    counts: dict = {}
    for n, h in data:
        if as_int(n) in counts:
            raise DomainError(f"data point n={n} is given more than once")
        counts[n] = as_rational(h)
    ns = sorted(counts)
    bound = phi_degree_bound(g, mu.num_parts)
    unknowns = bound + 1
    if len(ns) < unknowns + FIT_SLACK:
        raise DomainError(
            f"need at least {unknowns + FIT_SLACK} data points for degree {bound}, "
            f"got {len(ns)}"
        )
    for n in ns:
        if n < 0 or CoveringSpec.simple_points(g, n, mu.degeneracy) < 0:
            raise DomainError(f"data point n={n} is outside the valid range")
    padded = [(n, counts.get(n, Fraction(0))) for n in range(ns[-1] + 1)]
    series = count_series(g, mu.degeneracy, padded)
    chi = 2 * g - 2 + mu.num_parts
    cols = [_yx_column(mu.m + l, -chi - l) for l in range(unknowns)]
    scale = series.den * normal_form_prefactor(mu)
    status, solution, surplus = _fit(ns, [series.nums[n] for n in ns], scale, cols)
    if status == "inconsistent":
        raise ConsistencyError(
            f"covering counts for genus {g}, profile {mu} do not fit the normal form"
        )
    if status == "underdetermined":
        raise DomainError(f"data for genus {g}, profile {mu} leaves the fit under-determined")
    return PhiFit(PhiPolynomial(g, mu, ZPoly(solution)), surplus_verified=surplus)


def oracle_data(
    g: int, mu, n_range: Sequence[int], node_budget: int = DEFAULT_NODE_BUDGET
) -> list[tuple[int, Fraction]]:
    """Exact covering counts for the given sheet numbers, in their order;
    one budget check and at most one table fill, both at the largest n,
    cover them all (counts of genus <= 1 and one profile take no fill)."""
    ns = list(n_range)
    return list(zip(ns, _connected_counts(g, [Partition(mu)], ns, node_budget)))


def count_series(g: int, r: int, data: Sequence[tuple[int, Fraction]]) -> TruncatedSeries:
    """sum_k h / c(n)! q^k over the pairs (n, h) = data[k], c(n) the simple
    points at total degeneracy r, on integers: with L the lcm of the counts'
    denominators and C the largest c(n) of a nonzero count, each numerator
    k! h / c(n)! is h L k! C!/c(n)! over L C!."""
    cs = [CoveringSpec.simple_points(g, n, r) if h else 0 for n, h in data]
    lcm = math.lcm(*(h.denominator for _, h in data))
    top = math.factorial(max(cs, default=0))
    nums = [
        h.numerator * (lcm // h.denominator) * math.factorial(k) * (top // math.factorial(c))
        for k, ((_, h), c) in enumerate(zip(data, cs))
    ]
    return TruncatedSeries.from_egf(nums, lcm * top)


class HurwitzSeries(Record):
    """An oracle-built generating series with its membership certificate."""

    g: int
    mus: tuple[Partition, ...]
    series: TruncatedSeries
    certificate: Identification


def default_window(g: int, mus: Sequence[Partition]) -> tuple[int, int]:
    """Support window heuristic from the normal-form shape."""
    p = sum(mu.num_parts for mu in mus)
    m = sum(mu.m for mu in mus)
    chi = 2 * as_int(g) - 2 + p
    dmax = max(3 * g - 3 + p, 1)
    return (min(0, -chi - dmax) - 1, max(m, m - chi) + 1)


def h_series(g: int, mus, order: int, node_budget: int = DEFAULT_NODE_BUDGET) -> HurwitzSeries:
    """Build sum h_{g,n}/c(n)! q^n from at most one count-table fill and certify it.

    The certificate is the exact identification over `default_window`;
    it fails (by design) only for genus one with no profiles.
    """
    _genus(g)
    if as_int(order) < 0:
        raise DomainError("order must be >= 0")
    mus = tuple(map(Partition, mus))
    n_min = max([1] + [mu.m for mu in mus])
    r = sum(mu.degeneracy for mu in mus)
    ns = [n for n in range(n_min, order + 1) if CoveringSpec.simple_points(g, n, r) >= 0]
    counts = dict(zip(ns, _connected_counts(g, mus, ns, node_budget)))
    data = [(n, counts.get(n, Fraction(0))) for n in range(order + 1)]
    series = count_series(g, r, data)
    certificate = identify_in_a(series, *default_window(g, mus))
    return HurwitzSeries(g, mus, series, certificate)
