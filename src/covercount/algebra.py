"""The algebra generated by the tree series Y and Z.

Y = sum n^{n-1} q^n / n! is the exponential generating function of rooted
labeled trees, Z = DY = sum n^n q^n / n!.  The algebra they generate is the
Laurent polynomials in X = 1 - Y (equivalently X^{-1} = 1 + Z), which gives
every element a canonical finite description and closed-form coefficient
asymptotics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .exact import (
    LinearSystem,
    TruncatedSeries,
    as_rational,
    format_rational,
    solve_exact,
)

IDENTIFY_SLACK = 5


def series_y(order: int) -> TruncatedSeries:
    """EGF of rooted labeled trees: coefficients n^{n-1}/n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries(
        [Fraction(0)] + [Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, order + 1)]
    )


def series_z(order: int) -> TruncatedSeries:
    """EGF of rooted trees with one extra marked vertex: coefficients n^n/n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries(
        [Fraction(0)] + [Fraction(n ** n, math.factorial(n)) for n in range(1, order + 1)]
    )


def seq_a(nmax: int) -> list[int]:
    """A_1..A_nmax by the defining convolution sum n!/(p!q!) p^p q^q.

    Cross-checked on construction against the closed form
    A_n = n! sum_{k<=n-2} n^k/k!; a mismatch would mean a broken build.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    out = []
    for n in range(1, nmax + 1):
        s = 0
        for p in range(1, n):
            q = n - p
            s += math.factorial(n) // (math.factorial(p) * math.factorial(q)) * p**p * q**q
        closed = a_closed(n)
        if s != closed:
            raise ConsistencyError(f"A_{n}: convolution {s} != closed form {closed}")
        out.append(s)
    return out


def a_closed(n: int) -> int:
    """A_n = n! sum_{k=0}^{n-2} n^k/k!, as an exact integer.

    Integer Horner: P_k = sum_{j<=k} n^j k!/j! obeys P_k = k P_{k-1} + n^k,
    and A_n = n (n-1) P_{n-2}.
    """
    if n < 2:
        return 0
    p = 1
    power = 1  # n^k
    for k in range(1, n - 1):
        power *= n
        p = k * p + power
    return n * (n - 1) * p


def ypower_closed(k: int, order: int) -> TruncatedSeries:
    """Y^k from the closed form k n^{n-k-1}/(n-k)! (zero below q^k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(k, order + 1):
        coeffs[n] = k * Fraction(n) ** (n - k - 1) / math.factorial(n - k)
    return TruncatedSeries(coeffs)


def x_powers(jmin: int, jmax: int, order: int) -> dict[int, TruncatedSeries]:
    """X^j to the given order for every jmin <= j <= jmax.

    X = 1 - Y for j >= 0 and X^{-1} = 1 + Z for j < 0.  Each power is the
    previous one times X or X^{-1}, one series product per power.
    """
    one = TruncatedSeries.one(order)
    powers = {0: one}
    if jmax > 0:
        x = one - series_y(order)
        for j in range(1, jmax + 1):
            powers[j] = powers[j - 1] * x if j > 1 else x
    if jmin < 0:
        xinv = one + series_z(order)
        for j in range(-1, jmin - 1, -1):
            powers[j] = powers[j + 1] * xinv if j < -1 else xinv
    return {j: powers[j] for j in range(jmin, jmax + 1)}


# ---------------------------------------------------------------------------
# polynomials in Z


class ZPoly:
    """A polynomial in Z with rational coefficients, coeffs[i] on Z^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [as_rational(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("ZPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs != (Fraction(0),) else 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return ZPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other):
        return self + ZPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            a = as_rational(other)
            return ZPoly([c * a for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return ZPoly(out)

    __rmul__ = __mul__

    def euler_d(self) -> "ZPoly":
        """D applied through DZ = Z(1+Z)^2: returns P'(Z) * Z(1+Z)^2."""
        deriv = ZPoly([i * c for i, c in enumerate(self.coeffs)][1:] or [0])
        return deriv * ZPoly([0, 1, 2, 1])

    def to_laurent(self) -> "LaurentPolyX":
        """Substitute Z = X^{-1} - 1."""
        out = LaurentPolyX({})
        for i, c in enumerate(self.coeffs):
            if c != 0:
                out = out + (LaurentPolyX({-1: 1, 0: -1}) ** i) * c
        return out

    def to_series(self, order: int) -> TruncatedSeries:
        z = series_z(order)
        acc = TruncatedSeries.zero(order)
        zp = TruncatedSeries.one(order)
        for c in self.coeffs:
            if c != 0:
                acc = acc + zp * c
            zp = zp * z
        return acc

    def __repr__(self):
        terms = [
            f"{format_rational(c)}*Z^{i}" if i else format_rational(c)
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return "ZPoly(" + (" + ".join(terms) if terms else "0") + ")"


def dkz_poly(k: int) -> ZPoly:
    """D^k Z as a polynomial in Z; leading coefficient (2k-1)!! on Z^{2k+1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = ZPoly([0, 1])
    for _ in range(k):
        p = p.euler_d()
    return p


def dkz2_poly(k: int) -> ZPoly:
    """D^k (Z^2) as a polynomial in Z; leading coefficient (2k)!! on Z^{2k+2}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = ZPoly([0, 0, 1])
    for _ in range(k):
        p = p.euler_d()
    return p


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def zbasis_element(i: int) -> ZPoly:
    """Element i of the spanning list Z, Z^2, DZ, D(Z^2), D^2 Z, ..."""
    return dkz_poly(i // 2) if i % 2 == 0 else dkz2_poly(i // 2)


def zpower_in_basis(k: int) -> list[Fraction]:
    """Coefficients expressing Z^k over the first k spanning elements.

    Solved exactly and re-verified by expanding the combination back to a
    polynomial in Z.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    basis = [zbasis_element(i) for i in range(k)]
    deg = max(p.degree for p in basis)
    target = [Fraction(0)] * (deg + 1)
    target[k] = Fraction(1)
    rows = []
    rhs = []
    for d in range(deg + 1):
        rows.append([p.coeffs[d] if d < len(p.coeffs) else Fraction(0) for p in basis])
        rhs.append(target[d])
    sol = solve_exact(LinearSystem(rows, rhs))
    if not sol.ok:
        raise ConsistencyError(f"Z^{k} did not resolve over the spanning list: {sol.status}")
    combo = ZPoly([0])
    for c, p in zip(sol.solution, basis):
        combo = combo + p * c
    want = [Fraction(0)] * (k + 1)
    want[k] = Fraction(1)
    if combo != ZPoly(want):
        raise ConsistencyError(f"re-expansion of Z^{k} combination failed")
    return list(sol.solution)


# ---------------------------------------------------------------------------
# the canonical Laurent form


class LaurentPolyX:
    """An element of the algebra as a Laurent polynomial in X = 1 - Y.

    Keys are integer exponents (negative allowed), values nonzero rationals.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {int(j): as_rational(c) for j, c in coeffs.items() if as_rational(c) != 0}
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("LaurentPolyX is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPolyX) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c
        return LaurentPolyX(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, Fraction(0)) - c
        return LaurentPolyX(out)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolyX):
            a = as_rational(other)
            return LaurentPolyX({j: c * a for j, c in self.coeffs.items()})
        out: dict[int, Fraction] = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                out[j1 + j2] = out.get(j1 + j2, Fraction(0)) + c1 * c2
        return LaurentPolyX(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolyX":
        if k < 0:
            raise ValueError("use explicit negative exponents on X instead")
        out = LaurentPolyX({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def to_zpoly(self) -> ZPoly:
        """Rewrite as a polynomial in Z; requires support <= 0 (via X^{-1} = 1+Z)."""
        if any(j > 0 for j in self.coeffs):
            raise ValueError("element has positive X powers; it is not a polynomial in Z")
        out = ZPoly([0])
        zplus1 = ZPoly([1, 1])
        for j, c in self.coeffs.items():
            term = ZPoly([1])
            for _ in range(-j):
                term = term * zplus1
            out = out + term * c
        return out

    def to_ypoly(self) -> dict[int, Fraction]:
        """Rewrite as a polynomial in Y; requires support >= 0 (via X = 1-Y)."""
        if any(j < 0 for j in self.coeffs):
            raise ValueError("element has negative X powers; it is not a polynomial in Y")
        out: dict[int, Fraction] = {}
        for j, c in self.coeffs.items():
            for i in range(j + 1):
                coef = c * math.comb(j, i) * (-1) ** i
                out[i] = out.get(i, Fraction(0)) + coef
        return {i: c for i, c in out.items() if c != 0}

    def to_series(self, order: int) -> TruncatedSeries:
        acc = TruncatedSeries.zero(order)
        if self.coeffs:
            powers = x_powers(min(self.coeffs), max(self.coeffs), order)
            for j, c in self.coeffs.items():
                acc = acc + powers[j] * c
        return acc

    def coefficient(self, n: int) -> Fraction:
        """Exact q^n coefficient, in closed form (no series products).

        Positive X powers expand over Y^i with [q^n] Y^i = i n^{n-i-1}/(n-i)!;
        negative powers over Z^i, themselves resolved through the D^k Z and
        D^k(Z^2) closed coefficient formulas.  Every piece is summed as the
        integer n! [q^n] times a rational weight, A_n is computed at most
        once, and the sum is divided by n! once at the end.
        """
        a_n = a_closed(n) if min(self.coeffs, default=0) <= -2 else 0
        total = Fraction(0)
        for j, c in self.coeffs.items():
            if j >= 0:
                for i in range(j + 1):
                    total += c * math.comb(j, i) * (-1) ** i * _ypow_egf_coefficient(i, n)
            else:
                for i in range(-j + 1):
                    total += c * math.comb(-j, i) * _zpow_egf_coefficient(i, n, a_n)
        return total / math.factorial(n)

    def to_json(self) -> dict[str, str]:
        return {str(j): format_rational(c) for j, c in self.coeffs.items()}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolyX":
        return cls({int(j): Fraction(v) for j, v in data.items()})

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPolyX(0)"
        terms = [f"{format_rational(c)}*X^{j}" for j, c in self.coeffs.items()]
        return "LaurentPolyX(" + " + ".join(terms) + ")"


def _ypow_egf_coefficient(i: int, n: int) -> int:
    """n! [q^n] Y^i = i n^{n-i} (n-1)!/(n-i)!, an integer."""
    if i == 0:
        return 1 if n == 0 else 0
    if n < i:
        return 0
    return i * n ** (n - i) * math.perm(n - 1, i - 1)


_ZPOW_CACHE: dict[int, list] = {}


def _zpow_egf_coefficient(i: int, n: int, a_n: int) -> Fraction:
    """n! [q^n] Z^i via the spanning-list combination, given A_n.

    O(i) big-int products per call: D^k Z contributes n^{n+k} and D^k(Z^2)
    contributes n^k A_n, each times a rational weight.
    """
    if i == 0:
        return Fraction(1 if n == 0 else 0)
    if n < 1:
        return Fraction(0)
    combo = _ZPOW_CACHE.get(i)
    if combo is None:
        combo = zpower_in_basis(i)
        _ZPOW_CACHE[i] = combo
    total = Fraction(0)
    for idx, coef in enumerate(combo):
        if coef == 0:
            continue
        k = idx // 2
        total += coef * (n ** (n + k) if idx % 2 == 0 else n**k * a_n)
    return total


# ---------------------------------------------------------------------------
# identification of a series as an algebra element


@dataclass(frozen=True)
class Identification:
    """Result of trying to write a series as a Laurent polynomial in X.

    status: 'identified', 'inconsistent' (not in the algebra on this support
    window), or 'underdetermined' (window too wide for the available order).
    verified_orders counts coefficients matched beyond those needed to solve.
    """

    status: str
    element: LaurentPolyX | None = None
    verified_orders: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "identified"


def identify_in_a(
    f: TruncatedSeries, jmin: int, jmax: int, slack: int = IDENTIFY_SLACK
) -> Identification:
    """Find P with support in [jmin, jmax] such that P(X(q)) matches f.

    Requires at least (window size + slack) known coefficients so that an
    accidental low-order match cannot masquerade as membership.
    """
    if jmax < jmin:
        raise ValueError("jmax must be >= jmin")
    unknowns = jmax - jmin + 1
    if f.order + 1 < unknowns + slack:
        return Identification("underdetermined")
    order = f.order
    powers = x_powers(jmin, jmax, order)
    cols = [powers[j].coeffs for j in range(jmin, jmax + 1)]
    rows = [[cols[t][n] for t in range(unknowns)] for n in range(order + 1)]
    sol = solve_exact(LinearSystem(rows, list(f.coeffs)))
    if sol.status == "inconsistent":
        return Identification("inconsistent")
    if sol.status == "underdetermined":
        return Identification("underdetermined")
    element = LaurentPolyX({j: c for j, c in zip(range(jmin, jmax + 1), sol.solution)})
    return Identification("identified", element, verified_orders=order + 1 - unknowns)


# ---------------------------------------------------------------------------
# scaled rationals and coefficient asymptotics


class Radical(enum.Enum):
    ONE = "1"
    SQRT2 = "sqrt2"
    INV_SQRT_2PI = "inv_sqrt_2pi"

    def to_float(self) -> float:
        if self is Radical.ONE:
            return 1.0
        if self is Radical.SQRT2:
            return math.sqrt(2.0)
        return 1.0 / math.sqrt(2.0 * math.pi)


_RADICAL_PRODUCTS = {
    (Radical.ONE, Radical.ONE): (Radical.ONE, Fraction(1)),
    (Radical.ONE, Radical.SQRT2): (Radical.SQRT2, Fraction(1)),
    (Radical.SQRT2, Radical.ONE): (Radical.SQRT2, Fraction(1)),
    (Radical.ONE, Radical.INV_SQRT_2PI): (Radical.INV_SQRT_2PI, Fraction(1)),
    (Radical.INV_SQRT_2PI, Radical.ONE): (Radical.INV_SQRT_2PI, Fraction(1)),
    (Radical.SQRT2, Radical.SQRT2): (Radical.ONE, Fraction(2)),
}


@dataclass(frozen=True)
class ScaledRational:
    """An exact rational times one radical marker from {1, sqrt2, (2pi)^{-1/2}}."""

    value: Fraction
    radical: Radical = Radical.ONE

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            key = (self.radical, other.radical)
            if key not in _RADICAL_PRODUCTS:
                raise ValueError(f"radical product {key} not closed in this algebra")
            rad, extra = _RADICAL_PRODUCTS[key]
            return ScaledRational(self.value * other.value * extra, rad)
        return ScaledRational(self.value * as_rational(other), self.radical)

    __rmul__ = __mul__

    def to_float(self) -> float:
        return float(self.value) * self.radical.to_float()

    def log(self) -> float:
        if self.value <= 0:
            raise ValueError("log of a non-positive constant")
        return (
            math.log(self.value.numerator)
            - math.log(self.value.denominator)
            + math.log(self.radical.to_float())
        )

    def __str__(self):
        base = format_rational(self.value)
        if self.radical is Radical.ONE:
            return base
        if self.radical is Radical.SQRT2:
            return f"{base} * sqrt(2)"
        return f"{base} * (2*pi)^(-1/2)"

    def to_json(self) -> dict:
        return {"value": format_rational(self.value), "radical": self.radical.value}


@dataclass(frozen=True)
class AsymptoticTerm:
    """coeff_n ~ constant * e^n * n^{gamma-1}; gamma stored doubled to stay exact."""

    constant: ScaledRational
    gamma2: int

    @property
    def gamma(self) -> float:
        return self.gamma2 / 2.0

    def log_predicted(self, n: int) -> float:
        return self.constant.log() + n + (self.gamma2 / 2.0 - 1.0) * math.log(n)

    def to_json(self) -> dict:
        return {
            "constant": format_rational(self.constant.value),
            "radical": self.constant.radical.value,
            "gamma2": self.gamma2,
        }


def inv_gamma_half_scaled(l: int) -> ScaledRational:
    """1 / (Gamma(l/2) * 2^{l/2}) for positive integer l, exactly.

    Even l: 1/((l/2-1)! 2^{l/2}).  Odd l: Gamma(m+1/2) 2^{m+1/2} with
    m = (l-1)/2 equals (l-2)!! sqrt(2 pi), so the reciprocal is
    1/(l-2)!! times the (2pi)^{-1/2} marker.
    """
    if l <= 0:
        raise ValueError("need l >= 1")
    if l % 2 == 0:
        m = l // 2
        return ScaledRational(Fraction(1, math.factorial(m - 1) * 2**m))
    return ScaledRational(Fraction(1, double_factorial(l - 2)), Radical.INV_SQRT_2PI)


def leading_asymptotic(p: LaurentPolyX) -> AsymptoticTerm:
    """Leading coefficient growth of an algebra element.

    Negative minimal X-degree -L (top Z-degree L): constant is
    a_{-L} / (Gamma(L/2) 2^{L/2}) with gamma = L/2.  A pure polynomial in Y
    falls back to [q^n] Y^k ~ k e^n n^{-3/2}/sqrt(2 pi), so the constant is
    (sum_k k a'_k)/sqrt(2 pi) with gamma = -1/2; that sum vanishing means
    the leading term is not captured at this order and is reported as such.
    """
    if p.is_zero():
        raise ValueError("zero element has no asymptotic")
    jstar = min(p.support)
    if jstar < 0:
        big_l = -jstar
        const = p.coeffs[jstar] * inv_gamma_half_scaled(big_l)
        return AsymptoticTerm(const, gamma2=big_l)
    ypoly = p.to_ypoly()
    weight = sum((k * c for k, c in ypoly.items()), Fraction(0))
    if weight == 0:
        raise ValueError(
            "polynomial part has sum k*a_k = 0; the leading term needs subleading data"
        )
    return AsymptoticTerm(ScaledRational(weight, Radical.INV_SQRT_2PI), gamma2=-1)
