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
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, DomainError, Record, as_int
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
    if as_int(order) < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries.from_egf([0] + [n ** (n - 1) for n in range(1, order + 1)])


def series_z(order: int) -> TruncatedSeries:
    """EGF of rooted trees with one extra marked vertex: coefficients n^n/n!."""
    if as_int(order) < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries.from_egf([0] + [n**n for n in range(1, order + 1)])


def seq_a(nmax: int) -> list[int]:
    """A_1..A_nmax, A_n = n! [q^n] Z^2, from the closed form (`a_closed`)."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return [a_closed(n) for n in range(1, nmax + 1)]


@lru_cache(maxsize=None)
def a_closed(n: int) -> int:
    """A_n = n! sum_{k=0}^{n-2} n^k/k!, as an exact integer, memoized per n.

    Binary splitting (Haible and Papanikolaou, 1998): over a range (a, b]
    let f = sum_{j=a+1}^{b} n^(j-a-1) prod_{i=j+1}^{b} i and p = b!/a!.
    Halves combine as f(a, b) = f(a, c) p(c, b) + n^(c-a) f(c, b) and
    p(a, b) = p(a, c) p(c, b), so the big products are balanced, and with
    m = n - 2, A_n = n (n-1) (p(0, m) + n f(0, m)).
    """
    if n < 2:
        return 0
    f, p, _ = _split(n, 0, n - 2)
    return n * (n - 1) * (p + n * f)


def _split(n: int, a: int, b: int) -> tuple[int, int, int]:
    """(f, p, n^(b-a)) over (a, b], see `a_closed`; short ranges step f <- f i + n^(i-a-1)."""
    if b - a <= 32:
        f, p, power = 0, 1, 1
        for i in range(a + 1, b + 1):
            f = f * i + power
            p *= i
            power *= n
        return f, p, power
    c = (a + b) // 2
    f1, p1, w1 = _split(n, a, c)
    f2, p2, w2 = _split(n, c, b)
    return f1 * p2 + w1 * f2, p1 * p2, w1 * w2


def y_over_q_power(a: int, order: int) -> TruncatedSeries:
    """(Y/q)^a for any integer a.  Y = q e^Y, so (Y/q)^a = e^{aY}, and
    Lagrange inversion gives its coefficients a (j+a)^{j-1}/j! (1 at j = 0)."""
    a, order = as_int(a), as_int(order)
    return TruncatedSeries.from_egf([a * (j + a) ** (j - 1) if j else 1 for j in range(order + 1)])


def _x_power_egf(n: int, jmin: int, jmax: int) -> list[int]:
    """[n! [q^n] X^j for j in jmin..jmax], exact integers, for n >= 0.

    At n = 0 every entry is 1.  For n >= 1 the seeds are e_0 = 0,
    e_{-1} = n^n (X^{-1} = 1 + Z) and e_{-2} = 2 n^n + A_n ((1 + Z)^2).
    DX = -Z = 1 - X^{-1} gives D(X^j) = j (X^{j-1} - X^{j-2}), that is
    n e_j = j (e_{j-1} - e_{j-2}): read upward for j >= 1, and downward as
    e_{-j-2} = e_{-j-1} + n e_{-j} / j.  Both divisions are exact.
    """
    if n == 0:
        return [1] * (jmax - jmin + 1)
    e = {0: 0, -1: n**n}
    if jmin <= -2:
        e[-2] = 2 * e[-1] + a_closed(n)
    for j in range(1, jmax + 1):
        e[j] = j * (e[j - 1] - e[j - 2]) // n
    for j in range(1, -jmin - 1):
        e[-j - 2] = e[-j - 1] + n * e[-j] // j
    return [e[j] for j in range(jmin, jmax + 1)]


def _egf_rows(ns, cols) -> list[list[int]]:
    """[[n! [q^n] sum_j c_j X^j for each column] for n in ns], each column an
    integer map {j: c_j}.

    One `_x_power_egf` row per n over the columns' joint support gives every
    column's entry as an integer sum; an empty column reads 0.  A_n is
    computed only when the support reaches X^{-2}.
    """
    support = [j for col in cols for j in col] or [0]
    jmin, jmax = min(support), max(support)
    weights = [[(j - jmin, c) for j, c in col.items()] for col in cols]
    rows = (_x_power_egf(n, jmin, jmax) for n in ns)
    return [[sum(c * e[i] for i, c in w) for w in weights] for e in rows]


# ---------------------------------------------------------------------------
# polynomials in Z


class ZPoly(Record):
    """A polynomial in Z = X^{-1} - 1, coeffs[i] on Z^i: the record phi(Z) and the
    spanning list are stated in.  It has no arithmetic; `LaurentPolyX.to_zpoly`
    writes an element with no positive X-power in it."""

    coeffs: tuple

    def __init__(self, coeffs):
        c = [as_rational(x) for x in coeffs] or [Fraction(0)]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        terms = [
            f"{format_rational(c)}*Z^{i}" if i else format_rational(c)
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return "ZPoly(" + (" + ".join(terms) if terms else "0") + ")"


def _dk_laurent(a: int, k: int) -> "LaurentPolyX":
    """D^k (Z^a): D applied k times to (X^{-1} - 1)^a, integer coefficients."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = LaurentPolyX({-1: 1, 0: -1}) ** a
    for _ in range(k):
        p = p.euler_d()
    return p


def dkz_poly(k: int) -> ZPoly:
    """D^k Z as a polynomial in Z; leading coefficient (2k-1)!! on Z^{2k+1}."""
    return _dk_laurent(1, k).to_zpoly()


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def zpower_in_basis(k: int) -> list[Fraction]:
    """Coefficients expressing Z^k over the first k spanning elements.

    Solved exactly on the integer X^{-d} coefficients of the spanning
    elements against those of (X^{-1} - 1)^k; `solve_exact` checks every
    row beyond its pivots.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    basis = [_dk_laurent(i % 2 + 1, i // 2).coeffs for i in range(k)]
    deg = -min(min(p) for p in basis)
    rows = [[int(p.get(-d, 0)) for p in basis] for d in range(deg + 1)]
    rhs = [(-1) ** (k - d) * math.comb(k, d) for d in range(deg + 1)]
    sol = solve_exact(LinearSystem(rows, rhs))
    if not sol.ok:
        raise ConsistencyError(f"Z^{k} did not resolve over the spanning list: {sol.status}")
    return list(sol.solution)


# ---------------------------------------------------------------------------
# the canonical Laurent form


class LaurentPolyX(Record):
    """An element of the algebra as a Laurent polynomial in X = 1 - Y.

    Keys are integer exponents (negative allowed), values nonzero rationals.
    """

    coeffs: dict

    def __init__(self, coeffs: dict):
        clean = ((as_int(j), as_rational(c)) for j, c in coeffs.items())
        object.__setattr__(self, "coeffs", dict(sorted((j, c) for j, c in clean if c)))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.coeffs)

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c
        return LaurentPolyX(out)

    def __sub__(self, other):
        return self + other * -1

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

    def euler_d(self) -> "LaurentPolyX":
        """Apply D = q d/dq through DX = -Z = 1 - X^{-1}: D(X^j) = j (X^{j-1} - X^{j-2})."""
        out: dict[int, Fraction] = {}
        for j, c in self.coeffs.items():
            out[j - 1] = out.get(j - 1, 0) + j * c
            out[j - 2] = out.get(j - 2, 0) - j * c
        return LaurentPolyX(out)

    def to_zpoly(self) -> ZPoly:
        """Rewrite as a polynomial in Z; requires support <= 0.  X^{-j} = (1+Z)^j."""
        if any(j > 0 for j in self.coeffs):
            raise ValueError("element has positive X powers; it is not a polynomial in Z")
        out = [Fraction(0)] * (1 - min(self.coeffs, default=0))
        for j, c in self.coeffs.items():
            for i in range(1 - j):
                out[i] += c * math.comb(-j, i)
        return ZPoly(out)

    def to_series(self, order: int) -> TruncatedSeries:
        """The element's series to q^order, on integers."""
        if as_int(order) < 0:
            raise ValueError("order must be >= 0")
        return TruncatedSeries.from_egf(*self._egf_numerators(range(order + 1)))

    def coefficient(self, n: int) -> Fraction:
        """Exact q^n coefficient, with no series products."""
        if as_int(n) < 0:
            raise ValueError("n must be >= 0")
        (num,), den = self._egf_numerators([n])
        return Fraction(num, den * math.factorial(n))

    def _egf_numerators(self, ns) -> tuple[list[int], int]:
        """([L n! [q^n] P for n in ns], L), L the lcm of the c_j's denominators:
        the `_egf_rows` of the one integer column {j: L c_j}."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        col = {j: c.numerator * (den // c.denominator) for j, c in self.coeffs.items()}
        return [row[0] for row in _egf_rows(ns, [col])], den

    def to_json(self) -> dict[str, str]:
        return {str(j): format_rational(c) for j, c in self.coeffs.items()}

    @classmethod
    def from_json(cls, data) -> "LaurentPolyX":
        """Parse a JSON object of integer exponents to exact rationals (ints or
        'p/q' strings); anything else raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError(f"a Laurent polynomial is a JSON object, not {data!r}")
        try:
            return cls({int(j): as_rational(v) for j, v in data.items()})
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad Laurent polynomial {data!r}: {exc}") from None

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPolyX(0)"
        terms = [f"{format_rational(c)}*X^{j}" for j, c in self.coeffs.items()]
        return "LaurentPolyX(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# identification of a series as an algebra element


class Identification(Record):
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


def identify_in_a(f: TruncatedSeries, jmin: int, jmax: int) -> Identification:
    """Find P with support in [jmin, jmax] such that P(X(q)) matches f.

    Requires at least (window size + IDENTIFY_SLACK) known coefficients so
    that an accidental low-order match cannot masquerade as membership.
    """
    if as_int(jmax) < as_int(jmin):
        raise ValueError("jmax must be >= jmin")
    unknowns = jmax - jmin + 1
    if f.order + 1 < unknowns + IDENTIFY_SLACK:
        return Identification("underdetermined")
    order = f.order
    # row n is [q^n] scaled by n!, with right side den n! f_n = nums[n], so
    # the solution is den times P's coefficients
    rows = [_x_power_egf(n, jmin, jmax) for n in range(order + 1)]
    sol = solve_exact(LinearSystem(rows, f.nums))
    if not sol.ok:
        return Identification(sol.status)
    element = LaurentPolyX({j: c / f.den for j, c in zip(range(jmin, jmax + 1), sol.solution)})
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


class ScaledRational(Record):
    """An exact rational times one radical marker from {1, sqrt2, (2pi)^{-1/2}}.
    It multiplies by rationals only; a product of two markers raises TypeError."""

    value: Fraction
    radical: Radical = Radical.ONE

    def __mul__(self, other):
        return ScaledRational(self.value * as_rational(other), self.radical)

    __rmul__ = __mul__

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


class AsymptoticTerm(Record):
    """coeff_n ~ constant * e^n * n^{gamma-1}; gamma stored doubled to stay exact."""

    constant: ScaledRational
    gamma2: int

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
    (sum_k k a'_k)/sqrt(2 pi) with gamma = -1/2, the sum being -a_1 (the
    Y-derivative of p(1 - Y) at Y = 1); that sum vanishing means the leading
    term is not captured at this order and is reported as such.
    """
    if p.is_zero():
        raise ValueError("zero element has no asymptotic")
    jstar = min(p.support)
    if jstar < 0:
        big_l = -jstar
        const = p.coeffs[jstar] * inv_gamma_half_scaled(big_l)
        return AsymptoticTerm(const, gamma2=big_l)
    weight = -p.coeffs.get(1, Fraction(0))
    if weight == 0:
        raise ValueError(
            "polynomial part has sum k*a_k = 0; the leading term needs subleading data"
        )
    return AsymptoticTerm(ScaledRational(weight, Radical.INV_SQRT_2PI), gamma2=-1)
