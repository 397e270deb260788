"""Exact truncated power series over the rationals, and an exact linear solver.

All coefficients are `fractions.Fraction`; no operation in this module ever
rounds.  Series are stored in the plain convention (coefficient of q^n is
c_n); helpers give the n!-scaled view used by exponential generating
functions.

Series arithmetic runs on plain integers.  Each operand is rewritten as
EGF numerators over one common denominator, a_i = D i! c_i, and one kernel,
`_convolve`, gives the binomial convolution s_k = sum_i C(k, i) a_i b_{k-i}
for just the orders k asked for, visiting only the i where both factors can
be nonzero; a square sums each pair i < k - i once and doubles it.  A
product's coefficients are the reduced `Fraction(s_k, D_a D_b k!)`: the single
common-denominator design of FLINT's `fmpq_poly`, with the i! folded in so
that tree series such as Z (a_i = i^i, D = 1) stay integral.  The inverse is
Newton's iteration on EGF numerators, each step asking the kernel only for
the new half of the coefficients (Brent and Kung, 1978).

The linear solver eliminates fraction-free on integer rows, in input order
until full rank, and checks the surplus rows (the certificate) in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import Record

Rational = Fraction


def as_rational(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction; bools are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def format_rational(x: Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _egf_numerators(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [D i! c_i]) with D the least positive integer making all of them ints."""
    parts = []
    den = 1
    fact = 1
    for i, c in enumerate(coeffs):
        if i:
            fact *= i
        g = math.gcd(c.denominator, fact)
        d = c.denominator // g
        parts.append((c.numerator * (fact // g), d))
        den = den * d // math.gcd(den, d)
    return den, [p * (den // d) for p, d in parts]


def _from_egf_numerators(s: Sequence[int], den: int) -> "TruncatedSeries":
    """The series with coefficients s_k / (den k!)."""
    out = []
    fact = den
    for k, x in enumerate(s):
        if k:
            fact *= k
        out.append(Fraction(x, fact))
    return TruncatedSeries(out)


def _convolve(a: Sequence[int], b: Sequence[int], lo: int, hi: int) -> list[int]:
    """[s_lo, ..., s_hi] with s_k = sum_i C(k, i) a_i b_{k-i}; needs hi < len(a) + len(b).

    i runs only where both a_i and b_{k-i} can be nonzero: past the end of
    either list and over the leading zeros of either costs nothing.  When
    `a is b` the sum is a square, and each pair i < k - i is summed once and
    doubled.
    """
    za = next((i for i, x in enumerate(a) if x), len(a))
    zb = next((j for j, x in enumerate(b) if x), len(b))
    out = []
    for k in range(lo, hi + 1):
        i = max(za, k - len(b) + 1)
        last = min(len(a) - 1, k - zb)
        if a is b:
            last = min(last, (k - 1) // 2)
        s = 0
        j = k - i
        binom = math.comb(k, i)
        for x in a[i : last + 1]:
            s += x * b[j] * binom
            i += 1
            binom = binom * j // i
            j -= 1
        if a is b:
            s *= 2
            if not k & 1 and za <= k // 2:
                s += math.comb(k, k // 2) * a[k // 2] ** 2
        out.append(s)
    return out


class TruncatedSeries(Record):
    """A power series in q known exactly up to (and including) order N.

    Arithmetic between two series truncates to the smaller order; mixing
    with plain rationals treats them as constants.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable):
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def monomial(cls, n: int, order: int, coeff=1) -> "TruncatedSeries":
        c = [Fraction(0)] * (order + 1)
        if n <= order:
            c[n] = as_rational(coeff)
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs[n]

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the exponential-convention view."""
        return self.coeffs[n] * math.factorial(n)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])
        c = list(self.coeffs)
        c[0] += as_rational(other)
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + as_rational(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            a = as_rational(other)
            return TruncatedSeries([c * a for c in self.coeffs])
        n = min(self.order, other.order)
        da, a = _egf_numerators(self.coeffs[: n + 1])
        db, b = (da, a) if other is self else _egf_numerators(other.coeffs[: n + 1])
        return _from_egf_numerators(_convolve(a, b, 0, n), da * db)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            return self.inverse() ** (-k)
        if k < 2:
            return self if k else TruncatedSeries.one(self.order)
        half = self ** (k // 2)
        square = half * half
        return square * self if k & 1 else square

    def euler_d(self) -> "TruncatedSeries":
        """Apply D = q d/dq: the n-th coefficient becomes n*c_n."""
        return TruncatedSeries([n * c for n, c in enumerate(self.coeffs)])

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Newton's iteration g <- g - g (f g - 1): if g is right to order h,
        the step is right to order m = 2h + 1, so a handful of steps reach
        the full order.  f g - 1 vanishes through order h, so each step asks
        `_convolve` only for coefficients h+1..m of f g and then of
        g (f g - 1), about half of each full product.  g is kept as EGF
        numerators over the least common denominator throughout.
        """
        if self.coeffs[0] == 0:
            raise ValueError("series with zero constant term has no inverse")
        da, a = _egf_numerators(self.coeffs)
        g0 = Fraction(da, a[0])
        den, b = g0.denominator, [g0.numerator]
        while len(b) <= self.order:
            h = len(b) - 1
            m = min(2 * h + 1, self.order)
            # f g - 1 over da * den, zero through order h
            e = [0] * (h + 1) + _convolve(a, b, h + 1, m)
            scale = da * den
            b = [x * scale for x in b] + [-t for t in _convolve(b, e, h + 1, m)]
            common = math.gcd(den * scale, *b)
            b = [x // common for x in b]
            den = den * scale // common
        return _from_egf_numerators(b, den)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        shown = ", ".join(format_rational(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Exact exp of a series with zero constant term.

    A nonzero constant term would force a transcendental factor, so it is
    rejected.  Uses the first-order recursion n e_n = sum k a_k e_{n-k}.
    """
    if a.coeffs[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    n = a.order
    e = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        s = Fraction(0)
        for k in range(1, m + 1):
            if a.coeffs[k] != 0:
                s += k * a.coeffs[k] * e[m - k]
        e[m] = s / m
    return TruncatedSeries(e)


def _entry(x):
    """An int is kept as it is (solve_exact reads ints directly); the rest goes
    through `as_rational`, which refuses bools and floats."""
    return x if type(x) is int else as_rational(x)


class LinearSystem(Record):
    """Exact rows x cols system of ints and Fractions; rows >= cols is the normal case."""

    matrix: tuple
    rhs: tuple

    def __init__(self, matrix: Sequence[Sequence], rhs: Sequence):
        rows = tuple(tuple(_entry(x) for x in row) for row in matrix)
        b = tuple(_entry(x) for x in rhs)
        if len(rows) != len(b):
            raise ValueError("matrix and rhs row counts differ")
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rhs", b)


class LinearSolution(Record):
    """Outcome of solve_exact.

    status is one of 'unique', 'inconsistent', 'underdetermined';
    solution is present only for 'unique'.
    """

    status: str
    solution: tuple | None = None

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"

    @property
    def ok(self) -> bool:
        return self.status == "unique"


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def solve_exact(system: LinearSystem) -> LinearSolution:
    """Solve on the fewest rows, fraction-free, and check the rest in integers.

    Rows, right side last, are cleared of denominators and reduced in input
    order against the pivot rows so far (pivot on the first nonzero entry)
    until the rank equals the column count: an entry f under pivot p gives
    p row - f pivot, divided by its gcd (Bareiss, 1968).  Back-substitution
    gives the solution over one common denominator, and every remaining row
    is checked as an integer dot product.  Callers put the smallest rows first.

    A row that reduces to zero with a nonzero right side, or a remaining row
    the solution does not satisfy, gives 'inconsistent', also when the
    system is rank-deficient; a consistent system with free columns gives
    'underdetermined'; otherwise the solution is 'unique'.
    """
    n_rows = len(system.rhs)
    n_cols = len(system.matrix[0]) if n_rows else 0
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, row with rhs last)
    used = 0
    while len(pivots) < n_cols and used < n_rows:
        row = _integer_row((*system.matrix[used], system.rhs[used]))
        used += 1
        for col, p in pivots:
            f = row[col]
            if f:
                row = [p[col] * v - f * w for v, w in zip(row, p)]
                common = math.gcd(*row) or 1
                row = [v // common for v in row]
        col = next((j for j in range(n_cols) if row[j]), None)
        if col is None:
            if row[n_cols]:
                return LinearSolution("inconsistent")
            continue
        pivots.append((col, row))
    if len(pivots) < n_cols:
        return LinearSolution("underdetermined")
    num, den = [0] * n_cols, 1  # x_c = num[c] / den
    for col, p in reversed(pivots):
        # num is zero outside the later pivots' columns, where p may not be
        t = p[n_cols] * den - sum(a * x for a, x in zip(p, num) if x)
        num = [t if c == col else x * p[col] for c, x in enumerate(num)]
        den *= p[col]
        common = math.gcd(den, *num)
        num = [x // common for x in num]
        den //= common
    for row, b in zip(system.matrix[used:], system.rhs[used:]):
        r = _integer_row((*row, b))
        if sum(a * x for a, x in zip(r, num) if a) != r[n_cols] * den:
            return LinearSolution("inconsistent")
    return LinearSolution("unique", tuple(Fraction(x, den) for x in num))
