"""Exact truncated power series over the rationals, and an exact linear solver.

No operation here ever rounds.  A series keeps c_0..c_N (c_n on q^n) as
integer EGF numerators over one denominator, c_k = nums[k] / (den k!), with
den > 0 and gcd(den, *nums) = 1, so equal series have equal fields: the
single-common-denominator design of FLINT's `fmpq_poly`, with the k! folded
in so that tree series such as Z (nums[k] = k^k, den = 1) stay integral.
Series arithmetic never builds a `Fraction`; reading a coefficient does.

Products run on one kernel, `_convolve`: the binomial convolution
s_k = sum_i C(k, i) a_i b_{k-i} for just the orders k asked for, visiting
only the i where both factors can be nonzero.  As C(k, i) = C(k, k - i),
the terms i and k - i share one multiplication by the binomial; a square
keeps one product of each such pair, doubled.  The inverse and exp are online
recurrences on the same kernel: each new coefficient is one `_convolve`
call over the coefficients already known.

The linear solver eliminates fraction-free on integer rows, in input order
until full rank, and checks each surplus row (the certificate) as it is
stored, one exact dot product with the solution's numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul as _mul
from typing import Iterable, Sequence

from .errors import Record, as_int


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


def _convolve(a: Sequence[int], b: Sequence[int], lo: int, hi: int) -> list[int]:
    """[s_lo, ..., s_hi] with s_k = sum_i C(k, i) a_i b_{k-i}; needs hi < len(a) + len(b).

    i runs only over the terms, the i where both a_i and b_{k-i} can be
    nonzero: past the end of either list and over the leading zeros of
    either costs nothing.  As C(k, i) = C(k, k - i), a mirror pair of
    terms i < k - i makes one binomial product,
    (a_i b_{k-i} + a_{k-i} b_i) C(k, i), and the middle i = k/2 is added
    once.  The singles, terms whose mirror is not a term, all lie on one
    side; read with the factors swapped they come first, so one running
    binomial serves singles, pairs and middle.  When `a is b` the sum is
    a square, with no singles, and each pair keeps one product, doubled.
    """
    za = next((i for i, x in enumerate(a) if x), len(a))
    zb = next((j for j, x in enumerate(b) if x), len(b))
    na, nb, square = len(a) - 1, len(b) - 1, a is b
    out = []
    for k in range(lo, hi + 1):
        first = za if za > k - nb else k - nb  # the terms are first <= i <= k - r
        r = zb if zb > k - na else k - na
        if first + r > k:
            out.append(0)
            continue
        # i and k - i are both terms for m <= i <= k - m; the other terms,
        # the singles, are a_t b_{k-t} with t < r or a_{k-t} b_t with t < first,
        # for t from min(first, r) up
        m, t, x, y = (r, first, a, b) if first < r else (first, r, b, a)
        binom = math.comb(k, t)
        s = 0
        if t < m:
            for t in range(t, min(m, t + k - r - first + 1)):
                s += x[t] * y[k - t] * binom
                binom = binom * (k - t) // (t + 1)
        half = k // 2
        if m <= half:  # a mirror window [m, k - m] that is not empty
            if square:
                for i in range(m, k - half):
                    s += a[i] * a[k - i] * binom
                    binom = binom * (k - i) // (i + 1)
                s *= 2
            else:
                for i in range(m, k - half):
                    j = k - i
                    s += (a[i] * b[j] + a[j] * b[i]) * binom
                    binom = binom * j // (i + 1)
            if not k & 1:
                s += a[half] * b[half] * binom
        out.append(s)
    return out


class TruncatedSeries(Record):
    """A power series in q known exactly up to (and including) order N.

    Stored as c_k = nums[k] / (den k!) in canonical form (see the module
    docstring).  Arithmetic between two series truncates to the smaller
    order; mixing with plain rationals treats them as constants.
    """

    den: int
    nums: tuple

    def __init__(self, coeffs: Iterable):
        coeffs = [as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        facts = accumulate(range(1, len(coeffs)), _mul, initial=1)
        self._store([c.numerator * (den // c.denominator) * f for c, f in zip(coeffs, facts)], den)

    @classmethod
    def from_egf(cls, nums: Sequence[int], den: int = 1) -> "TruncatedSeries":
        """The series with coefficients nums[k] / (den k!) for ints, in canonical form."""
        out = cls.__new__(cls)
        out._store(nums, den)
        return out

    def _store(self, nums: Sequence[int], den: int) -> None:
        if not nums or not den:
            raise ValueError("a series needs a constant coefficient and a nonzero denominator")
        common = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if common != 1:
            den, nums = den // common, [x // common for x in nums]
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_egf([0] * (as_int(order) + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, n: int, order: int, coeff=1) -> "TruncatedSeries":
        if as_int(n) < 0 or as_int(order) < 0:
            raise ValueError("a monomial needs n >= 0 and order >= 0")
        return cls(([0] * n + [coeff])[: order + 1] + [0] * (order - n))

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_0..c_N as Fractions, built on each read."""
        return tuple(map(self.coefficient, range(self.order + 1)))

    def coefficient(self, n: int) -> Fraction:
        if as_int(n) < 0:
            raise ValueError("n must be >= 0")
        return Fraction(self.nums[n], self.den * math.factorial(n))

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the exponential-convention view."""
        if as_int(n) < 0:
            raise ValueError("n must be >= 0")
        return Fraction(self.nums[n], self.den)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = as_rational(other)
            other = TruncatedSeries.from_egf([c.numerator] + [0] * self.order, c.denominator)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums = [x * sa + y * sb for x, y in zip(self.nums, other.nums)]
        return TruncatedSeries.from_egf(nums, den)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries.from_egf([-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + as_rational(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = as_rational(other)
            nums = [x * c.numerator for x in self.nums]
            return TruncatedSeries.from_egf(nums, self.den * c.denominator)
        n = min(self.order, other.order)
        a = self.nums[: n + 1]
        b = a if other is self else other.nums[: n + 1]
        return TruncatedSeries.from_egf(_convolve(a, b, 0, n), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TruncatedSeries":
        if as_int(k) < 0:
            return self.inverse() ** (-k)
        if k < 2:
            return self if k else TruncatedSeries.one(self.order)
        half = self ** (k // 2)
        square = half * half
        return square * self if k & 1 else square

    def euler_d(self) -> "TruncatedSeries":
        """Apply D = q d/dq: the n-th coefficient becomes n*c_n."""
        return TruncatedSeries.from_egf([n * x for n, x in enumerate(self.nums)], self.den)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With f_k = a_k / (d k!), the inverse's EGF values are
        h_k / a_0^(k+1) on the integers h_0 = d and
        h_k = -sum_{i=1}^{k} C(k, i) w_i h_{k-i}, w_i = a_i a_0^(i-1):
        one `_convolve` call per order over h_0..h_{k-1}, which never
        reads w_0.
        """
        a, a0 = self.nums, self.nums[0]
        if not a0:
            raise ValueError("series with zero constant term has no inverse")
        w = a if a0 == 1 else [0] + [x * a0 ** (i - 1) for i, x in enumerate(a[1:], 1)]
        top = len(a) - 1
        h = [self.den]
        for k in range(1, top + 1):
            h.append(-_convolve(w, h, k, k)[0])
        if a0 != 1:  # at a_0 = 1 the numerators are h itself, not a copy
            h = [x * a0 ** (top - k) for k, x in enumerate(h)]
        return TruncatedSeries.from_egf(h, a0 ** (top + 1))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self):
        shown = [format_rational(self.coefficient(n)) for n in range(min(self.order + 1, 6))]
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{', '.join(shown)}{tail}], order={self.order})"


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Exact exp of a series with zero constant term.

    A nonzero constant term would force a transcendental factor, so it is
    rejected.  E = exp(A) in the exponential convention obeys E' = A' E,
    n E_n = sum_{i=1}^{n} C(n, i) i A_i E_{n-i}; with A_i = nums[i] / D this
    runs on the integers F_n = D^n E_n, one `_convolve` call per order with
    w_i = i nums[i] D^(i-1) and one exact division by n, and
    c_n = F_n D^(N-n) / (D^N n!).
    """
    nums, d = a.nums, a.den
    if nums[0]:
        raise ValueError("series_exp requires a zero constant term")
    top = len(nums) - 1  # N
    w = [0] + [i * x * d ** (i - 1) for i, x in enumerate(nums[1:], 1)]
    f = [1]  # F_n
    for n in range(1, top + 1):
        f.append(_convolve(w, f, n, n)[0] // n)
    return TruncatedSeries.from_egf([x * d ** (top - n) for n, x in enumerate(f)], d**top)


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
    def ok(self) -> bool:
        return self.status == "unique"


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def solve_exact(system: LinearSystem) -> LinearSolution:
    """Solve on the fewest rows, fraction-free, and check the rest exactly.

    Rows, right side last, are cleared of denominators and reduced in input
    order against the pivot rows so far (pivot on the first nonzero entry)
    until the rank equals the column count: an entry f under pivot p gives
    p row - f pivot, divided by its gcd (Bareiss, 1968).  Back-substitution
    gives the solution as numerators over one common denominator, and every
    remaining row is checked as it is stored, as one dot product with those
    numerators against its right side times the denominator: in integers
    when the row is integer, as every caller's is, and exact on `Fraction`
    entries too.  Callers put the smallest rows first.

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
        if sum(a * x for a, x in zip(row, num) if a) != b * den:
            return LinearSolution("inconsistent")
    return LinearSolution("unique", tuple(Fraction(x, den) for x in num))
