"""Independent reference computations for the test suite.

These deliberately use the dumbest correct method available (full tuple
enumeration, direct convolutions) so they share no code path with the
implementations they check.  The Fraction series product, inverse
recurrence and A_n sum below are the library's former routes, kept here as
references for its integer kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product


def all_transpositions(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            p = list(range(n))
            p[i], p[j] = p[j], p[i]
            out.append(tuple(p))
    return out


def cycle_lengths(p):
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        l = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            l += 1
        out.append(l)
    return tuple(sorted(out, reverse=True))


def perms_of_type(n, lengths):
    """All of S_n whose nontrivial cycle lengths match (slow: scans n!)."""
    want = tuple(sorted([l for l in lengths if l >= 2], reverse=True))
    out = []
    for p in permutations(range(n)):
        got = tuple(l for l in cycle_lengths(p) if l >= 2)
        if got == want:
            out.append(p)
    return out


def naive_connected_count(g, n, mus):
    """Weighted connected covering count by full tuple enumeration.

    mus: list of part tuples.  Only viable for tiny (n, c).
    """
    r = sum(sum(b - 1 for b in mu) for mu in mus)
    c = 2 * n + 2 * g - 2 - r
    assert c >= 0
    weight = 1
    for mu in mus:
        moved = sum(b for b in mu if b >= 2)
        a1 = sum(1 for b in mu if b == 1)
        weight *= math.comb(n - moved, a1)
    pools = [perms_of_type(n, mu) for mu in mus] + [all_transpositions(n)] * c
    identity = tuple(range(n))
    count = 0
    for tup in product(*pools):
        prod = identity
        for t in tup:
            prod = tuple(t[prod[x]] for x in range(n))
        if prod != identity:
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in tup:
            for x in range(n):
                if t[x] != x:
                    ra, rb = find(x), find(t[x])
                    if ra != rb:
                        parent[ra] = rb
        if len({find(x) for x in range(n)}) == 1:
            count += 1
    return Fraction(weight * count, math.factorial(n))


def naive_total_count(g, n, mus):
    """Same enumeration without the transitivity filter."""
    r = sum(sum(b - 1 for b in mu) for mu in mus)
    c = 2 * n + 2 * g - 2 - r
    assert c >= 0
    weight = 1
    for mu in mus:
        moved = sum(b for b in mu if b >= 2)
        a1 = sum(1 for b in mu if b == 1)
        weight *= math.comb(n - moved, a1)
    pools = [perms_of_type(n, mu) for mu in mus] + [all_transpositions(n)] * c
    identity = tuple(range(n))
    count = 0
    for tup in product(*pools):
        prod = identity
        for t in tup:
            prod = tuple(t[prod[x]] for x in range(n))
        if prod == identity:
            count += 1
    return Fraction(weight * count, math.factorial(n))


def cauchy_product(a, b):
    """Product of two coefficient lists, truncated to the shorter one.

    The direct Fraction convolution c_k = sum_i a_i b_{k-i}.
    """
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n - i):
            if b[j] != 0:
                out[i + j] += a[i] * b[j]
    return out


def series_inverse(a):
    """Inverse of a coefficient list with a nonzero constant term.

    The Fraction recurrence inv_k = -(sum_{i>=1} a_i inv_{k-i}) / a_0.
    """
    inv = [Fraction(1) / a[0]]
    for k in range(1, len(a)):
        s = sum((a[i] * inv[k - i] for i in range(1, k + 1) if a[i] != 0), Fraction(0))
        inv.append(-s / a[0])
    return inv


def a_closed_fractions(n):
    """A_n = n! sum_{k<=n-2} n^k/k!, summed term by term in Fractions."""
    if n < 2:
        return 0
    total = Fraction(0)
    term = Fraction(1)  # n^k / k!
    for k in range(n - 1):
        total += term
        term = term * n / (k + 1)
    value = total * math.factorial(n)
    assert value.denominator == 1
    return value.numerator


def first_correction(p) -> float:
    """Relative n^(-1/2) correction c1 to the leading asymptotic of an element.

    p is a Laurent polynomial sum_j a_j X^j in X = 1 - Y (a `LaurentPolyX`;
    only its `coeffs` mapping is read), and the claim is
    [q^n] P = leading * (1 + c1 n^(-1/2) + O(1/n)).

    Derivation, independent of `leading_asymptotic`.  Put s = sqrt(1 - e q).
    The tree function Y = q exp(Y) has its square-root singularity at
    q = 1/e, where Y = 1 - sqrt(2) s + (2/3) s^2 - ..., so
    X = sqrt(2) s (1 - (sqrt(2)/3) s + O(s^2)).  If the lowest exponent is
    -L < 0, then
        P = 2^(-L/2) a_{-L} s^(-L) (1 + kappa s + O(s^2)),
        kappa = sqrt(2) (L/3 + a_{-L+1} / a_{-L}),
    where L/3 comes from expanding X^(-L) and the ratio from the next
    power X^(-L+1).  By the transfer theorem (Flajolet-Odlyzko),
    [q^n] (1 - e q)^(-a) = e^n n^(a-1) / Gamma(a) (1 + O(1/n)), so the
    s^(-L+1) term over the s^(-L) term is n^(-1/2) Gamma(L/2) / Gamma((L-1)/2),
    and c1 = kappa Gamma(L/2) / Gamma((L-1)/2).  For L = 1 the next term is
    s^0, a constant with no coefficient growth, so c1 = 0.  A pure
    polynomial in Y (lowest exponent >= 0) has leading term from s^1; its
    s^2 term is analytic and the next singular term s^3 is O(1/n) relative,
    so c1 = 0 there too.
    """
    coeffs = p.coeffs
    big_l = -min(coeffs)
    if big_l <= 1:
        return 0.0
    next_ratio = coeffs.get(1 - big_l, 0) / coeffs[-big_l]
    kappa = math.sqrt(2) * (big_l / 3 + float(next_ratio))
    return kappa * math.gamma(big_l / 2) / math.gamma((big_l - 1) / 2)
