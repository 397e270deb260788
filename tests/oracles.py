"""Independent reference computations for the test suite.

These deliberately use the dumbest correct method available (full tuple
enumeration, direct convolutions) so they share no code path with the
implementations they check.  Every route that enumerates permutations or
trees lives here, none in the library: permutation products and cycles,
the elements of a conjugacy class, and labeled trees by Pruefer
decoding.  The Fraction series product, inverse and exp recurrences, the
A_n sum, the defining convolution for A_n and the integer Horner loop
for A_n below are the library's former routes, kept here as references
for its integer kernels; so are the two former covering-count routes
(the class-level dynamic program and the cut-and-join recursion) and the
Murnaghan-Nakayama recursion on shapes, references for the character
table of `covercount.monodromy` and the beta-set characters of
`covercount.symmetric`.  The former shape table, its dimensions from the
beta-set formula and its content sums box by box, checks the
branching-rule `covercount.symmetric.shape_table`, and the former pass
from the leaves checks the one-step columns of
`covercount.symmetric.character_column`.  The former tuple-by-tuple
expansion of a bracket checks `covercount.gravity._bracket_terms`, and
the Goulden-Jackson-Vakil one-part formula checks the count table at
frontier sizes.
The binomial expansion over powers of Y and Z, with each Z^i solved over
the spanning list Z, Z^2, DZ, D(Z^2), ..., is the former closed-form route
to [q^n] of a Laurent polynomial in X, the reference for the X-power
recurrence of `covercount.algebra`; the closed form k n^(n-k-1)/(n-k)!
for Y^k is compared with `series_y(order) ** k`, and `log_leading`
evaluates a leading term `constant * e^n * n^(gamma-1)` in floats for the
numeric asymptotic checks.  The Gauss-Jordan solver over every row checks
`covercount.exact.solve_exact`.  The Fraction Painleve I recursion checks
the integer one of `covercount.gravity.painleve_solve`, whose e_g rebuild
u through `painleve_u` for the residual of u^2 + u''/6 = 2y
(`painleve_residual`), and the string equation plus the
Dijkgraaf-Verlinde-Verlinde recursion is a route to psi-class brackets
that shares no code with the coverings.  The closed-form distance
histogram of marked tree pairs, the former route of `covercount.trees`, is
checked by Pruefer enumeration and checks the Z-power rows of that module;
the recursive Stirling numbers check its surjection triangle through the
moments m_{n,k}.  The substitution Z = X^(-1) - 1 into a `ZPoly`
(`zpoly_to_laurent`), its reverse from a `LaurentPolyX` (`laurent_to_zpoly`)
and the normal form on the series Y and Z (`normal_form_series`) are the
library's former conversions, and the partitions of n in reverse-lex order
(`partitions_of`) and D^k (Z^2) as a `ZPoly` (`dkz2_poly`) are former
library functions that only tests read.  The spanning list D^k (Z^a) built
by D on `LaurentPolyX` (`dk_laurent`), and Z^k solved over it on X^(-d)
coefficients (`zpower_in_basis_x`), are the former X-route that checks the
integer Z-coefficient recurrence behind `dkz_poly` and `zpower_in_basis`.
`table_connected` reads a count off a fill of the count table, the route
that counts of genus 0 or 1 with at most one profile leave for the closed
forms of Hurwitz and Vakil.  The
sparse series in the KP times (`kp_derivative`, `kp_product`,
`kp_residual`) evaluate the first KP equation on the free energy of the
count table, an identity among its own outputs across profiles and genera.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from covercount import monodromy
from covercount.algebra import (
    LaurentPolyX,
    ZPoly,
    dkz_poly,
    series_y,
    series_z,
    y_over_q_power,
    zpower_in_basis,
)
from covercount.errors import BudgetExceeded, ConsistencyError, Record
from covercount.exact import LinearSolution, LinearSystem, TruncatedSeries
from covercount.gravity import tau_coefficient
from covercount.hurwitz_series import normal_form_prefactor
from covercount.symmetric import Partition, conjugacy_class_size, shape_table

# ---------------------------------------------------------------------------
# permutations
#
# A permutation is a tuple p of length n with p[i] = image of i (0-based);
# products compose left to right, (p * q)(x) = q(p(x)), the monodromy
# convention where factors act in tuple order.


def all_transpositions(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            p = list(range(n))
            p[i], p[j] = p[j], p[i]
            out.append(tuple(p))
    return out


def perm_mult(p, q):
    """Left-to-right product: x -> q(p(x))."""
    return tuple(q[p[x]] for x in range(len(p)))


def perm_cycles(p):
    """The cycles of p, fixed points included, each from its smallest point;
    their lengths are the cycle type."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def perm_from_cycle_lengths(lengths, n):
    """A canonical representative with the given nontrivial cycle lengths."""
    assert sum(lengths) <= n, "cycle lengths exceed n"
    p = list(range(n))
    pos = 0
    for l in lengths:
        for i in range(l - 1):
            p[pos + i] = pos + i + 1
        p[pos + l - 1] = pos
        pos += l
    return tuple(p)


def perms_of_type(n, lengths):
    """All of S_n whose nontrivial cycle lengths match (slow: scans n!)."""
    want = sorted([l for l in lengths if l >= 2], reverse=True)
    out = []
    for p in permutations(range(n)):
        got = sorted([len(c) for c in perm_cycles(p) if len(c) >= 2], reverse=True)
        if got == want:
            out.append(p)
    return out


def class_elements(n, lengths):
    """Every permutation of S_n whose nontrivial cycles have the given lengths.

    Supports are chosen first, then the support is split into cycles with the
    smallest remaining element anchoring each cycle, which visits each
    permutation exactly once (equal lengths included).
    """
    lengths = sorted((l for l in lengths if l >= 2), reverse=True)
    m = sum(lengths)
    if m > n:
        return

    def cycle_sets(elems, ps):
        if not ps:
            yield []
            return
        first = elems[0]
        seen = set()
        for i, l in enumerate(ps):
            if l in seen:
                continue
            seen.add(l)
            rest_ps = ps[:i] + ps[i + 1 :]
            for companions in combinations(elems[1:], l - 1):
                comp = set(companions)
                remaining = tuple(x for x in elems[1:] if x not in comp)
                for arr in permutations(companions):
                    for tail in cycle_sets(remaining, rest_ps):
                        yield [(first,) + arr] + tail

    for support in combinations(range(n), m):
        for cycs in cycle_sets(support, lengths):
            p = list(range(n))
            for cyc in cycs:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    p[a] = b
            yield tuple(p)


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
            prod = perm_mult(prod, t)
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
            prod = perm_mult(prod, t)
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


def series_exp_fractions(a):
    """exp of a coefficient list with a zero constant term.

    The Fraction recursion n e_n = sum_k k a_k e_{n-k}.
    """
    e = [Fraction(1)]
    for n in range(1, len(a)):
        s = sum((k * a[k] * e[n - k] for k in range(1, n + 1) if a[k] != 0), Fraction(0))
        e.append(s / n)
    return e


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


def seq_a_convolution(nmax):
    """A_1..A_nmax by the defining convolution sum_{p+q=n} n!/(p! q!) p^p q^q
    (p, q >= 1), O(n^2) terms in all; the former `covercount.algebra.seq_a`."""
    return [
        sum(math.comb(n, p) * p**p * (n - p) ** (n - p) for p in range(1, n))
        for n in range(1, nmax + 1)
    ]


def a_closed_horner(n):
    """A_n by integer Horner: P_k = sum_{j<=k} n^j k!/j! obeys
    P_k = k P_{k-1} + n^k, and A_n = n (n-1) P_{n-2}."""
    if n < 2:
        return 0
    p = 1
    power = 1  # n^k
    for k in range(1, n - 1):
        power *= n
        p = k * p + power
    return n * (n - 1) * p


@lru_cache(maxsize=None)
def _zpower_combination(k):
    return tuple(zpower_in_basis(k))


def laurent_coefficient_spanning(p, n):
    """[q^n] of a Laurent polynomial p in X through powers of Y and Z.

    X^j = (1 - Y)^j for j >= 0 and (1 + Z)^(-j) for j < 0, expanded by
    binomials.  n! [q^n] Y^i = i n^(n-i) (n-1)!/(n-i)!.  Z^i is written over
    the spanning list Z, Z^2, DZ, D(Z^2), ... (`zpower_in_basis`), where
    D^k Z contributes n^(n+k) and D^k(Z^2) contributes n^k A_n.
    """
    a_n = a_closed_horner(n)
    total = Fraction(0)
    for j, c in p.coeffs.items():
        for i in range(abs(j) + 1):
            weight = c * math.comb(abs(j), i)
            if i == 0:
                total += weight * (n == 0)
            elif j > 0:
                if n >= i:
                    total += weight * (-1) ** i * i * n ** (n - i) * math.perm(n - 1, i - 1)
            elif n >= 1:
                for idx, coef in enumerate(_zpower_combination(i)):
                    k = idx // 2
                    total += weight * coef * (n ** (n + k) if idx % 2 == 0 else n**k * a_n)
    return total / math.factorial(n)


def ypower_closed(k, order):
    """Y^k = q^k (Y/q)^k, coefficients k n^{n-k-1}/(n-k)! (zero below q^k);
    the library's former closed form for Y^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shifted = enumerate(y_over_q_power(k, max(order - k, 0)).nums, start=k)
    nums = [0] * k + [math.perm(n, k) * x for n, x in shifted]
    return TruncatedSeries.from_egf(nums[: order + 1])


def dk_laurent(a, k):
    """D^k (Z^a) as a `LaurentPolyX`: D applied k times to (X^(-1) - 1)^a, the
    library's former route to the spanning list."""
    p = LaurentPolyX({-1: 1, 0: -1}) ** a
    for _ in range(k):
        p = p.euler_d()
    return p


def laurent_to_zpoly(p):
    """Rewrite a `LaurentPolyX` as a `ZPoly`; requires support <= 0.
    X^{-j} = (1+Z)^j.  The library's former `LaurentPolyX.to_zpoly`."""
    if any(j > 0 for j in p.coeffs):
        raise ValueError("element has positive X powers; it is not a polynomial in Z")
    out = [Fraction(0)] * (1 - min(p.coeffs, default=0))
    for j, c in p.coeffs.items():
        for i in range(1 - j):
            out[i] += c * math.comb(-j, i)
    return ZPoly(out)


def dkz2_poly(k):
    """D^k (Z^2) as a `ZPoly`, leading coefficient (2k)!! on Z^(2k+2), on the
    X-route (`dk_laurent`); the library's former `dkz2_poly`."""
    return laurent_to_zpoly(dk_laurent(2, k))


def zpower_in_basis_x(k):
    """Z^k over the first k spanning elements, solved by `gauss_jordan` on their
    X^(-d) coefficients (`dk_laurent`) against those of (X^(-1) - 1)^k: the
    library's former route to `zpower_in_basis`."""
    basis = [dk_laurent(i % 2 + 1, i // 2).coeffs for i in range(k)]
    rows = [[p.get(-d, 0) for p in basis] for d in range(k + 1)]
    rhs = [(-1) ** (k - d) * math.comb(k, d) for d in range(k + 1)]
    return list(gauss_jordan(LinearSystem(rows, rhs)).solution)


def zbasis_element(i):
    """Element i of the spanning list Z, Z^2, DZ, D(Z^2), D^2 Z, ..."""
    return dkz_poly(i // 2) if i % 2 == 0 else dkz2_poly(i // 2)


def zpoly_to_laurent(z):
    """Substitute Z = X^{-1} - 1 into a `ZPoly`: Z^i = sum_k C(i, k) (-1)^(i-k) X^{-k}.

    The inverse of `laurent_to_zpoly`; the library's former `ZPoly.to_laurent`.
    """
    out = {}
    for i, c in enumerate(z.coeffs):
        for k in range(i + 1):
            out[-k] = out.get(-k, 0) + c * ((-1) ** (i - k) * math.comb(i, k))
    return LaurentPolyX(out)


def normal_form_series(phi, order):
    """The normal form prefactor * Y^m (Z+1)^(2g-2+p) phi(Z) of a `PhiPolynomial`.

    Built by multiplying the series Y and Z, a route the library no longer
    takes: `fit_phi` reads its columns off X-power rows, so this product is
    the independent cross-check.
    """
    mu = phi.mu
    y, z = series_y(order), series_z(order)
    phi_z = TruncatedSeries.zero(order)
    for c in reversed(phi.poly.coeffs):
        phi_z = phi_z * z + c
    chi = 2 * phi.g - 2 + mu.num_parts
    return phi_z * y**mu.m * (z + 1) ** chi * normal_form_prefactor(mu)


def gauss_jordan(system):
    """The library's former solver: Gauss-Jordan over every row, in Fractions.

    Pivots on the entry of largest |numerator| in the column; rows left
    below the pivots must have a zero right side.
    """
    rows = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(system.matrix, system.rhs)]
    n_rows = len(rows)
    n_cols = len(system.matrix[0]) if n_rows else 0
    piv_rows = []  # (row index, pivot column)
    piv = 0
    for col in range(n_cols):
        best = None
        for i in range(piv, n_rows):
            v = rows[i][col]
            if v != 0 and (best is None or abs(v.numerator) > abs(rows[best][col].numerator)):
                best = i
        if best is None:
            continue
        rows[piv], rows[best] = rows[best], rows[piv]
        pv = rows[piv][col]
        for i in range(n_rows):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col] / pv
                for j in range(col, n_cols + 1):
                    rows[i][j] -= f * rows[piv][j]
        piv_rows.append((piv, col))
        piv += 1
        if piv == n_rows:
            break
    for i in range(piv, n_rows):
        if rows[i][n_cols] != 0:
            return LinearSolution("inconsistent")
    if len(piv_rows) < n_cols:
        return LinearSolution("underdetermined")
    sol = [Fraction(0)] * n_cols
    for i, col in piv_rows:
        sol[col] = rows[i][n_cols] / rows[i][col]
    return LinearSolution("unique", tuple(sol))


# ---------------------------------------------------------------------------
# Painleve I and psi-class brackets


def painleve_residual(terms, t):
    """Coefficient of s^t in u^2 + u''/6 - 2y, for u = sum terms[k] s^k.

    The y-derivative acts as -s^3 d/ds, so a term a s^k contributes
    k(k+2) a s^{k+4} to u''; 2y itself is s^{-2}.  The library's former
    `PainleveSeries.residual_coefficient`.
    """
    r = Fraction(0)
    for k1, a1 in terms.items():
        k2 = t - k1
        if k2 < k1:
            continue
        a2 = terms.get(k2)
        if a2 is not None:
            r += a1 * a2 * (1 if k1 == k2 else 2)
    k = t - 4
    if k in terms:
        r += Fraction(k * (k + 2), 6) * terms[k]
    if t == -2:
        r -= 1
    return r


def painleve_u(e):
    """u = sum_g a_g s^{5g-1} from the constants e_g: a_0 = -1, a_1 = 1/12
    and a_g = (5-5g)(3-5g) e_g."""
    terms = {-1: Fraction(-1), 4: Fraction(1, 12)}
    for g, e_g in e.items():
        terms[5 * g - 1] = (5 - 5 * g) * (3 - 5 * g) * e_g
    return terms


def painleve_fractions(g_max):
    """The library's former Painleve I route, in Fractions: {g: e_g}.

    u = -s^-1 + (1/12) s^4 + sum_{g>=2} a_g s^{5g-1}; adding a s^{5g-1}
    shifts the residual at s^{5g-2} by -2a, so a_g is half the residual of
    the series solved so far.  e_g = a_g / ((5-5g)(3-5g)); every residual
    order below the first unsolved one, s^{5(g_max+1)-2}, is then checked
    to vanish.
    """
    terms = {-1: Fraction(-1), 4: Fraction(1, 12)}
    e = {}
    for g in range(2, g_max + 1):
        a = painleve_residual(terms, 5 * g - 2) / 2
        e[g] = a / ((5 - 5 * g) * (3 - 5 * g))
        terms[5 * g - 1] = a
    for t in range(-2, 5 * (g_max + 1) - 2):
        if painleve_residual(terms, t) != 0:
            raise ConsistencyError(f"Painleve residual is nonzero at s^{t}")
    return e


def _odd_double_factorial(k):
    """(2k+1)!!, with (-1)!! = 1."""
    return math.prod(range(1, 2 * k + 2, 2))


def _splits(ds):
    """(I, J, weight) over the ways to cut the multiset ds in two labeled
    parts; weight = prod_d C(m_d, i_d) counts the subsets of each shape."""
    counts = sorted(Counter(ds).items())
    for taken in product(*[range(m + 1) for _, m in counts]):
        left, right, weight = [], [], 1
        for (d, m), i in zip(counts, taken):
            left += [d] * i
            right += [d] * (m - i)
            weight *= math.comb(m, i)
        yield tuple(left), tuple(right), weight


@lru_cache(maxsize=None)
def dvv_bracket(g, ds):
    """<tau_{d_1} ... tau_{d_p}>_g for a sorted tuple ds, by the string
    equation and the Dijkgraaf-Verlinde-Verlinde recursion (DVV 1991):

    (2k+3)!! <tau_{k+1} tau_S>_g
        = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_{d_j+k} tau_{S-j}>_g
        + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! (<tau_r tau_s tau_S>_{g-1}
              + sum_{g1+g2=g, I+J=S} <tau_r tau_I>_{g1} <tau_s tau_J>_{g2}),

    from <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; unstable and
    dimension-invalid brackets are zero.
    """
    p = len(ds)
    if g < 0 or 2 * g - 2 + p <= 0 or sum(ds) != 3 * g - 3 + p:
        return Fraction(0)
    if (g, ds) in ((0, (0, 0, 0)), (1, (1,))):
        return Fraction(1) if g == 0 else Fraction(1, 24)
    if ds[0] == 0:
        rest = ds[1:]
        return sum(
            (
                dvv_bracket(g, tuple(sorted(rest[:j] + (d - 1,) + rest[j + 1 :])))
                for j, d in enumerate(rest)
                if d
            ),
            Fraction(0),
        )
    k, rest = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        weight = Fraction(_odd_double_factorial(k + d), _odd_double_factorial(d - 1))
        total += weight * dvv_bracket(g, tuple(sorted(rest[:j] + (d + k,) + rest[j + 1 :])))
    for r in range(k):
        s = k - 1 - r
        pair = Fraction(_odd_double_factorial(r) * _odd_double_factorial(s), 2)
        inner = dvv_bracket(g - 1, tuple(sorted(rest + (r, s))))
        for left, right, weight in _splits(rest):
            # the dimension constraint leaves one genus for <tau_r tau_I>
            g1, rem = divmod(sum(left) + r + 2 - len(left), 3)
            if not rem and 0 <= g1 <= g:
                inner += weight * (
                    dvv_bracket(g1, tuple(sorted(left + (r,))))
                    * dvv_bracket(g - g1, tuple(sorted(right + (s,))))
                )
        total += pair * inner
    return total / _odd_double_factorial(k + 1)


def bracket_terms_by_tuples(ds):
    """The former ``gravity._bracket_terms`` route: expand prod_i tau_{d_i}
    over every tuple of preimage multiplicities b_i in 1..d_i+1, one tuple
    at a time: {sorted b: summed coefficient}, zero coefficients dropped."""
    consts = {}
    for bs in product(*[range(1, d + 2) for d in ds]):
        coeff = Fraction(1)
        for d, b in zip(ds, bs):
            coeff *= tau_coefficient(d, b)
        mu = tuple(sorted(bs, reverse=True))
        consts[mu] = consts.get(mu, Fraction(0)) + coeff
    return {mu: const for mu, const in consts.items() if const != 0}


# ---------------------------------------------------------------------------
# labeled trees by Pruefer decoding


class LabeledTree(Record):
    """A tree on vertices 1..n given by its n-1 edges; validated on build."""

    n: int
    edges: tuple

    def _validate(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.edges) != self.n - 1:
            raise ValueError("a tree on n vertices has n-1 edges")
        adj = self.adjacency()
        seen = [False] * (self.n + 1)
        stack = [1]
        seen[1] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        if count != self.n:
            raise ValueError("edge list is not connected")
        # connected with n-1 edges implies acyclic

    def adjacency(self):
        adj = [[] for _ in range(self.n + 1)]
        for a, b in self.edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def distances_from(self, root):
        adj = self.adjacency()
        dist = [-1] * (self.n + 1)
        dist[root] = 0
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist


def tree_from_pruefer(seq, n):
    """Decode a Pruefer sequence over {1..n} (length n-2) into a tree."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    # leaves kept in a min-ordered scan; classic O(n^2) decode is fine at n <= 8
    used = [False] * (n + 1)
    for v in seq:
        for leaf in range(1, n + 1):
            if degree[leaf] == 1 and not used[leaf]:
                edges.append((leaf, v))
                used[leaf] = True
                degree[v] -= 1
                break
    last = [v for v in range(1, n + 1) if not used[v] and degree[v] == 1]
    edges.append((last[0], last[1]))
    return LabeledTree(n, tuple(edges))


# the largest n whose n^(n-2) Pruefer sequences are enumerated (262,144 at 8)
ENUMERATION_LIMIT = 8


def enumerate_trees(n):
    """Stream all labeled trees on n vertices (n^{n-2} of them for n >= 2);
    n above ENUMERATION_LIMIT is refused."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise BudgetExceeded(f"tree enumeration for n={n} exceeds {ENUMERATION_LIMIT}")
    if n == 1:
        yield LabeledTree(1, ())
        return
    if n == 2:
        yield LabeledTree(2, ((1, 2),))
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def pruefer_distance_histogram(n):
    """hist[l] over all labeled trees on n vertices, by Pruefer enumeration.

    Counts ordered pairs (a, b), a != b, at distance l in every tree, the
    reference for `distance_histogram`.
    """
    hist = [0] * n
    for tree in enumerate_trees(n):
        for a in range(1, n + 1):
            dist = tree.distances_from(a)
            for b in range(1, n + 1):
                if b != a:
                    hist[dist[b]] += 1
    return tuple(hist)


def distance_histogram(n):
    """hist[l] = number of (tree, ordered pair (a, b), a != b) at distance l.

    Closed form: the a-b path is one of n!/(n-l-1)! sequences of l+1
    distinct vertices, and the trees containing it are the rooted forests
    with those l+1 roots, (l+1) n^(n-l-1) / n of them (one when l = n-1).
    The former route of `covercount.trees`, a second route to its rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (0,) + tuple(math.perm(n, l + 1) * (l + 1) * n ** (n - l - 1) // n for l in range(1, n))


def histogram_p(n, k):
    """p_{n,k} = sum_l hist[l] C(l, k) over the closed-form histogram."""
    return sum(count * math.comb(l, k) for l, count in enumerate(distance_histogram(n)))


def histogram_m(n, k):
    """m_{n,k} = sum_l hist[l] l^k over the closed-form histogram."""
    return sum(count * l**k for l, count in enumerate(distance_histogram(n)))


def stirling_second(k, j):
    """Partition-count Stirling numbers S(k, j)."""
    if j > k or j < 0:
        return 0
    if k == 0:
        return 1 if j == 0 else 0
    return j * stirling_second(k - 1, j) + stirling_second(k - 1, j - 1)


def moment_from_binomials(k, p):
    """m_{n,k} recomputed as sum_j S(k,j) j! p_{n,j}, with p[j - 1] = p_{n,j};
    independent route."""
    return sum(stirling_second(k, j) * math.factorial(j) * p[j - 1] for j in range(1, k + 1))


def log_leading(term, n):
    """log of the leading term constant * e^n * n^(gamma - 1) of an
    `AsymptoticTerm`, with gamma = gamma2 / 2."""
    return term.constant.log() + n + (term.gamma2 / 2 - 1) * math.log(n)


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


def partitions_of(n):
    """The partitions of n in reverse-lex order, largest first part first;
    the library's former ``partitions_of``."""

    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


def irrep_dimension(shape: Partition) -> int:
    """chi(identity) = n! prod_{i<j} (b_i - b_j) / prod_i b_i! over the
    beta-set b_i = lambda_i + rows - 1 - i of the shape."""
    beta = [b + len(shape) - 1 - i for i, b in enumerate(shape.parts)]
    num, den = math.factorial(shape.m), 1
    for i, b in enumerate(beta):
        den *= math.factorial(b)
        for a in beta[i + 1 :]:
            num *= b - a
    return num // den


def shape_table_from_partitions(n):
    """The former ``shape_table`` route: the shapes of ``partitions_of(n)``
    in order, their beta-sets with n beads as bit masks, the dimensions by
    the formula above, and the content sums sum (j - i) over the boxes
    (i, j), row i and column j from 0."""
    shapes = list(partitions_of(n))
    masks = tuple(
        sum(1 << (b + n - 1 - i) for i, b in enumerate(s.parts)) | (1 << n - len(s)) - 1
        for s in shapes
    )
    contents = tuple(
        sum(j - i for i, b in enumerate(s.parts) for j in range(b)) for s in shapes
    )
    return masks, tuple(map(irrep_dimension, shapes)), contents


def character_column_from_leaves(m, parts):
    """The former ``character_column`` route: one Murnaghan-Nakayama pass
    from the leaves.  Each shape of m - |parts| starts with its dimension,
    gains |parts| beads at the bottom and moves one bead up by each part in
    turn, with the rim-hook sign (-1)^(beads strictly between), so every
    shape of m collects its whole signed sum."""
    pad = sum(parts)
    masks, dims = shape_table(m - pad)[:2]
    layer = {mask << pad | (1 << pad) - 1: dim for mask, dim in zip(masks, dims)}
    for k in parts:
        nxt = {}
        for mask, w in layer.items():
            beads = mask
            while beads:
                low = beads & -beads
                beads ^= low
                high = low << k
                if not mask & high:
                    odd = (mask & (high - (low << 1))).bit_count() & 1
                    moved = mask ^ low ^ high
                    nxt[moved] = nxt.get(moved, 0) + (-w if odd else w)
        layer = nxt
    return [layer.get(mask, 0) for mask in shape_table(m)[0]]


@lru_cache(maxsize=None)
def mn_character(shape, content):
    """Murnaghan-Nakayama recursion on part tuples: strip one border ribbon
    of the first content entry from the shape, with sign (-1)^height.

    A ribbon of size k spanning rows i..j leaves row t at shape[t+1]-1 for
    i <= t < j and row j at shape[i]-k+(j-i); the removal is admissible
    exactly when the resulting vector is again a partition.
    """
    if not content:
        return 1
    k = content[0]
    rest = content[1:]
    total = 0
    rows = len(shape)
    for i in range(rows):
        for j in range(i, rows):
            newshape = list(shape)
            for t in range(i, j):
                newshape[t] = shape[t + 1] - 1
            newshape[j] = shape[i] - k + (j - i)
            if newshape[j] < 0:
                continue
            if any(newshape[t] < newshape[t + 1] for t in range(rows - 1)):
                continue
            trimmed = tuple(x for x in newshape if x > 0)
            total += (-1) ** (j - i) * mn_character(trimmed, rest)
    return total


# ---------------------------------------------------------------------------
# class-level dynamic program over monodromy tuples
#
# A configuration is (running product, partition of the points into the
# connected blocks merged so far); its class records, per block, the cycle
# type of the product restricted to that block: a tuple of blocks, each a
# weakly decreasing tuple of cycle lengths, blocks sorted descending.  Every
# step multiplies by a whole conjugacy class (one per profile after the
# first, then one transposition per simple point).  Conjugating a
# configuration and the class together shows that the number of ways into
# each target class depends only on the source class, and the accepting
# class (identity product, one block) holds one configuration, so class
# paths count tuples exactly.


def canon(blocks):
    return tuple(sorted((tuple(sorted(b, reverse=True)) for b in blocks), reverse=True))


def _transposition_moves(state):
    """All single-transposition moves out of a class, with multiplicities."""
    nb = len(state)
    counts = [Counter(b) for b in state]
    out = {}

    def emit(others, block, ways):
        target = tuple(sorted(others + (tuple(sorted(block, reverse=True)),), reverse=True))
        out[target] = out.get(target, 0) + ways

    for i, b in enumerate(state):
        others = state[:i] + state[i + 1 :]
        cnt = counts[i]
        # both points in one cycle: the cycle splits
        for l, mult in cnt.items():
            if l < 2:
                continue
            for d in range(1, l // 2 + 1):
                ways = (l // 2 if 2 * d == l else l) * mult
                nb2 = list(b)
                nb2.remove(l)
                nb2.extend((d, l - d))
                emit(others, nb2, ways)
        # points in two different cycles of the same block: cycles merge
        lengths = sorted(cnt)
        for ai in range(len(lengths)):
            for bi in range(ai, len(lengths)):
                l1, l2 = lengths[ai], lengths[bi]
                if l1 == l2:
                    mult = cnt[l1]
                    if mult < 2:
                        continue
                    ways = (mult * (mult - 1) // 2) * l1 * l2
                else:
                    ways = cnt[l1] * cnt[l2] * l1 * l2
                nb2 = list(b)
                nb2.remove(l1)
                nb2.remove(l2)
                nb2.append(l1 + l2)
                emit(others, nb2, ways)
    # points in different blocks: blocks merge through the touched cycles
    for i in range(nb):
        for j in range(i + 1, nb):
            rest = tuple(state[t] for t in range(nb) if t not in (i, j))
            for l1, m1 in counts[i].items():
                for l2, m2 in counts[j].items():
                    merged = list(state[i])
                    merged.remove(l1)
                    tail = list(state[j])
                    tail.remove(l2)
                    merged.extend(tail)
                    merged.append(l1 + l2)
                    emit(rest, merged, m1 * l1 * m2 * l2)
    return out


def _class_moves(state, nu):
    """All moves out of a class by one element of the class of type nu, by
    multiplying one configuration of the state by every element."""
    lengths = [l for b in state for l in b]
    n = sum(lengths)
    rep = perm_from_cycle_lengths(lengths, n)  # cycles laid out block by block
    owner = [i for i, b in enumerate(state) for _ in range(sum(b))]
    out = {}

    def find(a):  # union-find over the blocks of the representative
        while parent[a] != a:
            a = parent[a]
        return a

    for sigma in class_elements(n, nu):
        parent = list(range(len(state)))
        for x in range(n):
            if sigma[x] != x:
                parent[find(owner[x])] = find(owner[sigma[x]])
        blocks = {}
        for cyc in perm_cycles(perm_mult(rep, sigma)):
            blocks.setdefault(find(owner[cyc[0]]), []).append(len(cyc))
        target = canon(blocks.values())
        out[target] = out.get(target, 0) + 1
    return out


@lru_cache(maxsize=None)
def dp_moves(state, nu):
    """{target class: ways} for one step by the class of type nu."""
    return _transposition_moves(state) if nu == (2,) else _class_moves(state, nu)


def dp_start(n, parts):
    """{class: configurations} of the first profile alone: one block per cycle."""
    parts = tuple(b for b in parts if b >= 2)
    blocks = [[b] for b in parts] + [[1]] * (n - sum(parts))
    return {canon(blocks): conjugacy_class_size(Partition(parts), n)}


def dp_walk(start, nus, steps):
    """The class vector after one step per class type in nus, then `steps`
    transposition steps."""
    vec = dict(start)
    for nu in list(nus) + [(2,)] * steps:
        new = Counter()
        for state, weight in vec.items():
            for target, ways in dp_moves(state, nu).items():
                new[target] += weight * ways
        vec = new
    return vec


def class_dp_connected(g, n, mus):
    """Weighted connected covering count by the class DP (at least one
    profile: a spec without one is counted through the marked profile (1),
    which multiplies it by n)."""
    r = sum(sum(b - 1 for b in mu) for mu in mus)
    c = 2 * n + 2 * g - 2 - r
    weight = 1
    for mu in mus:
        moved = sum(b for b in mu if b >= 2)
        weight *= math.comb(n - moved, sum(1 for b in mu if b == 1))
    nus = [tuple(b for b in mu if b >= 2) for mu in mus]
    vec = dp_walk(dp_start(n, nus[0]), nus[1:], c)
    return Fraction(weight * vec.get(((1,) * n,), 0), math.factorial(n))


def table_connected(spec):
    """hurwitz_connected of a spec read off a fill of the count table
    (`covercount.monodromy._fill`) at the spec's table entry.  Counts of
    genus 0 or 1 with at most one profile take the closed form
    (`covercount.monodromy._closed_entries`: Hurwitz's formula at genus 0,
    Vakil's at genus 1) instead of the table, so this is the second route
    to them."""
    n, nu, c = monodromy._table_key(spec)
    row = monodromy._fill(n, nu, c, monodromy._rows(n, monodromy._plan(nu)))
    return Fraction(spec.marking_weight() * row[c], math.factorial(n))


# ---------------------------------------------------------------------------
# cut-and-join recursion (Goulden-Jackson, Proc. AMS 125, 1997)


def cut_join_table(g, n):
    """{(h, nu): F(h, nu)} for every h <= g and every partition nu of k <= n,
    1-parts included: the tuples (tau_1..tau_r) of transpositions with
    sigma tau_1 ... tau_r = id and <sigma, tau_1..tau_r> transitive, for one
    fixed sigma of full cycle type nu, where r = 2h - 2 + |nu| + len(nu).

    The first transposition either joins two cycles of sigma (same genus) or
    cuts one; after a cut the remaining transpositions act either
    transitively (genus one lower) or on exactly two orbits, one holding each
    piece, which share out the other cycles, the genus and the remaining
    transpositions.  Filled in whole cells (every nu of one size at one
    genus), fewest parts first, so every entry read is already in.
    """
    table = {}

    def desc(parts):
        return tuple(sorted(parts, reverse=True))

    def splits(counts):
        """(left parts, right parts, ways to choose the left cycles)."""
        sizes = list(counts)
        for picks in product(*(range(counts[l] + 1) for l in sizes)):
            left, right, ways = [], [], 1
            for l, j in zip(sizes, picks):
                left += [l] * j
                right += [l] * (counts[l] - j)
                ways *= math.comb(counts[l], j)
            yield left, right, ways

    def entry(h, nu):
        if nu == (1,):
            return int(h == 0)
        r = 2 * h - 2 + sum(nu) + len(nu)
        cnt = Counter(nu)
        lengths = sorted(cnt)
        total = 0
        # tau_1 joins a cycle of length l1 with one of length l2
        for ai, l1 in enumerate(lengths):
            for l2 in lengths[ai:]:
                pairs = cnt[l1] * (cnt[l1] - 1) // 2 if l1 == l2 else cnt[l1] * cnt[l2]
                if pairs:
                    rest = list(nu)
                    rest.remove(l1)
                    rest.remove(l2)
                    total += pairs * l1 * l2 * table[h, desc(rest + [l1 + l2])]
        # tau_1 cuts a cycle of length l into pieces d and l - d
        for l in lengths:
            if l < 2:
                continue
            rest = list(nu)
            rest.remove(l)
            rest_splits = list(splits(Counter(rest)))
            for d in range(1, l // 2 + 1):
                ways = cnt[l] * (l // 2 if 2 * d == l else l)
                # tau_2..tau_r act transitively: tau_1 closes a handle
                sub = table[h - 1, desc(rest + [d, l - d])] if h > 0 else 0
                # two orbits, one per piece; C(r - 1, r1) interleaves them
                for left, right, choose in rest_splits:
                    a, b = desc(left + [d]), desc(right + [l - d])
                    size_a = sum(a) + len(a)
                    for h1 in range(h + 1):
                        r1 = 2 * h1 - 2 + size_a
                        sub += choose * math.comb(r - 1, r1) * table[h1, a] * table[h - h1, b]
                total += ways * sub
        return total

    for k in range(1, n + 1):
        for h in range(g + 1):
            for nu in sorted((p.parts for p in partitions_of(k)), key=len):
                table[h, nu] = entry(h, nu)
    return table


def cut_join_connected(g, n, mu, table):
    """Weighted connected count of (g, n; mu) read from a cut-and-join table
    that covers (g, n)."""
    sigma = tuple(b for b in mu if b >= 2)
    nu = sigma + (1,) * (n - sum(sigma))
    weight = math.comb(n - sum(sigma), sum(1 for b in mu if b == 1))
    count = conjugacy_class_size(Partition(sigma), n) * table[g, nu]
    return Fraction(weight * count, math.factorial(n))


# ---------------------------------------------------------------------------
# one-part double Hurwitz numbers


def gjv_one_part(g, beta):
    """Connected genus-g coverings with one point of full ramification (d)
    and one of profile beta |- d, by the Goulden-Jackson-Vakil formula
    ("Towards the geometry of double Hurwitz numbers", Adv. Math. 198, 2005):

        H^g_{(d),beta} = r! d^(r-1) [t^(2g)] prod_i S(beta_i t) / S(t),

    S(t) = sinh(t/2) / (t/2) and r = 2g - 1 + l(beta) simple points.  For
    beta = 1^d this is Shapiro-Shapiro-Vainshtein (1997).  The series run
    in u = t^2: S(x t) = sum_k x^(2k) u^k / (4^k (2k+1)!)."""
    d, r = sum(beta), 2 * g - 1 + len(beta)

    def s_series(x):
        return [Fraction(x ** (2 * k), 4**k * math.factorial(2 * k + 1)) for k in range(g + 1)]

    prod = series_inverse(s_series(1))
    for b in beta:
        prod = cauchy_product(prod, s_series(b))
    return math.factorial(r) * Fraction(d) ** (r - 1) * prod[g]


# ---------------------------------------------------------------------------
# the first KP equation on sparse series (Okounkov, "Toda equations for
# Hurwitz numbers", Math. Res. Lett. 7, 2000: exp F is a KP tau function)
#
# A series is {(parts, c): coefficient} for the monomials
# t_{parts_1} t_{parts_2} ... beta^c, parts weakly decreasing.


def kp_derivative(series, k):
    """d/dt_k of a sparse series."""
    out = {}
    for (parts, c), x in series.items():
        if k in parts:
            i = parts.index(k)
            key = (parts[:i] + parts[i + 1 :], c)
            out[key] = out.get(key, 0) + parts.count(k) * x
    return out


def kp_product(a, b, keep):
    """a b on the monomials (parts, c) for which keep(parts, c) holds; keep
    must hold on every divisor of a kept monomial."""
    a, b = ({key: x for key, x in s.items() if keep(*key)} for s in (a, b))
    out = {}
    for (pa, ca), x in a.items():
        for (pb, cb), y in b.items():
            parts, c = tuple(sorted(pa + pb, reverse=True)), ca + cb
            if keep(parts, c):
                out[parts, c] = out.get((parts, c), 0) + x * y
    return out


def kp_residual(series, keep):
    """F_1111 + 6 F_11^2 + 3 F_22 - 4 F_13, F_ij = d^2 F / dt_i dt_j: every
    kept monomial that one of the four terms reaches, zero or not."""
    f11 = kp_derivative(kp_derivative(series, 1), 1)
    terms = [
        (1, kp_derivative(kp_derivative(f11, 1), 1)),
        (6, kp_product(f11, f11, keep)),
        (3, kp_derivative(kp_derivative(series, 2), 2)),
        (-4, kp_derivative(kp_derivative(series, 1), 3)),
    ]
    out = {}
    for w, term in terms:
        for key, x in term.items():
            if keep(*key):
                out[key] = out.get(key, 0) + w * x
    return out
