"""Exact counts of marked coverings of the sphere, from characters of S_n.

A covering with ramification data (g, n; mu_1..mu_k) corresponds to a tuple
(sigma_1..sigma_k, tau_1..tau_c) in S_n with prescribed cycle types, every
tau a transposition, and product the identity; the covering is connected
when the generated subgroup is transitive.  The count divided by n!
implements the 1/|Aut| weight, and each sigma_j carries a binomial factor
choosing which of its fixed points are the marked simple preimages.

Both counts read one integer table, indexed by (m, rho, c): m sheets, rho
the nontrivial cycle types of the profiles (an empty profile is the identity
class and drops out, and the counts are symmetric in the profiles, so rho is
a sorted tuple of nonempty part tuples), and c transpositions.  By
Frobenius's character formula the number of tuples without the transitivity
condition is

    T_disc(m, rho, c) = (1/m!) sum_{lambda |- m} dim(lambda)^2
                        prod_j f_{rho_j}(lambda) cont(lambda)^c,

with f_rho(lambda) = |C_rho| chi_lambda(rho + 1^(m-|rho|)) / dim(lambda) the
integer central character and cont(lambda), the content sum, that of the
transposition class.  Splitting off the orbit of the first sheet (m_a of the
points, the cycles rho_a of each profile and the c_a transpositions acting
on it) gives

    T_disc(m, rho, c) = sum C(m-1, m_a-1) C(c, c_a)
                        T_conn(m_a, rho_a, c_a) T_disc(m-m_a, rho-rho_a, c-c_a),

rho_a running over the profilewise sub-multisets of rho.  Its term
(m_a, rho_a, c_a) = (m, rho, c) is T_conn(m, rho, c) itself, so the
transitive count follows on integers from smaller entries.  This is the
exponential formula of the tau-function form of the character sum (Okounkov,
"Toda equations for Hurwitz numbers", Math. Res. Lett. 7, 2000), read one
coefficient at a time.  T_conn is computed only where Riemann-Hurwitz
allows a connected covering (c = deg rho mod 2, c >= 2m - 2 - deg rho) and
is 0 elsewhere.  The tests check the table against the Goulden-Jackson
cut-and-join recursion and a class-level dynamic program over monodromy tuples.

Each f_{rho_j}, and cont = f_(2), is one column over the shapes of m
(``character_column``), computed once per (m, class) and shared by every
row whose rho holds that class.  Each (m, rho) stores T_disc and T_conn as
two rows, lists indexed by c.  ``node_budget`` bounds the products a fill
evaluates, from the spec alone and before any work (see ``_check_budget``).
These tables and ``symmetric.shape_table`` are shared and unlocked.  A
column or weight list is stored once, fully computed; a row grows by a new,
longer, fully computed list, never by appending to a stored one, and a fill
reads rows through its own references, so concurrent counts at worst
duplicate work and return the serial values.  ``clear_caches`` empties
every table; it is not meant to run during a count (untested).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from operator import mul as _mul

from .errors import BudgetExceeded, DomainError
from .symmetric import (
    Partition,
    character_column,
    conjugacy_class_size,
    shape_table,
)

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_CHARACTER_LIMIT = 10


@dataclass(frozen=True)
class CoveringSpec:
    """A covering-count problem: genus, sheet count, ramification profiles."""

    g: int
    n: int
    mus: tuple[Partition, ...] = ()

    def __init__(self, g: int, n: int, mus=()):
        mus = tuple(mu if isinstance(mu, Partition) else Partition(mu) for mu in mus)
        object.__setattr__(self, "g", int(g))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mus", mus)
        if self.g < 0:
            raise DomainError("genus must be >= 0")
        if self.n < 1:
            raise DomainError("sheet count must be >= 1")
        for mu in mus:
            if mu.m > self.n:
                raise DomainError(f"partition {mu} does not fit in {self.n} sheets")
        if self.c < 0:
            raise DomainError(
                f"spec has c = {self.c} < 0 simple points (over-degenerate ramification)"
            )

    @property
    def total_degeneracy(self) -> int:
        return sum(mu.degeneracy for mu in self.mus)

    @property
    def c(self) -> int:
        """Number of simple ramification points, fixed by Riemann-Hurwitz."""
        return 2 * self.n + 2 * self.g - 2 - self.total_degeneracy

    def marking_weight(self) -> int:
        """Product of binomials choosing the marked simple preimages."""
        w = 1
        for mu in self.mus:
            moved = sum(b for b in mu.parts if b >= 2)
            w *= math.comb(self.n - moved, mu.multiplicity(1))
        return w


# ---------------------------------------------------------------------------
# the count table

# (m, parts) -> f_parts over the shapes of m, see _central
_CENTRAL: dict[tuple[int, tuple[int, ...]], list[int]] = {}
# (m, rho) -> [(|content sum| k, W(k))], see _disc_row
_WEIGHTS: dict[tuple[int, tuple], list[tuple[int, int]]] = {}
# (m, rho) -> [T_disc(m, rho, c) for c = 0, 1, ...]
_DISC: dict[tuple[int, tuple], list[int]] = {}
# (m, rho) -> [T_conn(m, rho, c) for c = 0, 1, ...]
_CONN: dict[tuple[int, tuple], list[int]] = {}


def _key(profiles) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(p for p in profiles if p))


def _degree(rho) -> int:
    return sum(b - 1 for parts in rho for b in parts)


def _size(rho) -> int:
    """The fewest sheets that hold every profile of rho."""
    return max(map(sum, rho), default=0)


def _splits(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (sub-multiset, complement) pair of a weakly decreasing parts tuple."""
    counts = Counter(parts)
    out = []
    for picks in _iproduct(*(range(k + 1) for k in counts.values())):
        taken = tuple(l for l, j in zip(counts, picks) for _ in range(j))
        left = tuple(l for (l, k), j in zip(counts.items(), picks) for _ in range(k - j))
        out.append((taken, left))
    return out


def _partition_count(n: int) -> int:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p[n]


def _central(m: int, parts: tuple[int, ...]) -> list[int]:
    """f_parts(lambda) = |C_parts| chi_lambda(parts + 1^(m-|parts|)) / dim(lambda)
    over the shapes of m, one character column shared by every row."""
    column = _CENTRAL.get((m, parts))
    if column is None:
        size = conjugacy_class_size(Partition(parts), m)
        pairs = zip(character_column(m, parts), shape_table(m)[1])
        column = _CENTRAL.setdefault((m, parts), [size * chi // dim for chi, dim in pairs])
    return column


def _disc_row(m: int, rho: tuple, cmax: int) -> list[int]:
    """The T_disc row of (m, rho) through cmax at least, by Frobenius's
    formula grouped by content: sum_k W(k) k^c / m!, where W(k) sums
    dim^2 prod_j f_{rho_j} over the shapes of content sum k.  Only c of the
    parity of deg rho give nonzero entries, so k and -k share one weight."""
    deg = _degree(rho)
    top = cmax - (cmax - deg) % 2  # the last c of the parity of deg
    row = _DISC.get((m, rho), [])
    if len(row) > top:
        return row
    weights = _WEIGHTS.get((m, rho))
    if weights is None:
        # the content sum is the central character of the transpositions
        contents = _central(m, (2,)) if m > 1 else [0]
        terms = [dim * dim for dim in shape_table(m)[1]]
        for parts in rho:
            terms = list(map(_mul, terms, _central(m, parts)))
        grouped: dict[int, int] = {}
        for k, term in zip(contents, terms):
            if k < 0:
                k, term = -k, -term if deg % 2 else term
            grouped[k] = grouped.get(k, 0) + term
        weights = [(k, w) for k, w in grouped.items() if w]
        weights = _WEIGHTS.setdefault((m, rho), weights)
    sums = [0] * (top + 1 - len(row))
    first = (deg - len(row)) % 2  # the first new c of the parity of deg
    for k, w in weights:
        term, step = w * k ** (len(row) + first), k * k
        for i in range(first, len(sums), 2):
            sums[i] += term
            term *= step
    fm = math.factorial(m)
    row = _DISC[m, rho] = row + [t // fm for t in sums]
    return row


def _fill(n: int, nu: tuple, cmax: int) -> list[int]:
    """Store the T_disc and T_conn rows through cmax for every m <= n and
    every profilewise sub-multiset rho of nu, smallest m first; return the
    T_conn row of (n, nu)."""
    plans = []
    for rho in {_key(a for a, _ in pick) for pick in _iproduct(*map(_splits, nu))}:
        pairs = []
        for pick in _iproduct(*map(_splits, rho)):
            a, b = _key(x for x, _ in pick), _key(y for _, y in pick)
            pairs.append((a, b, _size(a), _size(b), _degree(a)))
        plans.append((rho, _degree(rho), _size(rho), pairs))
    binom = [[math.comb(c, j) for j in range(c + 1)] for c in range(cmax + 1)]
    disc: dict[tuple[int, tuple], list[int]] = {}
    conn: dict[tuple[int, tuple], list[int]] = {}
    for m in range(1, n + 1):
        for rho, deg, size, pairs in plans:
            if size > m:
                continue
            drow = disc[m, rho] = _disc_row(m, rho, cmax)
            top = cmax - (cmax - deg) % 2
            row = conn[m, rho] = _CONN.get((m, rho), [])
            if len(row) > top:
                continue
            # the first sheet's orbit, m_a < m: (C(m-1, m_a-1), T_conn row of
            # (m_a, rho_a), T_disc row of (m-m_a, rho-rho_a), lowest c_a)
            terms = [
                (math.comb(m - 1, m_a - 1), conn[m_a, a], disc[m - m_a, b], low_a)
                for m_a in range(1, m)
                for a, b, size_a, size_b, deg_a in pairs
                if size_a <= m_a and size_b <= m - m_a
                for low_a in [max(deg_a % 2, 2 * m_a - 2 - deg_a)]
            ]
            # zero below the lowest connected c and off the parity of deg
            new = [0] * (top + 1 - len(row))
            low = max(2 * m - 2 - deg, len(row) + (deg - len(row)) % 2)
            for c in range(low, top + 1, 2):
                bc, total = binom[c], drow[c]
                for ways, crow, brow, low_a in terms:
                    if low_a <= c:
                        inner = map(_mul, bc[low_a : c + 1 : 2], crow[low_a : c + 1 : 2])
                        total -= ways * sum(map(_mul, inner, brow[c - low_a :: -2]))
                new[c - len(row)] = total
            conn[m, rho] = _CONN[m, rho] = row + new
    return conn[n, nu]


def _check_budget(n: int, nu: tuple, c: int, budget: int) -> None:
    """Refuse a fill whose bound on the products it evaluates exceeds the
    budget.  The table holds at most n x subs x (c//2 + 1) entries, subs the
    number of profilewise sub-multisets of nu.  A T_disc entry costs at most
    two terms per shape of S_m: one in its row's content weights (dim^2
    prod_j f_{rho_j} per shape, built once per row) and one in its own sum
    over the content sums.  A T_conn entry costs one product per
    (m_a, rho_a, c_a).  The central-character columns the weights read, one
    Murnaghan-Nakayama pass per (m, class) shared by every row, are not
    counted.  The bound depends on the spec alone, so a warm table cannot
    change it."""
    subs = math.prod(len(_splits(parts)) for parts in nu)
    entries = n * subs * (c // 2 + 1)
    work = entries * (2 * _partition_count(n) + n * subs * (c // 2 + 1))
    if work > budget:
        raise BudgetExceeded(
            f"count table for n={n} would evaluate up to {work} products (> {budget})"
        )


def hurwitz_connected(
    spec: CoveringSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Fraction:
    """Connected marked covering count, weighted 1/|Aut|, as an exact rational.

    marking_weight x T_conn(n, nu, c) / n!; the division by n! is the
    orbit-stabilizer form of the automorphism weight.
    """
    weight = spec.marking_weight()
    if weight == 0:
        return Fraction(0)
    n, c = spec.n, spec.c
    nu = _key(mu.nontrivial() for mu in spec.mus)
    _check_budget(n, nu, c, node_budget)
    row = _CONN.get((n, nu), [])
    if len(row) <= c:
        row = _fill(n, nu, c)
    return Fraction(weight * row[c], math.factorial(n))


def hurwitz_disconnected(
    spec: CoveringSpec, character_limit: int = DEFAULT_CHARACTER_LIMIT
) -> Fraction:
    """The same weighted count without the transitivity requirement:
    marking_weight x T_disc(n, nu, c) / n!."""
    n, c = spec.n, spec.c
    if n > character_limit:
        raise BudgetExceeded(
            f"character table for n={n} exceeds the configured limit {character_limit}"
        )
    weight = spec.marking_weight()
    if weight == 0:
        return Fraction(0)
    nu = _key(mu.nontrivial() for mu in spec.mus)
    return Fraction(weight * _disc_row(n, nu, c)[c], math.factorial(n))


def clear_caches() -> None:
    """Empty every table: shapes, columns, weights and both row tables."""
    shape_table.cache_clear()
    _CENTRAL.clear()
    _WEIGHTS.clear()
    _DISC.clear()
    _CONN.clear()
