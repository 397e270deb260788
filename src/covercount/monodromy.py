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
coefficient at a time.  T_conn is stored only where Riemann-Hurwitz allows a
connected covering: c = deg rho mod 2 and c >= 2m - 2 - deg rho.  The tests
check the table against the Goulden-Jackson cut-and-join recursion and a
class-level dynamic program over monodromy tuples.

``node_budget`` bounds the products a fill evaluates, from the spec alone
and before any work (see ``_check_budget``).  The module-level tables (the
shapes of each S_m, the content weights of each row, and the two columns of
the count table) are shared and unlocked.  Each entry is written once, after
it is fully computed, and never changed, so concurrent counts at worst
duplicate work and return the serial values.  ``clear_caches`` empties them
all; it must not run while a count is in progress, because a fill reads the
entries it relies on from those tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

from .errors import BudgetExceeded, DomainError
from .symmetric import (
    Partition,
    _beta_character,
    _beta_dimension,
    _beta_set,
    conjugacy_class_size,
    partitions_of,
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

# m -> [(beta-set, dim, content sum)] for every shape lambda |- m
_SHAPES: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
# (m, rho) -> {content sum k: W(k)}, see _disc_row
_WEIGHTS: dict[tuple[int, tuple], dict[int, int]] = {}
# (m, rho, c) -> T_disc, for c of the parity of deg rho
_DISC: dict[tuple[int, tuple, int], int] = {}
# (m, rho, c) -> T_conn, for the genera >= 0 only
_CONN: dict[tuple[int, tuple, int], int] = {}


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


def _shapes(m: int) -> list[tuple[tuple[int, ...], int, int]]:
    shapes = _SHAPES.get(m)
    if shapes is None:
        shapes = []
        for lam in partitions_of(m):
            beta = _beta_set(lam.parts)
            content = sum(b * (b - 1) // 2 - i * b for i, b in enumerate(lam.parts))
            shapes.append((beta, _beta_dimension(beta, m), content))
        shapes = _SHAPES.setdefault(m, shapes)
    return shapes


def _disc_row(m: int, rho: tuple, cmax: int) -> None:
    """Store T_disc(m, rho, c) for every c <= cmax of the parity of deg rho,
    by Frobenius's formula grouped by content: sum_k W(k) k^c / m!, where
    W(k) sums dim^2 prod_j f_{rho_j} over the shapes of content sum k."""
    low = _degree(rho) % 2
    while (m, rho, low) in _DISC:  # rows are stored from the lowest c up
        low += 2
    if low > cmax:
        return
    weights = _WEIGHTS.get((m, rho))
    if weights is None:
        sizes = [conjugacy_class_size(Partition(parts), m) for parts in rho]
        weights = {}
        for beta, dim, content in _shapes(m):
            term = dim * dim
            for parts, size in zip(rho, sizes):
                term = term * size * _beta_character(beta, m, parts) // dim
            weights[content] = weights.get(content, 0) + term
        weights = _WEIGHTS.setdefault((m, rho), weights)
    fm = math.factorial(m)
    for c in range(low, cmax + 1, 2):
        _DISC.setdefault((m, rho, c), sum(w * k**c for k, w in weights.items()) // fm)


def _fill(n: int, nu: tuple, cmax: int) -> None:
    """Store T_disc and T_conn for every m <= n, every profilewise
    sub-multiset rho of nu and every c <= cmax, smallest m first."""
    subs = {_key(a for a, _ in pick) for pick in _iproduct(*map(_splits, nu))}
    for m in range(1, n + 1):
        for rho in subs:
            deg = _degree(rho)
            top = cmax - (cmax - deg) % 2
            # rows are stored from the lowest c up, so a stored top ends them
            if _size(rho) > m or (m, rho, top) in _CONN:
                continue
            _disc_row(m, rho, cmax)
            pairs = []
            for pick in _iproduct(*map(_splits, rho)):
                a, b = _key(x for x, _ in pick), _key(y for _, y in pick)
                pairs.append((a, b, _size(a), _size(b), _degree(a)))
            for c in range(max(deg % 2, 2 * m - 2 - deg), top + 1, 2):
                if (m, rho, c) in _CONN:
                    continue
                total = _DISC[m, rho, c]
                # the orbit of the first sheet is a proper part (m_a < m)
                for m_a in range(1, m):
                    ways_m = math.comb(m - 1, m_a - 1)
                    for a, b, size_a, size_b, deg_a in pairs:
                        if size_a > m_a or size_b > m - m_a:
                            continue
                        for c_a in range(max(deg_a % 2, 2 * m_a - 2 - deg_a), c + 1, 2):
                            total -= (
                                ways_m
                                * math.comb(c, c_a)
                                * _CONN[m_a, a, c_a]
                                * _DISC[m - m_a, b, c - c_a]
                            )
                _CONN.setdefault((m, rho, c), total)


def _check_budget(n: int, nu: tuple, c: int, budget: int) -> None:
    """Refuse a fill whose bound on the products it evaluates exceeds the
    budget.  The table holds at most n x subs x (c//2 + 1) entries, subs the
    number of profilewise sub-multisets of nu.  A T_disc entry costs at most
    two terms per shape of S_m (its row's content weights, built once, and
    its sum over them), a T_conn entry one product per (m_a, rho_a, c_a).
    The bound depends on the spec alone, so a warm table cannot change it."""
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
    _fill(n, nu, c)
    return Fraction(weight * _CONN[n, nu, c], math.factorial(n))


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
    _disc_row(n, nu, c)
    return Fraction(weight * _DISC[n, nu, c], math.factorial(n))


def clear_caches() -> None:
    """Empty every table of the module: shapes and both count columns."""
    _SHAPES.clear()
    _WEIGHTS.clear()
    _DISC.clear()
    _CONN.clear()
