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
a sorted tuple of nonempty part tuples), and c transpositions.  A profile
of cycle type (2, 1^(n-2)) is one more transposition: f_(2) = cont below,
and neither the product nor transitivity depends on the slot a
transposition fills.  So a spec with k such profiles reads the entry
(n, nu, c + k), nu the other profiles' nontrivial parts (``_table_key``),
and its marking weight keeps their 1-parts; a piece of a split below with k
(2) pieces split off larger profiles reads its other profiles' row at c + k,
so no key holds a (2).  By Frobenius's character formula the number of
tuples without the transitivity condition is

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
cut-and-join recursion, a class-level dynamic program over monodromy tuples,
the Goulden-Jackson-Vakil one-part formula and, on every entry of genus
<= 1 and at most one profile with n <= 15, the closed forms below.

A count whose entry has genus g <= 1 and at most one profile, (n, nu, c)
with c = 2n + 2g - 2 - deg nu and len(nu) <= 1 (its (2) profiles folded
into c), takes no fill: the entry is n! times the genus-g count of the
profile lambda = nu + 1^(n-|nu|), in integers (``_closed_entries``).  At
genus 0 that count is Hurwitz's formula (Math. Ann. 39, 1891; proved by
Goulden and Jackson, "Transitive factorizations into transpositions and
holomorphic mappings on the sphere", Proc. AMS 125, 1997); at genus 1 it
is Vakil's ("Genus 0 and 1 Hurwitz numbers: recursions, formulas, and
graph-theoretic interpretations", Trans. AMS 353, 2001).  Both have the
shape of the ELSV formula (Ekedahl, Lando, Shapiro and Vainshtein, Invent.
Math. 146, 2001): one prefactor, c! prod b^b/b! / |Aut lambda|, times a
polynomial in n and the parts that depends on the genus.  Such a count is
charged the formula's own big-integer work, from the spec alone and before
the formula runs (see ``_connected_counts``); it builds no split plan and
stores no row.  Every other entry is read off the table: genus >= 2, two or
more profiles, every row a fill stores (rows of genus <= 1 and one profile
included) and every disconnected count.

``symmetric.shape_table`` gives the shapes of m, their dimensions and their
content sums by the branching rule, so cont = f_(2) needs no character.
Every other f_{rho_j} is |C| chi / dim over one stored character column
(``character_column``), one rim-hook step from the stored column of its
class without the last part, so no column is built twice.  Each f list is
formed once per (m, class) and shared by every row whose rho holds the
class; a row's content weights are formed from them each time the row
grows.  Each (m, rho) stores T_disc and T_conn as two rows, lists indexed
by c, and each rho one split plan (``_plan``) that every fill holding rho
reads.  A fill of (n, nu) stores only the rows its count can read
(``_rows``): those of nu for every m <= n, and those of a proper
sub-multiset rho for m <= n - size(nu - rho), since the rest of nu needs
sheets of its own, each without its (2) pieces and through c + k, k the
most pieces it is read with.  A count over a range of n
(``_connected_counts``, the path of ``hurwitz_connected`` and the series
builders) checks the budget and fills at its largest n only; the smaller n
read that fill's rows of nu.  A later count that needs a row no fill stored
starts its own fill.  ``node_budget`` bounds a count that fills, and every
disconnected count, by the work of the rows its fill stores, from the
spec's entry (n, nu, c + k) alone and before any table is built (see
``_check_budget``); the check hands the fill the rows it charged, so nu's
plan is folded once per count.
These tables and the shape tables and columns of ``symmetric`` are shared
and unlocked.  A shape table, column, f list or plan is stored once, fully
computed; a row is stored whole or not at all, and grows by a new, longer,
fully computed list, never by appending to a stored one.  A fill that
stores its shorter row last can leave a shorter row in place of a longer
one, so a count or fill indexes only rows it holds (lists it read once from
a table, formed, or got back from its fill) and forms its products in lists
of its own: concurrent counts at worst duplicate work and return the serial
values.
``clear_caches`` empties every table; it is not meant to run during a
count (untested).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from operator import mul as _mul

from .errors import BudgetExceeded, DomainError, Record, as_int
from .symmetric import (
    _COLUMNS,
    Partition,
    character_column,
    conjugacy_class_size,
    shape_table,
)

DEFAULT_NODE_BUDGET = 10**9


def _genus(g) -> int:
    """g itself if it is an int >= 0; a bool or float raises TypeError and a
    negative int DomainError, as in every count, fit and series of genus g."""
    if as_int(g) < 0:
        raise DomainError("genus must be >= 0")
    return g


class CoveringSpec(Record):
    """A covering-count problem: genus, sheet count, ramification profiles."""

    g: int
    n: int
    mus: tuple[Partition, ...] = ()

    def __init__(self, g: int, n: int, mus=()):
        mus = tuple(map(Partition, mus))
        object.__setattr__(self, "g", _genus(g))
        object.__setattr__(self, "n", as_int(n))
        object.__setattr__(self, "mus", mus)
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

    @staticmethod
    def simple_points(g: int, n: int, degeneracy: int) -> int:
        """c(n) = 2n + 2g - 2 - r, the simple ramification points Riemann-Hurwitz
        leaves to n sheets of genus g at total degeneracy r."""
        return 2 * n + 2 * g - 2 - degeneracy

    @property
    def c(self) -> int:
        """Number of simple ramification points, fixed by Riemann-Hurwitz."""
        return self.simple_points(self.g, self.n, self.total_degeneracy)

    def marking_weight(self) -> int:
        """Product of binomials choosing the marked simple preimages."""
        return _marking_weights([self.n], self.mus)[0]


def _marking_weights(ns, mus) -> list[int]:
    """The marking weight of (n, mus) for each n in ns, each profile's size
    and multiplicity of 1 read once."""
    marks = [(sum(mu.nontrivial()), mu.multiplicity(1)) for mu in mus]
    return [math.prod(math.comb(n - size, ones) for size, ones in marks) for n in ns]


# ---------------------------------------------------------------------------
# the count table

# (m, parts) -> [f_parts(lambda) = |C| chi / dim for each shape of m], see _disc_row
_CENTRAL: dict[tuple[int, tuple[int, ...]], list[int]] = {}
# (m, rho) -> [T_disc(m, rho, c) for c = 0, 1, ...]
_DISC: dict[tuple[int, tuple], list[int]] = {}
# (m, rho) -> [T_conn(m, rho, c) for c = 0, 1, ...]
_CONN: dict[tuple[int, tuple], list[int]] = {}
# rho -> (deg rho, [(rho_a, rho_b, size rho_a, size rho_b, deg rho_a, k)],
#         [(rho_a without its j (2) pieces, j, size rho_a, gap)]), see _split_plan
_PLANS: dict[tuple, tuple[int, list[tuple], list[tuple]]] = {}


def _key(profiles) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(p for p in profiles if p))


def _table_key(spec: CoveringSpec) -> tuple[int, tuple, int]:
    """The spec's table entry (n, nu, c + k): its k (2, 1^(n-2)) profiles fold into c."""
    rho = _key(mu.nontrivial() for mu in spec.mus)
    k = rho.count((2,))  # the (2) profiles sort first
    return spec.n, rho[k:], spec.c + k


def _degree(rho) -> int:
    return sum(b - 1 for parts in rho for b in parts)


def _size(rho) -> int:
    """The fewest sheets, at least one, that hold every profile of rho."""
    return max(map(sum, rho), default=1)


@lru_cache(maxsize=None)
def _splits(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (sub-multiset, complement) pair of a weakly decreasing parts tuple."""
    counts = Counter(parts)
    out = []
    for picks in _iproduct(*(range(k + 1) for k in counts.values())):
        taken = tuple(l for l, j in zip(counts, picks) for _ in range(j))
        left = tuple(l for (l, k), j in zip(counts.items(), picks) for _ in range(k - j))
        out.append((taken, left))
    return out


@lru_cache(maxsize=None)
def _partition_count(n: int) -> int:
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p[n]


def _disc_row(m: int, rho: tuple, deg: int, cmax: int) -> list[int]:
    """The T_disc row of (m, rho) through cmax at least, deg = deg rho, by
    Frobenius's formula grouped by content: sum_k W(k) k^c / m!, where W(k)
    sums dim^2 prod_j f_{rho_j} over the shapes of content sum k.  Only c of
    the parity of deg give nonzero entries, and a conjugate shape has content
    sum -k and (-1)^deg its term, so W(k) is twice the sum over k > 0."""
    top = cmax - (cmax - deg) % 2  # the last c of the parity of deg
    row = _DISC.get((m, rho), [])
    if len(row) > top:
        return row
    _, dims, contents = shape_table(m)
    terms = [dim * dim for dim in dims]
    for parts in rho:
        f = _CENTRAL.get((m, parts))
        if f is None:  # formed once, by the first row that holds the class
            size = conjugacy_class_size(Partition(parts), m)
            f = [size * chi // dim for chi, dim in zip(character_column(m, parts), dims)]
            f = _CENTRAL.setdefault((m, parts), f)
        terms = list(map(_mul, terms, f))
    grouped: dict[int, int] = {}
    for k, term in zip(contents, terms):
        if k >= 0:
            grouped[k] = grouped.get(k, 0) + (2 * term if k else term)
    weights = [(k, w) for k, w in grouped.items() if w]
    new = [0] * (top + 1 - len(row))
    first = (deg - len(row)) % 2  # the first new c of the parity of deg
    terms = [w * k ** (len(row) + first) for k, w in weights]
    steps = [k * k for k, _ in weights]
    fm = math.factorial(m)
    for i in range(first, len(new), 2):
        terms = terms if i == first else list(map(_mul, terms, steps))
        new[i] = sum(terms) // fm
    row = _DISC[m, rho] = row + new
    return row


def _split_plan(rho: tuple) -> tuple[int, list[tuple], list[tuple]]:
    """rho's split plan (see _PLANS): a pair per distinct profilewise split
    rho_a + rho_b = rho, k the splits that give it (profiles of one type
    sort alike), and each rho_a's size and gap, the fewest sheets the rest
    of rho needs: 0 for rho itself, else the least size rho_b of its pairs."""
    splits = Counter()
    for pick in _iproduct(*map(_splits, rho)):
        splits[_key(a for a, _ in pick), _key(b for _, b in pick)] += 1
    pairs = [(a, b, _size(a), _size(b), _degree(a), k) for (a, b), k in splits.items()]
    limits = {rho: (_size(rho), 0)}
    for a, _, size_a, size_b, *_ in pairs:
        limits[a] = size_a, min(limits.get(a, (0, size_b))[1], size_b)
    pieces = ((a, a.count((2,))) for a in limits)  # the (2) pieces sort first
    return _degree(rho), pairs, [(a[j:], j, *limits[a]) for a, j in pieces]


def _plan(rho: tuple) -> tuple[int, list[tuple], list[tuple]]:
    """The stored split plan of rho."""
    return _PLANS.get(rho) or _PLANS.setdefault(rho, _split_plan(rho))


def _rows(n: int, plan: tuple) -> dict[tuple, tuple[range, int]]:
    """rho -> (the m of its rows, from size(rho), and its shift) for a count of
    (n, nu), plan nu's split plan: rho_a is read at size(rho_a) <= m <= n - gap
    (_size is subadditive) as rho_a without its j (2) pieces at c + j; shift: max j."""
    tops: dict[tuple, tuple[int, int]] = {}
    for rho, j, size, gap in plan[2]:
        if size <= n - gap:
            top, shift = tops.get(rho, (0, 0))
            tops[rho] = max(top, n - gap), max(shift, j)
    if () in tops:  # a row of any rho may read the row (1, ()) through its own c
        tops[()] = tops[()][0], max(k for _, k in tops.values())
    return {rho: (range(_size(rho), top + 1), k) for rho, (top, k) in tops.items()}


def _fill(n: int, nu: tuple, cmax: int, rows: dict) -> dict[int, list[int]]:
    """Store the rows a count of (n, nu) at cmax reads, rows = _rows(n, nu's
    plan) as the budget check returned it, smallest m first, each through
    cmax + its shift; return nu's T_conn rows by m, lists of its own.  A
    piece of a split with j (2) pieces reads its rest's rows from index j."""
    plans = [(rho, ms, k, *_plan(rho)[:2]) for rho, (ms, k) in rows.items()]
    cap = cmax + max(k for _, _, k, *_ in plans)
    binom = [[math.comb(c, j) for j in range(c + 1)] for c in range(max(cap, n) + 1)]
    # (sigma, m) -> its T_disc row (disc) and its T_conn row, lowest connected c and [C(c, c_a)
    # T_conn(m, sigma, c_a) over c_a, for each c] (conn), a list of products formed on first use
    disc: dict[tuple, list] = {}
    conn: dict[tuple, tuple] = {}
    for m in range(1, n + 1):
        for rho, ms, shift, deg, pairs in plans:
            if m not in ms:
                continue
            top = cmax + shift - (cmax + shift - deg) % 2
            drow = _disc_row(m, rho, deg, top)
            row = _CONN.get((m, rho), [])
            if len(row) <= top:
                # the first sheet's orbit, m_a < m: (k C(m-1, m_a-1), T_conn row, lowest c_a
                # and products of (m_a, rho_a), T_disc row of (m-m_a, rho-rho_a)), for the
                # m_a that hold both parts and reach a connected c <= top
                terms = [
                    (k * binom[m - 1][m_a - 1], *conn[a, m_a], disc[b, m - m_a])
                    for a, b, size_a, size_b, deg_a, k in pairs
                    for m_a in range(size_a, min(m - size_b, (top + deg_a) // 2 + 1) + 1)
                ]
                # zero below the lowest connected c and off the parity of deg
                new = [0] * (top + 1 - len(row))
                low = max(2 * m - 2 - deg, len(row) + (deg - len(row)) % 2)
                for c in range(low, top + 1, 2):
                    total, bc = drow[c], binom[c]
                    for ways, crow, low_a, products, brow in terms:
                        if low_a <= c:
                            inner = products[c]
                            if inner is None:
                                inner = map(_mul, bc[low_a : c + 1 : 2], crow[low_a : c + 1 : 2])
                                inner = products[c] = list(inner)
                            total -= ways * sum(map(_mul, inner, brow[c - low_a :: -2]))
                    new[c - len(row)] = total
                row = _CONN[m, rho] = row + new
            for j in range(shift + 1):
                sigma, low = ((2,),) * j + rho, max((deg + j) % 2, 2 * m - 2 - deg - j)
                disc[sigma, m] = drow[j:]
                conn[sigma, m] = row[j:], low, [None] * (cap + 1)
    return {m: conn[nu, m][0] for m in rows[nu][0]}


def _check_budget(n: int, nu: tuple, c: int, budget: int) -> dict:
    """Refuse a count of (n, nu) at c that reads the table, a disconnected
    count or a connected one outside the closed forms, whose fill would
    exceed the budget, and return the fill's rows (``_rows``) if it admits
    the count; (n, nu, c) is the spec's table entry, its (2) profiles folded
    into c (see _table_key), and a budget other than an int raises TypeError
    before any table is built.  A closed-form count is charged its formula
    instead (see ``_connected_counts``).  The fill stores R rows, E entries
    in all, (c + k)//2 + 1 in a row of shift k.  Each row is charged the
    subs splits of nu (prod (multiplicity + 1) over each profile's distinct
    parts), which bound the plan its terms walk; each entry 2 p(n) shape
    terms (its row's content weights and its own sum over content sums) and
    E recursion products; the shape tables' branching passes n p(n).  subs
    is tested before nu's plan is built, so a refusal takes at most the
    budget and stores nothing.  No stored state is charged, so a warm table
    cannot change the outcome, and the charge grows with n, so a range of n
    is refused at its largest n, before any fill."""
    subs = math.prod(parts.count(b) + 1 for parts in nu for b in set(parts))
    work = subs  # past the budget, refuse before building nu's plan
    if work <= as_int(budget):
        plan = _PLANS.get(nu) or _split_plan(nu)
        rows = _rows(n, plan)
        entries = sum(len(ms) * ((c + k) // 2 + 1) for ms, k in rows.values())
        p = _partition_count(n)
        work = sum(len(ms) for ms, _ in rows.values()) * subs + entries * (2 * p + entries) + n * p
        if work <= budget:
            _PLANS.setdefault(nu, plan)
            return rows
    raise BudgetExceeded(
        f"count table for n={n} would evaluate up to {work} products (> {budget})"
    )


def _closed_entries(g: int, ns, parts: tuple[int, ...]) -> list[int]:
    """T_conn(n, (parts,), c) for each n in ns, genus g <= 1 and at most one
    profile, with c = 2g - 2 + n + l, l the length of lambda = parts +
    1^(n-|parts|) and parts free of 1s: n! times the covering count of lambda
    in closed form,

        perm(n, |parts|) c! prod_b b^(b k_b) / (k_b! (b!)^k_b) P_g,

    b over the distinct parts of parts, k_b times each, with P_0 = n^(l-3)
    (Hurwitz) and P_1 = (n^l - n^(l-1) - sum_{k=2..l} (k-2)! n^(l-k)
    e_k(lambda)) / 24 (Vakil), e_k the elementary symmetric functions.  The
    profile's factor is formed once for every n, and the one division per n
    is exact."""
    size = sum(parts)
    num, den = 1, 24 if g else 1
    for b, k in Counter(parts).items():
        num *= b ** (b * k)
        den *= math.factorial(k) * math.factorial(b) ** k
    out = []
    for n in ns:
        ones = n - size
        l = len(parts) + ones
        head = math.factorial(2 * g - 2 + n + l) * math.perm(n, size) * num
        if g == 0:
            out.append(head * n ** max(l - 3, 0) // (den * n ** max(3 - l, 0)))
            continue
        e = [1]  # e_k(lambda), the coefficients of prod (1 + b t) over lambda
        for k in range(1, ones + 1):
            e.append(e[-1] * (ones - k + 1) // k)
        for b in parts:
            e = [x + b * y for x, y in zip(e + [0], [0] + e)]
        p1, fact = n - 1, 1  # 24 P_1 by Horner's rule in n, fact = (k - 2)!
        for k in range(2, l + 1):
            p1 = p1 * n - fact * e[k]
            fact *= k - 1
        out.append(head * p1 // den)
    return out


def _connected_counts(g: int, mus, ns: list, node_budget: int) -> list[Fraction]:
    """hurwitz_connected of the specs (g, n, mus), n in ns: one table key and
    one budget check at the largest n.  At genus <= 1 with at most one
    profile in the key, the closed form gives each entry (``_closed_entries``)
    and is charged its own work, from g, the largest n and the profile alone:
    every integer it forms for one n is a product or quotient of at most
    N = c + l + 4 |parts| + 2 factors below 2^30 (for c < 2^29), or a sum of
    such, and schoolbook arithmetic on 30-bit digits multiplies each pair of
    them at most once, so one n costs fewer than N^2 digit products at genus
    0 and, with e_k(lambda) and Horner's rule, fewer than 2 N^2 + 3 l^3 at
    genus 1.  The charge grows with n, so a range is refused at its largest
    n, and the route builds no plan and stores no row.  Otherwise each n
    reads its row of nu from the table once; if any of them is too short,
    one fill at the largest n, charged by ``_check_budget``, stores the rows
    of nu for every smaller n, and the counts index the rows it returns.
    A count indexes only rows it holds, so a shorter row stored meanwhile
    cannot reach it."""
    as_int(node_budget)
    if not ns:
        return []
    try:  # c and the room for the profiles grow with n: the least n stands for all
        spec = CoveringSpec(g, min(map(as_int, ns)), mus)
    except (DomainError, TypeError):  # the first invalid spec in the callers' order raises
        [CoveringSpec(g, n, mus) for n in ns]
        raise
    n, nu, c = _table_key(spec)
    shift = c - 2 * n  # the entry of n sheets is (n, nu, 2n + shift)
    top = max(ns)
    if spec.g <= 1 and len(nu) <= 1:
        parts = nu[0] if nu else ()
        l = len(parts) + top - sum(parts)  # the length of lambda at the largest n
        factors = 2 * top + shift + l + 4 * sum(parts) + 2  # N, with c = 2 top + shift
        work = factors**2 if spec.g == 0 else 2 * factors**2 + 3 * l**3
        if work > node_budget:
            raise BudgetExceeded(
                f"closed form for n={top} would evaluate up to {work} digit products"
                f" (> {node_budget})"
            )
        entries = _closed_entries(spec.g, ns, parts)
    else:
        rows = _check_budget(top, nu, 2 * top + shift, node_budget)
        held = [_CONN.get((n, nu), []) for n in ns]
        if any(len(row) <= 2 * n + shift for n, row in zip(ns, held)):
            held = list(map(_fill(top, nu, 2 * top + shift, rows).get, ns))  # nu's rows by m
        entries = [row[2 * n + shift] for n, row in zip(ns, held)]
    weights = _marking_weights(ns, spec.mus)
    return [Fraction(w * entry, math.factorial(n)) for n, w, entry in zip(ns, weights, entries)]


def hurwitz_connected(
    spec: CoveringSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Fraction:
    """Connected marked covering count, weighted 1/|Aut|, as an exact rational.

    marking_weight x T_conn(n, nu, c) / n!; the division by n! is the
    orbit-stabilizer form of the automorphism weight.
    """
    return _connected_counts(spec.g, spec.mus, [spec.n], node_budget)[0]


def hurwitz_disconnected(
    spec: CoveringSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Fraction:
    """The same weighted count without the transitivity requirement:
    marking_weight x T_disc(n, nu, c) / n!, charged the fill that stores its
    row (``_check_budget``).  That is the connected count's charge unless the
    connected count takes a closed form, which is charged its formula's work
    alone, so at genus <= 1 with one profile the two counts are refused at
    different budgets."""
    n, nu, c = _table_key(spec)
    _check_budget(n, nu, c, node_budget)
    return Fraction(spec.marking_weight() * _disc_row(n, nu, _degree(nu), c)[c], math.factorial(n))


def clear_caches() -> None:
    """Empty every table and memo here and in ``symmetric``."""
    shape_table.cache_clear()
    _COLUMNS.clear()
    _CENTRAL.clear()
    _DISC.clear()
    _CONN.clear()
    _PLANS.clear()
    _splits.cache_clear()
    _partition_count.cache_clear()
