"""Exact counts of connected marked coverings by monodromy enumeration.

A covering with ramification data (g, n; mu_1..mu_k) corresponds to a tuple
(sigma_1..sigma_k, tau_1..tau_c) in S_n with prescribed cycle types, every
tau a transposition, product the identity, and the generated subgroup
transitive; the count divided by n! implements the 1/|Aut| weight, and each
sigma_j carries a binomial factor choosing which of its fixed points are the
marked simple preimages.

``hurwitz_connected`` counts the tuples by one of two exact routes, chosen
by the number of profiles in the spec:

* At most one profile: the cut-and-join recursion of Goulden and Jackson
  ("Transitive factorizations into transpositions and holomorphic mappings
  on the sphere", Proc. AMS 125, 1997).  For a fixed sigma of full cycle
  type nu, the first transposition either joins two cycles of sigma (same
  genus) or cuts one; after a cut the remaining transpositions act either
  transitively (genus one lower) or on exactly two orbits, one holding each
  piece, which share out the other cycles, the genus and the remaining
  transpositions.  One memoized table indexed by (genus, cycle type) serves
  every sheet count and profile.
* Two or more profiles: a dynamic program over configuration classes.  A
  configuration is (running product, partition of the points into the
  connected blocks merged so far); its class records, per block, the cycle
  type of the product restricted to that block.  Transition counts out of a
  configuration depend only on its class, and the accepting class (identity
  product, single block) contains exactly one configuration, so class-level
  path counting reproduces the exact tuple count while keeping the state
  space at "multisets of partitions" size instead of n! x Bell(n).  The
  tests also run it on single-profile specs as a cross-check of the
  recursion.

The module-level tables (memoized counts, cut-and-join table, class graph)
are shared and unlocked, and ``_intern`` reads the state count before it
appends, so concurrent callers can map state ids to the wrong states.  The
module is not thread-safe until those tables move into per-caller objects.
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
    character,
    class_elements,
    conjugacy_class_size,
    identity_perm,
    irrep_dimension,
    partitions_of,
    perm_cycles,
    perm_from_cycle_lengths,
    perm_mult,
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
# class-level dynamic program

# A state is a tuple of blocks, each block a weakly decreasing tuple of the
# cycle lengths of the running product inside it; blocks sorted descending.
_STATE_IDS: dict[tuple, int] = {}
_STATES: list[tuple] = []
_TRANSITIONS: list[list[tuple[int, int]] | None] = []
_STATE_MIN_STEPS: list[int] = []  # (n - #cycles) + 2*(#blocks - 1), needs n added back


def _canon(blocks) -> tuple:
    return tuple(sorted((tuple(sorted(b, reverse=True)) for b in blocks), reverse=True))


def _intern(state: tuple) -> int:
    sid = _STATE_IDS.get(state)
    if sid is None:
        sid = len(_STATES)
        _STATE_IDS[state] = sid
        _STATES.append(state)
        _TRANSITIONS.append(None)
        cycles = sum(len(b) for b in state)
        _STATE_MIN_STEPS.append(-cycles + 2 * (len(state) - 1))
    return sid


def _build_transitions(sid: int) -> list[tuple[int, int]]:
    """All single-transposition moves out of a class, with multiplicities."""
    state = _STATES[sid]
    blocks = [list(b) for b in state]
    nb = len(blocks)
    out: dict[int, int] = {}

    def emit(new_blocks, ways):
        tid = _intern(_canon(new_blocks))
        out[tid] = out.get(tid, 0) + ways

    for i, b in enumerate(blocks):
        others = [blocks[t] for t in range(nb) if t != i]
        cnt = Counter(b)
        # both points in one cycle: the cycle splits
        for l, mult in cnt.items():
            if l < 2:
                continue
            for d in range(1, l // 2 + 1):
                ways = (l // 2 if 2 * d == l else l) * mult
                nb2 = list(b)
                nb2.remove(l)
                nb2.extend((d, l - d))
                emit(others + [nb2], ways)
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
                emit(others + [nb2], ways)
    # points in different blocks: blocks merge through the touched cycles
    for i in range(nb):
        for j in range(i + 1, nb):
            rest = [blocks[t] for t in range(nb) if t not in (i, j)]
            for l1, m1 in Counter(blocks[i]).items():
                for l2, m2 in Counter(blocks[j]).items():
                    ways = m1 * l1 * m2 * l2
                    merged = list(blocks[i])
                    merged.remove(l1)
                    tail = list(blocks[j])
                    tail.remove(l2)
                    merged.extend(tail)
                    merged.append(l1 + l2)
                    emit(rest + [merged], ways)
    return list(out.items())


def _transitions(sid: int) -> list[tuple[int, int]]:
    cached = _TRANSITIONS[sid]
    if cached is None:
        cached = _build_transitions(sid)
        _TRANSITIONS[sid] = cached
    return cached


def _walk_count(n: int, start: dict[int, int], steps: int, budget: int) -> int:
    """Exact number of weighted transposition walks landing on the accepting
    class (identity, fully merged) after the given number of steps."""
    target = _intern(_canon([[1] * n]))
    vec = dict(start)
    ops = 0
    for step in range(steps):
        remaining = steps - step - 1
        new: dict[int, int] = {}
        for sid, weight in vec.items():
            for tid, mult in _transitions(sid):
                # parity is preserved automatically; prune distance-to-target
                if n + _STATE_MIN_STEPS[tid] > remaining:
                    continue
                new[tid] = new.get(tid, 0) + weight * mult
                ops += 1
        if ops > budget:
            raise BudgetExceeded(
                f"monodromy walk exceeded the node budget ({ops} > {budget})"
            )
        vec = new
        if not vec:
            return 0
    return vec.get(target, 0)


def _join_blocks(n: int, perms) -> list[list[int]]:
    """Connected blocks generated by the supports of the given permutations,
    with the cycle type of the running product inside each block."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    prod = identity_perm(n)
    for p in perms:
        prod = perm_mult(prod, p)
        for cyc in perm_cycles(p):
            for a, b in zip(cyc, cyc[1:]):
                union(a, b)
    blocks: dict[int, list[int]] = {}
    for cyc in perm_cycles(prod):
        blocks.setdefault(find(cyc[0]), []).append(len(cyc))
    return list(blocks.values())


# ---------------------------------------------------------------------------
# cut-and-join recursion

# (g, nu) -> F(g, nu), see _cut_join_entry; nu weakly decreasing, 1-parts
# included.  Filled in whole cells (every nu of one size k at one genus),
# fewest parts first, so a cell is complete once its (1,) * k entry is in.
_CUT_JOIN: dict[tuple[int, tuple[int, ...]], int] = {}


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n): the number of partitions of each k <= n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def _splits(counts: dict[int, int]):
    """Every way to send the cycles counted by ``counts`` to two sides:
    (left parts, right parts, number of ways to choose the left cycles)."""
    sizes = list(counts)
    for picks in _iproduct(*(range(counts[l] + 1) for l in sizes)):
        left: list[int] = []
        right: list[int] = []
        ways = 1
        for l, j in zip(sizes, picks):
            left += [l] * j
            right += [l] * (counts[l] - j)
            ways *= math.comb(counts[l], j)
        yield left, right, ways


def _desc(parts) -> tuple[int, ...]:
    return tuple(sorted(parts, reverse=True))


def _cut_join_entry(g: int, nu: tuple[int, ...]) -> int:
    """F(g, nu): tuples (tau_1..tau_r) of transpositions with
    sigma tau_1 ... tau_r = id and <sigma, tau_1..tau_r> transitive, for one
    fixed sigma of full cycle type nu, where r = 2g - 2 + |nu| + len(nu).

    Reads the entries it depends on from the table: same size and genus
    with one part fewer, same size at genus g - 1, and smaller sizes at
    genus <= g."""
    if nu == (1,):
        return int(g == 0)
    r = 2 * g - 2 + sum(nu) + len(nu)
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
                total += pairs * l1 * l2 * _CUT_JOIN[g, _desc(rest + [l1 + l2])]
    # tau_1 cuts a cycle of length l into pieces d and l - d
    for l in lengths:
        if l < 2:
            continue
        rest = list(nu)
        rest.remove(l)
        splits = list(_splits(Counter(rest)))
        for d in range(1, l // 2 + 1):
            ways = cnt[l] * (l // 2 if 2 * d == l else l)
            # tau_2..tau_r act transitively: tau_1 closes a handle
            sub = _CUT_JOIN[g - 1, _desc(rest + [d, l - d])] if g > 0 else 0
            # tau_2..tau_r have two orbits, one per piece, which tau_1 joins;
            # C(r - 1, r1) interleaves the r1 transpositions of the first
            for left, right, choose in splits:
                a, b = _desc(left + [d]), _desc(right + [l - d])
                size_a = sum(a) + len(a)
                for g1 in range(g + 1):
                    r1 = 2 * g1 - 2 + size_a
                    sub += (
                        choose
                        * math.comb(r - 1, r1)
                        * _CUT_JOIN[g1, a]
                        * _CUT_JOIN[g - g1, b]
                    )
            total += ways * sub
    return total


def _cut_join_count(spec: CoveringSpec, node_budget: int) -> int:
    """Tuple count of a spec with at most one profile, by cut-and-join."""
    n, g = spec.n, spec.g
    # the table for (g, n) holds one entry per (genus <= g, partition of
    # k <= n); checked before any work, so a warm table cannot hide the
    # size of the problem
    entries = (g + 1) * sum(_partition_counts(n)[1:])
    if entries > node_budget:
        raise BudgetExceeded(
            f"cut-and-join table would hold {entries} entries (> {node_budget})"
        )
    # cells in dependency order: size, then genus, then number of parts
    for k in range(1, n + 1):
        for h in range(g + 1):
            if (h, (1,) * k) in _CUT_JOIN:
                continue
            for nu in sorted((p.parts for p in partitions_of(k)), key=len):
                _CUT_JOIN[h, nu] = _cut_join_entry(h, nu)
    sigma = spec.mus[0].nontrivial() if spec.mus else ()
    nu = sigma + (1,) * (n - sum(sigma))
    return conjugacy_class_size(Partition(sigma), n) * _CUT_JOIN[g, nu]


def _class_dp_count(spec: CoveringSpec, node_budget: int) -> int:
    """Tuple count of a spec with at least one profile, by the class DP."""
    n = spec.n
    # the first profile is pinned to one class representative and scaled
    # by its class size; conjugation symmetry makes every representative
    # contribute equally.  Remaining profiles range over their full class.
    first = spec.mus[0].nontrivial()
    rep = perm_from_cycle_lengths(first, n)
    scale = conjugacy_class_size(Partition(first), n)
    start: dict[int, int] = {}
    pools = [list(class_elements(n, mu.nontrivial())) for mu in spec.mus[1:]]
    est = scale
    for pool in pools:
        est *= len(pool)
    if est > node_budget:
        raise BudgetExceeded(
            f"profile enumeration would visit ~{est} tuples (> {node_budget})"
        )
    for rest in _iproduct(*pools):
        sid = _intern(_canon(_join_blocks(n, (rep,) + rest)))
        start[sid] = start.get(sid, 0) + scale
    return _walk_count(n, start, spec.c, node_budget)


_CONNECTED_CACHE: dict[tuple, Fraction] = {}


def hurwitz_connected(
    spec: CoveringSpec, node_budget: int = DEFAULT_NODE_BUDGET
) -> Fraction:
    """Connected marked covering count, weighted 1/|Aut|, as an exact rational.

    Tuple count over the monodromy data divided by n!; the division is the
    orbit-stabilizer form of the automorphism weight.  Specs with at most
    one profile are counted by cut-and-join, the others by the class DP.
    """
    key = (spec.g, spec.n, tuple(mu.parts for mu in spec.mus))
    cached = _CONNECTED_CACHE.get(key)
    if cached is not None:
        return cached
    weight = spec.marking_weight()
    if weight == 0:
        return Fraction(0)
    route = _cut_join_count if len(spec.mus) <= 1 else _class_dp_count
    value = Fraction(weight * route(spec, node_budget), math.factorial(spec.n))
    _CONNECTED_CACHE[key] = value
    return value


def hurwitz_disconnected(
    spec: CoveringSpec, character_limit: int = DEFAULT_CHARACTER_LIMIT
) -> Fraction:
    """The same weighted count without the transitivity requirement,
    via the class-algebra character sum (independent cross-check route)."""
    n, c = spec.n, spec.c
    if n > character_limit:
        raise BudgetExceeded(
            f"character table for n={n} exceeds the configured limit {character_limit}"
        )
    weight = spec.marking_weight()
    if weight == 0:
        return Fraction(0)
    sigma_types = [
        Partition(list(mu.nontrivial()) + [1] * (n - sum(mu.nontrivial())))
        for mu in spec.mus
    ]
    if n >= 2:
        tau_type = Partition([2] + [1] * (n - 2))
        tau_size = conjugacy_class_size(tau_type)
    else:
        tau_type = None
        tau_size = 0
    if c > 0 and n < 2:
        return Fraction(0)
    total = Fraction(0)
    for shape in partitions_of(n):
        dim = irrep_dimension(shape)
        term = Fraction(dim, 1) ** 2
        for st in sigma_types:
            term *= Fraction(conjugacy_class_size(st) * character(shape, st), dim)
        if c > 0:
            term *= Fraction(tau_size * character(shape, tau_type), dim) ** c
        total += term
    tuples = total / math.factorial(n)
    return Fraction(weight, math.factorial(n)) * tuples


def clear_caches() -> None:
    """Drop memoized covering counts and the cut-and-join table (the class
    graph is kept)."""
    _CONNECTED_CACHE.clear()
    _CUT_JOIN.clear()
