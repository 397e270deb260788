"""Independent reference computations for the test suite.

These deliberately use the dumbest correct method available (full tuple
enumeration, direct convolutions) so they share no code path with the
implementations they check.  The Fraction series product, inverse
recurrence and A_n sum below are the library's former routes, kept here as
references for its integer kernels; so are the two former covering-count
routes (the class-level dynamic program and the cut-and-join recursion) and
the Murnaghan-Nakayama recursion on shapes, references for the character
table of `covercount.monodromy` and the beta-set characters of
`covercount.symmetric`.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from covercount.symmetric import (
    Partition,
    class_elements,
    conjugacy_class_size,
    partitions_of,
    perm_cycles,
    perm_from_cycle_lengths,
    perm_mult,
)


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
