"""Partitions, permutations, conjugacy classes, and irreducible characters.

Permutations are tuples p of length n with p[i] = image of i (0-based);
products compose left to right: (p * q)(x) = q(p(x)), matching the
monodromy convention where factors act in tuple order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations as _iperm
from typing import Iterator

from .errors import DomainError, Record


class Partition(Record):
    """Ramification data: weakly decreasing positive parts; empty allowed."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        p = tuple(sorted((int(b) for b in parts), reverse=True))
        if any(b < 1 for b in p):
            raise DomainError(f"partition parts must be positive: {parts}")
        object.__setattr__(self, "parts", p)

    @classmethod
    def from_multiplicities(cls, mult: dict[int, int]) -> "Partition":
        parts = []
        for size, count in mult.items():
            parts.extend([size] * count)
        return cls(parts)

    @property
    def m(self) -> int:
        """Total weight sum b_i."""
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def degeneracy(self) -> int:
        """r = sum (b_i - 1) = m - p."""
        return self.m - self.num_parts

    def multiplicity(self, size: int) -> int:
        return sum(1 for b in self.parts if b == size)

    @property
    def aut(self) -> int:
        """|Aut| = product over part sizes of (multiplicity)!."""
        out = 1
        for size in set(self.parts):
            out *= math.factorial(self.multiplicity(size))
        return out

    def nontrivial(self) -> tuple[int, ...]:
        return tuple(b for b in self.parts if b >= 2)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")" if self.parts else "()"


def perm_mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product: x -> q(p(x))."""
    return tuple(q[p[x]] for x in range(len(p)))


def perm_cycles(p: tuple[int, ...]) -> list[list[int]]:
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


def cycle_type(p: tuple[int, ...]) -> Partition:
    return Partition(len(c) for c in perm_cycles(p))


def perm_from_cycle_lengths(lengths: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A canonical representative with the given nontrivial cycle lengths."""
    if sum(lengths) > n:
        raise DomainError("cycle lengths exceed n")
    p = list(range(n))
    pos = 0
    for l in lengths:
        for i in range(l - 1):
            p[pos + i] = pos + i + 1
        p[pos + l - 1] = pos
        pos += l
    return tuple(p)


def conjugacy_class_size(cycle_partition: Partition, n: int | None = None) -> int:
    """Size of the class with the given full cycle type (padded to n if given)."""
    parts = list(cycle_partition.parts)
    if n is not None:
        if sum(parts) > n:
            raise DomainError("cycle type does not fit in S_n")
        parts += [1] * (n - sum(parts))
    n_total = sum(parts)
    denom = 1
    for size in set(parts):
        a = parts.count(size)
        denom *= size**a * math.factorial(a)
    return math.factorial(n_total) // denom


def class_elements(n: int, lengths) -> Iterator[tuple[int, ...]]:
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
                for arr in _iperm(companions):
                    for tail in cycle_sets(remaining, rest_ps):
                        yield [(first,) + arr] + tail

    for support in combinations(range(n), m):
        for cycs in cycle_sets(support, lengths):
            p = list(range(n))
            for cyc in cycs:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    p[a] = b
            yield tuple(p)


# ---------------------------------------------------------------------------
# characters


@lru_cache(maxsize=None)
def shape_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shapes of n, their beta-sets lambda_i + n - 1 - i (i < n) as bit
    masks, and their dimensions, by the branching rule from the table of
    n - 1: a shape gains a bead at 0, adding a box moves one bead up into an
    empty place, and dim(lambda) sums the dimensions it grows from.  Masks
    descend, which is ``partitions_of(n)`` (reverse-lex) order: where two
    shapes first differ, the larger part holds the higher bead."""
    if n == 0:
        return (0,), (1,)
    dims: dict[int, int] = {}
    for mask, dim in zip(*shape_table(n - 1)):
        mask = mask << 1 | 1
        beads = mask & ~(mask >> 1)  # the beads with an empty place above
        while beads:
            low = beads & -beads
            beads ^= low
            grown = mask ^ low ^ (low << 1)
            dims[grown] = dims.get(grown, 0) + dim
    masks = sorted(dims, reverse=True)
    return tuple(masks), tuple([dims[mask] for mask in masks])


def _bead_mask(parts: tuple[int, ...], n: int) -> int:
    """The beta-set lambda_i + n - 1 - i (i < n) of a shape of n, as a bit mask."""
    return sum(1 << (b + n - 1 - i) for i, b in enumerate(parts)) | (1 << n - len(parts)) - 1


def character_column(m: int, parts) -> list[int]:
    """chi_lambda(parts + 1^(m - |parts|)) for every shape lambda of m, in
    ``partitions_of(m)`` order, by the Murnaghan-Nakayama rule.

    A shape is its beta-set of m beads, a bit mask.  Stripping a rim hook of
    size k moves a bead from b to an empty b - k, with sign (-1)^(beads
    strictly between).  The strips run backwards, from the leaves: each shape
    of m - |parts| carries its dimension (the fixed points' standard
    tableaux) and moves one bead up by each part in turn, so every shape of m
    collects its whole signed sum in one pass.
    """
    pad = sum(parts)  # the beads a shape of m - |parts| lacks, all at the bottom
    leaves = zip(*shape_table(m - pad))
    layer = {mask << pad | (1 << pad) - 1: dim for mask, dim in leaves}
    for k in parts:
        nxt: dict[int, int] = {}
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


def character(shape: Partition, class_type: Partition) -> int:
    """Irreducible character chi_shape evaluated on the given class."""
    if shape.m != class_type.m:
        raise DomainError("shape and class are partitions of different n")
    column = character_column(shape.m, class_type.nontrivial())
    return column[shape_table(shape.m)[0].index(_bead_mask(shape.parts, shape.m))]


def partitions_of(n: int) -> Iterator[Partition]:
    def gen(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)
