"""Partitions, conjugacy class sizes, and irreducible characters of S_n.

Classes are named by cycle type; no permutation is ever built.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
