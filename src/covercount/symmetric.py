"""Partitions, conjugacy class sizes, and irreducible characters of S_n.

Classes are named by cycle type; no permutation is ever built.  Shapes are
beta-sets (James-Kerber, *The Representation Theory of the Symmetric Group*,
2.7); ``monodromy.clear_caches`` empties the shape tables and columns.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, Record, as_int


class Partition(Record):
    """Ramification data: weakly decreasing positive parts; empty allowed."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        p = tuple(sorted(map(as_int, parts), reverse=True))
        if any(b < 1 for b in p):
            raise DomainError(f"partition parts must be positive: {p}")
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
        if sum(parts) > as_int(n):
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
def shape_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The shapes of n, their beta-sets lambda_i + n - 1 - i (i < n) as bit
    masks, dimensions and content sums, by the branching rule from the table
    of n - 1: a shape gains a bead at 0, adding a box moves one bead up into
    an empty place, dim(lambda) sums the dimensions it grows from, and the
    box adds its content, the bead's new place minus n.  Masks descend, which
    puts the shapes in reverse-lex order of their parts: where two shapes
    first differ, the larger part holds the higher bead."""
    if n == 0:
        return (0,), (1,), (0,)
    table: dict[int, list[int]] = {}  # mask -> [dimension, content sum]
    for mask, dim, content in zip(*shape_table(n - 1)):
        mask = mask << 1 | 1
        beads = mask & ~(mask >> 1)  # the beads with an empty place above
        while beads:
            low = beads & -beads
            beads ^= low
            grown = mask ^ low * 3  # the bead moves up one place
            entry = table.get(grown)
            if entry is None:  # the first parent to reach a shape sets its content
                table[grown] = [dim, content + low.bit_length() - n]
            else:
                entry[0] += dim
    masks = sorted(table, reverse=True)
    dims, contents = zip(*map(table.get, masks))
    return tuple(masks), dims, contents


# (m, parts) -> chi_lambda(parts + 1^(m - |parts|)) over the shapes of m
_COLUMNS: dict[tuple[int, tuple[int, ...]], list[int]] = {}


def character_column(m: int, parts) -> list[int]:
    """chi_lambda(parts + 1^(m - |parts|)) for every shape lambda of m, in
    ``shape_table(m)`` (reverse-lex) order, by the Murnaghan-Nakayama rule.

    A shape is its beta-set of m beads, a bit mask, and a rim hook of size k
    is a bead moved from b to an empty b + k, with sign (-1)^(beads strictly
    between).  The column of ``()`` is the dimensions; any other is one step
    from the stored column of (m - k, parts[:-1]), k = parts[-1]: each shape
    of m - k gains k beads at the bottom and adds a k-hook at every movable
    bead.  Each column is computed once and stored; callers share the list.
    """
    parts = tuple(parts)
    if not parts:
        return list(shape_table(m)[1])
    column = _COLUMNS.get((m, parts))
    if column is not None:
        return column
    k = parts[-1]
    acc: dict[int, int] = {}
    get = acc.get
    for mask, w in zip(shape_table(m - k)[0], character_column(m - k, parts[:-1])):
        if not w:
            continue
        mask = mask << k | (1 << k) - 1
        beads = mask & ~(mask >> k)  # the beads with an empty place k above
        while beads:
            low = beads & -beads
            beads ^= low
            high = low << k
            moved = mask ^ low ^ high
            if (mask & (high - (low << 1))).bit_count() & 1:  # odd beads between
                acc[moved] = get(moved, 0) - w
            else:
                acc[moved] = get(moved, 0) + w
    column = [get(mask, 0) for mask in shape_table(m)[0]]
    return _COLUMNS.setdefault((m, parts), column)


def character(shape: Partition, class_type: Partition) -> int:
    """Irreducible character chi_shape evaluated on the given class."""
    if shape.m != class_type.m:
        raise DomainError("shape and class are partitions of different n")
    n, parts = shape.m, shape.parts  # its beta-set as in shape_table(n)
    mask = sum(1 << (b + n - 1 - i) for i, b in enumerate(parts)) | (1 << n - len(parts)) - 1
    return character_column(n, class_type.nontrivial())[shape_table(n)[0].index(mask)]

