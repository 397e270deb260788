"""Labeled-tree enumeration and distance statistics over marked vertex pairs.

Trees on n vertices are streamed by decoding every Pruefer sequence, which
covers each of the n^{n-2} labeled trees exactly once.  The two dendrology
statistics sum, over all trees and ordered marked pairs (a, b):

    p_{n,k} = sum C(l, k)   and   m_{n,k} = sum l^k,

where l is the a-b path length.  Both read the distance histogram in closed
form (a path times the rooted forests hanging off it); no tree is enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterator

from .errors import BudgetExceeded, Record

ENUMERATION_LIMIT = 8


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

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for a, b in self.edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def distances_from(self, root: int) -> list[int]:
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


def tree_from_pruefer(seq: tuple[int, ...], n: int) -> LabeledTree:
    """Decode a Pruefer sequence over {1..n} (length n-2) into a tree."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    # leaves kept in a min-ordered scan; classic O(n^2) decode is fine at n <= 8
    used = [False] * (n + 1)
    seq_list = list(seq)
    for v in seq_list:
        for leaf in range(1, n + 1):
            if degree[leaf] == 1 and not used[leaf]:
                edges.append((leaf, v))
                used[leaf] = True
                degree[v] -= 1
                break
    last = [v for v in range(1, n + 1) if not used[v] and degree[v] == 1]
    edges.append((last[0], last[1]))
    return LabeledTree(n, tuple(edges))


def _check_size(n: int, limit: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise BudgetExceeded(f"tree enumeration for n={n} exceeds the configured limit {limit}")


def enumerate_trees(n: int, limit: int = ENUMERATION_LIMIT) -> Iterator[LabeledTree]:
    """Stream all labeled trees on n vertices (n^{n-2} of them for n >= 2)."""
    _check_size(n, limit)
    if n == 1:
        yield LabeledTree(1, ())
        return
    if n == 2:
        yield LabeledTree(2, ((1, 2),))
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def distance_histogram(n: int, limit: int = ENUMERATION_LIMIT) -> tuple[int, ...]:
    """hist[l] = number of (tree, ordered pair (a, b), a != b) at distance l.

    Closed form: the a-b path is one of n!/(n-l-1)! sequences of l+1
    distinct vertices, and the trees containing it are the rooted forests
    with those l+1 roots, (l+1) n^(n-l-1) / n of them (one when l = n-1).
    The limit is kept for CLI compatibility: n above it is refused
    (`cayley --limit`, exit 3).
    """
    _check_size(n, limit)
    return (0,) + tuple(math.perm(n, l + 1) * (l + 1) * n ** (n - l - 1) // n for l in range(1, n))


def dendrology_p(n: int, k: int, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """sum over marked trees of C(l, k); equals n! [q^n] Z^{k+1}."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    hist = distance_histogram(n, limit)
    return Fraction(sum(count * math.comb(l, k) for l, count in enumerate(hist)))


def dendrology_m(n: int, k: int, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """sum over marked trees of l^k (the k-th moment of the mark distance)."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    hist = distance_histogram(n, limit)
    return Fraction(sum(count * l**k for l, count in enumerate(hist)))


def stirling_second(k: int, j: int) -> int:
    """Partition-count Stirling numbers S(k, j)."""
    if j > k or j < 0:
        return 0
    if k == 0:
        return 1 if j == 0 else 0
    return j * stirling_second(k - 1, j) + stirling_second(k - 1, j - 1)


def moment_from_binomials(n: int, k: int, limit: int = ENUMERATION_LIMIT) -> Fraction:
    """m_{n,k} recomputed as sum_j S(k,j) j! p_{n,j}; independent route."""
    total = Fraction(0)
    for j in range(1, k + 1):
        total += stirling_second(k, j) * math.factorial(j) * dendrology_p(n, j, limit)
    return total

