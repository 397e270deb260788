"""Distance statistics over marked vertex pairs of labeled trees.

The two dendrology statistics sum, over all n^{n-2} labeled trees on n
vertices and ordered marked pairs (a, b):

    p_{n,k} = sum C(l, k)   and   m_{n,k} = sum l^k,

where l is the a-b path length.  Both read the distance histogram in closed
form (a path times the rooted forests hanging off it); no tree is enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=1)  # `cayley` reads every k of one n in turn
def distance_histogram(n: int) -> tuple[int, ...]:
    """hist[l] = number of (tree, ordered pair (a, b), a != b) at distance l.

    Closed form: the a-b path is one of n!/(n-l-1)! sequences of l+1
    distinct vertices, and the trees containing it are the rooted forests
    with those l+1 roots, (l+1) n^(n-l-1) / n of them (one when l = n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (0,) + tuple(math.perm(n, l + 1) * (l + 1) * n ** (n - l - 1) // n for l in range(1, n))


def dendrology_p(n: int, k: int) -> Fraction:
    """sum over marked trees of C(l, k); equals n! [q^n] Z^{k+1}."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    hist = distance_histogram(n)
    return Fraction(sum(count * math.comb(l, k) for l, count in enumerate(hist)))


def dendrology_m(n: int, k: int) -> Fraction:
    """sum over marked trees of l^k (the k-th moment of the mark distance)."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    hist = distance_histogram(n)
    return Fraction(sum(count * l**k for l, count in enumerate(hist)))
