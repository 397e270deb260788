#!/usr/bin/env python3
"""Distance statistics over doubly-marked labeled trees, two ways.

The binomial statistic p_{n,k} sums C(l, k) over all trees on n vertices
and ordered marked pairs at distance l.  Splitting the path at k chosen
edges biject these objects with (k+1)-tuples of marked trees, so the
count from the closed-form distance histogram below (no tree is
enumerated) must reproduce n! [q^n] Z^{k+1}, which is what the library
reads from the powers of Z -- and it does.
"""

import math

from covercount import dendrology
from covercount.algebra import a_closed


def histogram(n):
    """hist[l]: (tree, ordered pair) at distance l, a path of l+1 distinct
    vertices times the (l+1) n^(n-l-1) / n rooted forests on its vertices."""
    return [0] + [math.perm(n, l + 1) * (l + 1) * n ** (n - l - 1) // n for l in range(1, n)]


rows = dendrology(7, 3)
print("n  k   p_{n,k}   n![q^n]Z^{k+1}   m_{n,k}")
for n, k, m, z_side in rows:
    p = sum(count * math.comb(l, k) for l, count in enumerate(histogram(n)))
    flag = "" if p == z_side else "  <-- MISMATCH"
    print(f"{n}  {k}  {str(p):>9}   {str(z_side):>12}   {str(m):>9}{flag}")

print()
print("k = 1 recovers the total height of labeled trees (the A sequence):")
print("  Z-powers:   ", [z_side for _, k, _, z_side in rows if k == 1])
print("  closed form:", [a_closed(n) for n in range(2, 8)])
