#!/usr/bin/env python3
"""Distance statistics over doubly-marked labeled trees, two ways.

The binomial statistic p_{n,k} sums C(l, k) over all trees on n vertices
and ordered marked pairs at distance l.  Splitting the path at k chosen
edges biject these objects with (k+1)-tuples of marked trees, so the
count from the closed-form distance histogram (no tree is enumerated)
must reproduce n! [q^n] Z^{k+1} -- and it does.
"""

from covercount import dendrology_m, dendrology_p, series_z
from covercount.algebra import a_closed

print("n  k   p_{n,k}   n![q^n]Z^{k+1}   m_{n,k}")
for n in range(2, 8):
    for k in range(1, 4):
        p = dendrology_p(n, k)
        z_side = (series_z(n) ** (k + 1)).egf_coefficient(n)
        m = dendrology_m(n, k)
        flag = "" if p == z_side else "  <-- MISMATCH"
        print(f"{n}  {k}  {str(p):>9}   {str(z_side):>12}   {str(m):>9}{flag}")

print()
print("k = 1 recovers the total height of labeled trees (the A sequence):")
print("  enumeration:", [dendrology_p(n, 1) for n in range(2, 8)])
print("  closed form:", [a_closed(n) for n in range(2, 8)])
