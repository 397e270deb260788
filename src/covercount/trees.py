"""Distance statistics over marked vertex pairs of labeled trees.

The two dendrology statistics sum, over all n^{n-2} labeled trees on n
vertices and ordered marked pairs (a, b):

    p_{n,k} = sum C(l, k)   and   m_{n,k} = sum l^k,

where l is the a-b path length.  Cutting the path at k chosen edges leaves
k+1 trees, each with an ordered pair of marked vertices (the ends of its
piece of the path), so p_{n,k} = n! [q^n] Z^{k+1}: the table reads it from
the powers Z^k = (X^{-1} - 1)^k = sum_i (-1)^(k-i) C(k, i) X^{-i}, passed
as integer columns to `algebra._egf_rows`, one X-power row per n, with no
series product.  Since l^k = sum_j j! S(k, j) C(l, j), with j! S(k, j) the
surjections of a k-set onto a j-set (S the Stirling numbers of the second
kind), m_{n,k} is the same sum over p_{n,j}.  No tree is built; the
closed-form distance histogram is a test oracle.
"""

from __future__ import annotations

import math

from .algebra import _egf_rows
from .errors import as_int


def dendrology(nmax: int, kmax: int) -> list[tuple[int, int, int, int]]:
    """Rows (n, k, m_{n,k}, p_{n,k}) for 2 <= n <= nmax and 1 <= k <= kmax, n outer."""
    if as_int(nmax) < 2 or as_int(kmax) < 1:
        return []
    powers = [
        {-i: (-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)} for k in range(2, kmax + 2)
    ]
    # surj[k][j] = j! S(k, j) = j (surj[k-1][j] + surj[k-1][j-1])
    surj = [[1]]
    for k in range(1, kmax + 1):
        prev = surj[-1] + [0]
        surj.append([0] + [j * (prev[j] + prev[j - 1]) for j in range(1, k + 1)])
    rows = []
    # p[k - 1] = p_{n,k} = n! [q^n] Z^(k+1), and surj[k][0] = 0 for k >= 1
    for n, p in enumerate(_egf_rows(range(2, nmax + 1), powers), 2):
        for k in range(1, kmax + 1):
            rows.append((n, k, sum(s * pj for s, pj in zip(surj[k][1:], p)), p[k - 1]))
    return rows
