#!/usr/bin/env python3
"""Counting connected marked coverings of the sphere, exactly.

The oracle counts monodromy tuples (profile permutations followed by
transpositions multiplying to the identity, acting transitively) exactly,
for any number of profiles.  Connected counts of genus 0 or 1 and at most
one profile come from closed forms (Hurwitz's formula at genus 0, Vakil's
at genus 1); every other count comes from one integer table: Frobenius's
character formula gives the tuples without the transitivity condition, and
splitting off the orbit of the first sheet gives the transitive ones.
Below, every connected count takes a closed form (the tests compare both
with the table): the first count, both sides of the "oracle vs formula"
lines, the genus-1 series and all three fits.  Only the disconnected count
reads the table, its Frobenius column.
"""

import math

from covercount import (
    CoveringSpec,
    Partition,
    fit_phi,
    h0_closed,
    h_series,
    hurwitz_connected,
    hurwitz_disconnected,
    oracle_data,
)

print("Genus 0, three sheets, no profile: four branch points")
spec = CoveringSpec(0, 3, [])
print("  connected count:   ", hurwitz_connected(spec))
print("  disconnected count:", hurwitz_disconnected(spec))

print()
print("Oracle vs the genus-zero closed formula:")
for n, mu in [(4, (2,)), (5, (3, 1)), (6, (2, 2))]:
    o = hurwitz_connected(CoveringSpec(0, n, [Partition(mu)]))
    c = h0_closed(n, mu)
    print(f"  n={n}, profile {mu}: oracle {o}, formula {c}, equal: {o == c}")

print()
print("Genus 1 with no profile is the lone series outside the algebra:")
result = h_series(1, [], 16)
print("  identification status:", result.certificate.status)
print("  first values h_{1,n}:", [
    str(result.series.coefficient(n) * math.factorial(2 * n)) for n in range(1, 5)
])

print()
print("Normal-form inversion: fit the polynomial phi from counts alone.")
for g, mu in [(0, (1,)), (1, (1,)), (1, (2,))]:
    part = Partition(mu)
    data = oracle_data(g, part, range(max(1, part.m), max(1, part.m) + 6))
    fit = fit_phi(g, part, data)
    print(f"  genus {g}, profile {mu}: phi = {fit.phi.poly} "
          f"({fit.surplus_verified} surplus orders verified)")
