"""Bethe roots from Baxter's TQ relation, matched to the brute-force spectrum.

Each sector eigenvalue is an exact exponential sum, so Baxter's relation
Lambda Q(x) = phi1 lam_a Q(x - gamma) + phi2 lam_d Q(x + gamma) is a linear
system for the coefficients of Q(x) = prod sinh(x - w_l); its null vector
gives one root set per eigenvalue, polished by Newton on the residue form.
At the homogeneous untwisted point one sector-2 root set is the exact
*singular* pair {0, -gamma}, on which both sides of the residue form vanish
identically; beyond the equator (n = 3) Q has no degree n.  At a twisted
inhomogeneous point a near-singular pair is carried as (w, delta).
"""

import numpy as np

from sixvertex import ModelParams, diagonalize_sector
from sixvertex.bethe import (RootEigenvalue, conditioning, match_spectrum,
                             solve_bae)

params = ModelParams(L=4, gamma=0.7)

for n in (1, 2, 3):
    es = diagonalize_sector(params, n)
    sols = solve_bae(es)
    # Newton counts a set converged at a relative residual <= 1e-12
    print(f"sector n={n}: {len(sols)} root sets, {conditioning(sols, es, 1e-12)}")
    for s in sols:
        tag = "  (singular pair)" if s.singular else ""
        print(f"   {np.round(np.asarray(s.roots), 6)}   "
              f"residual {s.residual:.1e}{tag}")
    if sols:
        rep = match_spectrum(params, n, sols, es)
        print(f"   matched {len(rep.pairs)}/{es.size} oracle eigenvalues, "
              f"max relative TQ residual {rep.max_deviation:.2e}")

# a twisted inhomogeneous L=6 point with a near-singular n=2 pair: root j is
# carried as w_i - gamma + delta, so the tiny factor sinh(delta) is exact
rng = np.random.default_rng(12)
p6 = ModelParams(L=6, gamma=0.7, mu=tuple(rng.uniform(-0.3, 0.3, 6)),
                 phi1=rng.uniform(0.7, 1.4), phi2=rng.uniform(0.7, 1.4))
for s in solve_bae(diagonalize_sector(p6, 2)):
    for i, j, d in s.pairs:
        print(f"\nL=6 near-singular pair: w_{j} = w_{i} - gamma + delta, "
              f"|delta| = {abs(d):.1e}, residual {s.residual:.1e}")

# closed form at work: L=2 has the analytic root w = -gamma/2
p2 = ModelParams(L=2, gamma=0.7)
w = -0.35
x = 0.9
lam = RootEigenvalue([w], p2)(x)
expect = (np.sinh(x - 0.35) * np.sinh(x + 0.7) ** 2
          + np.sinh(x + 1.05) * np.sinh(x) ** 2) / np.sinh(x + 0.35)
print("\nL=2 closed form check:", abs(lam - expect))
