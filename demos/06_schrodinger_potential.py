"""From the sector-2 Riccati equation to a stationary Schroedinger problem.

A log-derivative substitution turns the sector-2 Riccati equation (at the
homogeneous untwisted point) into  psi'' + V psi = psi  with a closed-form
potential controlled by omega0 = sqrt(Lambda(0)/c^L), an L-th root of unity
up to sign.  omega0 = i gives a bounded positive barrier, omega0 = 1 an
infinite well with a pole at x = -gamma/2; growing anisotropy pushes the
feature toward negative x.
"""

import numpy as np

from sixvertex import ModelParams, diagonalize_sector
from sixvertex import odes

params = ModelParams(L=4, gamma=0.7)

es = diagonalize_sector(params, 2)
print("permutation power deviation ||O^L - Id||:",
      odes.omega0_power_deviation(params))
devs = odes.omega0_sector_deviations(params, {2: es.lam()})
print("sector-2 deviations of (Lam(0)/c^L)^L from 1:",
      [f"{d:.1e}" for d in devs[2]])

# psi''/psi = r' + r^2 with r = (Lam - beta)/alpha, judged pointwise for every
# sector-2 eigenvalue: one call for the sector's stack and all points
xs = np.array([0.2, 0.7, 1.2])
print("\nSchroedinger-map residual (energy fixed at 1), worst per eigenvalue:",
      [f"{r:.1e}" for r in odes.schrodinger_map_residual(es.lam(), xs, params).max(axis=1)])
print("with the potential scaled by 1.1:",
      f"{odes.schrodinger_map_residual(es.lam(0), 0.7, params, potential_scale=1.1):.1e}")

for g in (0.1, 0.3, 5.43, 8.12):
    barrier = odes.potential_profile(1j, g, (-12, 6), 1801)
    center = barrier.xs[int(np.nanargmax(barrier.values.real))]
    well = odes.potential_profile(1.0, g, (-12, 6), 1801)
    print(f"gamma={g:5.2f}: barrier peak at x = {center:+.3f}, "
          f"well pole at x = {well.poles[0]:+.3f} (exactly -gamma/2)")

print("\nemit CSV + SVG with:  sixvertex potential --omega0 i "
      "--gammas 0.1,0.3,5.43,8.12 --out out/")
