"""Differential identities carried by the spectrum.

Sector-1 eigenvalues solve a first-order quadratic (Riccati) ODE; sector-2
eigenvalues solve a second-order identity obtained here as an exact
coalescing-point reduction of the three-point functional equation, plus a
standard Riccati form at the homogeneous untwisted point.  The h-functions
built from the roots solve an integer-coefficient ODE chain whose
linearization is annihilated by an explicit constant-coefficient operator,
and they drive travelling-wave solutions of a family of nonlinear PDEs,
checked pointwise with exact derivatives.
"""

import numpy as np

from sixvertex import ModelParams, diagonalize_sector
from sixvertex import odes
from sixvertex.bethe import CothSum, solve_bae

params = ModelParams(L=4, gamma=0.7)

# sector eigenvalues are exact exponential sums: exact derivatives of any order
lam1 = diagonalize_sector(params, 1).lam(0)
print("sector-1 Riccati residual:",
      abs(odes.riccati_lambda_residual(lam1, 0.43, params)))

lam2 = diagonalize_sector(params, 2).lam(0)
print("sector-2 second-order residual:",
      abs(odes.sigma2_residual(lam2, 0.63, params)))
print("sector-2 standard Riccati residual:",
      abs(odes.riccati2_residual(lam2, 0.43, params)))

rng = np.random.default_rng(0)
for n in (1, 2, 3):
    roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    h = CothSum(roots)
    print(f"h-chain order {n} residual:",
          abs(odes.riccati_h_residual(h, 0.37, n)),
          "  annihilator:", odes.upsilon_annihilation(roots, n))

# with u'/u = Lam/(c lam_minus), the linear second-order equation for u,
# divided by u, is minus the sector-1 Riccati numerator: judge it on the
# eigenvalue built from a Bethe root
from sixvertex.bethe import RootEigenvalue
sols = solve_bae(diagonalize_sector(params, 1))
ev = RootEigenvalue(sols[0].roots, params)
print("\nlinearized second-order form residual:",
      max(abs(odes.riccati_lambda_residual(ev, x, params))
          for x in (0.2, 0.7, 1.2)))

# psi(chi, tau) = h(chi - omega tau): every derivative is exact, and a 1% error
# in the speed the PDE's coefficients assume is rejected
print("\ntravelling-wave PDE residuals at X = 0.37 (omega = 0.8):")
for n in (1, 2, 3):
    roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    on = odes.pde_travelling_wave_residual(n, roots, 0.8, 0.37)
    off = odes.pde_travelling_wave_residual(n, roots, 0.8, 0.37, omega_pde=0.808)
    print(f"   order {n}: {on:.1e}   (coefficients at 1.01 omega: {off:.1e})")
