"""Differential identities carried by the spectrum.

Sector-1 eigenvalues solve a first-order quadratic (Riccati) ODE; sector-2
eigenvalues solve a second-order identity obtained here as an exact
coalescing-point reduction of the three-point functional equation, plus a
standard Riccati form at the homogeneous untwisted point.  The h-functions
built from the roots solve an integer-coefficient ODE chain whose
linearization is annihilated by an explicit constant-coefficient operator,
and they drive travelling-wave solutions of a family of nonlinear PDEs.
"""

import numpy as np

from sixvertex import ModelParams, HighestWeightData, diagonalize_sector
from sixvertex import odes
from sixvertex.bethe import CothSum, solve_bae

params = ModelParams(L=4, gamma=0.7)
hw = HighestWeightData(params)

# sector eigenvalues are exact exponential sums: exact derivatives of any order
lam1 = diagonalize_sector(params, 1).lam(0)
print("sector-1 Riccati residual:",
      abs(odes.riccati_lambda_residual(lam1, 0.43, hw, params)))

lam2 = diagonalize_sector(params, 2).lam(0)
print("sector-2 second-order residual:",
      abs(odes.sigma2_residual(lam2, 0.63, hw, params)))
print("sector-2 standard Riccati residual:",
      abs(odes.riccati2_residual(lam2, 0.43, params)))

rng = np.random.default_rng(0)
for n in (1, 2, 3):
    roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    h = CothSum(roots)
    print(f"h-chain order {n} residual:",
          abs(odes.riccati_h_residual(h, 0.37, n)),
          "  annihilator:", odes.upsilon_annihilation(roots, n))

from sixvertex.bethe import RootEigenvalue
sols = solve_bae(diagonalize_sector(params, 1))
ev = RootEigenvalue(sols[0].roots, params)
print("\nlinearized second-order form residual:",
      odes.u_equation_residual(ev, (0.2, 1.2), hw, params, num=400))

print("\ntravelling-wave PDE convergence (order 2):")
roots = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
res, ratios = odes.pde_convergence(2, roots, omega=0.8, halvings=3)
for k, r in enumerate(res):
    print(f"   grid level {k}: residual {r:.3e}")
print("   halving ratios:", [f"{r:.2f}" for r in ratios])
