"""The auxiliary linear problem and its determinant structure.

Each eigenvalue Lambda induces a linear relation for the symmetric functions
F_n = <Psi| B(x_1)...B(x_n) |0>; extending the relation over variable swaps
gives a matrix that must be singular exactly on the spectrum.  Cramer minors
of that matrix transport F_n between point sets, loops compose to one, and
the log-derivative of a transport ratio generates conserved quantities.
The bra <Psi| is a left eigenvector of the sector-n block of T(x): B raises
the number of down spins by one, so only sector blocks of B(x) enter F_n.
"""

import numpy as np

from sixvertex import ModelParams, HighestWeightData, diagonalize_sector
from sixvertex import functional as fx

params = ModelParams(L=4, gamma=0.7)
hw = HighestWeightData(params)
es = diagonalize_sector(params, 2)
lam = es.lam(0)
leftvec = es.left[0]
pts = [0.31, -0.42, 0.55]

res, scale = fx.linear_relation_residual(pts, [lam], [leftvec], hw, params)
print("linear relation residual:", abs(res[0]), " (term scale", f"{scale[0]:.3f})")

print("compatibility determinant (on-shell): ",
      abs(fx.compatibility_residual(pts, lam, hw, params)))
print("compatibility determinant (1% off):   ",
      abs(fx.compatibility_residual(pts, lambda x: 1.01 * lam(x), hw, params)))

print("\ntransport loop 0->1->2->0:",
      fx.transport_loop([0, 1, 2], pts, lam, hw, params))

tv = fx.transport(1, 2, pts, lam, hw, params)
fi, fj = fx.f_n([[pts[0], pts[2]], [pts[0], pts[1]]], leftvec, params)[0]
print("det ratio vs direct F ratio:", abs(tv - fj / fi))

print("\ntheta conservation |d_j theta|:",
      fx.theta_conservation(0, 1, pts, lam, hw, params))

# the leading sector-1 conserved quantity is constant in x and equals a
# closed form in the Bethe root
es1 = diagonalize_sector(params, 1)
v1, _, _ = fx.conserved_n1(0.2, es1.lam(0), hw, params)
v2, _, _ = fx.conserved_n1(0.9, es1.lam(0), hw, params)
print("\nconserved quantity at x=0.2 and x=0.9:", v1, v2)
