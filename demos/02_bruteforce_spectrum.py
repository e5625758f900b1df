"""Brute-force spectral oracle.

T(x) commutes with itself across spectral parameters, so one diagonalization
at a generic point x* fixes the eigenvectors once and for all; each
eigenvalue then extends to a function of x through a bilinear form.  Every
eigenvalue, rescaled by u^{L/2} with u = exp(2x), is a polynomial in u of
degree at most L -- the boundary condition that later discretizes the
Bethe-root picture.  The oracle samples each sector block at the L+1 roots
of unity in u, so every eigenvalue is an exact exponential sum; the residual
printed below compares that sum with T(x) built directly at L+6 fresh points.
"""

import numpy as np

from sixvertex import (ModelParams, diagonalize_sector, polynomial_residuals,
                       transfer)

params = ModelParams(L=4, gamma=0.7)

systems = [diagonalize_sector(params, n) for n in range(params.L + 1)]
for n, es, residuals in zip(range(params.L + 1), systems,
                            polynomial_residuals(systems)):
    print(f"sector n={n}: dimension {es.size}")
    for k in range(es.size):
        print(f"   eigenvalue {k}: Lam(0.5) = {es.eigenvalue(k, 0.5):+.6f}   "
              f"exact sum vs direct build {residuals[k]:.1e}")

# the exact sum differentiates exactly; compare with a finite difference of
# the direct bilinear form <left| T(x) |right>
es = diagonalize_sector(params, 2)
idx = np.ix_(es.indices, es.indices)
direct = lambda x: es.left[0] @ transfer(x, params)[idx] @ es.right[:, 0]
x = 0.4
h = 1e-5
fd = (direct(x + h) - direct(x - h)) / (2 * h)
print("\nexact derivative vs finite difference:", abs(es.lam(0)(x, 1) - fd))
