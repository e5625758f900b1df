"""Build the model and look at its basic algebra.

The R-matrix carries the vertex weights a(x) = sinh(x + gamma),
b(x) = sinh(x), c = sinh(gamma).  An ordered product of R-matrices along the
chain, twisted by diag(phi1, phi2), gives the monodromy whose four blocks
A, B, C, D generate everything else.  The transfer matrix T = A + D (the
twist already lives inside the blocks) forms a commuting family in the
spectral parameter: that single fact powers the whole laboratory.
"""

import numpy as np

from sixvertex import (ModelParams, HighestWeightData, r_matrix, verify_ybe,
                       monodromy_blocks, transfer, yba_exchange_residual)

params = ModelParams(L=4, gamma=0.7, mu=(0.0, 0.0, 0.0, 0.0),
                     phi1=1.0, phi2=1.0)
print("model:", params)

print("\nR-matrix at x = 0.5:")
print(np.round(r_matrix(0.5, params.gamma), 4))

print("\nYang-Baxter residual at a random triple:",
      verify_ybe(0.3, -0.7, 1.1, params.gamma))

x, y = 0.31, -0.62
Tx, Ty = transfer(x, params), transfer(y, params)
comm = np.linalg.norm(Tx @ Ty - Ty @ Tx)
print(f"||[T({x}), T({y})]||_F =", comm)

res, t_norm = yba_exchange_residual(x, y, params)
print("exchange-relation residual, relative to max|T(x)|^2:", res / t_norm ** 2)

# the all-up state is a joint eigenvector of A and D and is killed by C
hw = HighestWeightData(params)
A, B, C, D = monodromy_blocks(x, params)
e0 = np.zeros(params.dim)
e0[0] = 1.0
print("\nA|0> = lam_a(x)|0> deviation:",
      np.abs(A @ e0 - params.phi1 * hw.lam_a(x) * e0).max())
print("C|0> =", np.abs(C @ e0).max())
