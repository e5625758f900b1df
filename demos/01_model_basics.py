"""Build the model and look at its basic algebra.

The R-matrix carries the vertex weights a(x) = sinh(x + gamma),
b(x) = sinh(x), c = sinh(gamma).  An ordered product of R-matrices along the
chain, twisted by diag(phi1, phi2), gives the monodromy whose four blocks
A, B, C, D generate everything else.  The transfer matrix T = A + D (the
twist already lives inside the blocks) forms a commuting family in the
spectral parameter: that single fact powers the whole laboratory.

Every operator here moves the number n of down spins by a fixed amount (A, D
and T keep it, B raises it, C lowers it), so the lab builds and keeps only
their sector blocks: entry n of each list is the block from sector n, stacked
over the points asked for.
"""

import numpy as np

from sixvertex import (ModelParams, r_matrix, verify_ybe,
                       monodromy_blocks, transfer, yba_exchange_residual)

params = ModelParams(L=4, gamma=0.7, mu=(0.0, 0.0, 0.0, 0.0),
                     phi1=1.0, phi2=1.0)
print("model:", params)

print("\nR-matrix at x = 0.5:")
print(np.round(r_matrix(0.5, params.gamma), 4))

print("\nYang-Baxter residual at a random triple:",
      verify_ybe(0.3, -0.7, 1.1, params.gamma))

x, y = 0.31, -0.62
T = transfer([x, y], params)             # per sector: the stack (T(x), T(y))
comm = np.sqrt(sum(np.linalg.norm(Tn[0] @ Tn[1] - Tn[1] @ Tn[0]) ** 2 for Tn in T))
print(f"||[T({x}), T({y})]||_F =", comm)

# the A-B and D-B exchange relations on every pair of a point set
res, t_norm = yba_exchange_residual([x, y, 0.9], params)
print("exchange-relation residual, relative to max|T(x)|^2:", res / t_norm ** 2)

# the all-up state |0> spans sector 0: a joint eigenvector of A and D, and
# killed by C, which has no block from sector 0
A, B, C, D = monodromy_blocks([x], params)
print("\nA|0> = lam_a(x)|0> deviation:",
      abs(A[0][0, 0, 0] - params.phi1 * params.lam_a(x)))
print("rows of C from sector 0:", C[0].shape[1])
