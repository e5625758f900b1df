"""Auxiliary linear problem for transfer-matrix eigenvalues.

An eigenvalue function Lambda enters a linear system for the symmetric
functions F_n = <Psi| B(x_1)...B(x_n) |0>:

    sum_i M_i(x_0..x_n) F_n(points minus x_i) = 0

whose (n+1)x(n+1) extension over variable swaps (row j is row 0 at the
x_0 <-> x_j swapped points) must be singular.  That extended matrix is
m - diag(Lambda(x_0), ..., Lambda(x_n)), with m the Lambda-free closed form
`symmetric_m_matrix`, built once per point set.  This module builds it and
its Cramer minors, the explicit n=1 and n=2 scalar identities (det(m -
diag Lambda) expanded by hand), transport ratios between the F_n values,
the conservation of the theta generating function built from them, and the
leading sector-1 conserved quantity.  `linear_relation_residual` checks
row 0 against F_n built from the B operators, so the matrix keeps a
reference independent of its closed form.

Points may be complex scalars or complex arrays of one node shape (one
point set per node), mixed and broadcast to one shape, and an eigenvalue
may be a stack (`model.ExpSum` with K rows, one per eigenpair of a sector);
eigenvalue evaluators must accept arrays.  Every array here has one layout,
eigenpair axis first, node axes next, matrix (or coefficient) axes last:
`(K,) + node shape + (n+1, n+1)` for the extended matrix, without the K
axis for a single eigenvalue.  A whole sector and node grid is so one numpy
evaluation, a scalar point set is its 0-d case, and determinants are per
eigenpair and node.  `tilde_v_spread` and `theta_conservation` take one
eigenvalue and a scalar point set.

The vacuum eigenvalues come from the model (`ModelParams.lam_a`, `lam_d`,
`lam_plus`, `lam_minus`), so each function takes the eigenvalue and
`params`, as in `extended_matrix(pts, lam, params)`; the Cramer minors and
transport ratios take that extended matrix M instead.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, cauchy_taylor, monodromy_blocks

__all__ = [
    "SingularTransport",
    "extended_matrix",
    "extended_rank",
    "compatibility_residual",
    "separation_threshold",
    "symmetric_m_matrix",
    "nonlinear_eq_n1_residual",
    "nonlinear_eq_n2_residual",
    "f_n",
    "linear_relation_residual",
    "v_matrix",
    "transport",
    "transport_loop",
    "tilde_v_det",
    "tilde_v_spread",
    "theta_conservation",
    "conserved_n1",
    "conserved_n1_closed_form",
]

_MIN_SEPARATION = 1e-6
# circle radius and nodes of the Cauchy rule for the derivatives behind theta.
# On the spectrum T_{i->j} factorizes in x_i and x_j, which the rule keeps
# whatever its aliasing, so the radius sets the rounding only: 0.02 keeps the
# circle off a pole of T_{0->1} that sits 0.04 from x_1 at reference L=7
_CAUCHY_RADIUS, _CAUCHY_NODES = 0.02, 8


class SingularTransport(RuntimeError):
    """A Cramer determinant is numerically null; the transport ratio is undefined."""


def _validate(points):
    """Points broadcast to one shape and stacked on a last axis (shape node
    shape + (n+1,)); raises ValueError if two points are unseparated at any
    node."""
    X = np.stack(np.broadcast_arrays(*(np.asarray(p, dtype=complex)
                                       for p in points)), axis=-1)
    n = X.shape[-1] - 1
    # every pair i < j in lexicographic order (np.triu_indices costs more here)
    i, j = np.nonzero(np.less.outer(np.arange(n + 1), np.arange(n + 1)))
    close = np.abs(np.sinh(X[..., i] - X[..., j])) <= _MIN_SEPARATION
    close = np.any(close, axis=tuple(range(X.ndim - 1)))
    if close.any():  # name the first unseparated pair
        i, j = i[close][0], j[close][0]
        raise ValueError(
            f"spectral points {i} and {j} are (mod i*pi) too close: "
            f"|sinh(x_{i}-x_{j})| <= {_MIN_SEPARATION}"
        )
    return X, n


def symmetric_m_matrix(pts, params: ModelParams):
    """Lambda-free coefficient matrix m[i, j] of the linear problem, from its
    closed form: `extended_matrix` is m - diag(Lambda), and the explicit
    identities read m itself."""
    X, n = _validate(pts)
    a, b = params.a, params.b
    idx = np.arange(n + 1)
    diag = np.eye(n + 1, dtype=bool)
    # keep[i, j, k]: k outside {i, j}, which also keeps b(0) on the diagonal out
    keep = (idx[:, None, None] != idx) & (idx[:, None] != idx)
    xj, xk = X[..., None, :, None], X[..., None, None, :]
    # pa[i, j] = prod_k a(x_k - x_j)/b(x_k - x_j), pd[i, j] = prod_k a(x_j - x_k)/b(x_j - x_k)
    pa = np.prod(np.where(keep, a(xk - xj) / np.where(keep, b(xk - xj), 1), 1), axis=-1)
    pd = np.prod(np.where(keep, a(xj - xk) / np.where(keep, b(xj - xk), 1), 1), axis=-1)
    va = params.phi1 * pa * params.lam_a(X)[..., None, :]
    vd = params.phi2 * pd * params.lam_d(X)[..., None, :]
    bij = np.where(diag, 1, b(X[..., :, None] - X[..., None, :]))
    return np.where(diag, va + vd, (params.c / bij) * (va - vd))


def extended_matrix(pts, lam, params: ModelParams):
    """(n+1)x(n+1) system matrix m - diag(Lambda(x_0), ..., Lambda(x_n)), m
    the Lambda-free `symmetric_m_matrix`.  Row 0 holds the coefficients M_i
    of the linear problem, and row j is row 0 at the x_0 <-> x_j swapped
    points with entries 0 and j swapped back into place."""
    X, n = _validate(pts)
    return symmetric_m_matrix(pts, params) - np.eye(n + 1) * np.asarray(lam(X))[..., None]


def compatibility_residual(M):
    """det of the extended matrix M, normalized by the product of row
    max-norms (scale-free; vanishes iff Lambda sits on the spectrum)."""
    return np.linalg.det(M) / np.maximum(np.prod(np.abs(M).max(axis=-1), axis=-1), 1e-300)


def _row_normalized_singular_values(M):
    norms = np.abs(M).max(axis=-1, keepdims=True)
    return np.linalg.svd(M / np.where(norms > 0, norms, 1.0), compute_uv=False)


def extended_rank(M):
    """Numerical rank of the extended matrix M (row-normalized)."""
    s = _row_normalized_singular_values(M)
    return np.sum(s > 1e-9 * s[..., :1], axis=-1)


def separation_threshold(M):
    """What |compatibility_residual| of a perturbed eigenvalue must exceed to
    count as separated from the on-shell eigenvalue of extended matrix M:
    30 times the larger of the on-shell value and its rounding level
    (n+1) eps s_1...s_n, with s_1 >= ... >= s_{n+1} the singular values of
    the row-normalized M.  Both scale like the determinant, so the bound is
    scale-free in n and L (an absolute floor is not: the 1%-off value falls
    below 1e-12 at L=10, n=3)."""
    s = _row_normalized_singular_values(M)
    rounding = s.shape[-1] * np.finfo(float).eps * np.prod(s[..., :-1], axis=-1)
    return 30 * np.maximum(np.abs(compatibility_residual(M)), rounding)


# ---------------------------------------------------------------------------
# explicit scalar identities: det(m - diag Lambda) expanded by hand at n = 1, 2

def nonlinear_eq_n1_residual(x0, x1, lam, params):
    """Two-point scalar identity for sector-1 eigenvalues (LHS - RHS)."""
    m = symmetric_m_matrix([x0, x1], params)
    L0, L1 = lam(x0), lam(x1)
    return (L0 * L1 - m[..., 1, 1] * L0 - m[..., 0, 0] * L1
            - (m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1]))


def nonlinear_eq_n2_residual(x0, x1, x2, lam, params):
    """Three-point scalar identity for sector-2 eigenvalues (LHS - RHS)."""
    m = symmetric_m_matrix([x0, x1, x2], params)
    L0, L1, L2 = lam(x0), lam(x1), lam(x2)
    det_m = np.linalg.det(m)
    rhs = (m[..., 2, 2] * L0 * L1 + m[..., 1, 1] * L0 * L2 + m[..., 0, 0] * L1 * L2
           + (m[..., 1, 2] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 2]) * L0
           + (m[..., 0, 2] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 2]) * L1
           + (m[..., 0, 1] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 1]) * L2
           + det_m)
    return L0 * L1 * L2 - rhs


# ---------------------------------------------------------------------------
# the symmetric function F_n and its linear relation

def f_n(point_sets, rows, params: ModelParams):
    """F_n(X) = <Psi| B(x_1)...B(x_n) |0>  for every bra and point set.

    `rows` stacks sector-n bras <Psi|, one per row, over the basis of
    `model.sector_indices(L, n)`; each X in `point_sets` holds n points.
    B(x) is built at every distinct point in one stacked call, and each
    product takes only its block from sector m - 1 into sector m.  Returns
    F[bra, point set].
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    n = len(point_sets[0])
    where = {x: k for k, x in enumerate(
        dict.fromkeys(complex(x) for X in point_sets for x in X))}
    _, B, _, _ = monodromy_blocks(list(where), params)
    out = np.empty((len(rows), len(point_sets)), dtype=complex)
    for s, X in enumerate(point_sets):
        v = rows
        for j, x in enumerate(X):
            v = v @ B[n - 1 - j][where[complex(x)]]
        out[:, s] = v[:, 0]
    return out


def linear_relation_residual(pts, lam, rows, params):
    """(residuals, scales) of  sum_i M_i F_n(pts minus x_i)  for each
    eigenpair (row k of the eigenvalue stack `lam`, sector-n bra rows[k]); a
    scale is the largest term."""
    X, n = _validate(pts)
    F = f_n([np.delete(X, i, axis=-1) for i in range(n + 1)], rows, params)
    terms = extended_matrix(pts, lam, params)[..., 0, :] * F
    return terms.sum(axis=-1), np.abs(terms).max(axis=-1)


# ---------------------------------------------------------------------------
# Cramer minors, transport, conserved quantities

def v_matrix(i, M):
    """n x n Cramer matrix of the extended matrix M: its rows 1..n with
    column i replaced by minus its column 0 (i = 0 keeps all columns)."""
    V = M[..., 1:, 1:].copy()
    if i != 0:
        V[..., i - 1] = -M[..., 1:, 0]
    return V


def transport(i, j, M):
    """Transport ratio F_n(X_j^0)/F_n(X_i^0) = det(V_j)/det(V_i) of the
    extended matrix M.  Raises SingularTransport where |det V_i| is at most
    1e-12 of the largest of the n+1 Cramer determinants at a node: F_n(X_k^0)
    is proportional to det V_k, so F_n(X_i^0) is then numerically zero
    against the point set's largest F_n (and a node whose determinants all
    vanish raises too)."""
    det = np.linalg.det(np.stack([v_matrix(k, M) for k in range(M.shape[-1])]))
    if np.any(np.abs(det[i]) <= 1e-12 * np.abs(det).max(axis=0)):
        raise SingularTransport(f"det(V_{i}) ~ 0 at this point set")
    return det[j] / det[i]


def transport_loop(indices, M):
    """Product of the transport ratios of M around a closed index sequence."""
    total = 1.0 + 0j
    for a, b in zip(indices, indices[1:] + indices[:1]):
        total *= transport(a, b, M)
    return total


def tilde_v_det(i, pts, M, params):
    """det of the rescaled Cramer matrix of the extended matrix M at `pts`,
    which drops the x_i dependence: column i of V_i multiplied by
    c^{-1} prod_j b(x_0 - x_j), every other column beta by b(x_0 - x_beta)."""
    if i == 0:
        raise ValueError("defined for i in 1..n")
    X, n = _validate(pts)
    if n < 2:
        raise ValueError("needs at least two moving points")
    w = params.b(X[..., :1] - X[..., 1:])
    w[..., i - 1] = np.prod(w, axis=-1) / params.c
    return np.linalg.det(v_matrix(i, M) * w[..., None, :])


def tilde_v_spread(i, pts, lam, params):
    """Max relative spread of det(tilde V_i) over five positions of x_i
    (steps of 0.23, skipping unseparated ones), evaluated as one node axis.

    The determinant is conjectured independent of x_i; a nonzero spread is a
    finding to report, not a bug to absorb.
    """
    X, _ = _validate(pts)
    n_values = 5
    shifted = X[i] + 0.23 * np.arange(8 * n_values)
    separated = np.all([np.abs(np.sinh(shifted - p)) > _MIN_SEPARATION
                        for k, p in enumerate(X) if k != i], axis=0)
    if separated.sum() < n_values:
        raise ValueError("could not place enough separated sample points")
    cand = list(X)
    cand[i] = shifted[separated][:n_values]
    vals = tilde_v_det(i, cand, extended_matrix(cand, lam, params), params)
    center = vals.mean()
    return float(np.abs(vals - center).max() / max(abs(center), 1e-300))


# ---------------------------------------------------------------------------
# generating function of conserved quantities

def _transport_taylor(i, j, pts, lam, params, moving):
    """Taylor coefficients of T_{i->j} in the points `moving` about pts."""
    def at(*zs):
        q = list(pts)
        for a, z in zip(moving, zs):
            q[a] = z
        return transport(i, j, extended_matrix(q, lam, params))
    return cauchy_taylor(at, [pts[a] for a in moving], _CAUCHY_RADIUS, _CAUCHY_NODES)


def theta_conservation(i, j, pts, lam, params):
    """|d/dx_j theta_{i,j}|, which vanishes on the spectrum.

    With T = T_{i->j} and G = T_i / T it is |d_j G / G| =
    |(T_ij T - T_i T_j) / (T T_i)|, all four from one 2-D Cauchy rule about
    (x_i, x_j)."""
    pts, _ = _validate(pts)
    t = _transport_taylor(i, j, pts, lam, params, (i, j))
    return float(abs((t[1, 1] * t[0, 0] - t[1, 0] * t[0, 1]) / (t[0, 0] * t[1, 0])))


def conserved_n1(x, lam, params: ModelParams):
    """Leading conserved quantity of the sector-1 tower: log(G+/G-).

    Constant in x exactly when Lambda is a sector-1 eigenvalue.  Returns
    (value, gplus, gminus), each per eigenpair of a stack and per x.
    """
    lm0 = params.lam_minus(0.0)
    dlm0 = params.lam_minus(0.0, 1)
    if abs(lm0) < 1e-300:
        raise ZeroDivisionError("lam_minus(0) = 0; conserved quantity undefined")
    la, ld, Lx = params.lam_a(x), params.lam_d(x), lam(x)
    p1, p2 = params.phi1, params.phi2
    sh, ch = np.sinh, np.cosh
    g = params.gamma
    gplus = (p1 * la * (ch(g - x) * lm0 + sh(x - g) * dlm0)
             + p2 * ld * (ch(g + x) * lm0 + sh(g + x) * dlm0)
             - Lx * (ch(x) * lm0 + sh(x) * dlm0))
    gminus = lm0 * (p1 * sh(x - g) * la + p2 * sh(x + g) * ld - sh(x) * Lx)
    if np.any(gminus == 0):
        raise ZeroDivisionError("G- = 0 at this x")
    return np.log(gplus / gminus), gplus, gminus


def conserved_n1_closed_form(w1, params: ModelParams):
    """exp of the leading sector-1 conserved quantity for a known root."""
    return complex(1 / np.tanh(w1) + params.lam_minus(0.0, 1) / params.lam_minus(0.0))
