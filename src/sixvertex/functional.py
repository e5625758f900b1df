"""Auxiliary linear problem for transfer-matrix eigenvalues.

An eigenvalue function Lambda enters a linear system for the symmetric
functions F_n = <Psi| B(x_1)...B(x_n) |0>:

    sum_i M_i(x_0..x_n) F_n(points minus x_i) = 0

whose (n+1)x(n+1) extension over variable swaps must be singular.  This
module builds the coefficients, the extended matrix and its Cramer minors,
the explicit n=1 and n=2 scalar identities, transport ratios between the
F_n values, and the conserved quantities generated by them.

Sign conventions for the scalar identities were fixed against the
determinant form, which this module treats as ground truth (the two code
paths agree identically; see tests).
"""

from __future__ import annotations

import numpy as np

from .model import HighestWeightData, ModelParams, monodromy_blocks, sector_block

__all__ = [
    "SingularTransport",
    "coefficients_m",
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
    "tilde_v_matrix",
    "tilde_v_det",
    "tilde_v_spread",
    "theta_generator",
    "theta_conservation",
    "conserved_n1",
    "conserved_n1_closed_form",
]

_MIN_SEPARATION = 1e-6
# central-difference step of the transport derivatives behind theta
_FD_STEP = 1e-5


class SingularTransport(RuntimeError):
    """A Cramer determinant is numerically null; the transport ratio is undefined."""


def _validate(points):
    pts = [complex(p) for p in points]
    n = len(pts) - 1
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(np.sinh(pts[i] - pts[j])) <= _MIN_SEPARATION:
                raise ValueError(
                    f"spectral points {i} and {j} are (mod i*pi) too close: "
                    f"|sinh(x_{i}-x_{j})| <= {_MIN_SEPARATION}"
                )
    return pts, n


def coefficients_m(pts, lam, hw: HighestWeightData, params: ModelParams):
    """Coefficient vector (M_0, ..., M_n) of the linear problem at `pts`."""
    pts, n = _validate(pts)
    a, b, c = params.a, params.b, params.c
    p1, p2 = params.phi1, params.phi2
    x0 = pts[0]
    out = np.zeros(n + 1, dtype=complex)
    prod_a = np.prod([a(pts[j] - x0) / b(pts[j] - x0) for j in range(1, n + 1)]) if n else 1.0
    prod_d = np.prod([a(x0 - pts[j]) / b(x0 - pts[j]) for j in range(1, n + 1)]) if n else 1.0
    out[0] = p1 * prod_a * hw.lam_a(x0) + p2 * prod_d * hw.lam_d(x0) - lam(x0)
    for i in range(1, n + 1):
        xi = pts[i]
        qa = np.prod([a(pts[j] - xi) / b(pts[j] - xi) for j in range(1, n + 1) if j != i]) if n > 1 else 1.0
        qd = np.prod([a(xi - pts[j]) / b(xi - pts[j]) for j in range(1, n + 1) if j != i]) if n > 1 else 1.0
        out[i] = (c / b(x0 - xi)) * (p1 * qa * hw.lam_a(xi) - p2 * qd * hw.lam_d(xi))
    return out


def extended_matrix(pts, lam, hw: HighestWeightData, params: ModelParams):
    """(n+1)x(n+1) system matrix: row j is the coefficient vector after the
    swap x_0 <-> x_j, with entries 0 and j swapped back into place."""
    pts, n = _validate(pts)
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0] = coefficients_m(pts, lam, hw, params)
    for j in range(1, n + 1):
        sw = list(pts)
        sw[0], sw[j] = sw[j], sw[0]
        row = coefficients_m(sw, lam, hw, params)
        row[[0, j]] = row[[j, 0]]
        M[j] = row
    return M


def _row_scale(M):
    return float(np.prod(np.abs(M).max(axis=1)))


def compatibility_residual(pts, lam, hw, params):
    """det of the extended matrix, normalized by the product of row
    max-norms (scale-free; vanishes iff Lambda sits on the spectrum)."""
    M = extended_matrix(pts, lam, hw, params)
    return complex(np.linalg.det(M) / max(_row_scale(M), 1e-300))


def _row_normalized_singular_values(pts, lam, hw, params):
    M = extended_matrix(pts, lam, hw, params)
    norms = np.abs(M).max(axis=1)
    M = M / np.where(norms > 0, norms, 1.0)[:, None]
    return np.linalg.svd(M, compute_uv=False)


def extended_rank(pts, lam, hw, params):
    """Numerical rank of the extended matrix (row-normalized)."""
    s = _row_normalized_singular_values(pts, lam, hw, params)
    return int(np.sum(s > 1e-9 * s[0]))


def separation_threshold(pts, lam, hw, params):
    """What |compatibility_residual| of a perturbed eigenvalue must exceed to
    count as separated from the on-shell `lam`: 30 times the larger of the
    on-shell value and its rounding level (n+1) eps s_1...s_n, with
    s_1 >= ... >= s_{n+1} the singular values of the row-normalized extended
    matrix.  Both scale like the determinant, so the bound is scale-free in
    n and L (an absolute floor is not: the 1%-off value falls below 1e-12 at
    L=10, n=3)."""
    s = _row_normalized_singular_values(pts, lam, hw, params)
    rounding = len(s) * np.finfo(float).eps * np.prod(s[:-1])
    return 30 * max(abs(compatibility_residual(pts, lam, hw, params)), rounding)


# ---------------------------------------------------------------------------
# explicit scalar identities (independent transcription of the same algebra)

def symmetric_m_matrix(pts, hw: HighestWeightData, params: ModelParams):
    """Lambda-free coefficient matrix m[i, j] of the explicit identities.

    Equal to extended_matrix + diag(Lambda) entrywise; built here from its
    own closed form so the two derivations cross-check each other.
    """
    pts, n = _validate(pts)
    a, b, c = params.a, params.b, params.c
    p1, p2 = params.phi1, params.phi2
    m = np.zeros((n + 1, n + 1), dtype=complex)
    full = range(n + 1)
    for i in full:
        for j in full:
            if i == j:
                rest = [pts[k] for k in full if k != i]
                pa = np.prod([a(x - pts[i]) / b(x - pts[i]) for x in rest])
                pd = np.prod([a(pts[i] - x) / b(pts[i] - x) for x in rest])
                m[i, j] = p1 * pa * hw.lam_a(pts[i]) + p2 * pd * hw.lam_d(pts[i])
            else:
                rest = [pts[k] for k in full if k not in (i, j)]
                pa = np.prod([a(x - pts[j]) / b(x - pts[j]) for x in rest]) if rest else 1.0
                pd = np.prod([a(pts[j] - x) / b(pts[j] - x) for x in rest]) if rest else 1.0
                m[i, j] = (c / b(pts[i] - pts[j])) * (
                    p1 * pa * hw.lam_a(pts[j]) - p2 * pd * hw.lam_d(pts[j]))
    return m


def nonlinear_eq_n1_residual(x0, x1, lam, hw, params):
    """Two-point scalar identity for sector-1 eigenvalues (LHS - RHS)."""
    m = symmetric_m_matrix([x0, x1], hw, params)
    L0, L1 = lam(x0), lam(x1)
    return complex(L0 * L1 - m[1, 1] * L0 - m[0, 0] * L1
                   - (m[0, 1] * m[1, 0] - m[0, 0] * m[1, 1]))


def nonlinear_eq_n2_residual(x0, x1, x2, lam, hw, params):
    """Three-point scalar identity for sector-2 eigenvalues (LHS - RHS)."""
    m = symmetric_m_matrix([x0, x1, x2], hw, params)
    L0, L1, L2 = lam(x0), lam(x1), lam(x2)
    det_m = np.linalg.det(m)
    rhs = (m[2, 2] * L0 * L1 + m[1, 1] * L0 * L2 + m[0, 0] * L1 * L2
           + (m[1, 2] * m[2, 1] - m[1, 1] * m[2, 2]) * L0
           + (m[0, 2] * m[2, 0] - m[0, 0] * m[2, 2]) * L1
           + (m[0, 1] * m[1, 0] - m[0, 0] * m[1, 1]) * L2
           + det_m)
    return complex(L0 * L1 * L2 - rhs)


# ---------------------------------------------------------------------------
# the symmetric function F_n and its linear relation

def f_n(point_sets, rows, params: ModelParams):
    """F_n(X) = <Psi| B(x_1)...B(x_n) |0>  for every bra and point set.

    `rows` stacks sector-n bras <Psi|, one per row, over the basis of
    `model.sector_indices(L, n)`; each X in `point_sets` holds n points.
    B(x) is built once per distinct point, and each product takes only its
    block from sector m - 1 into sector m.  Returns F[bra, point set].
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    n = len(point_sets[0])
    blocks = {}     # x -> [B from sector m into m + 1, m = 0..n-1]
    for x in dict.fromkeys(complex(x) for X in point_sets for x in X):
        _, B, _, _ = monodromy_blocks(x, params)
        blocks[x] = [sector_block(B, params.L, m + 1, m) for m in range(n)]
    out = np.empty((len(rows), len(point_sets)), dtype=complex)
    for s, X in enumerate(point_sets):
        v = rows
        for j, x in enumerate(X):
            v = v @ blocks[complex(x)][n - 1 - j]
        out[:, s] = v[:, 0]
    return out


def linear_relation_residual(pts, lams, rows, hw, params):
    """(residuals, scales) of  sum_i M_i F_n(pts minus x_i)  for each
    eigenpair (lams[k], sector-n bra rows[k]); a scale is the largest term."""
    pts, n = _validate(pts)
    F = f_n([pts[:i] + pts[i + 1:] for i in range(n + 1)], rows, params)
    terms = np.array([coefficients_m(pts, lam, hw, params) for lam in lams]) * F
    return terms.sum(axis=1), np.abs(terms).max(axis=1)


# ---------------------------------------------------------------------------
# Cramer minors, transport, conserved quantities

def v_matrix(i, pts, lam, hw, params, mext=None):
    """n x n Cramer matrix: rows 1..n of the extended matrix with column i
    replaced by minus its column 0 (i = 0 keeps all columns)."""
    if mext is None:
        mext = extended_matrix(pts, lam, hw, params)
    n = mext.shape[0] - 1
    V = mext[1:, 1:].copy()
    if i != 0:
        V[:, i - 1] = -mext[1:, 0]
    return V


def transport(i, j, pts, lam, hw, params):
    """Transport ratio F_n(X_j^0)/F_n(X_i^0) = det(V_j)/det(V_i)."""
    mext = extended_matrix(pts, lam, hw, params)
    scale = max(_row_scale(mext[1:, 1:]), 1e-300)
    di = np.linalg.det(v_matrix(i, pts, lam, hw, params, mext))
    dj = np.linalg.det(v_matrix(j, pts, lam, hw, params, mext))
    if abs(di) < 1e-12 * scale:
        raise SingularTransport(f"det(V_{i}) ~ 0 at this point set")
    return complex(dj / di)


def transport_loop(indices, pts, lam, hw, params):
    """Product of transport ratios around a closed index sequence."""
    total = 1.0 + 0j
    for a, b in zip(indices, indices[1:] + indices[:1]):
        total *= transport(a, b, pts, lam, hw, params)
    return complex(total)


def tilde_v_matrix(i, pts, lam, hw, params):
    """Rescaled Cramer matrix whose determinant drops the x_i dependence.

    Column i of V_i is multiplied by c^{-1} prod_j b(x_0 - x_j); every other
    column beta by b(x_0 - x_beta).
    """
    if i == 0:
        raise ValueError("defined for i in 1..n")
    pts, n = _validate(pts)
    if n < 2:
        raise ValueError("needs at least two moving points")
    V = v_matrix(i, pts, lam, hw, params)
    b = params.b
    x0 = pts[0]
    prod_all = np.prod([b(x0 - pts[j]) for j in range(1, n + 1)])
    T = V.copy()
    for beta in range(1, n + 1):
        if beta == i:
            T[:, beta - 1] *= prod_all / params.c
        else:
            T[:, beta - 1] *= b(x0 - pts[beta])
    return T


def tilde_v_det(i, pts, lam, hw, params):
    return complex(np.linalg.det(tilde_v_matrix(i, pts, lam, hw, params)))


def tilde_v_spread(i, pts, lam, hw, params):
    """Max relative spread of det(tilde V_i) over five positions of x_i
    (steps of 0.23, skipping unseparated ones).

    The determinant is conjectured independent of x_i; a nonzero spread is a
    finding to report, not a bug to absorb.
    """
    pts, n = _validate(pts)
    n_values = 5
    vals = []
    for shift in range(8 * n_values):
        if len(vals) == n_values:
            break
        cand = list(pts)
        cand[i] = pts[i] + 0.23 * shift
        try:
            _validate(cand)
        except ValueError:
            continue
        vals.append(tilde_v_det(i, cand, lam, hw, params))
    if len(vals) < n_values:
        raise ValueError("could not place enough separated sample points")
    vals = np.array(vals)
    center = vals.mean()
    return float(np.abs(vals - center).max() / max(abs(center), 1e-300))


# ---------------------------------------------------------------------------
# generating function of conserved quantities

def _dlog_transport_di(i, j, pts, lam, hw, params):
    """d/dx_i log T_{i->j} via the branch-free ratio (T+ - T-)/(2h T0)."""
    pts = list(pts)
    h = _FD_STEP

    def at(xi):
        q = list(pts)
        q[i] = xi
        return transport(i, j, q, lam, hw, params)

    t0 = at(pts[i])
    return (at(pts[i] + h) - at(pts[i] - h)) / (2 * h * t0)


def theta_generator(i, j, pts, lam, hw, params, method="ratio"):
    """log(d_i log T_{i->j}); the generating function of conserved
    quantities along x_j.

    method="ratio" (default) differentiates T itself, avoiding complex-log
    branch cuts; method="log" follows the literal definition with a branch
    jump detector that shrinks the stencil and retries.
    """
    if i == j:
        raise ValueError("needs i != j")
    pts, _ = _validate(pts)
    if method == "ratio":
        return complex(np.log(_dlog_transport_di(i, j, pts, lam, hw, params)))
    h = _FD_STEP
    for _ in range(6):
        def logt(xi):
            q = list(pts)
            q[i] = xi
            return np.log(transport(i, j, q, lam, hw, params))
        lp, lm = logt(pts[i] + h), logt(pts[i] - h)
        if abs(lp.imag - lm.imag) > np.pi:  # branch crossing inside the stencil
            h /= 4
            continue
        return complex(np.log((lp - lm) / (2 * h)))
    raise ArithmeticError("log branch keeps crossing; point set too close to a cut")


def theta_conservation(i, j, pts, lam, hw, params):
    """|d/dx_j theta_{i,j}|, which vanishes on the spectrum.

    Evaluated branch-free as |d_j G / G| with G = d_i log T_{i->j}.  The
    outer stencil is ten times wider than the inner one: the inner FD noise
    (~eps/_FD_STEP) would otherwise be amplified by the outer division.
    """
    pts, _ = _validate(pts)
    h = 10 * _FD_STEP

    def G(xj):
        q = list(pts)
        q[j] = xj
        return _dlog_transport_di(i, j, q, lam, hw, params)

    g0 = G(pts[j])
    return float(abs((G(pts[j] + h) - G(pts[j] - h)) / (2 * h * g0)))


def conserved_n1(x, lam, hw: HighestWeightData, params: ModelParams):
    """Leading conserved quantity of the sector-1 tower: log(G+/G-).

    Constant in x exactly when Lambda is a sector-1 eigenvalue.  Returns
    (value, gplus, gminus).
    """
    lm0 = hw.lam_minus(0.0)
    dlm0 = hw.lam_minus(0.0, 1)
    if abs(lm0) < 1e-300:
        raise ZeroDivisionError("lam_minus(0) = 0; conserved quantity undefined")
    la, ld, Lx = hw.lam_a(x), hw.lam_d(x), lam(x)
    p1, p2 = params.phi1, params.phi2
    sh, ch = np.sinh, np.cosh
    g = params.gamma
    gplus = (p1 * la * (ch(g - x) * lm0 + sh(x - g) * dlm0)
             + p2 * ld * (ch(g + x) * lm0 + sh(g + x) * dlm0)
             - Lx * (ch(x) * lm0 + sh(x) * dlm0))
    gminus = lm0 * (p1 * sh(x - g) * la + p2 * sh(x + g) * ld - sh(x) * Lx)
    if gminus == 0:
        raise ZeroDivisionError("G- = 0 at this x")
    return complex(np.log(gplus / gminus)), complex(gplus), complex(gminus)


def conserved_n1_closed_form(w1, hw: HighestWeightData):
    """exp of the leading sector-1 conserved quantity for a known root."""
    return complex(1 / np.tanh(w1) + hw.lam_minus(0.0, 1) / hw.lam_minus(0.0))
