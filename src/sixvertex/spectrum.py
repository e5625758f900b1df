"""Brute-force spectral oracle for the transfer matrix.

With u = exp(2x), exp(Lx) T(x) is a polynomial of degree L in u with matrix
coefficients.  `sample_sectors` builds T(x) once at each of the L+1 roots of
unity in u, slices every requested magnetization sector block off that build,
and an inverse FFT gives each block's coefficients exactly.
`diagonalize_blocks` assembles one sector's block at a generic point x* from
them and diagonalizes it; the left eigenvectors are the rows of the inverse
of the right eigenvector matrix.  Because the eigenvectors do not depend on x, each
eigenvalue  lam_k(x) = <left_k| T(x) |right_k>  is an exact exponential sum
(`model.ExpSum`) with L+1 terms, evaluated and differentiated without
building T(x) again.

The degree-L claim stays a real test: `polynomial_residuals` compares every
sum with the direct bilinear form at L+6 fresh points off the sampling
circle (one build per point for all sectors given), and
`polynomiality_check` fits an arbitrary callable on the same points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it lazily; load it with the module, not mid-run

from .model import (ExpSum, ModelParams, monodromy_blocks, sector_block,
                    sector_indices, transfer)

__all__ = [
    "DegenerateSpectrum",
    "EigenSystem",
    "sample_sectors",
    "diagonalize_blocks",
    "diagonalize_sector",
    "polynomial_residuals",
    "polynomiality_check",
    "left_vector_from_C",
]


class DegenerateSpectrum(RuntimeError):
    """Sector eigenvalues collide at every attempted spectral point.

    Not resolved automatically: the run is reported and the user should move
    the inhomogeneities slightly.
    """


def _frequencies(L):
    """Frequencies of exp(-Lx) u^m, m = 0..L."""
    return 2 * np.arange(L + 1) - L


@dataclass
class EigenSystem:
    """Eigen-decomposition of one magnetization sector.

    left[k] and right[:, k] are normalized so that left[k] @ right[:, k] = 1;
    rows of `left` are left eigenvectors, columns of `right` are right ones.
    Row k of `coeffs` holds the coefficients of u^{L/2} Lambda_k(x) in
    ascending powers of u = exp(2x).
    """

    params: ModelParams
    n: int
    x_star: complex
    indices: np.ndarray
    eigs: np.ndarray
    right: np.ndarray
    left: np.ndarray
    coeffs: np.ndarray

    @property
    def size(self):
        return len(self.eigs)

    def eigenvalues_at(self, x):
        """All sector eigenvalues evaluated at a fresh spectral point."""
        return self.coeffs @ np.exp(_frequencies(self.params.L) * complex(x))

    def eigenvalue(self, k, x):
        return self.lam(k)(x)

    def lam(self, k):
        """Eigenvalue k as an exact exponential sum x -> Lambda_k(x)."""
        return ExpSum(_frequencies(self.params.L), self.coeffs[k])

    def min_relative_gap(self):
        """Smallest eigenvalue spacing at x* relative to the largest |eigenvalue|
        (None for a one-dimensional sector)."""
        return _relative_gap(self.eigs)

    def biorthogonality_defect(self):
        G = self.left @ self.right
        return float(np.abs(G - np.eye(self.size)).max())

    def to_record(self, sample_xs=()):
        rec = {
            "sector": self.n,
            "dimension": self.size,
            "x_star": [self.x_star.real, self.x_star.imag],
            "eigenvalues_at_x_star": [[z.real, z.imag] for z in self.eigs],
        }
        if len(sample_xs):
            samples = np.array([self.eigenvalues_at(x) for x in sample_xs])
            rec["sample_x"] = [[complex(x).real, complex(x).imag] for x in sample_xs]
            rec["samples"] = [[[z.real, z.imag] for z in row] for row in samples.T]
        return rec


def _relative_gap(w):
    if len(w) < 2:
        return None
    scale = np.abs(w).max() + 1e-300
    diffs = np.abs(w[:, None] - w[None, :]) + np.eye(len(w)) * 10 * scale
    return float(diffs.min() / scale)


def sample_sectors(params: ModelParams, sectors):
    """n -> blocks of sector n, blocks[m] the matrix coefficient of u^m in
    exp(Lx) T(x), for every n in `sectors`.

    T(x) is built once at each u_j = exp(-2 pi i j / (L+1)), j = 0..L, and
    every sector block is sliced off that one build.
    """
    L = params.L
    xs = -1j * np.pi * np.arange(L + 1) / (L + 1)
    samples = {n: [] for n in sectors}
    for x in xs:
        T = transfer(x, params)
        for n, rows in samples.items():
            rows.append(np.exp(L * x) * sector_block(T, L, n, n))
    return {n: np.fft.ifft(np.array(rows), axis=0) for n, rows in samples.items()}


def diagonalize_blocks(params: ModelParams, n, blocks, retries=3, collision_tol=1e-8):
    """Diagonalize the sector-n block of T(x*), x* = 0.2137, assembled from
    its coefficients `blocks` (from `sample_sectors`), with paired
    left/right vectors.

    Raises DegenerateSpectrum when eigenvalues collide (relative spacing below
    collision_tol) at x* and at `retries` perturbed points.
    """
    L = params.L
    x_try = complex(0.2137)
    for attempt in range(retries + 1):
        Tb = np.tensordot(np.exp(_frequencies(L) * x_try), blocks, axes=1)
        w, vr = np.linalg.eig(Tb)
        order = np.lexsort((w.imag.round(10), w.real.round(10)))
        w, vr = w[order], vr[:, order]
        last_gap = _relative_gap(w)
        try:
            left = np.linalg.inv(vr)   # rows: left eigenvectors, left @ vr = I
        except np.linalg.LinAlgError:  # defective block
            left = None
        # |<l_k|r_k>| of unit-norm vectors is 1 / |row k of inv(vr)|
        if (left is not None and (last_gap is None or last_gap > collision_tol)
                and 1 / np.linalg.norm(left, axis=1).max() > 1e-10):
            return EigenSystem(
                params=params, n=n, x_star=x_try,
                indices=sector_indices(L, n), eigs=w, right=vr, left=left,
                coeffs=np.einsum("kd,mde,ek->km", left, blocks, vr, optimize=True),
            )
        x_try = x_try + 0.137 + 0.061j * (attempt + 1)
    raise DegenerateSpectrum(
        f"sector n={n}: eigenvalues collide (relative gap {last_gap:.2e}) after "
        f"{retries + 1} spectral points; perturb the inhomogeneities"
    )


def diagonalize_sector(params: ModelParams, n, retries=3, collision_tol=1e-8):
    """`diagonalize_blocks` of sector n, sampled on its own (L+1 builds)."""
    return diagonalize_blocks(params, n, sample_sectors(params, [n])[n],
                              retries, collision_tol)


def _check_points(L):
    """L+6 points on the circle |u| = exp(0.6), off the sampling circle,
    where the degree-L Vandermonde system is well conditioned."""
    M = L + 6
    us = np.exp(0.6) * np.exp(2j * np.pi * (np.arange(M) + 0.31) / M)
    return np.log(us) / 2


def _relative_residual(y, y_ref):
    return np.linalg.norm(y - y_ref, axis=0) / np.maximum(
        np.linalg.norm(y_ref, axis=0), 1e-300)


def polynomial_residuals(eigensystems):
    """Per eigensystem, and in it per eigenpair, the relative distance
    between u^{L/2} times the exact sum and u^{L/2} times the direct bilinear
    form  left_k T(x) right_k,  over fresh points where T(x) is built anew,
    once per point for all the (same-model) eigensystems."""
    if not eigensystems:
        return []
    p = eigensystems[0].params
    xs = _check_points(p.L)
    direct = [[] for _ in eigensystems]
    for x in xs:
        T = transfer(x, p)
        for es, rows in zip(eigensystems, direct):
            rows.append(np.einsum("kd,dc,ck->k", es.left,
                                  sector_block(T, p.L, es.n, es.n), es.right,
                                  optimize=True))
    scale = np.exp(p.L * xs)[:, None]
    return [_relative_residual(scale * np.array([es.eigenvalues_at(x) for x in xs]),
                               scale * np.array(rows))
            for es, rows in zip(eigensystems, direct)]


def polynomiality_check(lam, params: ModelParams, pts=None, cond_limit=1e10):
    """Fit u^{L/2} * lam(x) by a polynomial in u = exp(2x) of degree <= L.

    For arbitrary callables (sector eigenvalues are exact sums already; see
    `polynomial_residuals`).  Returns (fit as an ExpSum, relative residual).
    User-supplied points are replaced by the default ones when the fit is
    ill conditioned.
    """
    L = params.L
    pts = _check_points(L) if pts is None else np.asarray(pts, dtype=complex)
    V = np.vander(np.exp(2 * pts), L + 1, increasing=True)
    if np.linalg.cond(V) > cond_limit:
        pts = _check_points(L)
        V = np.vander(np.exp(2 * pts), L + 1, increasing=True)
    y = np.array([np.exp(L * x) * lam(x) for x in pts])
    coeff, *_ = np.linalg.lstsq(V, y, rcond=None)
    return ExpSum(_frequencies(L), coeff), float(_relative_residual(V @ coeff, y))


def left_vector_from_C(roots, params: ModelParams):
    """Bethe-type bra <0| C(w_n) ... C(w_1) as a sector-n row vector (over
    `sector_indices(L, n)`, n = len(roots)).

    For roots solving the Bethe equations this is a left eigenvector of T(x)
    (a property that is verified, never assumed).  A numerically null result
    signals a degenerate algebraic Bethe state.
    """
    row = np.ones(1, dtype=complex)
    for m, w in enumerate(reversed(list(roots))):
        _, _, C, _ = monodromy_blocks(w, params)
        row = row @ sector_block(C, params.L, m, m + 1)
    return row
