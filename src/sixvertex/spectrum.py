"""Brute-force spectral oracle for the transfer matrix.

With u = exp(2x), exp(Lx) T(x) is a polynomial of degree L in u with matrix
coefficients.  `sample_sectors` builds the magnetization sector blocks of T(x) at
the L+1 roots of unity in u in one stacked call, and an inverse FFT gives
each block's coefficients exactly.
`diagonalize_blocks` assembles one sector's block at a generic point x* from
them and diagonalizes it; the left eigenvectors are the rows of the inverse
of the right eigenvector matrix.  Because the eigenvectors do not depend on x, each
eigenvalue  lam_k(x) = <left_k| T(x) |right_k>  is an exact exponential sum
(`model.ExpSum`) with L+1 terms, evaluated and differentiated without
building T(x) again.

The degree-L claim stays a real test: `polynomial_residuals` compares every
sum with the direct bilinear form at L+6 fresh points off the sampling
circle (one stacked build for all sectors given), and
`polynomiality_check` fits an arbitrary callable on the same points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it lazily; load it with the module, not mid-run

from .model import ExpSum, ModelParams, monodromy_blocks, transfer

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

# perturbed spectral points tried after x* when eigenvalues collide, and the
# relative spacing below which they count as collided
_RETRIES, _COLLISION_TOL = 3, 1e-8


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
    eigs: np.ndarray
    right: np.ndarray
    left: np.ndarray
    coeffs: np.ndarray

    @property
    def size(self):
        return len(self.eigs)

    def eigenvalues_at(self, x):
        """`lam()(x)`: every eigenvalue at a point or points, eigenpair axis first."""
        return self.lam()(x)

    def eigenvalue(self, k, x):
        return self.lam(k)(x)

    def lam(self, k=slice(None)):
        """Eigenvalue k as an exact exponential sum x -> Lambda_k(x); a slice
        or index array of k gives their stack (all eigenvalues by default)."""
        return ExpSum(_frequencies(self.params.L), self.coeffs[k])

    def min_relative_gap(self):
        """Smallest eigenvalue spacing at x* relative to the largest |eigenvalue|
        (None for a one-dimensional sector)."""
        return _relative_gap(self.eigs)

    def biorthogonality_defect(self):
        G = self.left @ self.right
        return float(np.abs(G - np.eye(self.size)).max())

    def to_record(self):
        """JSON-ready record of the sector at x*: complex numbers as [re, im]
        pairs of plain Python floats, one `tolist` per array."""
        return {
            "sector": self.n,
            "dimension": self.size,
            "x_star": [self.x_star.real, self.x_star.imag],
            "eigenvalues_at_x_star": complex_pairs(self.eigs),
        }


def complex_pairs(z):
    """Nested lists of [re, im] Python floats for a complex array, in one
    `tolist` call."""
    return np.stack([z.real, z.imag], -1).tolist()


def _relative_gap(w):
    if len(w) < 2:
        return None
    scale = np.abs(w).max() + 1e-300
    diffs = np.abs(w[:, None] - w[None, :]) + np.eye(len(w)) * 10 * scale
    return float(diffs.min() / scale)


def sample_sectors(params: ModelParams, sectors):
    """n -> blocks of sector n, blocks[m] the matrix coefficient of u^m in
    exp(Lx) T(x), for every n in `sectors`.

    The sector blocks of T(x) at u_j = exp(-2 pi i j / (L+1)), j = 0..L,
    come from one stacked build.
    """
    L = params.L
    if not set(sectors) <= set(range(L + 1)):
        raise ValueError(f"sector labels must lie in [0, {L}], got {sorted(sectors)}")
    xs = -1j * np.pi * np.arange(L + 1) / (L + 1)
    T = transfer(xs, params)
    scale = np.exp(L * xs)[:, None, None]
    return {n: np.fft.ifft(scale * T[n], axis=0) for n in sectors}


def diagonalize_blocks(params: ModelParams, n, blocks):
    """Diagonalize the sector-n block of T(x*), x* = 0.2137, assembled from
    its coefficients `blocks` (from `sample_sectors`), with paired
    left/right vectors.

    Raises DegenerateSpectrum when eigenvalues collide (relative spacing below
    `_COLLISION_TOL`) at x* and at `_RETRIES` perturbed points.
    """
    L = params.L
    x_try = complex(0.2137)
    for attempt in range(_RETRIES + 1):
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
        if (left is not None and (last_gap is None or last_gap > _COLLISION_TOL)
                and 1 / np.linalg.norm(left, axis=1).max() > 1e-10):
            return EigenSystem(
                params=params, n=n, x_star=x_try, eigs=w, right=vr, left=left,
                coeffs=np.ascontiguousarray(((left @ blocks) * vr.T).sum(-1).T),
            )
        x_try = x_try + 0.137 + 0.061j * (attempt + 1)
    raise DegenerateSpectrum(
        f"sector n={n}: eigenvalues collide (relative gap {last_gap:.2e}) after "
        f"{_RETRIES + 1} spectral points; perturb the inhomogeneities"
    )


def diagonalize_sector(params: ModelParams, n):
    """`diagonalize_blocks` of sector n, sampled on its own (L+1 builds)."""
    return diagonalize_blocks(params, n, sample_sectors(params, [n])[n])


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
    in one stacked build for all the (same-model) eigensystems."""
    if not eigensystems:
        return []
    p = eigensystems[0].params
    xs = _check_points(p.L)
    T = transfer(xs, p)
    scale = np.exp(p.L * xs)[:, None]
    return [_relative_residual(scale * es.eigenvalues_at(xs).T,
                               scale * ((es.left @ T[es.n]) * es.right.T).sum(axis=-1))
            for es in eigensystems]


def polynomiality_check(lam, params: ModelParams):
    """Fit u^{L/2} * lam(x) by a polynomial in u = exp(2x) of degree <= L at
    the check points.

    For arbitrary callables (sector eigenvalues are exact sums already; see
    `polynomial_residuals`), called once on the array of check points.
    Returns (fit as an ExpSum, relative residual).
    """
    L = params.L
    pts = _check_points(L)
    V = np.vander(np.exp(2 * pts), L + 1, increasing=True)
    y = np.exp(L * pts) * lam(pts)
    coeff, *_ = np.linalg.lstsq(V, y, rcond=None)
    return ExpSum(_frequencies(L), coeff), float(_relative_residual(V @ coeff, y))


def left_vector_from_C(roots, params: ModelParams):
    """Bethe-type bra <0| C(w_n) ... C(w_1) as a sector-n row vector (over
    `sector_indices(L, n)`, n = len(roots)).

    For roots solving the Bethe equations this is a left eigenvector of T(x)
    (a property that is verified, never assumed).  A numerically null result
    signals a degenerate algebraic Bethe state.
    """
    roots = list(roots)
    _, _, C, _ = monodromy_blocks(roots, params)
    row = np.ones(1, dtype=complex)
    for m in range(len(roots)):         # C(w_n) first, from sector m + 1 into m
        row = row @ C[m + 1][len(roots) - 1 - m]
    return row
