"""Differential identities satisfied by the spectrum.

Contents:

* the constant-coefficient annihilator of exp(-integral h) for h a sum of
  n coth terms (checked at the exponential-coefficient level, exactly);
* the Riccati chain for h (orders 1..3) and for the eigenvalue itself:
  the sector-1 Riccati equation in two algebraically identical forms, the
  sector-2 second-order identity, and the sector-2 standard Riccati at the
  homogeneous untwisted point;
* the sector-2 identity is evaluated by an exact coalescing-point reduction
  of the verified three-point determinant identity (truncated Laurent
  algebra in the point separation; the epsilon^0 coefficient is the ODE);
* travelling-wave PDE residuals on grids, the Schroedinger-form potential
  and map, and the root-of-unity initial condition report.

Eigenvalue and h arguments are evaluators  f(x, d)  returning the d-th
derivative exactly: `model.ExpSum`, `bethe.RootEigenvalue` or `bethe.CothSum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .model import ExpSum, HighestWeightData, ModelParams, sector_block, transfer

__all__ = [
    "upsilon_coefficients",
    "upsilon_annihilation",
    "riccati_h_residual",
    "riccati_lambda_residual",
    "sigma1_residual",
    "coalescing_reduction",
    "sigma2_residual",
    "riccati2_coefficients",
    "riccati2_residual",
    "u_equation_residual",
    "pde_travelling_wave_residual",
    "pde_convergence",
    "potential_v",
    "PotentialProfile",
    "potential_profile",
    "schrodinger_map_residual",
    "OmegaReport",
    "omega0_power_deviation",
    "omega0_sector_deviations",
    "omega0_root_of_unity",
]


# ---------------------------------------------------------------------------
# quadrature

def _cumulative_simpson(y, dx):
    """Running integral of equally spaced samples y (complex allowed) from
    the first one, by Simpson's rule as in scipy's
    ``cumulative_simpson(y, dx=dx, initial=0)``: each interval is integrated
    over the three samples that start it, every other one (and the last)
    over the three that end it."""
    y = np.asarray(y)
    if np.iscomplexobj(y):
        return _cumulative_simpson(y.real, dx) + 1j * _cumulative_simpson(y.imag, dx)
    if len(y) < 3:
        raise ValueError(f"Simpson's rule needs at least 3 samples, got {len(y)}")

    def ahead(f):
        return dx / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    h1, h2 = ahead(y), ahead(y[::-1])[::-1]
    parts = np.empty(len(y) - 1)
    parts[:-1:2], parts[1::2], parts[-1] = h1[::2], h2[::2], h2[-1]
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))  # -0.0 -> 0.0, as scipy


# ---------------------------------------------------------------------------
# the exponential annihilator

def upsilon_coefficients(n):
    """Integer coefficients (ascending) of the degree-(n+1) polynomial
    p(z) = z * prod (z^2 - (2l)^2)  for even n,
    p(z) = prod (z^2 - (2l-1)^2)    for odd n,
    which annihilates every exp(m x) with |m| <= n, m = n (mod 2)."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    poly = [1]
    if n % 2 == 0:
        roots_sq = [(2 * l) ** 2 for l in range(1, n // 2 + 1)]
        poly = [0, 1]  # z
    else:
        roots_sq = [(2 * l - 1) ** 2 for l in range(1, (n + 1) // 2 + 1)]
    for r in roots_sq:
        # multiply by (z^2 - r)
        new = [0] * (len(poly) + 2)
        for k, ck in enumerate(poly):
            new[k + 2] += ck
            new[k] -= ck * r
        poly = new
    return poly


def upsilon_annihilation(roots, n):
    """Exact residual of the annihilator applied to the exponential
    expansion of gbar(x) = prod_l sinh(w_l - x): every multiplier is an
    integer polynomial evaluated at an integer where it vanishes, so the
    result is exactly 0.0."""
    roots = tuple(roots)
    if len(roots) != n:
        raise ValueError(f"expected {n} roots, got {len(roots)}")
    poly = upsilon_coefficients(n)
    # prod sinh(x - w_l) = (-1)^n gbar; the sign does not change the residual
    gbar = ExpSum.sinh_product([-complex(w) for w in roots])
    worst = 0.0
    for m, cm in zip(gbar.ms.tolist(), gbar.coeffs):
        # d/dx acting on exp(m x) multiplies by m
        mult = sum(ck * m ** k for k, ck in enumerate(poly))  # exact int
        worst = max(worst, abs(cm * mult))
    return float(worst)


# ---------------------------------------------------------------------------
# Riccati chain for h

def riccati_h_residual(h_eval, x, n):
    """Residual of the order-n nonlinear ODE satisfied by a sum of n coth
    terms; h_eval follows the (x, d) protocol with derivatives to order n."""
    h = h_eval(x)
    if n == 1:
        return complex(h_eval(x, 1) + 1 - h ** 2)
    if n == 2:
        return complex(h_eval(x, 2) - 3 * h * h_eval(x, 1) + h * (h ** 2 - 4))
    if n == 3:
        d1, d2, d3 = h_eval(x, 1), h_eval(x, 2), h_eval(x, 3)
        return complex(d3 - 4 * h * d2 - (10 - 6 * h ** 2 + 3 * d1) * d1
                       - (h ** 2 - 1) * (h ** 2 - 9))
    raise ValueError("closed forms implemented for n in {1, 2, 3}")


# ---------------------------------------------------------------------------
# sector-1 Riccati equation for the eigenvalue

def _j_coefficients(x, hw: HighestWeightData, params: ModelParams):
    g = params.gamma
    sh, ch = np.sinh(g), np.cosh(g)
    lp, lm = hw.lam_plus(x), hw.lam_minus(x)
    dlp, dlm = hw.lam_plus(x, 1), hw.lam_minus(x, 1)
    j0 = (ch * lp) ** 2 - (sh * lm) ** 2 + sh * ch * (lp * dlm - lm * dlp)
    j1 = 2 * ch * lp + sh * dlm
    return j0, j1


def riccati_lambda_residual(lam_eval, x, hw, params):
    """Normalized residual of the first-order quadratic ODE for sector-1
    eigenvalues:  -c lam_minus dLam + J1 Lam - Lam^2 - J0."""
    j0, j1 = _j_coefficients(x, hw, params)
    Lam, dLam = lam_eval(x), lam_eval(x, 1)
    res = -params.c * hw.lam_minus(x) * dLam + j1 * Lam - Lam ** 2 - j0
    return complex(res / max(abs(j0), abs(Lam) ** 2, 1e-300))


def sigma1_residual(lam_eval, x, hw, params):
    """Same identity written through the surface form
    omega0 + (omega1 - Lam) S0 - c lam_minus dS0 with S0 = Lam - lam_plus;
    kept as an independent code path and cross-checked in tests."""
    g = params.gamma
    sh, ch = np.sinh(g), np.cosh(g)
    lp, lm = hw.lam_plus(x), hw.lam_minus(x)
    dlp, dlm = hw.lam_plus(x, 1), hw.lam_minus(x, 1)
    w0 = (sh * lm) ** 2 - ((ch - 1) * lp) ** 2 + sh * (ch - 1) * (lm * dlp - lp * dlm)
    w1 = (2 * ch - 1) * lp + sh * dlm
    Lam, dLam = lam_eval(x), lam_eval(x, 1)
    s0 = Lam - lp
    ds0 = dLam - dlp
    res = w0 + (w1 - Lam) * s0 - sh * lm * ds0
    j0, _ = _j_coefficients(x, hw, params)
    return complex(res / max(abs(j0), abs(Lam) ** 2, 1e-300))


# ---------------------------------------------------------------------------
# coalescing-point reduction (exact Laurent algebra in the separation)

_SERIES_LEN = 12


class _Laurent:
    """Truncated Laurent series sum_i c[i] * eps^(off + i), len(c) fixed."""

    __slots__ = ("off", "c")

    def __init__(self, off, c):
        self.off = off
        self.c = np.asarray(c, dtype=complex)

    @staticmethod
    def const(v):
        c = np.zeros(_SERIES_LEN, dtype=complex)
        c[0] = v
        return _Laurent(0, c)

    def __mul__(self, other):
        if isinstance(other, _Laurent):
            return _Laurent(self.off + other.off,
                            np.convolve(self.c, other.c)[:_SERIES_LEN])
        return _Laurent(self.off, self.c * other)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, _Laurent):
            other = _Laurent.const(other)
        off = min(self.off, other.off)
        c = np.zeros(max(self.off, other.off) - off + _SERIES_LEN, dtype=complex)
        c[self.off - off:self.off - off + _SERIES_LEN] += self.c
        c[other.off - off:other.off - off + _SERIES_LEN] += other.c
        return _Laurent(off, c[:_SERIES_LEN])

    def __sub__(self, other):
        return self + (-1) * other

    def inv(self):
        a0 = self.c[0]
        if a0 == 0:
            raise ZeroDivisionError("series with vanishing leading coefficient")
        inv = np.zeros(_SERIES_LEN, dtype=complex)
        inv[0] = 1 / a0
        for m in range(1, _SERIES_LEN):
            inv[m] = -np.dot(self.c[1:m + 1][::-1], inv[:m]) / a0
        return _Laurent(-self.off, inv)

    def coeff(self, order):
        i = order - self.off
        return complex(self.c[i]) if 0 <= i < len(self.c) else 0j

    def max_below(self, order):
        i = order - self.off
        return float(np.abs(self.c[:max(i, 0)]).max()) if i > 0 else 0.0


def _sinh_series(t, shift):
    """sinh(t*eps + shift) as a Laurent series in eps."""
    c = np.empty(_SERIES_LEN, dtype=complex)
    sh, ch = np.sinh(complex(shift)), np.cosh(complex(shift))
    for k in range(_SERIES_LEN):
        c[k] = (t ** k / factorial(k)) * (sh if k % 2 == 0 else ch)
    if shift == 0:
        return _Laurent(1, np.append(c[1:], 0.0))
    return _Laurent(0, c)


def _taylor_series(t, derivs):
    c = np.zeros(_SERIES_LEN, dtype=complex)
    for k, d in enumerate(derivs[:_SERIES_LEN]):
        c[k] = d * t ** k / factorial(k)
    return _Laurent(0, c)


def coalescing_reduction(lam_eval, x, hw: HighestWeightData, params: ModelParams,
                         n, ts=None):
    """eps^0 coefficient of det(m - diag(Lambda)) with all n+1 spectral
    points at x + ts[i]*eps: the order-n ODE satisfied by sector-n
    eigenvalues, evaluated exactly at x.

    Returns (value, scale, spurious) where scale is the largest contributing
    determinant term and spurious the largest coefficient below eps^0 (an
    internal cancellation check; it vanishes identically).
    """
    if ts is None:
        ts = (0.0,) + tuple(np.linspace(1.0, -1.0, n))
    if len(ts) != n + 1:
        raise ValueError(f"need {n + 1} direction constants")
    g = params.gamma
    cgam = params.c
    lamA = [hw.lam_a(x, d) for d in range(_SERIES_LEN)]
    lamD = [hw.lam_d(x, d) for d in range(_SERIES_LEN)]
    lam_derivs = [lam_eval(x), lam_eval(x, 1), lam_eval(x, 2)]

    A = {i: _taylor_series(ts[i], lamA) for i in range(n + 1)}
    D = {i: _taylor_series(ts[i], lamD) for i in range(n + 1)}
    Lam = {i: _taylor_series(ts[i], lam_derivs) for i in range(n + 1)}

    def ratio(tk, tj):
        return _sinh_series(tk - tj, g) * _sinh_series(tk - tj, 0).inv()

    m = [[None] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                pa = params.phi1 * A[i]
                pd = params.phi2 * D[i]
                for k in range(n + 1):
                    if k != i:
                        pa = pa * ratio(ts[k], ts[i])
                        pd = pd * ratio(ts[i], ts[k])
                m[i][j] = pa + pd - Lam[i]
            else:
                pref = cgam * _sinh_series(ts[i] - ts[j], 0).inv()
                pa = params.phi1 * A[j]
                pd = params.phi2 * D[j]
                for k in range(n + 1):
                    if k not in (i, j):
                        pa = pa * ratio(ts[k], ts[j])
                        pd = pd * ratio(ts[j], ts[k])
                m[i][j] = pref * (pa - pd)

    # determinant as a signed sum over permutations (n <= 3 at desk scale)
    from itertools import permutations
    det = _Laurent.const(0.0)
    scale = 0.0
    for perm in permutations(range(n + 1)):
        sign = 1
        seen = list(perm)
        for a in range(len(seen)):
            for b in range(a + 1, len(seen)):
                if seen[a] > seen[b]:
                    sign = -sign
        term = _Laurent.const(sign)
        for i in range(n + 1):
            term = term * m[i][perm[i]]
        det = det + term
        scale = max(scale, abs(term.coeff(0)))
    return det.coeff(0), scale, det.max_below(0)


def sigma2_residual(lam_eval, x, hw, params):
    """Normalized residual of the second-order ODE for sector-2 eigenvalues
    (the coalescing limit of the three-point identity)."""
    val, scale, _ = coalescing_reduction(lam_eval, x, hw, params, n=2)
    return complex(val / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# sector-2 standard Riccati at the homogeneous untwisted point

def _require_reference_point(params: ModelParams, what):
    if any(abs(m) > 0 for m in params.mu) or params.phi1 != 1 or params.phi2 != 1:
        raise ValueError(f"{what} is implemented at the homogeneous untwisted "
                         "point (all mu = 0, phi1 = phi2 = 1) only")


def riccati2_coefficients(x, lam0, params: ModelParams):
    """(kbar, k0, k1, k2) of  c kbar dLam = k0 + k1 Lam + k2 Lam^2  for
    sector-2 eigenvalues at mu = 0, phi = 1; lam0 = Lam(0)."""
    _require_reference_point(params, "the sector-2 Riccati equation")
    hw = HighestWeightData(params)
    g = params.gamma
    sh, ch = np.sinh, np.cosh
    la, ld = hw.lam_a(x), hw.lam_d(x)
    dla, dld = hw.lam_a(x, 1), hw.lam_d(x, 1)
    la0 = hw.lam_a(0.0)
    kbar = (la * sh(x) * (lam0 * sh(g - x) + la0 * sh(g + x))
            + ld * sh(x + g) * (lam0 * sh(x) - la0 * sh(x + 2 * g)))
    k0 = (la ** 2 * (la0 * sh(x) ** 2 - lam0 * sh(x - g) ** 2)
          + ld ** 2 * (la0 * sh(x + 2 * g) ** 2 - lam0 * sh(x + g) ** 2)
          - la * ld * (la0 * (ch(4 * g) - ch(2 * g) * ch(2 * x + 2 * g))
                       - lam0 * (ch(4 * g) - ch(2 * g) * ch(2 * x)))
          + sh(g) * ch(g) * (dla * ld - la * dld)
          * (la0 * (ch(2 * g) - ch(2 * x + 2 * g)) - lam0 * (ch(2 * g) - ch(2 * x))))
    k1 = (dla * sh(g) * sh(x) * (la0 * sh(g + x) + lam0 * sh(g - x))
          + dld * sh(g) * sh(x + g) * (lam0 * sh(x) - la0 * sh(x + 2 * g))
          + la * (la0 * (ch(2 * g) - ch(g) * ch(2 * x + g))
                  - lam0 * (ch(2 * g) - ch(g) * ch(2 * x - g)))
          + ld * (la0 * (ch(2 * g) - ch(g) * ch(2 * x + 3 * g))
                  - lam0 * (ch(2 * g) - ch(g) * ch(2 * x + g))))
    k2 = la0 * sh(x + g) ** 2 - lam0 * sh(x) ** 2
    return kbar, k0, k1, k2


def riccati2_residual(lam_eval, x, params):
    """Normalized residual of the sector-2 standard Riccati equation."""
    kbar, k0, k1, k2 = riccati2_coefficients(x, lam_eval(0.0), params)
    Lam, dLam = lam_eval(x), lam_eval(x, 1)
    res = params.c * kbar * dLam - k0 - k1 * Lam - k2 * Lam ** 2
    scale = max(abs(k0), abs(k1 * Lam), abs(k2 * Lam ** 2),
                abs(params.c * kbar * dLam), 1e-300)
    return complex(res / scale)


# ---------------------------------------------------------------------------
# linear second-order equation for u (sector 1)

def u_equation_residual(lam, x_range, hw, params, num=200):
    """Reconstruct log u by quadrature of Lam/(c lam_minus) and evaluate the
    linear second-order ODE residual with finite differences; returns the
    max normalized residual over interior grid points."""
    num += num % 2  # Simpson wants an even interval count
    xs = np.linspace(x_range[0], x_range[1], num + 1).astype(complex)
    lm = np.array([hw.lam_minus(x) for x in xs])
    if np.abs(lm).min() < 0.05 * np.abs(lm).max():
        xs = xs + 0.1j  # lam_minus (nearly) vanishes on the real path
        lm = np.array([hw.lam_minus(x) for x in xs])
    c = params.c
    Lv = np.array([lam(x) for x in xs])
    integrand = Lv / (c * lm)
    h = xs[1] - xs[0]
    logu = _cumulative_simpson(integrand, dx=1.0) * h
    logu -= logu.real.max()  # overflow guard; the ODE is homogeneous
    u = np.exp(logu)
    du = np.empty_like(u)
    d2u = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    d2u[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    dlm = np.array([hw.lam_minus(x, 1) for x in xs])
    j0 = np.empty_like(u)
    j1 = np.empty_like(u)
    for k, x in enumerate(xs):
        j0[k], j1[k] = _j_coefficients(x, hw, params)
    t2 = (c * lm) ** 2 * d2u
    t1 = -c * lm * (j1 - c * dlm) * du
    t0 = j0 * u
    res = np.abs(t2 + t1 + t0)[2:-2]
    scale = np.maximum(np.maximum(np.abs(t2), np.abs(t1)), np.abs(t0))[2:-2]
    return float(res.max() / max(scale.max(), 1e-300))


# ---------------------------------------------------------------------------
# travelling-wave PDE residuals

def _roll_deriv(F, h, order, axis):
    r = lambda k: np.roll(F, -k, axis=axis)
    if order == 1:
        return (r(1) - r(-1)) / (2 * h)
    if order == 2:
        return (r(1) - 2 * F + r(-1)) / h ** 2
    if order == 3:
        return (r(2) - 2 * r(1) + 2 * r(-1) - r(-2)) / (2 * h ** 3)
    if order == 4:
        return (r(2) - 4 * r(1) + 6 * F - 4 * r(-1) + r(-2)) / h ** 4
    raise ValueError(order)


def _auto_window(roots, omega, chi0=0.4, tau0=0.1, width=1.2, margin=0.3):
    """Shift the grid window until |sinh(w_l - x)| >= margin everywhere."""
    roots = np.asarray(tuple(roots), dtype=complex)
    for attempt in range(40):
        c0 = chi0 + 0.37 * attempt
        chis = np.linspace(c0, c0 + width, 33)
        taus = np.linspace(tau0, tau0 + width, 33)
        xv = chis[:, None] - omega * taus[None, :]
        dist = np.abs(np.sinh(roots[:, None, None] - xv[None, :, :])).min()
        if dist >= margin:
            return c0, tau0, width
    raise RuntimeError("no pole-free window found for this root set")


def pde_travelling_wave_residual(n, roots, omega, grid_n=129, window=None,
                                 subsample=1):
    """Max-norm discretized residual of the order-n travelling-wave PDE on a
    rectangular (chi, tau) grid for psi(chi, tau) = h(chi - omega tau).

    subsample > 1 restricts the max to every subsample-th interior point, so
    refinement studies compare the residual at identical physical locations.
    """
    from .bethe import CothSum
    if n not in (1, 2, 3):
        raise ValueError("PDE reductions implemented for n in {1, 2, 3}")
    h_fun = CothSum(roots)
    if window is None:
        chi0, tau0, width = _auto_window(roots, omega)
    else:
        chi0, tau0, width = window
    chis = np.linspace(chi0, chi0 + width, grid_n)
    taus = np.linspace(tau0, tau0 + width, grid_n)
    hc = chis[1] - chis[0]
    ht = taus[1] - taus[0]
    X = chis[:, None] - omega * taus[None, :]
    w = np.asarray(tuple(roots), dtype=complex)
    psi = np.sum(1 / np.tanh(w[:, None, None] - X[None, :, :]), axis=0)

    if n == 1:
        R = _roll_deriv(psi, ht, 2, 1) - omega ** 2 * _roll_deriv(psi ** 2, hc, 1, 0)
    elif n == 2:
        R = (_roll_deriv(psi, ht, 3, 1)
             + 1.5 * omega ** 3 * _roll_deriv(psi ** 2, hc, 2, 0)
             - omega ** 3 * _roll_deriv(psi * (psi ** 2 - 4), hc, 1, 0))
    else:
        dchi = _roll_deriv(psi, hc, 1, 0)
        R = (omega ** -4 * _roll_deriv(psi, ht, 4, 1)
             + _roll_deriv(psi ** 2 * (10 - psi ** 2) + dchi ** 2, hc, 1, 0)
             + 2 * _roll_deriv(psi * (psi ** 2 - 5), hc, 2, 0)
             - 2 * _roll_deriv(psi ** 2, hc, 3, 0))
    if subsample > 1:
        margin = 4 * subsample
        R = R[margin:-margin:subsample, margin:-margin:subsample]
        return float(np.abs(R).max())
    interior = np.abs(R[4:-4, 4:-4])
    return float(interior.max())


def pde_convergence(n, roots, omega, base_grid=129, halvings=3, window=None):
    """Residuals and step-halving ratios for the order-n PDE reduction,
    measured over the shared coarse-grid interior points."""
    if window is None:
        window = _auto_window(roots, omega, margin=0.7)
    res = [pde_travelling_wave_residual(n, roots, omega,
                                        grid_n=(base_grid - 1) * 2 ** k + 1,
                                        window=window, subsample=2 ** k)
           for k in range(halvings + 1)]
    ratios = [res[k] / res[k + 1] for k in range(halvings)]
    return res, ratios


# ---------------------------------------------------------------------------
# Schroedinger form

def potential_v(x, omega0, gamma):
    """Potential  -3 c^2 / (omega0 b(x)^2 - omega0^{-1} a(x)^2)^2."""
    a = np.sinh(np.asarray(x) + gamma)
    b = np.sinh(np.asarray(x))
    c = np.sinh(gamma)
    den = omega0 * b ** 2 - a ** 2 / omega0
    return -3 * c ** 2 / den ** 2


@dataclass
class PotentialProfile:
    omega0: complex
    gamma: complex
    xs: np.ndarray
    values: np.ndarray          # nan at poles
    poles: list = field(default_factory=list)


def real_axis_poles(omega0, gamma, x_range):
    """Real zeros of  omega0 b(x)^2 - a(x)^2/omega0,  in closed form.

    a = +-omega0 b reduces to exp(2x) = (exp(-gamma) -+ omega0)/(exp(gamma)
    -+ omega0); a real pole exists when that ratio is real and positive.
    """
    out = []
    for s in (1.0, -1.0):
        den = np.exp(gamma) - s * omega0
        if abs(den) < 1e-14:
            continue
        z = (np.exp(-gamma) - s * omega0) / den
        if abs(np.imag(z)) < 1e-12 * max(abs(z), 1.0) and np.real(z) > 0:
            x = 0.5 * np.log(np.real(z))
            if x_range[0] <= x <= x_range[1]:
                out.append(float(x))
    return sorted(set(out))


def potential_profile(omega0, gamma, x_range=(-8.0, 8.0), samples=801):
    """Sampled potential profile; poles are located in closed form and
    reported, never evaluated (nearby samples are masked)."""
    xs = np.linspace(x_range[0], x_range[1], samples)
    a = np.sinh(xs + gamma)
    b = np.sinh(xs)
    den = omega0 * b ** 2 - a ** 2 / omega0
    # a pole is where the two terms cancel, so compare with the local scale
    local = np.abs(omega0 * b ** 2) + np.abs(a ** 2 / omega0)
    mask = np.abs(den) < 1e-3 * local
    vals = np.full(xs.shape, np.nan, dtype=complex)
    vals[~mask] = -3 * np.sinh(gamma) ** 2 / den[~mask] ** 2
    poles = real_axis_poles(omega0, gamma, x_range)
    return PotentialProfile(omega0=complex(omega0), gamma=complex(gamma),
                            xs=xs, values=vals, poles=poles)


def _schrodinger_functions(x, lam0, params: ModelParams, hw: HighestWeightData):
    """alpha2, beta2*beta2bar of the sector-2 log-derivative substitution."""
    g = params.gamma
    sh, ch = np.sinh, np.cosh
    la, ld = hw.lam_a(x), hw.lam_d(x)
    la0 = hw.lam_a(0.0)
    den = lam0 * sh(x) ** 2 - la0 * sh(x + g) ** 2
    alpha = sh(g) / den * (
        la * sh(x) * (lam0 * sh(g - x) + la0 * sh(g + x))
        + ld * sh(x + g) * (lam0 * sh(x) - la0 * sh(2 * g + x)))
    tA = (sh(x) * ch(g) * (la0 ** 2 * sh(x + g) ** 3 - lam0 ** 2 * sh(g - x) * sh(x) ** 2)
          + la0 * lam0 / 16 * (1 - 2 * sh(2 * g) * sh(4 * x)
                               + 4 * (ch(2 * g) + 3) * ch(g) ** 2 * ch(2 * x)
                               - 4 * ch(g) ** 2 * ch(4 * x)
                               + 8 * sh(g) * ch(g) ** 3 * sh(2 * x)
                               - 14 * ch(2 * g) + ch(4 * g)))
    tD = (sh(x + g) * ch(g) * (la0 ** 2 * sh(x + 2 * g) * sh(x + g) ** 2 + lam0 ** 2 * sh(x) ** 3)
          + la0 * lam0 / 16 * (1 + 2 * ch(g) * ch(g - 2 * x)
                               + 8 * ch(g) * ch(g + 2 * x)
                               + 6 * ch(g) * ch(3 * g + 2 * x)
                               - 4 * ch(g) * ch(3 * g + 4 * x)
                               - 14 * ch(2 * g) + ch(4 * g)))
    beta = (la * tA + ld * tD) / den ** 2
    return alpha, beta


def schrodinger_map_residual(lam, x_range, params: ModelParams, num=400,
                             potential_scale=1.0):
    """Reconstruct log psi by quadrature of (Lam - beta)/alpha and return the
    max normalized residual of  psi'' + (V - 1) psi  on interior points.

    The reference energy is fixed at 1, never fitted.  potential_scale is a
    negative-control hook (scaling V must break the residual).
    """
    _require_reference_point(params, "the Schroedinger map")
    hw = HighestWeightData(params)
    num += num % 2
    lam0 = lam(0.0)
    om0 = np.sqrt(lam0 / params.c ** params.L + 0j)
    xs = np.linspace(x_range[0], x_range[1], num + 1).astype(complex)
    alpha, beta = _schrodinger_functions(xs, lam0, params, hw)
    if np.abs(alpha).min() < 0.05 * np.abs(alpha).max():
        xs = xs + 0.1j  # alpha nearly vanishes on the real path
        alpha, beta = _schrodinger_functions(xs, lam0, params, hw)
    Lv = np.array([lam(x) for x in xs])
    r = (Lv - beta) / alpha
    h = xs[1] - xs[0]
    logpsi = _cumulative_simpson(r, dx=1.0) * h
    logpsi -= logpsi.real.max()
    psi = np.exp(logpsi)
    d2 = np.empty_like(psi)
    d2[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h ** 2
    V = potential_scale * potential_v(xs, om0, params.gamma)
    res = np.abs(d2 + (V - 1) * psi)[2:-2]
    scale = np.maximum(np.abs(d2), np.abs((V - 1) * psi))[2:-2]
    return float(res.max() / max(scale.max(), 1e-300))


# ---------------------------------------------------------------------------
# root-of-unity initial condition

@dataclass
class OmegaReport:
    L: int
    power_deviation: float                  # || O^L - Id ||_max
    sector_deviations: dict                  # n -> list of |(Lam0/c^L)^L - 1|

    @property
    def max_sector_deviation(self):
        return max((max(v) for v in self.sector_deviations.values() if v),
                   default=0.0)


def omega0_power_deviation(params: ModelParams):
    """|| O^L - Id ||_max for T(0) = c^L O, taken on the sector blocks of O
    (T(0) keeps the number of down spins)."""
    _require_reference_point(params, "the root-of-unity check")
    L = params.L
    O = transfer(0.0, params) / params.c ** L
    blocks = [sector_block(O, L, n, n) for n in range(L + 1)]
    return float(max(np.abs(np.linalg.matrix_power(B, L) - np.eye(len(B))).max()
                     for B in blocks))


def omega0_sector_deviations(params: ModelParams, lams):
    """n -> |(Lam(0)/c^L)^L - 1| for every eigenvalue function in lams[n]."""
    _require_reference_point(params, "the root-of-unity check")
    L = params.L
    cl = params.c ** L
    return {n: [float(abs((lam(0.0) / cl) ** L - 1)) for lam in fs]
            for n, fs in lams.items()}


def omega0_root_of_unity(params: ModelParams, eigensystems):
    """Check T(0) = c^L O with O^L = Id, and the eigenvalue phases of the
    given sector eigensystems."""
    lams = {es.n: [es.lam(k) for k in range(es.size)] for es in eigensystems}
    return OmegaReport(L=params.L, power_deviation=omega0_power_deviation(params),
                       sector_deviations=omega0_sector_deviations(params, lams))
