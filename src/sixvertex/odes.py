"""Differential identities satisfied by the spectrum.

Contents:

* the constant-coefficient annihilator of exp(-integral h) for h a sum of
  n coth terms (checked at the exponential-coefficient level, exactly);
* the Riccati chain for h (orders 1..3) and for the eigenvalue itself:
  the sector-1 Riccati equation in two algebraically identical forms, the
  sector-2 second-order identity, and the sector-2 standard Riccati at the
  homogeneous untwisted point;
* the sector-2 identity is evaluated by a coalescing-point reduction of the
  verified three-point determinant identity: its epsilon^0 coefficient in
  the point separation, the ODE, is a mean over a circle in epsilon of
  `functional.symmetric_m_matrix` at the coalescing points;
* pointwise travelling-wave PDE residuals, the Schroedinger-form potential
  and map, and the root-of-unity initial condition.

Eigenvalue and h arguments are evaluators  f(x, d)  returning the d-th
derivative exactly: `model.ExpSum`, `bethe.RootEigenvalue` or `bethe.CothSum`.
Every residual has the layout of `functional`: an eigenvalue stack (an
`ExpSum` with K rows, one per eigenpair of a sector) goes first, the points
x are an array, and the result has shape (K,) + shape(x), with no K axis for
a single evaluator; h root-set stacks broadcast against x as in `CothSum`.
The Schroedinger map's r' comes from one `model.cauchy_taylor` rule for the
whole stack and all points.  Vacuum eigenvalues come from the model (params).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .bethe import CothSum
from .functional import symmetric_m_matrix
from .model import ExpSum, ModelParams, cauchy_taylor, transfer

# circle radius and nodes of the Cauchy rule for r' in the Schroedinger map
_CAUCHY_RADIUS, _CAUCHY_NODES = 0.02, 16

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
    "pde_travelling_wave_residual",
    "potential_v",
    "PotentialProfile",
    "potential_profile",
    "schrodinger_map_residual",
    "omega0_power_deviation",
    "omega0_sector_deviations",
]


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
        return h_eval(x, 1) + 1 - h ** 2
    if n == 2:
        return h_eval(x, 2) - 3 * h * h_eval(x, 1) + h * (h ** 2 - 4)
    if n == 3:
        d1, d2, d3 = h_eval(x, 1), h_eval(x, 2), h_eval(x, 3)
        return (d3 - 4 * h * d2 - (10 - 6 * h ** 2 + 3 * d1) * d1
                - (h ** 2 - 1) * (h ** 2 - 9))
    raise ValueError("closed forms implemented for n in {1, 2, 3}")


# ---------------------------------------------------------------------------
# sector-1 Riccati equation for the eigenvalue

def _j_coefficients(x, params: ModelParams):
    g = params.gamma
    sh, ch = np.sinh(g), np.cosh(g)
    lp, lm = params.lam_plus(x), params.lam_minus(x)
    dlp, dlm = params.lam_plus(x, 1), params.lam_minus(x, 1)
    j0 = (ch * lp) ** 2 - (sh * lm) ** 2 + sh * ch * (lp * dlm - lm * dlp)
    j1 = 2 * ch * lp + sh * dlm
    return j0, j1


def _riccati_scale(j0, Lam):
    return np.maximum(np.maximum(np.abs(j0), np.abs(Lam) ** 2), 1e-300)


def riccati_lambda_residual(lam_eval, x, params):
    """Normalized residual of the first-order quadratic ODE for sector-1
    eigenvalues:  -c lam_minus dLam + J1 Lam - Lam^2 - J0."""
    j0, j1 = _j_coefficients(x, params)
    Lam, dLam = lam_eval(x), lam_eval(x, 1)
    res = -params.c * params.lam_minus(x) * dLam + j1 * Lam - Lam ** 2 - j0
    return res / _riccati_scale(j0, Lam)


def sigma1_residual(lam_eval, x, params):
    """Same identity written through the surface form
    omega0 + (omega1 - Lam) S0 - c lam_minus dS0 with S0 = Lam - lam_plus;
    kept as an independent code path and cross-checked in tests."""
    g = params.gamma
    sh, ch = np.sinh(g), np.cosh(g)
    lp, lm = params.lam_plus(x), params.lam_minus(x)
    dlp, dlm = params.lam_plus(x, 1), params.lam_minus(x, 1)
    w0 = (sh * lm) ** 2 - ((ch - 1) * lp) ** 2 + sh * (ch - 1) * (lm * dlp - lp * dlm)
    w1 = (2 * ch - 1) * lp + sh * dlm
    Lam, dLam = lam_eval(x), lam_eval(x, 1)
    s0 = Lam - lp
    ds0 = dLam - dlp
    res = w0 + (w1 - Lam) * s0 - sh * lm * ds0
    j0, _ = _j_coefficients(x, params)
    return res / _riccati_scale(j0, Lam)


# ---------------------------------------------------------------------------
# coalescing-point reduction (a circle mean in the point separation)

# circle radius and nodes in eps.  The entries of m are analytic in eps on the
# punctured disc out to the nearest other zero of sinh((t_i - t_j) eps), at
# pi / max|t_i - t_j| (pi/2 for the default directions).  Against a 120-digit
# limit of the determinant, in units of the scale: at reference L=8,
# x = -0.35, radius 0.5 leaves 2.6e-7 in the eps^0 mean and 0.3 leaves 1.2e-13
# (32 nodes); at reference L=10, x = -0.213, 32 nodes alias 5.4e-12 into it
# and 64 nodes leave 2.9e-13
_CIRCLE_RADIUS, _CIRCLE_NODES = 0.3, 64


def coalescing_reduction(lam, x, params: ModelParams, n, ts=None):
    """eps^0 coefficient of det(m - diag(Lambda)) with all n+1 spectral
    points at x + ts[i]*eps: the order-n ODE satisfied by sector-n
    eigenvalues (n in {1, 2}), evaluated at x for each eigenvalue Lambda of
    the stack `lam` and each point of x.

    m is `functional.symmetric_m_matrix` at the nodes of a circle in eps,
    built once for the whole stack and every point, and Lambda its degree-2
    Taylor polynomial about x; each eps-coefficient is a mean over the
    circle (Cauchy's integral by the trapezoidal rule).  Returns (values, scales,
    spurious), each of shape (stack,) + x.shape (no stack axis for a single
    evaluator): a value sums the eps^0 means of the permutation terms of the
    determinant, a scale is the largest of those means, spurious the largest
    coefficient of eps^-j, j >= 1 (an internal cancellation check; it
    vanishes identically).
    """
    if n not in (1, 2):
        raise ValueError("the degree-2 Taylor polynomial of Lambda gives the "
                         "reduction for n in {1, 2} only")
    if ts is None:
        ts = (0.0,) + tuple(np.linspace(1.0, -1.0, n))
    if len(ts) != n + 1:
        raise ValueError(f"need {n + 1} direction constants")
    nodes = np.arange(_CIRCLE_NODES)
    eps = _CIRCLE_RADIUS * np.exp(2j * np.pi * nodes / _CIRCLE_NODES)
    dx = np.multiply.outer(eps, ts)
    # m at every point and node: shape x.shape + (nodes, n+1, n+1)
    m = symmetric_m_matrix(np.moveaxis(np.add.outer(x, dx), -1, 0), params)
    idx = np.arange(n + 1)
    # a = m - diag(P) with P the Taylor polynomial of each eigenvalue:
    # shape (stack,) + x.shape + (nodes, n+1, n+1)
    taylor = [np.asarray(lam(x, d))[..., None, None] for d in range(3)]
    P = taylor[0] + taylor[1] * dx + taylor[2] / 2 * dx ** 2
    a = m - P[..., None] * np.eye(n + 1)
    terms = np.array([np.linalg.det(np.eye(n + 1)[list(p)]) * a[..., idx, p].prod(axis=-1)
                      for p in permutations(idx)])
    means = terms.mean(axis=-1)
    # the circle mean of det * eps^j is radius^j times the j-th inverse DFT term
    spurious = np.abs(np.fft.ifft(terms.sum(axis=0))[..., 1:] * _CIRCLE_RADIUS ** nodes[1:])
    return means.sum(axis=0), np.abs(means).max(axis=0), spurious.max(axis=-1)


def sigma2_residual(lam, x, params):
    """Normalized residuals of the second-order ODE for sector-2 eigenvalues
    (the coalescing limit of the three-point identity), one per eigenvalue
    of the stack `lam` and point of x."""
    vals, scales, _ = coalescing_reduction(lam, x, params, n=2)
    return vals / np.maximum(scales, 1e-300)


# ---------------------------------------------------------------------------
# sector-2 standard Riccati at the homogeneous untwisted point

def _require_reference_point(params: ModelParams, what):
    if not params.reference_point:
        raise ValueError(f"{what} is implemented at the homogeneous untwisted "
                         "point (all mu = 0, phi1 = phi2 = 1) only")


def _kbar(x, lam0, la, ld, params: ModelParams):
    """kbar of the sector-2 Riccati equation, with la, ld the vacuum
    eigenvalues at x; also the numerator of the Schroedinger map's alpha."""
    g, sh = params.gamma, np.sinh
    la0 = params.lam_a(0.0)
    return (la * sh(x) * (lam0 * sh(g - x) + la0 * sh(g + x))
            + ld * sh(x + g) * (lam0 * sh(x) - la0 * sh(x + 2 * g)))


def riccati2_coefficients(x, lam0, params: ModelParams):
    """(kbar, k0, k1, k2) of  c kbar dLam = k0 + k1 Lam + k2 Lam^2  for
    sector-2 eigenvalues at mu = 0, phi = 1; lam0 = Lam(0)."""
    _require_reference_point(params, "the sector-2 Riccati equation")
    g = params.gamma
    sh, ch = np.sinh, np.cosh
    la, ld = params.lam_a(x), params.lam_d(x)
    dla, dld = params.lam_a(x, 1), params.lam_d(x, 1)
    la0 = params.lam_a(0.0)
    kbar = _kbar(x, lam0, la, ld, params)
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


def riccati2_residual(lam, x, params):
    """Normalized residual of the sector-2 standard Riccati equation, one
    per eigenvalue of the stack `lam` and point of x."""
    kbar, k0, k1, k2 = riccati2_coefficients(x, lam(np.zeros(np.shape(x))), params)
    Lam, dLam = lam(x), lam(x, 1)
    res = params.c * kbar * dLam - k0 - k1 * Lam - k2 * Lam ** 2
    terms = np.abs([k0, k1 * Lam, k2 * Lam ** 2, params.c * kbar * dLam])
    return res / np.maximum(terms.max(axis=0), 1e-300)


# ---------------------------------------------------------------------------
# travelling-wave PDE residuals

def pde_travelling_wave_residual(n, roots, omega, x, omega_pde=None):
    """Normalized residual |R| / max|term| of the order-n travelling-wave PDE
    at X = chi - omega tau for psi(chi, tau) = h(X), h the coth sum of the
    roots: d_tau^k psi = (-omega)^k h^(k) and d_chi = d/dX, so every term is
    exact.  omega_pde (default omega) is the speed in the PDE's
    coefficients; another value is a negative control.  roots and x
    broadcast as in `bethe.CothSum`."""
    if n not in (1, 2, 3):
        raise ValueError("PDE reductions implemented for n in {1, 2, 3}")
    w = omega if omega_pde is None else omega_pde
    h, d1, d2, d3, d4 = (CothSum(roots)(x, d) for d in range(5))
    if n == 1:
        # psi_tt - w^2 (psi^2)_chi
        terms = (omega ** 2 * d2, -w ** 2 * 2 * h * d1)
    elif n == 2:
        # psi_ttt + 3/2 w^3 (psi^2)_chichi - w^3 (psi (psi^2 - 4))_chi
        terms = (-omega ** 3 * d3, 1.5 * w ** 3 * (2 * d1 ** 2 + 2 * h * d2),
                 -w ** 3 * (3 * h ** 2 - 4) * d1)
    else:
        # w^-4 psi_tttt + (psi^2 (10 - psi^2) + psi_chi^2)_chi
        #   + 2 (psi (psi^2 - 5))_chichi - 2 (psi^2)_chichichi
        terms = ((omega / w) ** 4 * d4, (20 * h - 4 * h ** 3) * d1, 2 * d1 * d2,
                 2 * (6 * h * d1 ** 2 + (3 * h ** 2 - 5) * d2),
                 -4 * (3 * d1 * d2 + h * d3))
    return np.abs(sum(terms)) / np.maximum(np.abs(terms).max(axis=0), 1e-300)


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


def _schrodinger_functions(x, lam0, params: ModelParams):
    """alpha2, beta2*beta2bar of the sector-2 log-derivative substitution."""
    g = params.gamma
    sh, ch = np.sinh, np.cosh
    la, ld = params.lam_a(x), params.lam_d(x)
    la0 = params.lam_a(0.0)
    den = lam0 * sh(x) ** 2 - la0 * sh(x + g) ** 2
    alpha = sh(g) / den * _kbar(x, lam0, la, ld, params)
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


def schrodinger_map_residual(lam, x, params: ModelParams, potential_scale=1.0):
    """Normalized residual of  psi'' + (V - 1) psi = 0  at x, where
    psi = exp(int r) with r = (Lam - beta)/alpha, so psi''/psi = r' + r^2:
    |r' + r^2 + V - 1| / max(|r' + r^2|, |V - 1|) for each eigenvalue of `lam`
    and point of x, with r and r' from one Cauchy rule on a circle axis after
    x's (so `lam` is one evaluator or an `ExpSum` stack, not a root-set stack).

    The reference energy is fixed at 1, never fitted.  potential_scale is a
    negative-control hook (scaling V must break the residual).
    """
    _require_reference_point(params, "the Schroedinger map")
    lam0 = lam(np.zeros(np.shape(x)))
    om0 = np.sqrt(lam0 / params.c ** params.L + 0j)

    def r(z):
        zs = np.add.outer(x, z)     # the circle about every point
        alpha, beta = _schrodinger_functions(zs, lam0[..., None], params)
        return (lam(zs) - beta) / alpha

    c = cauchy_taylor(r, 0.0, _CAUCHY_RADIUS, _CAUCHY_NODES)
    kinetic = c[..., 1] + c[..., 0] ** 2
    V = potential_scale * potential_v(x, om0, params.gamma)
    return (np.abs(kinetic + V - 1)
            / np.maximum(np.maximum(np.abs(kinetic), np.abs(V - 1)), 1e-300))


# ---------------------------------------------------------------------------
# root-of-unity initial condition

def omega0_power_deviation(params: ModelParams):
    """|| O^L - Id ||_max for T(0) = c^L O, taken on the sector blocks of O
    (T(0) keeps the number of down spins)."""
    _require_reference_point(params, "the root-of-unity check")
    L = params.L
    blocks = [T[0] / params.c ** L for T in transfer([0.0], params)]
    return float(max(np.abs(np.linalg.matrix_power(B, L) - np.eye(len(B))).max()
                     for B in blocks))


def omega0_sector_deviations(params: ModelParams, lams):
    """n -> |(Lam(0)/c^L)^L - 1| for every eigenvalue of the stack lams[n]."""
    _require_reference_point(params, "the root-of-unity check")
    L = params.L
    cl = params.c ** L
    return {n: np.abs((lam(0.0) / cl) ** L - 1) for n, lam in lams.items()}

