"""Six-vertex model at desk scale: R-matrix, twisted monodromy, transfer matrix.

Everything here is dense complex linear algebra on the 2^L-dimensional chain
Hilbert space.  Conventions (pinned by the L=1 tests):

* vertex weights  a(x) = sinh(x + gamma),  b(x) = sinh(x),  c = sinh(gamma);
* chain basis: bit-strings of length L in lexicographic order, site 1 is the
  most significant bit, bit 0 <-> spin up (e1), bit 1 <-> spin down (e2);
* monodromy  T0(x) = Gamma0 * R_{01}(x-mu_1) * ... * R_{0L}(x-mu_L)  with the
  auxiliary slot first and the j=1 factor leftmost, Gamma0 = diag(phi1, phi2);
* the twist lives in the monodromy only: the A/B blocks carry phi1, the C/D
  blocks carry phi2, and the vacuum products lam_a, lam_d are twist-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _iproduct

import numpy as np

__all__ = [
    "ModelParams",
    "ExpSum",
    "HighestWeightData",
    "r_matrix",
    "verify_ybe",
    "monodromy_blocks",
    "transfer",
    "yba_exchange_residual",
    "sector_indices",
    "popcount",
    "magnetization_diagonal",
]


@dataclass(frozen=True)
class ModelParams:
    """Complete input to every computation: lattice size, anisotropy,
    inhomogeneities and the diagonal boundary twist."""

    L: int
    gamma: complex
    mu: tuple = ()
    phi1: complex = 1.0 + 0j
    phi2: complex = 1.0 + 0j

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"lattice length must be >= 1, got {self.L}")
        mu = tuple(complex(m) for m in self.mu) if self.mu else (0.0 + 0j,) * self.L
        if len(mu) != self.L:
            raise ValueError(f"expected {self.L} inhomogeneities, got {len(mu)}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "phi1", complex(self.phi1))
        object.__setattr__(self, "phi2", complex(self.phi2))
        if self.phi1 == 0 or self.phi2 == 0:
            raise ValueError("twist entries phi1, phi2 must be nonzero")
        if abs(np.sinh(self.gamma)) < 1e-14:
            raise ValueError("sinh(gamma) = 0: degenerate anisotropy")

    # vertex weights
    def a(self, x):
        return np.sinh(x + self.gamma)

    def b(self, x):
        return np.sinh(x)

    @property
    def c(self):
        return np.sinh(self.gamma)

    @property
    def dim(self):
        return 2 ** self.L

    @classmethod
    def from_dict(cls, d):
        """Build from a config mapping; complex entries may be written as
        numbers, as [re, im] pairs, or as strings like "1+2j"."""
        def cplx(v):
            if isinstance(v, (list, tuple)):
                return complex(v[0], v[1])
            if isinstance(v, str):
                return complex(v.replace(" ", ""))
            return complex(v)

        L = int(d["L"])
        mu = d.get("mu", [0.0] * L)
        if not isinstance(mu, (list, tuple)):
            mu = [mu] * L
        return cls(
            L=L,
            gamma=cplx(d.get("gamma", 0.7)),
            mu=tuple(cplx(m) for m in mu),
            phi1=cplx(d.get("phi1", 1.0)),
            phi2=cplx(d.get("phi2", 1.0)),
        )

    def to_dict(self):
        enc = lambda z: [z.real, z.imag]
        return {
            "L": self.L,
            "gamma": enc(self.gamma),
            "mu": [enc(m) for m in self.mu],
            "phi1": enc(self.phi1),
            "phi2": enc(self.phi2),
        }


def r_matrix(x, gamma):
    """4x4 six-vertex R-matrix on the ordered basis
    {e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2}."""
    a = np.sinh(x + gamma)
    b = np.sinh(x)
    c = np.sinh(gamma)
    return np.array(
        [[a, 0, 0, 0],
         [0, b, c, 0],
         [0, c, b, 0],
         [0, 0, 0, a]],
        dtype=complex,
    )


def _embed_pair(op4, slots, n_slots):
    """Embed a two-site operator into n_slots qubit slots (dense)."""
    dim = 2 ** n_slots
    op = op4.reshape(2, 2, 2, 2)  # [i_out, j_out, i_in, j_in]
    full = np.zeros((dim, dim), dtype=complex)
    i, j = slots
    rest = [s for s in range(n_slots) if s not in slots]
    for bits_out in _iproduct((0, 1), repeat=2):
        for bits_in in _iproduct((0, 1), repeat=2):
            amp = op[bits_out[0], bits_out[1], bits_in[0], bits_in[1]]
            if amp == 0:
                continue
            for rest_bits in _iproduct((0, 1), repeat=len(rest)):
                out = [0] * n_slots
                inn = [0] * n_slots
                out[i], out[j] = bits_out
                inn[i], inn[j] = bits_in
                for s, rb in zip(rest, rest_bits):
                    out[s] = inn[s] = rb
                r = int("".join(map(str, out)), 2)
                cidx = int("".join(map(str, inn)), 2)
                full[r, cidx] += amp
    return full


def verify_ybe(x1, x2, x3, gamma):
    """Max-norm residual of the Yang-Baxter equation on three slots."""
    r12 = _embed_pair(r_matrix(x1 - x2, gamma), (0, 1), 3)
    r13 = _embed_pair(r_matrix(x1 - x3, gamma), (0, 2), 3)
    r23 = _embed_pair(r_matrix(x2 - x3, gamma), (1, 2), 3)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.abs(lhs - rhs).max())


def _apply_site_right(X, m, j, L):
    """X @ embed(m at site j), without forming the embedded operator.

    Column index of X is reshaped as (pre, site, post); m is 2x2.
    """
    D = X.shape[0]
    pre, post = 2 ** (j - 1), 2 ** (L - j)
    Xr = X.reshape(D, pre, 2, post)
    out = np.einsum("rpts,te->rpes", Xr, m, optimize=True)
    return out.reshape(D, D)


_E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_E22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def monodromy_blocks(x, params: ModelParams):
    """Twisted monodromy as its four quantum-space blocks (A, B, C, D).

    The ordered product runs j = 1 leftmost; the twist multiplies once at
    the end (A, B pick up phi1; C, D pick up phi2).
    """
    L, g = params.L, params.gamma
    D = params.dim
    A = np.eye(D, dtype=complex)
    B = np.zeros((D, D), dtype=complex)
    C = np.zeros((D, D), dtype=complex)
    Dm = np.eye(D, dtype=complex)
    for j in range(1, L + 1):
        z = x - params.mu[j - 1]
        a, b, c = np.sinh(z + g), np.sinh(z), np.sinh(g)
        r11 = a * _E11 + b * _E22
        r22 = b * _E11 + a * _E22
        r12 = c * _E21
        r21 = c * _E12
        An = _apply_site_right(A, r11, j, L) + _apply_site_right(B, r21, j, L)
        Bn = _apply_site_right(A, r12, j, L) + _apply_site_right(B, r22, j, L)
        Cn = _apply_site_right(C, r11, j, L) + _apply_site_right(Dm, r21, j, L)
        Dn = _apply_site_right(C, r12, j, L) + _apply_site_right(Dm, r22, j, L)
        A, B, C, Dm = An, Bn, Cn, Dn
    return params.phi1 * A, params.phi1 * B, params.phi2 * C, params.phi2 * Dm


def transfer(x, params: ModelParams):
    """Transfer matrix: partial trace of the twisted monodromy over aux."""
    A, _, _, D = monodromy_blocks(x, params)
    return A + D


def yba_exchange_residual(x1, x2, params: ModelParams):
    """Max-norm residual over the eight exchange relations of the A-B and
    D-B subalgebras, evaluated as dense matrix identities."""
    b12 = params.b(x1 - x2)
    b21 = params.b(x2 - x1)
    if min(abs(b12), abs(b21)) < 1e-12:
        raise ValueError("singular point: b(x1 - x2) = 0")
    a, b, c = params.a, params.b, params.c
    A1, B1, C1, D1 = monodromy_blocks(x1, params)
    A2, B2, C2, D2 = monodromy_blocks(x2, params)

    rels = [
        A1 @ A2 - A2 @ A1,
        B1 @ B2 - B2 @ B1,
        D1 @ D2 - D2 @ D1,
        A1 @ B2 - (a(x2 - x1) / b(x2 - x1)) * B2 @ A1 - (c / b(x1 - x2)) * B1 @ A2,
        B1 @ A2 - (a(x2 - x1) / b(x2 - x1)) * A2 @ B1 - (c / b(x1 - x2)) * A1 @ B2,
        D1 @ B2 - (a(x1 - x2) / b(x1 - x2)) * B2 @ D1 - (c / b(x2 - x1)) * B1 @ D2,
        B1 @ D2 - (a(x1 - x2) / b(x1 - x2)) * D2 @ B1 - (c / b(x2 - x1)) * D1 @ B2,
    ]
    return float(max(np.abs(r).max() for r in rels))


# ---------------------------------------------------------------------------
# sector bookkeeping

def popcount(s: int) -> int:
    return bin(s).count("1")


def sector_indices(L: int, n: int):
    """Basis indices of the n-down-spin sector, in lexicographic order."""
    if not 0 <= n <= L:
        raise ValueError(f"sector label must lie in [0, {L}], got {n}")
    return [s for s in range(2 ** L) if popcount(s) == n]


def magnetization_diagonal(L: int):
    """Diagonal of H = sum_j (E11 - E22)_j in the chain basis."""
    return np.array([L - 2 * popcount(s) for s in range(2 ** L)])


# ---------------------------------------------------------------------------
# highest-weight data

class ExpSum:
    """Finite exponential sum  f(x) = sum_i coeffs[i] exp(ms[i] x)  over
    integer frequencies, with exact derivatives of any order.

    The vacuum products lam_a, lam_d (a product over L sites of
    sinh(x - mu_j + shift)) have frequencies -L, -L+2, ..., L, and so does
    every transfer-matrix eigenvalue, since u^{L/2} Lambda(x) is a
    polynomial of degree L in u = exp(2x).
    """

    def __init__(self, ms, coeffs):
        self.ms = np.asarray(ms, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def sinh_product(cls, offsets):
        """prod_j sinh(x + offsets[j]), frequencies -n, -n+2, ..., n."""
        coeffs = [1.0 + 0j]
        for off in offsets:
            # sinh(x + off) = exp(off)/2 e^{x} - exp(-off)/2 e^{-x}; scalar
            # products, so the rounding does not depend on the SIMD path
            # numpy picks for complex arrays on a given CPU
            ep, em = np.exp(off) / 2, -np.exp(-off) / 2
            new = [0.0] * (len(coeffs) + 1)
            for i, k in enumerate(coeffs):
                new[i] += k * em
                new[i + 1] += k * ep
            coeffs = new
        n = len(coeffs) - 1
        return cls(np.arange(-n, n + 1, 2), coeffs)

    def __call__(self, x, d=0):
        w = self.coeffs if d == 0 else self.coeffs * self.ms ** d
        if np.ndim(x):
            return np.sum(w * np.exp(self.ms * np.asarray(x, dtype=complex)[..., None]),
                          axis=-1)
        return complex(np.sum(w * np.exp(self.ms * x)))


@dataclass
class HighestWeightData:
    """Vacuum eigenvalue functions lam_a, lam_d and the twist combinations
    lam_pm = +-phi1*lam_a + phi2*lam_d, with closed-form derivatives of any
    order (exponential-sum representation)."""

    params: ModelParams
    _a: ExpSum = field(init=False, repr=False)
    _d: ExpSum = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        self._a = ExpSum.sinh_product([-m + p.gamma for m in p.mu])
        self._d = ExpSum.sinh_product([-m for m in p.mu])

    def lam_a(self, x, d=0):
        return self._a(x, d)

    def lam_d(self, x, d=0):
        return self._d(x, d)

    def lam_plus(self, x, d=0):
        p = self.params
        return p.phi1 * self._a(x, d) + p.phi2 * self._d(x, d)

    def lam_minus(self, x, d=0):
        p = self.params
        return -p.phi1 * self._a(x, d) + p.phi2 * self._d(x, d)
