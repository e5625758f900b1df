"""Six-vertex model at desk scale: R-matrix, twisted monodromy, transfer matrix.

The monodromy blocks are built densely on the 2^L-dimensional chain Hilbert
space, held as one array and built site by site: each step writes the
products with the six nonzero entries of the 2x2 site factors into four
strided views of one preallocated array (the Kronecker products with those
factors, without the zeros).  Products of blocks are taken in sector form:
A, D and T(x) keep the number n of down spins, B raises it by one and C
lowers it by one, so `sector_block` slices the nonzero blocks off one build
and only those are multiplied.  Conventions (pinned by the L=1 tests):

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
from functools import lru_cache

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
    "sector_block",
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


def verify_ybe(x1, x2, x3, gamma):
    """Max-norm residual of the Yang-Baxter equation on three slots."""
    I2, P = np.eye(2), np.eye(4)[[0, 2, 1, 3]]     # P swaps two slots
    r12 = np.kron(r_matrix(x1 - x2, gamma), I2)
    r13 = np.kron(I2, P) @ np.kron(r_matrix(x1 - x3, gamma), I2) @ np.kron(I2, P)
    r23 = np.kron(I2, r_matrix(x2 - x3, gamma))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.abs(lhs - rhs).max())


# number of monodromy_blocks calls so far (`verify` records it per check)
builds = 0


def monodromy_blocks(x, params: ModelParams):
    """Twisted monodromy as its four quantum-space blocks (A, B, C, D).

    The blocks are held as one array M[i, j, r, c] (aux row i, aux column j,
    chain row r, chain column c), A = M[0, 0] ... D = M[1, 1].  The ordered
    product runs j = 1 leftmost, so each site appends its 2x2 factors:
    M[i, j] <- sum_k M[i, k] (x) r_kj, r_kj[s, t] = R[(k, s), (j, t)].  Of the
    16 site-factor entries only six are nonzero (a, b on the diagonals, c on
    r12[1, 0] and r21[0, 1]), so the step is four products written straight
    into strided views of a zeroed (2, 2, d, 2, d, 2) array, which reshapes
    to the 2d x 2d blocks.  The twist multiplies once at the end, in place
    (A, B pick up phi1; C, D pick up phi2); the four blocks returned are
    disjoint views of that array.  Operand kinds and order are kept as in
    the np.kron build, which gives bit-identical output: the weights stay an
    array (array-by-array products), and the twist scalar comes first
    (numpy rounds phi * X and X * phi differently).
    """
    global builds
    builds += 1
    g = params.gamma
    M = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for m in params.mu:
        a, b, c = np.sinh(x - m + g), np.sinh(x - m), np.sinh(g)
        w = np.array([[a, b], [b, a], [c, c]], dtype=complex)[:, :, None, None]
        d = M.shape[-1]
        N = np.zeros((2, 2, d, 2, d, 2), dtype=complex)
        np.multiply(M, w[0], out=N[..., 0, :, 0])
        np.multiply(M, w[1], out=N[..., 1, :, 1])
        np.multiply(M[:, 1], w[2, 0], out=N[:, 0, :, 0, :, 1])
        np.multiply(M[:, 0], w[2, 1], out=N[:, 1, :, 1, :, 0])
        M = N.reshape(2, 2, 2 * d, 2 * d)
    np.multiply(params.phi1, M[0], out=M[0])
    np.multiply(params.phi2, M[1], out=M[1])
    return M[0, 0], M[0, 1], M[1, 0], M[1, 1]


def transfer(x, params: ModelParams):
    """Transfer matrix: partial trace of the twisted monodromy over aux."""
    A, _, _, D = monodromy_blocks(x, params)
    return A + D


def yba_exchange_residual(x1, x2, params: ModelParams):
    """Max-norm residual over the seven exchange relations of the A-B and
    D-B subalgebras, and the max-norm of T(x1) = A1 + D1 (its scale).

    Each relation is formed on its nonzero sector blocks only: for column
    sector n, A and D keep n and B(x) takes n to n + 1, so a relation maps
    sector n to n, n + 1 or n + 2.  Every other entry of the dense relation
    is a sum of exact zeros."""
    b12 = params.b(x1 - x2)
    b21 = params.b(x2 - x1)
    if min(abs(b12), abs(b21)) < 1e-12:
        raise ValueError("singular point: b(x1 - x2) = 0")
    a, b, c = params.a, params.b, params.c
    L = params.L

    def blocks(x):
        A, B, _, D = monodromy_blocks(x, params)
        return ([sector_block(A, L, n, n) for n in range(L + 1)],
                [sector_block(B, L, n + 1, n) for n in range(L)],
                [sector_block(D, L, n, n) for n in range(L + 1)])

    A1, B1, D1 = blocks(x1)
    A2, B2, D2 = blocks(x2)
    rels = []
    for n in range(L + 1):
        rels += [A1[n] @ A2[n] - A2[n] @ A1[n], D1[n] @ D2[n] - D2[n] @ D1[n]]
    for n in range(L - 1):
        rels.append(B1[n + 1] @ B2[n] - B2[n + 1] @ B1[n])
    for n in range(L):
        rels += [
            A1[n + 1] @ B2[n] - (a(x2 - x1) / b(x2 - x1)) * B2[n] @ A1[n]
            - (c / b(x1 - x2)) * B1[n] @ A2[n],
            B1[n] @ A2[n] - (a(x2 - x1) / b(x2 - x1)) * A2[n + 1] @ B1[n]
            - (c / b(x1 - x2)) * A1[n + 1] @ B2[n],
            D1[n + 1] @ B2[n] - (a(x1 - x2) / b(x1 - x2)) * B2[n] @ D1[n]
            - (c / b(x2 - x1)) * B1[n] @ D2[n],
            B1[n] @ D2[n] - (a(x1 - x2) / b(x1 - x2)) * D2[n + 1] @ B1[n]
            - (c / b(x2 - x1)) * D1[n + 1] @ B2[n],
        ]
    t_norm = max(np.abs(A + D).max() for A, D in zip(A1, D1))
    return float(max(np.abs(r).max() for r in rels)), float(t_norm)


# ---------------------------------------------------------------------------
# sector bookkeeping

def popcount(s: int) -> int:
    return bin(s).count("1")


@lru_cache(maxsize=None)
def _sector_arrays(L):
    counts = np.array([popcount(s) for s in range(2 ** L)])
    out = tuple(np.flatnonzero(counts == n) for n in range(L + 1))
    for idx in out:
        idx.flags.writeable = False     # shared by every caller
    return out


def sector_indices(L: int, n: int):
    """Basis indices of the n-down-spin sector, in lexicographic order (a
    read-only array shared by all callers)."""
    if not 0 <= n <= L:
        raise ValueError(f"sector label must lie in [0, {L}], got {n}")
    return _sector_arrays(L)[n]


def sector_block(M, L: int, n_row: int, n_col: int):
    """Block of a chain operator M from sector n_col (columns) into sector
    n_row (rows): A, D and T(x) are nonzero only on (n, n), B on (n + 1, n),
    C on (n - 1, n)."""
    return M[np.ix_(sector_indices(L, n_row), sector_indices(L, n_col))]


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
