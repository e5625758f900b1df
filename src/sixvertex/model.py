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
    "cauchy_taylor",
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
    def reference_point(self):
        """True at the homogeneous untwisted point: all mu = 0, phi1 = phi2 = 1."""
        return all(m == 0 for m in self.mu) and self.phi1 == 1 and self.phi2 == 1

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
    {e1(x)e1, e1(x)e2, e2(x)e1, e2(x)e2} (one per entry, on the last two
    axes, for arrays x and gamma)."""
    a, b, c = np.broadcast_arrays(np.sinh(x + gamma), np.sinh(x), np.sinh(gamma))
    R = np.zeros(a.shape + (4, 4), dtype=complex)
    R[..., 0, 0] = R[..., 3, 3] = a
    R[..., 1, 1] = R[..., 2, 2] = b
    R[..., 1, 2] = R[..., 2, 1] = c
    return R


def _kron(A, B):
    """Kronecker product over the last two axes, batched over the others."""
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(
        shape + (A.shape[-2] * B.shape[-2], A.shape[-1] * B.shape[-1]))


def verify_ybe(x1, x2, x3, gamma):
    """Max-norm residual of the Yang-Baxter equation on three slots; for
    arrays of points and gamma, one residual per entry from one batched
    product."""
    I2, P = np.eye(2), np.eye(4)[[0, 2, 1, 3]]     # P swaps two slots
    r12 = _kron(r_matrix(x1 - x2, gamma), I2)
    r13 = _kron(I2, P) @ _kron(r_matrix(x1 - x3, gamma), I2) @ _kron(I2, P)
    r23 = _kron(I2, r_matrix(x2 - x3, gamma))
    return np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max(axis=(-2, -1))


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


def yba_exchange_residual(xs, params: ModelParams):
    """Max-norm residual over the seven exchange relations of the A-B and
    D-B subalgebras, worst over every pair x1 = xs[i], x2 = xs[j] (i < j) of
    the points, and the largest max-norm of T(x) = A + D over the points
    (its scale).  Raises ValueError if b(x1 - x2) vanishes for a pair.

    Each point is built once, and only its sector blocks are kept.  Each
    relation is formed on its nonzero sector blocks only: for column sector
    n, A and D keep n and B(x) takes n to n + 1, so a relation maps sector n
    to n, n + 1 or n + 2.  Every other entry of the dense relation is a sum
    of exact zeros.  A and D are one stack: the D relations are the A ones
    with x1 and x2 swapped in their coefficients a(x2 - x1)/b(x2 - x1) and
    c/b(x1 - x2).  Each point x1 meets all later points x2 in one batch."""
    xs = np.asarray(xs)
    L, K = params.L, len(xs)
    first, second = np.triu_indices(K, 1)
    dx = xs[second] - xs[first]                         # x2 - x1 per pair
    if (np.abs(params.b(dx)) < 1e-12).any():
        raise ValueError("singular point: b(x1 - x2) = 0")
    # (A, D) x pair, broadcast against the (pair, row, column) products
    alpha = np.stack([params.a(dx) / params.b(dx),
                      params.a(-dx) / params.b(-dx)])[:, :, None, None]
    beta = np.stack([params.c / params.b(-dx),
                     params.c / params.b(dx)])[:, :, None, None]
    # X[n]: (A, D) x point x sector n block; B[n]: point x (n + 1, n) block
    dims = [len(sector_indices(L, n)) for n in range(L + 1)]
    X = [np.empty((2, K, d, d), dtype=complex) for d in dims]
    B = [np.empty((K, dims[n + 1], dims[n]), dtype=complex) for n in range(L)]
    for k, x in enumerate(xs):
        Ak, Bk, _, Dk = monodromy_blocks(x, params)
        for n in range(L + 1):
            X[n][0, k] = sector_block(Ak, L, n, n)
            X[n][1, k] = sector_block(Dk, L, n, n)
            if n < L:
                B[n][k] = sector_block(Bk, L, n + 1, n)
        del Ak, Bk, _, Dk   # frees this dense build before the next one
    t_norm = max(np.abs(Xn[0] + Xn[1]).max() for Xn in X)
    worst = 0.0
    for k in range(K - 1):
        al, be = alpha[:, first == k], beta[:, first == k]
        for n in range(L + 1):
            X1, X2 = X[n][:, k, None], X[n][:, k + 1:]
            worst = max(worst, np.abs(X1 @ X2 - X2 @ X1).max())
            if n == L:
                break
            B1, B2 = B[n][k], B[n][k + 1:]
            if n + 1 < L:
                BB = B[n + 1][k] @ B2 - B[n + 1][k + 1:] @ B1
                worst = max(worst, np.abs(BB).max())
            Y1, Y2 = X[n + 1][:, k, None], X[n + 1][:, k + 1:]
            Y1B2, B1X2 = Y1 @ B2, B1 @ X2
            worst = max(worst,
                        np.abs(Y1B2 - al * (B2 @ X1) - be * B1X2).max(),
                        np.abs(B1X2 - al * (Y2 @ B1) - be * Y1B2).max())
    return float(worst), float(t_norm)


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


@lru_cache(maxsize=None)
def _block_index(L, n_row, n_col):
    rows, cols = np.ix_(sector_indices(L, n_row), sector_indices(L, n_col))
    rows.flags.writeable = cols.flags.writeable = False   # shared by every caller
    return rows, cols


def sector_block(M, L: int, n_row: int, n_col: int):
    """Block of a chain operator M from sector n_col (columns) into sector
    n_row (rows): A, D and T(x) are nonzero only on (n, n), B on (n + 1, n),
    C on (n - 1, n)."""
    return M[_block_index(L, n_row, n_col)]


def magnetization_diagonal(L: int):
    """Diagonal of H = sum_j (E11 - E22)_j in the chain basis."""
    return np.array([L - 2 * popcount(s) for s in range(2 ** L)])


# ---------------------------------------------------------------------------
# highest-weight data

class ExpSum:
    """Finite exponential sums  f_k(x) = sum_i coeffs[k, i] exp(ms[i] x)  over
    integer frequencies, with exact derivatives of any order.

    `coeffs` is a stack of shape (K, len(ms)), one row per function (one row
    per eigenpair of a sector), or one row of shape (len(ms),) for a single
    sum.  A call evaluates the whole stack with one complex exp, an
    elementwise product and a sum over the contiguous term axis, so a row
    rounds the same alone, in any stack and at any x of the same value,
    scalar or array, real or complex (a matmul would not); the values carry
    the stack axis first and the shape of x after it (a single sum has no
    stack axis).

    The vacuum products lam_a, lam_d (a product over L sites of
    sinh(x - mu_j + shift)) have frequencies -L, -L+2, ..., L, and so does
    every transfer-matrix eigenvalue, since u^{L/2} Lambda(x) is a
    polynomial of degree L in u = exp(2x).
    """

    def __init__(self, ms, coeffs):
        self.ms = np.asarray(ms, dtype=np.int64)
        # C order: the rounding of a row is the same alone and in a stack
        # only over a contiguous term axis
        self.coeffs = np.ascontiguousarray(coeffs, dtype=complex)

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
        e = np.exp(np.multiply.outer(np.asarray(x, dtype=complex), self.ms))
        if w.ndim == 1:
            return np.sum(w * e, axis=-1)
        return np.moveaxis(np.sum(w * e[..., None, :], axis=-1), -1, 0)


def cauchy_taylor(f, center, radius, nodes):
    """Taylor coefficients c[m_1, ..., m_d] = d^m f / (m_1! ... m_d!) of an
    analytic f of d complex variables about `center`, from the trapezoidal
    rule for Cauchy's integral on the torus |z_k - center_k| = radius with
    `nodes` points per variable (Lyness & Moler 1967): one FFT of the
    samples.  f is called once, on the whole node grid (one array per
    variable, `nodes` long on each axis), so it must accept arrays.  The low
    coefficients are exact to rounding (amplified by radius^-|m|) when f is
    analytic well beyond the radius."""
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    circle = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = f(*np.meshgrid(*(c + circle for c in center), indexing="ij"))
    return np.fft.fftn(vals) / vals.size / radius ** np.indices(vals.shape).sum(axis=0)


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
