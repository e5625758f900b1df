"""Six-vertex model at desk scale: R-matrix, twisted monodromy, transfer matrix.

The monodromy is built on magnetization sectors only: A, D and T(x) keep the
number n of down spins, B raises it by one and C lowers it by one, so each
operator is its L+1 nonzero sector blocks, and every product is taken on
them.  One constructor builds those blocks site by site, left to right, for
a whole stack of points at once; the dense 2^L x 2^L operators are never
formed.  Conventions (pinned by the L=1 tests):

* vertex weights  a(x) = sinh(x + gamma),  b(x) = sinh(x),  c = sinh(gamma);
* chain basis: bit-strings of length L in lexicographic order, site 1 is the
  most significant bit, bit 0 <-> spin up (e1), bit 1 <-> spin down (e2);
* monodromy  T0(x) = Gamma0 * R_{01}(x-mu_1) * ... * R_{0L}(x-mu_L)  with the
  auxiliary slot first and the j=1 factor leftmost, Gamma0 = diag(phi1, phi2);
* the twist lives in the monodromy only: the A/B blocks carry phi1, the C/D
  blocks carry phi2, and the vacuum products lam_a, lam_d are twist-free.
  They are `ExpSum`s on `ModelParams`, built once per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

__all__ = [
    "ModelParams",
    "ExpSum",
    "cauchy_taylor",
    "r_matrix",
    "verify_ybe",
    "monodromy_blocks",
    "transfer",
    "yba_exchange_residual",
    "sector_indices",
    "popcount",
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

    # vacuum eigenvalues of A and D (twist-free) and the twist combinations
    # lam_pm = +-phi1*lam_a + phi2*lam_d, each sum built once per model
    @cached_property
    def lam_a(self):
        return ExpSum.sinh_product([-m + self.gamma for m in self.mu])

    @cached_property
    def lam_d(self):
        return ExpSum.sinh_product([-m for m in self.mu])

    def lam_plus(self, x, d=0):
        return self.phi1 * self.lam_a(x, d) + self.phi2 * self.lam_d(x, d)

    def lam_minus(self, x, d=0):
        return -self.phi1 * self.lam_a(x, d) + self.phi2 * self.lam_d(x, d)

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


# number of points at which the monodromy was built so far (`verify` records
# it per check)
builds = 0

# entries of the four operators' sector blocks built in one chunk of points
# (16 B each, at least one point per chunk).  Small chunks reuse the memory
# of the chunk before instead of touching fresh pages for a whole stack, and
# stay in cache: on 2 cores with a 2 MB L2, 8192 built the L = 6 and 7
# stacks faster than 16384, 40000 or whole stacks, with the least peak memory
_CHUNK_ENTRIES = 8192


def _dim(l, n):
    """Dimension of the n-down-spin sector of l sites (0 outside 0..l)."""
    return comb(l, n) if 0 <= n <= l else 0


@lru_cache(maxsize=None)
def _layout(l):
    """Where the sector blocks of l sites sit in one flat row: for operator
    op = 2 i + k (A, B, C, D = aux (0, 0), (0, 1), (1, 0), (1, 1)) and
    column sector n = 0..l, (start, rows, columns) of the block from sector n
    into sector n + k - i, in C order; and the row's length.  B from sector
    l and C from sector 0 are empty blocks."""
    blocks, start = {}, 0
    for op in range(4):
        i, k = divmod(op, 2)
        for n in range(l + 1):
            rows, cols = _dim(l, n + k - i), _dim(l, n)
            blocks[op, n] = (start, rows, cols)
            start += rows * cols
    return blocks, start


@lru_cache(maxsize=None)
def _site_gathers(L):
    """For each site l = 1..L, the index of every sector-block entry of
    sites 1..l into the weighted copies of the blocks of sites 1..l-1: the
    flattened (3, E + Z) array whose row w holds weight w (a, b, c) times
    the E old entries, then Z zeros (Z is the widest sector of l - 1 sites).

    Site l is appended as the least significant bit: M[i, k] <- sum_j
    M[i, j] (x) r_jk with r_jk[s, t] = R[(j, s), (k, t)], nonzero only for
    j = k + t - s, where it is a if s = t = j, b if s = t != j, and c if
    s != t.  The entry at row state r and column state c of a new block,
    with last bits s and t, is the weighted old entry of M[i, j] at
    (r >> 1, c >> 1), in the old block from column sector n - t; where no j
    fits, it is a zero.  All sites are indexed in one pass over the blocks
    of every length: once per block row, then once per entry."""
    lengths = np.arange(L + 1)
    # dims[l, m + 1]: sector m of l sites, 0 for m = -1 and m > l
    dims = np.array([[_dim(l, m) for m in range(-1, L + 2)] for l in lengths])
    # the basis states of every length, sorted by length, sector and state
    # (sector m of length l starts at first[l, m + 1]); of each, its last
    # site and the place of the state without it in its sector
    state = np.concatenate([idx for l in range(L + 1) for idx in _sector_arrays(l)])
    first = (np.cumsum(dims) - dims.ravel()).reshape(dims.shape)
    count = 2 ** lengths
    length = np.repeat(lengths, count)
    rank = np.empty_like(state)             # place in its sector, by (length, state)
    rank[count[length] - 1 + state] = (np.arange(len(state))
                                       - np.repeat(first.ravel(), dims.ravel()))
    last = state & 1
    parent = rank[count[length - 1] - 1 + (state >> 1)]     # unused at length 0
    # every block of every length: length, operator, column sector, and its
    # start, rows and columns in the flat row of its length
    l, op, n, start, rows, cols = np.array(
        [(l, op, n) + _layout(l)[0][op, n] for l in range(L + 1)
         for op in range(4) for n in range(l + 1)]).T
    size = np.array([_layout(l)[1] for l in range(L + 1)])
    starts = np.zeros((L + 1, 4, L + 1), dtype=np.intp)
    starts[l, op, n] = start
    width = size + dims[lengths, lengths // 2 + 1]      # E + Z of each length
    i, k = op >> 1, op & 1
    new = l > 0
    l, i, k, n, rows, cols = l[new], i[new], k[new], n[new], rows[new], cols[new]
    # per block row, at place p: for t = 0, 1 the weighted old entry of the
    # source block at (its parent row, column 0)
    row = np.repeat(np.arange(len(l)), rows)
    l, i, k, n, cols = l[row], i[row], k[row], n[row], cols[row]
    p = first[l, n + k - i + 1] + np.arange(len(row)) - np.repeat(np.cumsum(rows) - rows, rows)
    s = last[p]
    source = []
    for t in (0, 1):
        j = k + t - s
        w = np.where(s != t, 2, np.where(s == j, 0, 1))
        source.append(np.where((j == 0) | (j == 1),
                               w * width[l - 1] + starts[l - 1, 2 * i + (j & 1), n - t]
                               + parent[p] * dims[l - 1, n - t + 1],
                               size[l - 1]))
    # per entry, at the place p of its column state: t picks the source, and
    # the parent column adds on
    p = np.repeat(first[l, n + 1] - np.cumsum(cols) + cols, cols) + np.arange(cols.sum())
    index = (np.where(last[p], np.repeat(source[1], cols), np.repeat(source[0], cols))
             + parent[p])
    index.flags.writeable = False      # shared by every build
    return np.split(index, np.cumsum(size[1:L]))


def _build(xs, params, out):
    """The twisted sector blocks of A, B, C, D at the points xs, one flat
    row per point in the `_layout(L)` order, into `out`.

    T0 = Gamma R_01 ... R_0L is built left to right: site j = 1..L is
    appended to the blocks of sites 1..j-1 by one elementwise product
    (every old entry times a, b and c of its point) and one gather
    (`_site_gathers`); the twist multiplies once at the end (A, B pick up
    phi1; C, D pick up phi2).  An entry of the monodromy is one product of a
    site weight per site (spin conservation fixes the auxiliary path), and
    this takes the products in the order of the dense ordered product.
    Every operation is elementwise per point, so a point's blocks are the
    same alone and in any stack."""
    global builds
    builds += len(xs)
    L, g = params.L, params.gamma
    z = xs[:, None] - np.array(params.mu)       # point x site
    weights = np.stack([np.sinh(z + g), np.sinh(z), np.full(z.shape, np.sinh(g))], axis=2)
    M = np.ones((len(xs), 2), dtype=complex)    # A, D of the empty chain
    for l, index in enumerate(_site_gathers(L), start=1):
        E, Z = M.shape[1], _dim(l - 1, (l - 1) // 2)
        scaled = np.empty((len(xs), 3, E + Z), dtype=complex)
        scaled[:, :, E:] = 0
        np.multiply(M[:, None, :], weights[:, l - 1, :, None], out=scaled[:, :, :E])
        M = np.take(scaled.reshape(len(xs), -1), index, axis=1,
                    out=out if l == L else None, mode="clip")
    split = _layout(L)[0][2, 0][0]              # C starts here
    np.multiply(params.phi1, out[:, :split], out=out[:, :split])
    np.multiply(params.phi2, out[:, split:], out=out[:, split:])


def _points(xs):
    return np.asarray(xs, dtype=complex).reshape(-1)


def _chunks(count, L):
    step = max(1, _CHUNK_ENTRIES // _layout(L)[1])
    return [slice(i, i + step) for i in range(0, count, step)]


def _views(flat, blocks, op, L):
    return [flat[:, s:s + r * c].reshape(len(flat), r, c)
            for s, r, c in (blocks[op, n] for n in range(L + 1))]


def monodromy_blocks(xs, params: ModelParams):
    """Twisted monodromy on magnetization sectors at every point of xs (a
    scalar is one point): four lists (A, B, C, D), entry n the stack over the
    points of the operator's block from column sector n, of shape
    (points, rows, columns).  A and D keep sector n, B raises it to n + 1
    and C lowers it to n - 1 (so B[L] and C[0] have no rows); every other
    entry of the 2^L x 2^L operators is zero.  The points are built in
    chunks of at most `_CHUNK_ENTRIES` entries; the blocks are disjoint
    views of one array."""
    xs, L = _points(xs), params.L
    blocks, E = _layout(L)
    flat = np.empty((len(xs), E), dtype=complex)
    for chunk in _chunks(len(xs), L):
        _build(xs[chunk], params, flat[chunk])
    return tuple(_views(flat, blocks, op, L) for op in range(4))


def transfer(xs, params: ModelParams):
    """Transfer matrix T(x) = A + D (the partial trace of the twisted
    monodromy over aux) on every sector n: entry n is the stack over the
    points of xs of its (n, n) block."""
    xs, L = _points(xs), params.L
    blocks, E = _layout(L)
    size = blocks[1, 0][0]                      # A, and D, have this many entries
    flat = np.empty((len(xs), size), dtype=complex)
    for chunk in _chunks(len(xs), L):
        M = np.empty((len(flat[chunk]), E), dtype=complex)
        _build(xs[chunk], params, M)
        np.add(M[:, :size], M[:, E - size:], out=flat[chunk])
    return _views(flat, blocks, 0, L)


def yba_exchange_residual(xs, params: ModelParams):
    """Max-norm residual over the seven exchange relations of the A-B and
    D-B subalgebras, worst over every pair x1 = xs[i], x2 = xs[j] (i < j) of
    the points, and the largest max-norm of T(x) = A + D over the points
    (its scale).  Raises ValueError if b(x1 - x2) vanishes for a pair.

    The points are one stacked build of the sector blocks.  Each relation
    is formed on its nonzero sector blocks only: for column sector n, A and
    D keep n and B(x) takes n to n + 1, so a relation maps sector n to n,
    n + 1 or n + 2.  A and D are one stack: the D relations are the A ones
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
    A, B, _, D = monodromy_blocks(xs, params)
    X = [np.stack(AD) for AD in zip(A, D)]
    del A, D
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


# ---------------------------------------------------------------------------
# exponential sums

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
