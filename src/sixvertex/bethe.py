"""Bethe equations: root sets from Baxter's TQ relation, residue-form
residuals, closed-form eigenvalue and h-function evaluators, and matching of
the root sets against the brute-force oracle's eigenvalues on the relative
residual of the TQ relation itself.

Baxter's relation Lambda(x) Q(x) = phi1 lam_a(x) Q(x - gamma)
+ phi2 lam_d(x) Q(x + gamma), the eigenvalue formula of `RootEigenvalue`, is
linear in the coefficients of Q(x) = prod_l sinh(x - w_l), a polynomial of
degree n in u = exp(2x).  Every sector eigenvalue is an exact exponential
sum, so `solve_bae` builds each eigenvalue's root set from a null vector
instead of searching for it.  Sets are judged in the pole-free residue form

    R_i = phi1 lam_a(w_i) prod_{j!=i} a(w_j - w_i)
        - (-1)^{n+1} phi2 lam_d(w_i) prod_{j!=i} a(w_i - w_j) = 0 ,

both of whose products vanish on an exact singular pair {mu_k, mu_k - gamma}.
lam_a and lam_d are the model's vacuum sums `ModelParams.lam_a`, `lam_d`.
Root sets are identified modulo permutations and i*pi shifts of roots.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

# Newton polish: step budget (three steps from the TQ roots reach the
# rounding floor)
_MAX_ITER = 10
# relative size of a TQ singular value or end coefficient of Q taken as zero
# (measured <= 1e-15, next singular value >= 8e-4 up to L=10); also the
# |sinh| distance that snaps a singular pair
_NULL_TOL = 1e-10
_PAIR_TOL = 1e-3    # |sinh(w_j + gamma - w_i)| that ties a pair
# the points at which `match_spectrum` judges the TQ relation of each pair
_MATCH_XS = np.linspace(0.21, 1.3, 20)

__all__ = [
    "BetheRoots",
    "bae_residual",
    "bae_relative_residual",
    "solution_residual",
    "solve_bae",
    "conditioning",
    "no_degree_n_q",
    "canonical_roots",
    "RootEigenvalue",
    "CothSum",
    "MatchReport",
    "match_spectrum",
    "roots_to_json",
    "roots_from_json",
]


@dataclass(frozen=True)
class BetheRoots:
    """One solution of the sector-n Bethe equations.

    residual is the relative residue-form residual (absolute for singular
    solutions, whose natural scale is zero).  An entry (i, j, delta) of pairs
    carries root j as roots[i] - gamma + delta, delta exact; no root is in
    two pairs.  tq_gap is sigma_{n-1} / sigma_0 of the TQ system the set
    came from.  newton_residual is the best relative residual the Newton
    polish of `solve_bae` reached on the rows outside a held pair (NaN for
    other sets); it tells how the set was found, not which set it is, and
    is left out of comparisons.
    """

    n: int
    roots: tuple
    residual: float
    source: str = "solved"
    singular: bool = False
    pairs: tuple = ()
    tq_gap: float = float("nan")
    newton_residual: float = field(default=float("nan"), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(complex(w) for w in self.roots))
        object.__setattr__(self, "pairs", tuple(
            (int(i), int(j), complex(d)) for i, j, d in self.pairs))
        if len(self.roots) != self.n:
            raise ValueError(f"expected {self.n} roots, got {len(self.roots)}")
        if not np.isfinite([*self.roots, *(d for *_, d in self.pairs)]).all():
            raise ValueError(f"roots {self.roots} and pair deltas must be finite")
        ends = [k for i, j, _ in self.pairs for k in (i, j)]
        if len(set(ends)) < len(ends) or not all(0 <= k < self.n for k in ends):
            raise ValueError(f"pairs {[p[:2] for p in self.pairs]} are not "
                             f"disjoint pairs of {self.n} roots")


def _leave_one_out(f):
    """Products of all factors but one along the last axis, without
    division (a factor may be zero)."""
    ones = np.ones(f.shape[:-1] + (1,), dtype=f.dtype)
    before = np.cumprod(np.concatenate([ones, f[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, f[..., :0:-1]], axis=-1),
                       axis=-1)[..., ::-1]
    return before * after


def _terms(z, params: ModelParams, partner=None, jacobian=True):
    """A-side and D-side products of the residue form and their Jacobians,
    for root sets of shape (..., n): returns ta, td of shape (..., n) and
    dta, dtd of shape (..., n, n) with dta[..., i, l] = d ta_i / d z_l
    (None for both without `jacobian`).

    z holds the roots, but a root j with partner[..., j] = i != j is tied:
    w_j = w_i - gamma + z_j, with root i untied.  Every factor is one sinh
    whose argument is summed so that a factor near zero is exact to
    rounding; vacuum products are prod_k sinh(w - mu_k + shift), not their
    expanded exponential sums, which cancel near their zeros."""
    z = np.asarray(z, dtype=complex)
    n, g, mu = z.shape[-1], params.gamma, np.asarray(params.mu)
    L = len(mu)
    own, eye = np.arange(n), np.eye(n, dtype=bool)
    partner = np.broadcast_to(own if partner is None else partner, z.shape)
    tied = partner != own
    link = tied[..., :, None] & (partner[..., :, None] == own)
    base = np.take_along_axis(z, partner, -1)         # w_i of a tied root
    w = np.where(tied, base - g + z, z)
    # P[i, j] = w_i + g - w_j, the argument of a(w_i - w_j): z_i if i is
    # tied to j
    P = np.where(link, z[..., :, None], w[..., :, None] + g - w[..., None, :])
    vac = base[..., :, None] - mu
    # row i: L vacuum factors, then the n pair factors (the j = i one is 1):
    #   A side  sinh(w_i + g - mu_k),  a(w_j - w_i)
    #   D side  sinh(w_i - mu_k),      a(w_i - w_j)
    # A vacuum argument (w_i + g) - mu_k, or (w_p - mu_k) + z_i if tied to p
    va = np.where(tied[..., None], vac + z[..., None], (z + g)[..., None] - mu)
    args = np.stack([                                   # A side, D side
        np.concatenate([va, np.swapaxes(P, -1, -2)], -1),
        np.concatenate([vac + np.where(tied, z - g, 0)[..., None], P], -1)])
    diag = np.concatenate([np.zeros((n, L), dtype=bool), eye], -1)
    f = np.where(diag, 1, np.sinh(args))
    pa, pd = params.phi1, (-1) ** (n + 1) * params.phi2
    prods = np.prod(f, axis=-1)
    ta, td = pa * prods[0], pd * prods[1]
    if not jacobian:
        return ta, td, None, None
    gf = _leave_one_out(f) * np.where(diag, 0, np.cosh(args))   # d/d(argument)
    # a vacuum factor of row i moves with w_i alone; a pair factor with
    # argument +-(w_j - w_i) moves with both; w_l moves with z_l and, if
    # tied, with z of its partner
    vac_sum, pair_sum = gf[..., :L].sum(-1), gf[..., L:].sum(-1)
    own_a = vac_sum[0] - pair_sum[0]
    own_d = vac_sum[1] + pair_sum[1]
    dta = pa * (gf[0, ..., L:] + own_a[..., None] * eye)
    dtd = pd * (own_d[..., None] * eye - gf[1, ..., L:])
    move = eye | link
    return ta, td, dta @ move, dtd @ move


def _relative(ta, td):
    """Row-wise max_i |ta_i - td_i| / max(|ta_i|, |td_i|); inf for a root
    set with a null row (both products zero, as on a singular pair)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(ta - td) / np.maximum(np.abs(ta), np.abs(td))
    return np.where(np.isnan(rel), np.inf, rel).max(-1)


def bae_residual(roots, params: ModelParams):
    """Residue-form residual vector (one complex entry per root)."""
    ta, td, _, _ = _terms(np.asarray(roots, dtype=complex)[None], params,
                          jacobian=False)
    return ta[0] - td[0]


def bae_relative_residual(roots, params: ModelParams, pairs=()):
    """max_i |R_i| / max(|A-term|, |D-term|) with the pairs tied; inf if both
    terms of a row vanish (singular pairs are never *regular* solutions) or
    if a tied root is not roots[i] - gamma + delta to a few ulps."""
    z, partner = np.array(roots, dtype=complex), np.arange(len(roots))
    for i, j, d in pairs:
        wi, g = z[i], params.gamma
        if abs(z[j] - (wi - g + d)) > 4e-16 * (abs(wi) + abs(g) + abs(d)):
            return float("inf")
        z[j], partner[j] = d, i
    ta, td, _, _ = _terms(z[None], params, partner[None], jacobian=False)
    return float(_relative(ta, td)[0])


def solution_residual(sol: BetheRoots, params: ModelParams):
    """Relative residual of a regular set, absolute of a singular one."""
    if sol.singular:
        return float(np.abs(bae_residual(sol.roots, params)).max())
    return bae_relative_residual(sol.roots, params, sol.pairs)


def canonical_roots(roots):
    """Reduce each root to the strip Im in (-pi/2, pi/2] and sort each root
    set (the last axis of a stack) by its (real, imag) parts rounded to 9
    digits."""
    w = np.asarray(roots, dtype=complex)
    w = w - 1j * np.pi * np.round(w.imag / np.pi)
    w = np.where(w.imag <= -np.pi / 2 + 1e-12, w + 1j * np.pi, w)
    order = np.lexsort((w.imag.round(9), w.real.round(9)), axis=-1)
    return np.take_along_axis(w, order, -1)


def _newton_steps(J, F):
    """Newton steps -J^{-1} F for a batch; a set whose Jacobian is exactly
    singular gets a NaN step, after which its best iterate stays."""
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(F, np.nan)
        for k in range(len(F)):
            try:
                out[k] = np.linalg.solve(J[k], -F[k])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(z, params, partner=None, held=None):
    """_MAX_ITER undamped Newton steps on root sets of shape (S, n) in
    `_terms` coordinates; returns each set's best iterate by relative
    residual and that residual, or the starting set and inf if it never had
    a finite one (far out, the residue form overflows).  Roots flagged in
    `held` (S, n) stay fixed, and their rows are left out of the residual and
    of the Jacobian."""
    z = np.array(z, dtype=complex)
    held = np.zeros(z.shape, dtype=bool) if held is None else held
    keep = held[..., :, None] | held[..., None, :]
    eye = np.eye(z.shape[-1])
    best, best_rel = z.copy(), np.full(len(z), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_MAX_ITER + 1):
            # no step follows the last call: it needs no Jacobian
            ta, td, dta, dtd = _terms(z, params, partner, jacobian=it < _MAX_ITER)
            rel = _relative(np.where(held, 1, ta), np.where(held, 1, td))
            better = rel < best_rel
            best[better], best_rel[better] = z[better], rel[better]
            if it < _MAX_ITER:
                z = z + _newton_steps(np.where(keep, eye, dta - dtd),
                                      np.where(held, 0, ta - td))
    return best, best_rel


def _tq_null_vectors(es, k=slice(None)):
    """Singular values and null vector of the TQ system of each eigenpair k
    (all by default), the latter holding u^{n/2} Q(x) in ascending powers
    of u."""
    p, n, L = es.params, es.n, es.params.L
    a, d = p.lam_a.coeffs, p.lam_d.coeffs
    # Q(x -+ g) scales q_m by exp(-+(2m - n) g): column m of
    # Lambda Q - phi1 lam_a Q(x - g) - phi2 lam_d Q(x + g) is u^m cols[m]
    f = np.exp((2 * np.arange(n + 1) - n) * p.gamma)[:, None]
    cols = es.coeffs[k, None, :] - p.phi1 * a / f - p.phi2 * d * f
    M = np.zeros((len(cols), L + n + 1, n + 1), dtype=complex)
    for m in range(n + 1):
        M[:, m:m + L + 1, m] = cols[:, m]
    _, s, vh = np.linalg.svd(M)
    return s, vh[:, -1].conj()


def _has_degree_n_q(s, q):
    """Whether each eigenpair's TQ singular values s (K, n+1) and null vector
    q (K, n+1) give a degree-n Q: a one-dimensional null space and no root
    of Q at u = 0 or infinity."""
    ends = np.minimum(np.abs(q[:, 0]), np.abs(q[:, -1]))
    return (s[:, -1] <= _NULL_TOL * s[:, 0]) & (ends > _NULL_TOL * np.abs(q).max(-1))


def no_degree_n_q(es, ks):
    """Those of the eigenvalues ks of `es` (sector n >= 1) that have no
    degree-n Q, and so no root set."""
    ks = np.asarray(ks, dtype=int)
    if not len(ks):
        return []
    return ks[~_has_degree_n_q(*_tq_null_vectors(es, ks))].tolist()


def _q_roots(q):
    """Canonical roots w = log(u)/2 of each Q from its coefficients q (S, n+1)
    in ascending powers of u, both ends nonzero: the eigenvalues of one stack
    of companion matrices, built as `np.roots` builds its one."""
    S, n = q.shape[0], q.shape[1] - 1
    comp = np.zeros((S, n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, 0] = -q[:, -2::-1] / q[:, -1:]
    return canonical_roots(np.log(np.linalg.eigvals(comp)) / 2)


def _snap_singular(w, params: ModelParams):
    """Snap each exact singular pair {mu_k, mu_k - gamma} of the root sets w
    (S, n) in place, the first root near each end; returns the mask of
    snapped roots."""
    held = np.zeros(w.shape, dtype=bool)
    for m in params.mu:
        at = np.abs(np.sinh(w - m)) < _NULL_TOL
        below = np.abs(np.sinh(w + params.gamma - m)) < _NULL_TOL
        r = np.flatnonzero(at.any(-1) & below.any(-1))
        i, j = at[r].argmax(-1), below[r].argmax(-1)
        w[r, i], w[r, j] = m, m - params.gamma
        held[r, i] = held[r, j] = True
    return held


def _tie_pairs(w, gamma, free):
    """`_terms` coordinates of the root sets w (S, n): in a set with free[s],
    root j is tied to root i when |sinh(w_j + gamma - w_i)| < _PAIR_TOL and
    neither is in a pair yet, the pairs (i, j) taken in lexicographic
    order."""
    n = w.shape[-1]
    d = w[:, None, :] + gamma - w[:, :, None]           # d[s, i, j]
    d = d - 1j * np.pi * np.round(d.imag / np.pi)
    close = (np.abs(np.sinh(d)) < _PAIR_TOL) & free[:, None, None]
    z, partner = w.copy(), np.tile(np.arange(n), (len(w), 1))
    paired = np.zeros(w.shape, dtype=bool)
    for i, j in itertools.permutations(range(n), 2):
        r = np.flatnonzero(close[:, i, j] & ~paired[:, i] & ~paired[:, j])
        z[r, j], partner[r, j] = d[r, i, j], i
        paired[r, i] = paired[r, j] = True
    return z, partner


def solve_bae(es):
    """One root set per eigenvalue of the sector eigensystem `es` that has a
    degree-n Q (a null vector without a root at u = 0 or infinity), regular
    sets first, each with its residual (for the caller to judge) and its TQ
    null-space gap.  A set holding a singular pair is snapped to it and
    flagged.  Newton on the residue form then polishes every set: the roots
    outside a snapped pair, with the pair held, and a regular set with a
    near-singular pair tied as (w_i, delta) (see `_terms`).  Every step runs
    on the stack of the sector's sets."""
    p, n = es.params, es.n
    if n == 0:
        return [BetheRoots(n=0, roots=(), residual=0.0)]
    s, q = _tq_null_vectors(es)
    k = np.flatnonzero(_has_degree_n_q(s, q))
    if not len(k):
        return []
    w = _q_roots(q[k])
    held = _snap_singular(w, p)
    singular = held.any(-1)
    z, partner = _tie_pairs(w, p.gamma, ~singular)
    z, rel = _newton(z, p, partner, held)
    tied = partner != np.arange(n)
    w = np.where(tied, np.take_along_axis(z, partner, -1) - p.gamma + z, z)
    # a regular set's residual is Newton's best; a singular set's is the
    # absolute residual of all its rows
    residual = rel.copy()
    if singular.any():
        ta, td, _, _ = _terms(w[singular], p, jacobian=False)
        residual[singular] = np.abs(ta - td).max(-1)
    gaps = s[k, -2] / s[k, 0]
    found = [BetheRoots(
        n, w[r], float(residual[r]), "analytic" if singular[r] else "solved",
        bool(singular[r]), tq_gap=float(gaps[r]), newton_residual=float(rel[r]),
        pairs=[(partner[r, j], j, z[r, j]) for j in np.flatnonzero(tied[r])])
        for r in range(len(k))]
    return sorted(found, key=_solution_order)


def _solution_order(sol: BetheRoots):
    """Sort key: regular before singular, then the roots' (real, imag) parts
    rounded to 9 digits as in `canonical_roots`, so that the order of a
    conjugate pair does not follow the last bits of its real parts."""
    w = np.asarray(sol.roots, dtype=complex)
    return sol.singular, tuple(zip(w.real.round(9), w.imag.round(9)))


def conditioning(solutions, es, tol):
    """Class counts of `solve_bae(es)`, the smallest pair factor
    |sinh(w_j + gamma - w_i)| of a regular set (None for n < 2), the
    smallest TQ null-space gap, and how Newton left the sets: best relative
    residual at most `tol` (converged), finite above it, or never finite
    (overflowed)."""
    regular = [s for s in solutions if not s.singular]
    w = np.array([s.roots for s in regular], dtype=complex).reshape(
        len(regular), es.n)
    factors = np.abs(np.sinh(w[:, None, :] + es.params.gamma - w[:, :, None]))
    factors = factors[:, ~np.eye(es.n, dtype=bool)]
    rel = np.array([s.newton_residual for s in solutions])
    return {"regular": len(regular),
            "singular": len(solutions) - len(regular),
            "no_degree_n_q": es.size - len(solutions),
            "min_pair_factor": float(factors.min()) if factors.size else None,
            "min_tq_gap": min((s.tq_gap for s in solutions), default=None),
            "newton_converged": int(np.sum(rel <= tol)),
            "newton_above_tol": int(np.sum((rel > tol) & np.isfinite(rel))),
            "newton_overflowed": int(np.sum(rel == np.inf))}


# ---------------------------------------------------------------------------
# closed-form evaluators

class RootEigenvalue:
    """Eigenvalue function built from a root set: Baxter's relation divided
    by Q(x) = prod_l sinh(x - w_l),

        Lambda(x) = phi1 lam_a(x) Q(x - gamma)/Q(x) + phi2 lam_d(x) Q(x + gamma)/Q(x),

    with closed-form first and second derivatives from each term's
    log-derivative (valid away from the zeros of Q, lam_a and lam_d).  roots
    may be a stack (..., n) of root sets and x an array; the value has their
    broadcast shape (a stack of shape (S, 1) at points of shape (P,) gives
    (S, P))."""

    def __init__(self, roots, params: ModelParams):
        self.roots = np.asarray(roots, dtype=complex)
        self.params = params

    def __call__(self, x, d=0):
        if d > 2:
            raise ValueError("closed-form derivatives implemented up to order 2")
        p, w = self.params, self.roots
        x = np.asarray(x, dtype=complex)
        out = 0j
        # Q(x -+ gamma)/Q(x) = prod_l sinh(u_l + gamma)/sinh(u_l) with
        # u = w - x (du/dx = -1) and u = x - w (du/dx = +1), roots last
        for phi, lam, u, du in ((p.phi1, p.lam_a, w - x[..., None], -1),
                                (p.phi2, p.lam_d, x[..., None] - w, 1)):
            term = phi * np.prod(np.sinh(u + p.gamma) / np.sinh(u), axis=-1) * lam(x)
            if d:
                c0, cg = 1 / np.tanh(u), 1 / np.tanh(u + p.gamma)
                t = lam(x, 1) / lam(x)
                log1 = du * np.sum(cg - c0, axis=-1) + t      # (log term)'
                ds = np.sum((c0 ** 2 - 1) - (cg ** 2 - 1), axis=-1)
                dt = lam(x, 2) / lam(x) - t ** 2
                term *= log1 if d == 1 else log1 ** 2 + ds + dt
            out += term
        return out


class CothSum:
    """h(x) = sum_l coth(w_l - x) with closed-form derivatives to order 4.
    roots may be a stack (..., n) of root sets and x an array, broadcast as
    in `RootEigenvalue`."""

    # the d-th derivative of coth(w - x) in x, a polynomial in c = coth(w - x)
    _DERIVATIVES = (lambda c: c, lambda c: c ** 2 - 1, lambda c: 2 * c * (c ** 2 - 1),
                    lambda c: 2 * (3 * c ** 2 - 1) * (c ** 2 - 1),
                    lambda c: 8 * c * (c ** 2 - 1) * (3 * c ** 2 - 2))

    def __init__(self, roots):
        self.roots = np.asarray(roots, dtype=complex)

    def __call__(self, x, d=0):
        if d not in range(5):
            raise ValueError("derivatives implemented up to order 4")
        c = 1 / np.tanh(self.roots - np.asarray(x)[..., None])
        return np.sum(self._DERIVATIVES[d](c), axis=-1)


# ---------------------------------------------------------------------------
# matching against the oracle

@dataclass
class MatchReport:
    pairs: list     # (solution_index, eigen_index, relative TQ residual), by solution
    unmatched_solutions: list
    unmatched_eigenvalues: list     # those with a degree-n Q, which fail the match
    no_degree_n_q: list             # the unmatched ones without, which have no root set

    @property
    def max_deviation(self):
        return max((d for *_, d in self.pairs), default=0.0)

    @property
    def residual(self):
        """The `spectrum match` residual: the worst relative TQ residual of a
        matched pair, or the count of unmatched eigenvalues and sets, if any."""
        return max(self.max_deviation,
                   float(len(self.unmatched_eigenvalues) + len(self.unmatched_solutions)))


def _greedy_pairs(cost):
    """Greedy matching on a cost matrix: the cheapest entry among the free
    rows and columns, again and again, ties to the smallest (row, column).
    One stable sort of the row-major entries puts them in that order, so the
    entries are walked once; returns the (row, column, cost) pairs and the
    rows and columns left free."""
    free_s, free_e = set(range(cost.shape[0])), set(range(cost.shape[1]))
    pairs = []
    for k in np.argsort(cost, axis=None, kind="stable").tolist():
        if not (free_s and free_e):
            break
        s, e = divmod(k, cost.shape[1])
        if s in free_s and e in free_e:
            pairs.append((s, e, float(cost[s, e])))
            free_s.remove(s)
            free_e.remove(e)
    return pairs, sorted(free_s), sorted(free_e)


def _match_qs(w, params):
    """Q(x), Q(x - gamma), Q(x + gamma) at the points `_MATCH_XS`, each from
    a (..., point, root) stack of the roots w."""
    return [np.prod(np.sinh(_MATCH_XS[:, None] + shift - w), axis=-1)
            for shift in (0, -params.gamma, params.gamma)]


def match_spectrum(params: ModelParams, n, solutions, oracle):
    """Greedy minimal-cost bipartite matching between root sets and oracle
    eigenvalues, the pairs listed by solution index.  The cost of set s and
    eigenvalue k is their relative TQ residual over the points `_MATCH_XS`,
    max_x |Lambda_k Q_s(x) - phi1 lam_a Q_s(x - gamma) - phi2 lam_d Q_s(x + gamma)|
    over the largest |term| of the three: it has no pole, so a root on a point
    needs no special path.  An unmatched eigenvalue without a degree-n Q has
    no root set, so it is excused (the TQ system is solved again for the
    unmatched eigenvalues only)."""
    p, x = params, _MATCH_XS
    w = np.array([s.roots for s in solutions], dtype=complex).reshape(len(solutions), 1, n)
    q, qa, qd = _match_qs(w, p)
    terms = np.broadcast_arrays(oracle.eigenvalues_at(x) * q[:, None],  # (nsol, neig, npts)
                                -(p.phi1 * p.lam_a(x) * qa)[:, None],
                                -(p.phi2 * p.lam_d(x) * qd)[:, None])
    cost = np.abs(sum(terms)).max(-1) / np.abs(terms).max((0, -1))     # (nsol, neig)
    pairs, free_s, free_e = _greedy_pairs(cost)
    excused = no_degree_n_q(oracle, free_e)
    return MatchReport(pairs=sorted(pairs), unmatched_solutions=free_s,
                       unmatched_eigenvalues=[k for k in free_e if k not in excused],
                       no_degree_n_q=excused)


# ---------------------------------------------------------------------------
# serialization

def roots_to_json(solutions):
    recs = [{
        "n": s.n,
        "roots": [[w.real, w.imag] for w in s.roots],
        "pairs": [[i, j, d.real, d.imag] for i, j, d in s.pairs],
        "residual": s.residual,
        "source": s.source,
        "singular": s.singular,
    } for s in solutions]
    return json.dumps(recs, indent=2, sort_keys=True)


def roots_from_json(text, params: ModelParams):
    """Root sets from `roots_to_json` text, marked as user-supplied.  A set's
    n must be an integer, and every product that judges it finite."""
    out = []
    for rec in json.loads(text):
        if not isinstance(rec["n"], int) or isinstance(rec["n"], bool):
            raise TypeError(f"a root set's n must be an integer: {rec['n']!r}")
        roots = tuple(complex(re, im) for re, im in rec["roots"])
        pairs = [(i, j, complex(re, im)) for i, j, re, im in rec.get("pairs", [])]
        out.append(BetheRoots(n=rec["n"], roots=roots,
                              residual=float(rec.get("residual", np.nan)),
                              source="user",
                              singular=bool(rec.get("singular", False)),
                              pairs=pairs))
        w = np.array(roots)
        with np.errstate(over="ignore", invalid="ignore"):
            ta, td, _, _ = _terms(w[None], params, jacobian=False)
            qs = _match_qs(w, params)
        if not all(np.isfinite(f).all() for f in (ta, td, *qs)):
            raise ValueError(
                f"roots {roots}: the residue-form products at the roots and Q(y) = "
                f"prod_l sinh(y - w_l) at y = x, x -+ gamma, for the match points x "
                f"in [{_MATCH_XS[0]:g}, {_MATCH_XS[-1]:g}], must be finite")
    return out
