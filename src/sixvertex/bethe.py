"""Bethe equations: root sets from Baxter's TQ relation, residue-form
residuals, closed-form eigenvalue and h-function evaluators, and matching of
the Bethe spectrum against the brute-force oracle.

Baxter's relation Lambda(x) Q(x) = phi1 lam_a(x) Q(x - gamma)
+ phi2 lam_d(x) Q(x + gamma), the eigenvalue formula of `RootEigenvalue`, is
linear in the coefficients of Q(x) = prod_l sinh(x - w_l), a polynomial of
degree n in u = exp(2x).  Every sector eigenvalue is an exact exponential
sum, so `solve_bae` builds each eigenvalue's root set from a null vector
instead of searching for it.  Sets are judged in the pole-free residue form

    R_i = phi1 lam_a(w_i) prod_{j!=i} a(w_j - w_i)
        - (-1)^{n+1} phi2 lam_d(w_i) prod_{j!=i} a(w_i - w_j) = 0 ,

both of whose products vanish on an exact singular pair {mu_k, mu_k - gamma}.
Root sets are identified modulo permutations and i*pi shifts of roots.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .model import ExpSum, HighestWeightData, ModelParams

# Newton polish: step budget (three steps from the TQ roots reach the
# rounding floor)
_MAX_ITER = 10
# relative size of a TQ singular value or end coefficient of Q taken as zero
# (measured <= 1e-15, next singular value >= 8e-4 up to L=10); also the
# |sinh| distance that snaps a singular pair
_NULL_TOL = 1e-10
_PAIR_TOL = 1e-3    # |sinh(w_j + gamma - w_i)| that ties a pair

__all__ = [
    "BetheRoots",
    "PolePoint",
    "bae_residual",
    "bae_relative_residual",
    "solution_residual",
    "solve_bae",
    "conditioning",
    "no_degree_n_q",
    "canonical_roots",
    "eigenvalue_from_roots",
    "RootEigenvalue",
    "CothSum",
    "MatchReport",
    "match_spectrum",
    "roots_to_json",
    "roots_from_json",
]


class PolePoint(ValueError):
    """Evaluation point collides with a root that does not satisfy the
    Bethe equations: the pole is not removable."""


@dataclass(frozen=True)
class BetheRoots:
    """One solution of the sector-n Bethe equations.

    residual is the relative residue-form residual (absolute for singular
    solutions, whose natural scale is zero).  An entry (i, j, delta) of pairs
    carries root j as roots[i] - gamma + delta, delta exact; no root is in
    two pairs.  tq_gap is
    sigma_{n-1} / sigma_0 of the TQ system the set came from.
    """

    n: int
    roots: tuple
    residual: float
    source: str = "solved"
    singular: bool = False
    pairs: tuple = ()
    tq_gap: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(complex(w) for w in self.roots))
        object.__setattr__(self, "pairs", tuple(
            (int(i), int(j), complex(d)) for i, j, d in self.pairs))
        if len(self.roots) != self.n:
            raise ValueError(f"expected {self.n} roots, got {len(self.roots)}")
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


def _terms(z, params: ModelParams, partner=None):
    """A-side and D-side products of the residue form and their Jacobians,
    for root sets of shape (..., n): returns ta, td of shape (..., n) and
    dta, dtd of shape (..., n, n) with dta[..., i, l] = d ta_i / d z_l.

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
    args_a = np.concatenate([va, np.swapaxes(P, -1, -2)], -1)
    args_d = np.concatenate([vac + np.where(tied, z - g, 0)[..., None], P], -1)
    diag = np.concatenate([np.zeros((n, L), dtype=bool), eye], -1)
    fa = np.where(diag, 1, np.sinh(args_a))
    fd = np.where(diag, 1, np.sinh(args_d))
    ca = np.where(diag, 0, np.cosh(args_a))
    cd = np.where(diag, 0, np.cosh(args_d))
    pa, pd = params.phi1, (-1) ** (n + 1) * params.phi2
    ta = pa * np.prod(fa, axis=-1)
    td = pd * np.prod(fd, axis=-1)
    ga = _leave_one_out(fa) * ca                           # d/d(argument)
    gd = _leave_one_out(fd) * cd
    # a vacuum factor of row i moves with w_i alone; a pair factor with
    # argument +-(w_j - w_i) moves with both; w_l moves with z_l and, if
    # tied, with z of its partner
    own_a = ga[..., :L].sum(-1) - ga[..., L:].sum(-1)
    own_d = gd[..., :L].sum(-1) + gd[..., L:].sum(-1)
    dta = pa * (ga[..., L:] + own_a[..., None] * eye)
    dtd = pd * (own_d[..., None] * eye - gd[..., L:])
    return ta, td, dta @ (eye | link), dtd @ (eye | link)


def _relative(ta, td):
    """Row-wise max_i |ta_i - td_i| / max(|ta_i|, |td_i|); inf for a root
    set with a null row (both products zero, as on a singular pair)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(ta - td) / np.maximum(np.abs(ta), np.abs(td))
    return np.where(np.isnan(rel), np.inf, rel).max(-1)


def bae_residual(roots, params: ModelParams):
    """Residue-form residual vector (one complex entry per root)."""
    ta, td, _, _ = _terms(np.asarray(roots, dtype=complex)[None], params)
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
    ta, td, _, _ = _terms(z[None], params, partner[None])
    return float(_relative(ta, td)[0])


def solution_residual(sol: BetheRoots, params: ModelParams):
    """Relative residual of a regular set, absolute of a singular one."""
    if sol.singular:
        return float(np.abs(bae_residual(sol.roots, params)).max())
    return bae_relative_residual(sol.roots, params, sol.pairs)


def canonical_roots(roots):
    """Reduce each root to the strip Im in (-pi/2, pi/2] and sort."""
    w = np.asarray(roots, dtype=complex)
    w = w - 1j * np.pi * np.round(w.imag / np.pi)
    w = np.where(w.imag <= -np.pi / 2 + 1e-12, w + 1j * np.pi, w)
    order = np.lexsort((w.imag.round(9), w.real.round(9)))
    return tuple(w[order])


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
    residual, or None if it never had a finite one (far out, the residue form
    overflows).  Roots flagged in `held` (S, n) stay fixed, and their rows
    are left out of the residual and of the Jacobian."""
    z = np.array(z, dtype=complex)
    held = np.zeros(z.shape, dtype=bool) if held is None else held
    keep = held[..., :, None] | held[..., None, :]
    eye = np.eye(z.shape[-1])
    best, best_rel = [None] * len(z), np.full(len(z), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_MAX_ITER + 1):
            ta, td, dta, dtd = _terms(z, params, partner)
            rel = _relative(np.where(held, 1, ta), np.where(held, 1, td))
            for k in np.flatnonzero(rel < best_rel):
                best[k], best_rel[k] = z[k].copy(), rel[k]
            if it < _MAX_ITER:
                z = z + _newton_steps(np.where(keep, eye, dta - dtd),
                                      np.where(held, 0, ta - td))
    return best


def _tq_null_vectors(es):
    """Singular values and null vector of each eigenpair's TQ system, the
    latter holding u^{n/2} Q(x) in ascending powers of u."""
    p, n, L = es.params, es.n, es.params.L
    a = ExpSum.sinh_product([p.gamma - m for m in p.mu]).coeffs
    d = ExpSum.sinh_product([-m for m in p.mu]).coeffs
    # Q(x -+ g) scales q_m by exp(-+(2m - n) g): column m of
    # Lambda Q - phi1 lam_a Q(x - g) - phi2 lam_d Q(x + g) is u^m cols[m]
    f = np.exp((2 * np.arange(n + 1) - n) * p.gamma)[:, None]
    cols = es.coeffs[:, None, :] - p.phi1 * a / f - p.phi2 * d * f
    M = np.zeros((es.size, L + n + 1, n + 1), dtype=complex)
    for m in range(n + 1):
        M[:, m:m + L + 1, m] = cols[:, m]
    _, s, vh = np.linalg.svd(M)
    return s, vh[:, -1].conj()


def _has_degree_n_q(s, q):
    """Whether TQ singular values s and null vector q give a degree-n Q: a
    one-dimensional null space and no root of Q at u = 0 or infinity."""
    ends = min(abs(q[0]), abs(q[-1]))
    return s[-1] <= _NULL_TOL * s[0] and ends > _NULL_TOL * np.abs(q).max()


def no_degree_n_q(es):
    """Indices of the eigenvalues of `es` (sector n >= 1) that have no
    degree-n Q, and so no root set."""
    return [k for k, (s, q) in enumerate(zip(*_tq_null_vectors(es)))
            if not _has_degree_n_q(s, q)]


def _snap_singular(w, params: ModelParams):
    """Snap each exact singular pair {mu_k, mu_k - gamma} of w in place;
    returns the mask of snapped roots."""
    held = np.zeros(len(w), dtype=bool)
    for m in params.mu:
        i = np.flatnonzero(np.abs(np.sinh(w - m)) < _NULL_TOL)
        j = np.flatnonzero(np.abs(np.sinh(w + params.gamma - m)) < _NULL_TOL)
        if len(i) and len(j):
            w[i[0]], w[j[0]] = m, m - params.gamma
            held[[i[0], j[0]]] = True
    return held


def _tie_pairs(w, gamma):
    """`_terms` coordinates of a root set: root j is tied to root i when
    |sinh(w_j + gamma - w_i)| < _PAIR_TOL and neither is in a pair yet."""
    z, partner, paired = w.copy(), np.arange(len(w)), set()
    for i, j in itertools.permutations(range(len(w)), 2):
        d = w[j] + gamma - w[i]
        d -= 1j * np.pi * np.round(d.imag / np.pi)
        if not paired & {i, j} and abs(np.sinh(d)) < _PAIR_TOL:
            z[j], partner[j] = d, i
            paired |= {i, j}
    return z, partner


def solve_bae(es):
    """One root set per eigenvalue of the sector eigensystem `es` that has a
    degree-n Q (a null vector without a root at u = 0 or infinity), regular
    sets first, each with its residual (for the caller to judge) and its TQ
    null-space gap.  A set holding a singular pair is snapped to it and
    flagged.  Newton on the residue form then polishes every set: the roots
    outside a snapped pair, with the pair held, and a regular set with a
    near-singular pair tied as (w_i, delta) (see `_terms`)."""
    p, n = es.params, es.n
    if n == 0:
        return [BetheRoots(n=0, roots=(), residual=0.0)]
    sets = []
    for s, q in zip(*_tq_null_vectors(es)):
        if not _has_degree_n_q(s, q):
            continue
        w = np.array(canonical_roots(np.log(np.roots(q[::-1])) / 2))
        held = _snap_singular(w, p)
        z, partner = (w, np.arange(n)) if held.any() else _tie_pairs(w, p.gamma)
        sets.append((z, partner, held, s[-2] / s[0]))
    found = []
    if sets:
        z0, partner, held, gaps = (np.array(c) for c in zip(*sets))
        for z, z0k, pk, hk, gap in zip(_newton(z0, p, partner, held), z0,
                                       partner, held, gaps):
            z = z0k if z is None else z
            tied = pk != np.arange(n)
            w = np.where(tied, z[pk] - p.gamma + z, z)
            singular = bool(hk.any())
            found.append(BetheRoots(
                n, w, 0.0, "analytic" if singular else "solved", singular,
                tq_gap=float(gap),
                pairs=[(pk[j], j, z[j]) for j in np.flatnonzero(tied)]))
    found = [replace(s, residual=solution_residual(s, p)) for s in found]
    return sorted(found, key=_solution_order)


def _solution_order(sol: BetheRoots):
    """Sort key: regular before singular, then the roots' (real, imag) parts
    rounded to 9 digits as in `canonical_roots`, so that the order of a
    conjugate pair does not follow the last bits of its real parts."""
    w = np.asarray(sol.roots, dtype=complex)
    return sol.singular, tuple(zip(w.real.round(9), w.imag.round(9)))


def conditioning(solutions, es):
    """Class counts of `solve_bae(es)`, the smallest pair factor
    |sinh(w_j + gamma - w_i)| of a regular set (None for n < 2) and the
    smallest TQ null-space gap."""
    regular = [s for s in solutions if not s.singular]
    factors = [abs(np.sinh(wj + es.params.gamma - wi)) for s in regular
               for wi, wj in itertools.permutations(s.roots, 2)]
    return {"regular": len(regular),
            "singular": len(solutions) - len(regular),
            "no_degree_n_q": es.size - len(solutions),
            "min_pair_factor": float(min(factors)) if factors else None,
            "min_tq_gap": min((s.tq_gap for s in solutions), default=None)}


# ---------------------------------------------------------------------------
# closed-form evaluators

class RootEigenvalue:
    """Eigenvalue function built from a root set: Baxter's relation divided
    by Q(x) = prod_l sinh(x - w_l),

        Lambda(x) = phi1 lam_a(x) Q(x - gamma)/Q(x) + phi2 lam_d(x) Q(x + gamma)/Q(x),

    with closed-form first and second derivatives from each term's
    log-derivative (valid away from the zeros of Q, lam_a and lam_d).  x may
    be an array; the value has its shape."""

    def __init__(self, roots, params: ModelParams, hw=None):
        self.roots = tuple(complex(w) for w in roots)
        self.params = params
        self.hw = hw or HighestWeightData(params)

    def __call__(self, x, d=0):
        if d > 2:
            raise ValueError("closed-form derivatives implemented up to order 2")
        p, w = self.params, np.asarray(self.roots, dtype=complex)
        x = np.asarray(x, dtype=complex)
        out = 0j
        # Q(x -+ gamma)/Q(x) = prod_l sinh(u_l + gamma)/sinh(u_l) with
        # u = w - x (du/dx = -1) and u = x - w (du/dx = +1), roots last
        for phi, lam, u, du in ((p.phi1, self.hw.lam_a, w - x[..., None], -1),
                                (p.phi2, self.hw.lam_d, x[..., None] - w, 1)):
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


def eigenvalue_from_roots(x, roots, params: ModelParams, hw=None):
    """Closed-form eigenvalue at x (a point or an array of points).  Near a
    root the pole must be removable (Bethe equations hold); such a point is
    then evaluated by a symmetric two-sided limit, otherwise PolePoint is
    raised."""
    hw = hw or HighestWeightData(params)
    ev = RootEigenvalue(roots, params, hw)
    x = np.asarray(x, dtype=complex)
    near = np.any(np.abs(np.sinh(x[..., None] - np.asarray(roots, dtype=complex)))
                  < 1e-6, axis=-1)
    if not near.any():
        return ev(x)
    if bae_relative_residual(roots, params) > 1e-8:
        raise PolePoint(f"x={x[near]} collides with a non-Bethe root")
    eps = np.where(near, 1e-4, 0.0)
    v = ev(x + eps)
    return np.where(near, 0.5 * (v + ev(x - eps)), v)[()]


class CothSum:
    """h(x) = sum_l coth(w_l - x) with closed-form derivatives to order 4."""

    def __init__(self, roots):
        self.roots = np.asarray(tuple(roots), dtype=complex)

    def __call__(self, x, d=0):
        c = 1 / np.tanh(self.roots - x)
        if d == 0:
            return complex(np.sum(c))
        if d == 1:
            return complex(np.sum(c ** 2 - 1))
        if d == 2:
            return complex(np.sum(2 * c * (c ** 2 - 1)))
        if d == 3:
            return complex(np.sum(2 * (3 * c ** 2 - 1) * (c ** 2 - 1)))
        if d == 4:
            return complex(np.sum(8 * c * (c ** 2 - 1) * (3 * c ** 2 - 2)))
        raise ValueError("derivatives implemented up to order 4")


# ---------------------------------------------------------------------------
# matching against the oracle

@dataclass
class MatchReport:
    n: int
    pairs: list                 # (solution_index, eigen_index, max relative deviation)
    unmatched_solutions: list
    unmatched_eigenvalues: list

    @property
    def max_deviation(self):
        return max((d for *_, d in self.pairs), default=float("nan"))

    @property
    def complete(self):
        return not self.unmatched_eigenvalues and not self.unmatched_solutions


def match_spectrum(params: ModelParams, n, solutions, oracle, sample_xs=None):
    """Greedy minimal-distance bipartite matching between formula and oracle
    eigenvalues, using the max relative deviation over shared sample points."""
    hw = HighestWeightData(params)
    if sample_xs is None:
        sample_xs = np.linspace(0.21, 1.3, 20)
    sample_xs = np.asarray(sample_xs)
    ovals = np.array([oracle.eigenvalues_at(x) for x in sample_xs])   # (npts, neig)
    oscale = np.abs(ovals).max(axis=0) + 1e-300
    fvals = [eigenvalue_from_roots(sample_xs, s.roots, params, hw)
             for s in solutions]                                      # (nsol, npts)
    cost = np.full((len(solutions), oracle.size), np.inf)
    for si in range(len(solutions)):
        cost[si] = np.abs(fvals[si][:, None] - ovals).max(axis=0) / oscale
    pairs = []
    free_s = set(range(len(solutions)))
    free_e = set(range(oracle.size))
    while free_s and free_e:
        best = min(((cost[s, e], s, e) for s in free_s for e in free_e))
        d, s, e = best
        pairs.append((s, e, float(d)))
        free_s.remove(s)
        free_e.remove(e)
    return MatchReport(n=n, pairs=pairs,
                       unmatched_solutions=sorted(free_s),
                       unmatched_eigenvalues=sorted(free_e))


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


def roots_from_json(text):
    """Root sets from `roots_to_json` text, marked as user-supplied."""
    out = []
    for rec in json.loads(text):
        roots = tuple(complex(re, im) for re, im in rec["roots"])
        pairs = [(i, j, complex(re, im)) for i, j, re, im in rec.get("pairs", [])]
        out.append(BetheRoots(n=rec["n"], roots=roots,
                              residual=float(rec.get("residual", np.nan)),
                              source="user",
                              singular=bool(rec.get("singular", False)),
                              pairs=pairs))
    return out
