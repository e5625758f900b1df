"""Bethe equations: residue-form residuals, a damped multistart Newton
solver, closed-form eigenvalue and h-function evaluators, and matching of
the Bethe spectrum against the brute-force oracle.

The equations are solved in their pole-free residue form

    R_i = phi1 lam_a(w_i) prod_{j!=i} a(w_j - w_i)
        - (-1)^{n+1} phi2 lam_d(w_i) prod_{j!=i} a(w_i - w_j) = 0 .

Each product is evaluated factor by factor, and a damped Newton iteration
with the analytic Jacobian of the products runs on all multistart seeds as
one batch.  It stops at relative residual 1e-14 and keeps each seed's best
iterate; a regular solution is accepted at relative residual 1e-12, the
tolerance of the `bethe` check.

Root sets are identified modulo permutations and modulo i*pi shifts of
individual roots (both leave every observable unchanged).  Besides regular
solutions the solver also scans for exact singular pairs {mu_j, mu_j - gamma},
where both products above vanish identically; at reference parameters one
sector eigenvalue is reachable only through such a pair.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .model import HighestWeightData, ModelParams

# Newton iteration: step budget, damping factors (20 halvings), relative
# stopping residual
_MAX_ITER = 60
_DAMPING = 0.5 ** np.arange(1, 21)
_NEWTON_TOL = 1e-14
# acceptance bound on the relative residual of a regular solution; as strict
# as the `bethe_residual` tolerance of the check that judges the solutions
_RESIDUAL_TOL = 1e-12

__all__ = [
    "BetheRoots",
    "PolePoint",
    "bae_residual",
    "bae_relative_residual",
    "solve_bae",
    "default_seeds",
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
    solutions, whose natural scale is zero).
    """

    n: int
    roots: tuple
    residual: float
    source: str = "solved"
    singular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(complex(w) for w in self.roots))
        if len(self.roots) != self.n:
            raise ValueError(f"expected {self.n} roots, got {len(self.roots)}")


def _leave_one_out(f):
    """Products of all factors but one along the last axis, without
    division (a factor may be zero)."""
    ones = np.ones(f.shape[:-1] + (1,), dtype=f.dtype)
    before = np.cumprod(np.concatenate([ones, f[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, f[..., :0:-1]], axis=-1),
                       axis=-1)[..., ::-1]
    return before * after


def _terms(w, params: ModelParams):
    """A-side and D-side products of the residue form and their Jacobians,
    for root sets w of shape (..., n): returns ta, td of shape (..., n) and
    dta, dtd of shape (..., n, n) with dta[..., i, l] = d ta_i / d w_l.

    Every factor is one sinh, so the vacuum products are evaluated as
    prod_k sinh(w - mu_k + shift) and not through their expanded exponential
    sums, which cancel near the zeros where near-singular roots sit.  The
    derivatives follow from the product rule over leave-one-out products.
    """
    w = np.asarray(w, dtype=complex)
    n = w.shape[-1]
    wg = w + params.gamma
    mu = np.asarray(params.mu)
    L = len(mu)
    eye = np.eye(n, dtype=bool)
    # row i: L vacuum factors, then the n pair factors (the j = i one is 1):
    #   A side  sinh(w_i + g - mu_k),  a(w_j - w_i) = sinh(w_j + g - w_i)
    #   D side  sinh(w_i - mu_k),      a(w_i - w_j) = sinh(w_i + g - w_j)
    # Adding gamma first makes a nearly vanishing argument the difference of
    # two close numbers, which floating point subtracts exactly.
    args_a = np.concatenate([wg[..., :, None] - mu, wg[..., None, :] - w[..., :, None]], -1)
    args_d = np.concatenate([w[..., :, None] - mu, wg[..., :, None] - w[..., None, :]], -1)
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
    # argument +-(w_j - w_i) moves with both
    own_a = ga[..., :L].sum(-1) - ga[..., L:].sum(-1)
    own_d = gd[..., :L].sum(-1) + gd[..., L:].sum(-1)
    dta = pa * (ga[..., L:] + own_a[..., None] * eye)
    dtd = pd * (own_d[..., None] * eye - gd[..., L:])
    return ta, td, dta, dtd


def _relative(ta, td):
    """Row-wise max_i |ta_i - td_i| / max(|ta_i|, |td_i|); inf for a root
    set with a scale-null row."""
    scale = np.maximum(np.abs(ta), np.abs(td))
    null = scale < 1e-12 * np.maximum(scale.max(-1, keepdims=True), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (np.abs(ta - td) / scale).max(-1)
    return np.where(null.any(-1), np.inf, rel)


def bae_residual(roots, params: ModelParams):
    """Residue-form residual vector (one complex entry per root)."""
    ta, td, _, _ = _terms(np.asarray(roots, dtype=complex)[None], params)
    return ta[0] - td[0]


def bae_relative_residual(roots, params: ModelParams):
    """max_i |R_i| / max(|A-term|, |D-term|).

    Configurations with a scale-null row (both products vanish, as in
    singular pairs) return inf: they are never *regular* solutions and are
    admitted only through the explicit singular-candidate scan.
    """
    ta, td, _, _ = _terms(np.asarray(roots, dtype=complex)[None], params)
    return float(_relative(ta, td)[0])


def canonical_roots(roots):
    """Reduce each root to the strip Im in (-pi/2, pi/2] and sort."""
    w = np.asarray(roots, dtype=complex)
    w = w - 1j * np.pi * np.round(w.imag / np.pi)
    w = np.where(w.imag <= -np.pi / 2 + 1e-12, w + 1j * np.pi, w)
    order = np.lexsort((w.imag.round(9), w.real.round(9)))
    return tuple(w[order])


def _newton_steps(J, F):
    """Newton steps -J^{-1} F for a batch; a seed whose Jacobian is exactly
    singular gets a NaN step and so leaves the batch."""
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


def _newton(seeds, params):
    """Damped Newton on all seeds at once (shape (S, n)).

    Returns each seed's best iterate by relative residual, or None for a seed
    that never had a finite one.  A seed leaves the batch once its relative
    residual reaches _NEWTON_TOL, or at its first non-finite residual (seeds
    far out in the strip overflow the residue form, and from there on every
    iterate would be non-finite too).
    """
    w = np.array(seeds, dtype=complex)
    best = [None] * len(w)
    best_rel = np.full(len(w), np.inf)
    live = np.arange(len(w))
    with np.errstate(over="ignore", invalid="ignore"):
        ta, td, dta, dtd = _terms(w, params)
        for it in range(_MAX_ITER + 1):
            F = ta - td
            rel = _relative(ta, td)
            for k in np.flatnonzero(rel < best_rel[live]):
                best[live[k]] = w[k].copy()
                best_rel[live[k]] = rel[k]
            stay = np.isfinite(F).all(-1) & ~(rel <= _NEWTON_TOL)
            live, w, F, J = live[stay], w[stay], F[stay], (dta - dtd)[stay]
            if it == _MAX_ITER or not len(live):
                break
            step = _newton_steps(J, F)
            nrm = np.abs(F).max(-1)
            trial = w + step
            ta, td, dta, dtd = _terms(trial, params)
            worse = np.flatnonzero(~(np.abs(ta - td).max(-1) < nrm))
            if len(worse):
                # damping: of the steps scaled by 2^-1 ... 2^-H, the first
                # that lowers max |R| is taken, else the last; all at once
                cand = w[worse, None] + _DAMPING[:, None] * step[worse, None]
                c = _terms(cand, params)
                ok = np.abs(c[0] - c[1]).max(-1) < nrm[worse, None]
                ok[:, -1] = True
                pick = (np.arange(len(worse)), ok.argmax(-1))
                trial[worse] = cand[pick]
                for full, part in zip((ta, td, dta, dtd), c):
                    full[worse] = part[pick]
            w = trial
    return best


def default_seeds(params: ModelParams, n, seed=1234):
    """200 random strip seeds plus structured seeds around -gamma/2."""
    rng = np.random.default_rng(seed)
    seeds = [rng.uniform(-2, 2, n) + 1j * rng.uniform(-np.pi / 2, np.pi / 2, n)
             for _ in range(200)]
    base = -params.gamma / 2
    pool = [0.0, 0.35, -0.35, 0.8, -0.8,
            0.45j * np.pi, -0.45j * np.pi, 0.22j * np.pi, -0.22j * np.pi]
    for combo in itertools.combinations(pool, n):
        seeds.append(np.array([base + off for off in combo], dtype=complex))
    return seeds


def _singular_candidates(params: ModelParams, n):
    """Exact configurations {mu_j, mu_j - gamma}, on which the residue form
    vanishes identically; only the n = 2 embedding is scanned at desk scale.

    Whether such a pair describes a sector eigenvalue cannot be decided
    intrinsically: its eigenvalue function is pole-free and satisfies the
    functional identities for any parameters (at the homogeneous untwisted
    point it is a genuine eigenvalue, at generic inhomogeneities it is not).
    Candidates are therefore returned flagged, and the spectrum matching
    reports the unmatched ones as findings.
    """
    if n != 2:
        return []
    return [np.array([m, m - params.gamma], dtype=complex) for m in params.mu]


def solve_bae(params: ModelParams, n, seed=1234):
    """Multistart damped Newton on the residue form, plus the singular-pair
    scan; returns distinct solutions (canonical order), regular ones first.
    Of several seeds that reach one root set, the copy with the lowest
    residual is kept."""
    if n == 0:
        return [BetheRoots(n=0, roots=(), residual=0.0, source="solved")]
    if n > params.L:
        raise ValueError(f"sector n={n} exceeds L={params.L}")

    found = []

    def try_add(w, singular):
        w = canonical_roots(w)
        arr = np.asarray(w)
        if n > 1:
            gaps = np.abs(arr[:, None] - arr[None, :])[~np.eye(n, dtype=bool)]
            if gaps.min() < 1e-8:
                return
        if singular:
            res = float(np.abs(bae_residual(w, params)).max())
            if res > 1e-12:
                return
        else:
            res = bae_relative_residual(w, params)
            if not res < _RESIDUAL_TOL:
                return
        sol = BetheRoots(n=n, roots=w, residual=res,
                         source="analytic" if singular else "solved",
                         singular=singular)
        for k, prev in enumerate(found):
            if np.abs(np.asarray(prev.roots) - arr).max() < 1e-7:
                if res < prev.residual:
                    found[k] = sol
                return
        found.append(sol)

    for w in _newton(default_seeds(params, n, seed=seed), params):
        if w is not None:
            try_add(w, singular=False)
    for cand in _singular_candidates(params, n):
        try_add(cand, singular=True)

    found.sort(key=_solution_order)
    return found


def _solution_order(sol: BetheRoots):
    """Sort key: regular before singular, then the roots' (real, imag) parts
    rounded to 9 digits as in `canonical_roots`, so that the order of a
    conjugate pair does not follow the last bits of its real parts."""
    w = np.asarray(sol.roots, dtype=complex)
    return sol.singular, tuple(zip(w.real.round(9), w.imag.round(9)))


# ---------------------------------------------------------------------------
# closed-form evaluators

class RootEigenvalue:
    """Eigenvalue function built from a root set, with closed-form first and
    second derivatives (log-derivative sums; valid away from the poles of the
    ratio products and the zeros of lam_a, lam_d)."""

    def __init__(self, roots, params: ModelParams, hw=None):
        self.roots = tuple(complex(w) for w in roots)
        self.params = params
        self.hw = hw or HighestWeightData(params)

    def _branch(self, x, shift, d):
        # F(x) = prod_l a(w_l - x)/b(w_l - x)  (shift=+1)  or its mirror
        p = self.params
        g = p.gamma
        w = np.asarray(self.roots)
        if shift > 0:
            val = np.prod(p.a(w - x) / p.b(w - x)) if len(w) else 1.0
            if d == 0:
                return val, 0.0, 0.0
            c1 = 1 / np.tanh(w - x)
            c2 = 1 / np.tanh(w - x + g)
        else:
            val = np.prod(p.a(x - w) / p.b(x - w)) if len(w) else 1.0
            if d == 0:
                return val, 0.0, 0.0
            c1 = -1 / np.tanh(x - w)
            c2 = -1 / np.tanh(x - w + g)
        # d/dx of (+-coth) is (c^2 - 1) with c the signed value, both branches
        s = np.sum(c1 - c2)
        ds = np.sum((c1 ** 2 - 1) - (c2 ** 2 - 1))
        return val, s, ds

    def __call__(self, x, d=0):
        p, hw = self.params, self.hw
        if d > 2:
            raise ValueError("closed-form derivatives implemented up to order 2")
        out = 0.0 + 0j
        for shift, phi, la in ((+1, p.phi1, hw.lam_a), (-1, p.phi2, hw.lam_d)):
            F, s, ds = self._branch(x, shift, d)
            f0 = la(x)
            if d == 0:
                out += phi * F * f0
            else:
                t = la(x, 1) / f0
                if d == 1:
                    out += phi * F * f0 * (s + t)
                else:
                    dt = la(x, 2) / f0 - t ** 2
                    out += phi * F * f0 * ((s + t) ** 2 + ds + dt)
        return complex(out)


def eigenvalue_from_roots(x, roots, params: ModelParams, hw=None):
    """Closed-form eigenvalue at x.  Near a root the pole must be removable
    (Bethe equations hold); it is then evaluated by a symmetric two-sided
    limit, otherwise PolePoint is raised."""
    hw = hw or HighestWeightData(params)
    ev = RootEigenvalue(roots, params, hw)
    w = np.asarray(roots, dtype=complex)
    if len(w):
        dists = np.abs(np.sinh(x - w))
        if dists.min() < 1e-6:
            if bae_relative_residual(roots, params) > 1e-8:
                raise PolePoint(f"x={x} collides with a non-Bethe root")
            eps = 1e-4
            return 0.5 * (ev(x + eps) + ev(x - eps))
    return ev(x)


class CothSum:
    """h(x) = sum_l coth(w_l - x) with closed-form derivatives to order 3."""

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
        raise ValueError("derivatives implemented up to order 3")


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
    sample_xs = list(sample_xs)
    ovals = np.array([oracle.eigenvalues_at(x) for x in sample_xs])   # (npts, neig)
    oscale = np.abs(ovals).max(axis=0) + 1e-300
    fvals = np.array([[eigenvalue_from_roots(x, s.roots, params, hw)
                       for x in sample_xs] for s in solutions])       # (nsol, npts)
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
        out.append(BetheRoots(n=rec["n"], roots=roots,
                              residual=float(rec.get("residual", np.nan)),
                              source="user",
                              singular=bool(rec.get("singular", False))))
    return out
