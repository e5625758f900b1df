"""Command-line surface: spectrum | verify | bethe | potential | report.

Exit codes: 0 all-pass, 1 check failures or incomplete matching, 2 config
errors, 3 degenerate-spectrum abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it with the module, not mid-run

from . import bethe as bt
from . import functional as fx
from . import model, odes
from .model import (ExpSum, HighestWeightData, ModelParams, monodromy_blocks,
                    magnetization_diagonal, sector_block, transfer, verify_ybe,
                    yba_exchange_residual)
from .reports import (ConfigError, ResultCache, RunConfig, VerificationReport,
                      atomic_write_text, write_csv, write_svg_line)
from .spectrum import (DegenerateSpectrum, diagonalize_blocks,
                       polynomial_residuals, polynomiality_check, sample_sectors)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_DEGENERATE = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# sector eigensystems and the verify context

class SectorSource:
    """Sector eigensystems of one run's model.  Each is loaded from the
    cache; on the first miss T(x) is sampled once for all of `sectors`
    (L+1 builds), and each missing sector is then diagonalized when it is
    first asked for."""

    def __init__(self, config: RunConfig, sectors):
        self.params = config.model
        self.sectors = list(sectors)
        self.cache = ResultCache(config.output_dir / ".cache")
        self.key = config.content_key()
        self._blocks = None

    def _diagonalize(self, n):
        if self._blocks is None:
            self._blocks = sample_sectors(self.params, self.sectors)
        return diagonalize_blocks(self.params, n, self._blocks.pop(n))

    def __call__(self, n):
        return self.cache.sector(self.key, n, self.params,
                                 lambda: self._diagonalize(n))


class VerifyContext:
    """Shared state of one verify run.  Sector eigensystems and Bethe
    solutions are built once, on first use; each build is timed as its own
    entry of `shared`, with the monodromy builds it made, so no check is
    charged for work that others reuse.  The sampling of T(x) for all
    configured sectors counts on the eigensystem entry that triggers it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.model
        self.hw = HighestWeightData(self.params)
        self.rng = np.random.default_rng(config.seed)
        self._source = SectorSource(config, config.sectors)
        self._eigs = {}
        self._bethe = {}
        # one entry per memo miss: work, n, seconds, builds (cmd_verify adds
        # the check)
        self.shared = []

    def _timed(self, work, n, build):
        """build() and its `shared` entry."""
        t0, b0 = time.perf_counter(), model.builds
        out = build()
        self.shared.append({"work": work, "n": n,
                            "seconds": time.perf_counter() - t0,
                            "builds": model.builds - b0})
        return out, self.shared[-1]

    def eigensystem(self, n):
        """Sector eigensystem; its `shared` entry also records how well
        conditioned it is."""
        if n not in self._eigs:
            es, entry = self._timed("eigensystem", n, lambda: self._source(n))
            entry.update(min_relative_gap=es.min_relative_gap(),
                         biorthogonality_defect=es.biorthogonality_defect())
            self._eigs[n] = es
        return self._eigs[n]

    def lam(self, n, k):
        """Exact eigenvalue sum, scaled by 1 + perturb_lambda (0 unless this
        is a negative-control run)."""
        f = self.eigensystem(n).lam(k)
        return ExpSum(f.ms, f.coeffs * (1 + self.config.perturb_lambda))

    def bethe(self, n):
        """Root sets of sector n and their conditioning, which also goes on
        the `shared` entry of the solve (timed apart from the eigensystem)."""
        if n not in self._bethe:
            es = self.eigensystem(n)
            sols, entry = self._timed("bethe", n, lambda: bt.solve_bae(es))
            self._bethe[n] = sols, bt.conditioning(sols, es)
            entry.update(self._bethe[n][1])
        return self._bethe[n]

    def tol(self, name):
        return self.config.tolerances[name]


def _report(check, identity, residual, tol, t0, **details):
    return VerificationReport(
        check=check, identity=identity, residual=float(residual), tolerance=tol,
        wall_time=time.perf_counter() - t0, details=details)


def _exceed_report(check, identity, value, threshold, t0, **details):
    """Record a must-exceed (negative-control) check as a margin residual,
    preserving the pass <=> residual <= tolerance invariant."""
    margin = threshold / max(float(value), 1e-300)
    details["measured"] = float(value)
    details["must_exceed"] = float(threshold)
    return VerificationReport(
        check=check, identity=identity, residual=margin, tolerance=1.0,
        wall_time=time.perf_counter() - t0, details=details)


# ---------------------------------------------------------------------------
# registered checks

def check_yang_baxter(ctx):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        x1, x2, x3 = ctx.rng.uniform(-1.5, 1.5, 3) + 1j * ctx.rng.uniform(-0.5, 0.5, 3)
        g = ctx.rng.uniform(0.2, 1.2) + 1j * ctx.rng.uniform(-0.3, 0.3)
        worst = max(worst, verify_ybe(x1, x2, x3, g))
    return [_report("yang-baxter", "R12 R13 R23 = R23 R13 R12", worst,
                    ctx.tol("yang_baxter"), t0)]


def _frobenius(blocks):
    return np.sqrt(sum(np.linalg.norm(M) ** 2 for M in blocks))


def check_transfer_commute(ctx):
    """Commutators and norms on the sector blocks, where T(x) is nonzero."""
    t0 = time.perf_counter()
    p = ctx.params
    worst = 0.0
    for _ in range(10):
        x, y = ctx.rng.uniform(-1.0, 1.0, 2)
        Tx, Ty = ([sector_block(T, p.L, n, n) for n in range(p.L + 1)]
                  for T in (transfer(x, p), transfer(y, p)))
        num = _frobenius(a @ b - b @ a for a, b in zip(Tx, Ty))
        den = _frobenius(Tx) * _frobenius(Ty)
        worst = max(worst, num / den)
    return [_report("transfer-commute", "[T(x), T(y)] = 0", worst,
                    ctx.tol("transfer_commute"), t0, L=p.L)]


def check_highest_weight(ctx):
    t0 = time.perf_counter()
    p, hw = ctx.params, ctx.hw
    e0 = np.zeros(p.dim)
    e0[0] = 1.0
    worst = 0.0
    for _ in range(10):
        x = ctx.rng.uniform(-1.0, 1.0) + 1j * ctx.rng.uniform(-0.3, 0.3)
        A, B, C, D = monodromy_blocks(x, p)
        sc = max(1.0, abs(hw.lam_a(x)), abs(hw.lam_d(x)))
        worst = max(worst,
                    np.abs(A @ e0 - p.phi1 * hw.lam_a(x) * e0).max() / sc,
                    np.abs(D @ e0 - p.phi2 * hw.lam_d(x) * e0).max() / sc,
                    np.abs(C @ e0).max() / sc)
    out = [_report("highest-weight", "A|0>, D|0> eigen; C|0> = 0", worst,
                   ctx.tol("highest_weight"), t0)]
    # magnetization block structure and trace identity
    t0 = time.perf_counter()
    x = 0.37
    A, B, C, D = monodromy_blocks(x, p)
    hdiag = magnetization_diagonal(p.L)
    worst = 0.0
    scale = max(np.abs(M).max() for M in (A, B, C, D))
    for M, shift in ((A, 0), (D, 0), (B, -2), (C, 2)):
        bad = np.abs(M[(hdiag[:, None] - hdiag[None, :]) != shift]).max() / scale
        worst = max(worst, bad)
    tr_dev = abs(np.trace(A + D) - np.trace(transfer(x, p))) / abs(np.trace(A + D))
    out.append(_report("highest-weight", "magnetization blocks + trace",
                       max(worst, tr_dev), ctx.tol("structure"), t0))
    return out


def check_exchange(ctx):
    t0 = time.perf_counter()
    worst = 0.0
    scale = 0.0
    for _ in range(5):
        x1, x2 = ctx.rng.uniform(-1.0, 1.0, 2)
        res, t_norm = yba_exchange_residual(x1, x2, ctx.params)
        worst = max(worst, res)
        scale = max(scale, t_norm ** 2)
    return [_report("exchange", "A-B and D-B subalgebra relations",
                    worst / scale, ctx.tol("exchange"), t0)]


def check_polynomial(ctx):
    t0 = time.perf_counter()
    systems = [ctx.eigensystem(n) for n in ctx.config.sectors]
    worst = max((r.max() for r in polynomial_residuals(systems)), default=0.0)
    out = [_report("polynomial", "u^{L/2} Lam(x) is degree-L in u", worst,
                   ctx.tol("polynomial_fit"), t0)]
    t0 = time.perf_counter()
    # u^{L/2} exp((L+2)x) = u^{L+1}: outside the degree-L form at every L
    _, planted = polynomiality_check(
        lambda x: ctx.hw.lam_a(x) + np.exp((ctx.params.L + 2) * x), ctx.params)
    out.append(_exceed_report("polynomial", "planted non-eigenvalue fails fit",
                              planted, ctx.tol("negative_control"), t0))
    return out


def _small_sectors(ctx, cap=3):
    return [n for n in ctx.config.sectors if 1 <= n <= min(cap, ctx.params.L - 1)]


def _sample_points(ctx, count):
    return list(ctx.rng.uniform(-0.9, 1.1, count)
                + 1j * ctx.rng.uniform(-0.2, 0.2, count))


def check_linear_problem(ctx):
    out = []
    for n in _small_sectors(ctx):
        t0 = time.perf_counter()
        es = ctx.eigensystem(n)
        pts = _sample_points(ctx, n + 1)
        count = min(es.size, 4)
        res, scale = fx.linear_relation_residual(
            pts, [ctx.lam(n, k) for k in range(count)], es.left[:count],
            ctx.hw, ctx.params)
        worst = float((np.abs(res) / scale).max())
        out.append(_report("linear-problem", f"sum_i M_i F_{n} = 0 (n={n})",
                           worst, ctx.tol("linear_problem"), t0, n=n))
    return out


# eigenvalue scale of the compatibility negative control
_CONTROL_FACTOR = 1.01


def check_compatibility(ctx):
    out = []
    for n in _small_sectors(ctx):
        t0 = time.perf_counter()
        pts = [0.31, -0.42, 0.55, 0.9][:n + 1]
        worst = 0.0
        es = ctx.eigensystem(n)
        for k in range(min(es.size, 4)):
            worst = max(worst, abs(fx.compatibility_residual(
                pts, ctx.lam(n, k), ctx.hw, ctx.params)))
        out.append(_report("compatibility", f"det extended matrix = 0 (n={n})",
                           worst, ctx.tol("compatibility"), t0, n=n))
        # negative control: the 1%-off determinant must sit far above the
        # on-shell value of the same eigenpair and its rounding level
        t0 = time.perf_counter()
        f = ctx.eigensystem(n).lam(0)
        on0 = abs(fx.compatibility_residual(pts, f, ctx.hw, ctx.params))
        off = abs(fx.compatibility_residual(
            pts, lambda x: _CONTROL_FACTOR * f(x), ctx.hw, ctx.params))
        out.append(_exceed_report(
            "compatibility", f"perturbed eigenvalue separated (n={n})",
            off, fx.separation_threshold(pts, f, ctx.hw, ctx.params), t0, n=n,
            on_shell=on0, rank_on_shell=fx.extended_rank(pts, f, ctx.hw, ctx.params)))
    return out


def check_nonlinear(ctx):
    out = []
    p, hw = ctx.params, ctx.hw
    if 1 in ctx.config.sectors:
        t0 = time.perf_counter()
        es = ctx.eigensystem(1)
        x0, x1 = 0.31, -0.42
        worst = 0.0
        for k in range(es.size):
            lam = ctx.lam(1, k)
            scale = abs(lam(x0) * lam(x1))
            worst = max(worst, abs(fx.nonlinear_eq_n1_residual(
                x0, x1, lam, hw, p)) / scale)
        out.append(_report("nonlinear-n1", "two-point identity", worst,
                           ctx.tol("nonlinear_n1"), t0))
        # cross-check: identical to the determinant path
        t0 = time.perf_counter()
        f = es.lam(0)
        bad = lambda x: 1.07 * f(x)
        r = fx.nonlinear_eq_n1_residual(x0, x1, bad, hw, p)
        d = np.linalg.det(fx.extended_matrix([x0, x1], bad, hw, p))
        out.append(_report("nonlinear-n1", "agrees with determinant path",
                           abs(r - d) / abs(d), 1e-12, t0))
    if 2 in ctx.config.sectors and ctx.params.L >= 2:
        t0 = time.perf_counter()
        es = ctx.eigensystem(2)
        pts = (0.31, -0.42, 0.55)
        worst = 0.0
        for k in range(es.size):
            lam = ctx.lam(2, k)
            scale = abs(lam(pts[0]) * lam(pts[1]) * lam(pts[2]))
            worst = max(worst, abs(fx.nonlinear_eq_n2_residual(
                *pts, lam, hw, p)) / scale)
        out.append(_report("nonlinear-n2", "three-point identity", worst,
                           ctx.tol("nonlinear_n2"), t0))
    return out


def check_transport(ctx):
    out = []
    for n in _small_sectors(ctx):
        if n < 2:
            continue
        t0 = time.perf_counter()
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, 0)
        pts = _sample_points(ctx, n + 1)
        loop = abs(fx.transport_loop(list(range(min(n + 1, 4))), pts, lam,
                                     ctx.hw, ctx.params) - 1)
        out.append(_report("transport", f"loop composition = 1 (n={n})", loop,
                           ctx.tol("transport_loop"), t0, n=n))
        # factorization: transport ratio against directly computed F ratios
        t0 = time.perf_counter()
        F = fx.f_n([pts[:i] + pts[i + 1:] for i in range(3)], es.left[0],
                   ctx.params)[0]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            tv = fx.transport(i, j, pts, lam, ctx.hw, ctx.params)
            worst = max(worst, abs(tv - F[j] / F[i]) / abs(tv))
        out.append(_report("transport", f"det ratio = F ratio (n={n})", worst,
                           ctx.tol("factorization"), t0, n=n))
    return out


def check_reduced_det(ctx):
    out = []
    p, hw = ctx.params, ctx.hw
    for n in [n for n in ctx.config.sectors if 2 <= n <= min(4, p.L - 1)]:
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, min(1, es.size - 1))
        pts = _sample_points(ctx, n + 1)
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(1, n + 1):
            dv = np.linalg.det(fx.v_matrix(i, pts, lam, hw, p))
            dt = fx.tilde_v_det(i, pts, lam, hw, p)
            pred = (p.c * p.b(pts[0] - pts[i])
                    / np.prod([p.b(pts[0] - pts[j]) ** 2 for j in range(1, n + 1)]) * dt)
            worst = max(worst, abs(dv - pred) / abs(dv))
        # permutation identity
        i, j = 1, 2
        sw = list(pts)
        sw[i], sw[j] = sw[j], sw[i]
        d1 = fx.tilde_v_det(i, pts, lam, hw, p)
        d2 = fx.tilde_v_det(j, sw, lam, hw, p)
        worst = max(worst, abs(d1 - d2) / abs(d1))
        out.append(_report("reduced-det", f"normalization + permutation (n={n})",
                           worst, ctx.tol("reduced_det"), t0, n=n))
        t0 = time.perf_counter()
        spread = fx.tilde_v_spread(1, pts, lam, hw, p)
        out.append(_report("reduced-det", f"det independent of x_i (n={n})",
                           spread, ctx.tol("reduced_det_spread"), t0, n=n))
    return out


def check_theta(ctx):
    out = []
    for n in _small_sectors(ctx, cap=2):
        if n < 2:
            continue
        t0 = time.perf_counter()
        lam = ctx.lam(n, 0)
        pts = [0.31, -0.42, 0.55][:n + 1]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2)]:
            worst = max(worst, fx.theta_conservation(
                i, j, pts, lam, ctx.hw, ctx.params))
        out.append(_report("theta", f"d_j theta_ij = 0 (n={n})", worst,
                           ctx.tol("theta_conservation"), t0, n=n))
    return out


def check_conserved_n1(ctx):
    if 1 not in ctx.config.sectors:
        return []
    out = []
    p, hw = ctx.params, ctx.hw
    es = ctx.eigensystem(1)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(es.size):
        lam = ctx.lam(1, k)
        v1, _, _ = fx.conserved_n1(0.2, lam, hw, p)
        v2, _, _ = fx.conserved_n1(0.9, lam, hw, p)
        worst = max(worst, abs(v1 - v2))
    out.append(_report("conserved-n1", "constancy across x", worst,
                       ctx.tol("conserved_constancy"), t0))
    # closed form against a Bethe root
    t0 = time.perf_counter()
    sols, _ = ctx.bethe(1)
    worst = 0.0
    matched = bt.match_spectrum(p, 1, sols, es)
    for si, ei, _ in matched.pairs:
        val, _, _ = fx.conserved_n1(0.4, ctx.lam(1, ei), hw, p)
        target = fx.conserved_n1_closed_form(sols[si].roots[0], hw)
        worst = max(worst, abs(np.exp(val) - target) / abs(target))
    out.append(_report("conserved-n1", "exp equals coth(w1) + dlm(0)/lm(0)",
                       worst, ctx.tol("conserved_closed_form"), t0))
    return out


def check_bethe_match(ctx):
    out = []
    p = ctx.params
    for n in [n for n in ctx.config.sectors if n in (1, 2) and n <= p.L]:
        t0 = time.perf_counter()
        sols, cond = ctx.bethe(n)
        es = ctx.eigensystem(n)
        res = max((s.residual for s in sols), default=0.0)
        out.append(_report("bethe", f"residue-form residuals (n={n})", res,
                           ctx.tol("bethe_residual"), t0, n=n,
                           solutions=len(sols), **cond))
        # an eigenvalue without a degree-n Q has no root set to match
        t0 = time.perf_counter()
        rep = bt.match_spectrum(p, n, sols, es)
        no_q = set(bt.no_degree_n_q(es))
        unmatched = [k for k in rep.unmatched_eigenvalues if k not in no_q]
        excused = len(rep.unmatched_eigenvalues) - len(unmatched)
        matched_dev = max((d for *_, d in rep.pairs), default=0.0)
        n_unmatched = len(unmatched) + len(rep.unmatched_solutions)
        out.append(_report("bethe", f"spectrum match (n={n})",
                           max(matched_dev, float(n_unmatched)),
                           ctx.tol("bethe_match"), t0, n=n,
                           unmatched_eigenvalues=unmatched,
                           unmatched_solutions=rep.unmatched_solutions,
                           unmatched_no_degree_n_q=excused, **cond))
    return out


def check_riccati_n1(ctx):
    if 1 not in ctx.config.sectors:
        return []
    t0 = time.perf_counter()
    lams = [ctx.lam(1, k) for k in range(ctx.eigensystem(1).size)]
    xs = (0.43, 0.9)
    rs = [odes.riccati_lambda_residual(lam, x, ctx.hw, ctx.params)
          for lam in lams for x in xs]
    out = [_report("riccati-n1", "first-order quadratic ODE",
                   max(map(abs, rs)), ctx.tol("riccati_n1"), t0)]
    t0 = time.perf_counter()
    ss = [odes.sigma1_residual(lam, x, ctx.hw, ctx.params)
          for lam in lams for x in xs]
    worst = max(max(abs(s), abs(r - s)) for r, s in zip(rs, ss))
    out.append(_report("riccati-n1", "surface form agrees", worst,
                       ctx.tol("sigma1"), t0))
    return out


def check_sigma2(ctx):
    """A point where every determinant term is below 1e-12 of the row's
    largest (x = -gamma/2 at the reference point with odd L) reads 0/0; it is
    judged at x + 0.137 instead and listed under `moved_points` as
    [k, x, moved x]."""
    if 2 not in ctx.config.sectors or ctx.params.L < 2:
        return []
    t0 = time.perf_counter()
    lams = [ctx.lam(2, k) for k in range(ctx.eigensystem(2).size)]

    def reduce(k, x):
        return odes.coalescing_reduction(lams[k], x, ctx.hw, ctx.params, n=2)[:2]

    terms = {(k, x): reduce(k, x) for k in range(len(lams)) for x in (0.63, -0.35)}
    floor = 1e-12 * max(scale for _, scale in terms.values())
    worst, moved = 0.0, []
    for (k, x), (val, scale) in terms.items():
        if scale < floor:
            x_moved = x + 0.137
            moved.append([k, x, x_moved])
            val, scale = reduce(k, x_moved)
        worst = max(worst, abs(val) / max(scale, 1e-300))
    return [_report("sigma2", "second-order ODE (coalescing reduction)",
                    worst, ctx.tol("sigma2"), t0, moved_points=moved)]


def _at_reference_point(p: ModelParams):
    return (all(abs(m) == 0 for m in p.mu) and p.phi1 == 1 and p.phi2 == 1)


def check_riccati2(ctx):
    if 2 not in ctx.config.sectors or not _at_reference_point(ctx.params):
        return []
    t0 = time.perf_counter()
    es = ctx.eigensystem(2)
    worst = 0.0
    for k in range(es.size):
        lam = ctx.lam(2, k)
        for x in (0.43, 0.8):
            worst = max(worst, abs(odes.riccati2_residual(lam, x, ctx.params)))
    return [_report("riccati2", "standard Riccati at untwisted point", worst,
                    ctx.tol("riccati2"), t0)]


def check_riccati_h(ctx):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        h = bt.CothSum(roots)
        for x in (0.37, -0.6):
            worst = max(worst, abs(odes.riccati_h_residual(h, x, n)))
    return [_report("riccati-h", "coth-sum ODE chain (orders 1..3)", worst,
                    ctx.tol("riccati_h"), t0)]


def check_upsilon(ctx):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        worst = max(worst, odes.upsilon_annihilation(roots, n))
    return [_report("upsilon", "annihilator of exp(-int h), exact", worst,
                    ctx.tol("upsilon"), t0)]


def check_u_equation(ctx):
    if 1 not in ctx.config.sectors:
        return []
    t0 = time.perf_counter()
    sols = [s for s in ctx.bethe(1)[0] if not s.singular]
    if not sols:
        return []
    ev = bt.RootEigenvalue(sols[0].roots, ctx.params, ctx.hw)
    # the O(h^2) constant depends on the parameter point; refine until the
    # tolerance is met (or give up after three refinements)
    num = 400
    res = odes.u_equation_residual(ev, (0.2, 1.2), ctx.hw, ctx.params, num=num)
    while res > ctx.tol("u_equation") and num < 4000:
        num *= 2
        res = odes.u_equation_residual(ev, (0.2, 1.2), ctx.hw, ctx.params, num=num)
    return [_report("u-equation", "linearized second-order form", res,
                    ctx.tol("u_equation"), t0, grid_points=num)]


def check_pde(ctx):
    out = []
    for n in (1, 2, 3):
        t0 = time.perf_counter()
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        base = {1: 129, 2: 129, 3: 49}[n]
        res, ratios = odes.pde_convergence(n, roots, omega=0.8, base_grid=base,
                                           halvings=3)
        width = 1.2
        write_csv(ctx.config.output_dir / f"convergence-pde-n{n}.csv",
                  ["step", "residual"],
                  [(width / ((base - 1) * 2 ** k), r) for k, r in enumerate(res)])
        dev = max(abs(r - 4.0) for r in ratios)
        half_band = (ctx.tol("pde_ratio_high") - ctx.tol("pde_ratio_low")) / 2
        out.append(_report("pde", f"travelling-wave reduction order {n}", dev,
                           half_band, t0, ratios=ratios))
    return out


def check_schrodinger(ctx):
    if 2 not in ctx.config.sectors or not _at_reference_point(ctx.params):
        return []
    t0 = time.perf_counter()
    es = ctx.eigensystem(2)
    best, best_k = float("inf"), 0
    for k in range(es.size):
        lam = ctx.lam(2, k)
        r = odes.schrodinger_map_residual(lam, (0.2, 1.2), ctx.params, num=800)
        if r < best:
            best, best_k = r, k
    study = [(1.0 / num, odes.schrodinger_map_residual(
        ctx.lam(2, best_k), (0.2, 1.2), ctx.params, num=num))
        for num in (200, 400, 800)]
    write_csv(ctx.config.output_dir / "convergence-schrodinger.csv",
              ["step", "residual"], study)
    out = [_report("schrodinger", "psi'' + (V - 1) psi = 0, energy fixed",
                   best, ctx.tol("schrodinger"), t0)]
    t0 = time.perf_counter()
    lam = ctx.lam(2, 0)
    broken = odes.schrodinger_map_residual(lam, (0.2, 1.2), ctx.params,
                                           num=800, potential_scale=1.1)
    out.append(_exceed_report("schrodinger", "scaled potential rejected",
                              broken, ctx.tol("negative_control"), t0))
    return out


def check_root_of_unity(ctx):
    if not _at_reference_point(ctx.params):
        return []
    t0 = time.perf_counter()
    power = odes.omega0_power_deviation(ctx.params)
    out = [_report("root-of-unity", "O^L = Id", power,
                   ctx.tol("root_of_unity_power"), t0)]
    t0 = time.perf_counter()
    devs = odes.omega0_sector_deviations(ctx.params, {
        n: [ctx.lam(n, k) for k in range(ctx.eigensystem(n).size)]
        for n in ctx.config.sectors})
    worst = max((max(v) for v in devs.values() if v), default=0.0)
    out.append(_report("root-of-unity", "(Lam(0)/c^L)^L = 1", worst,
                       ctx.tol("root_of_unity_sector"), t0))
    return out


def check_potential(ctx):
    t0 = time.perf_counter()
    g = 0.3
    xs = np.linspace(-6, 6, 301)
    worst_im = 0.0
    for om0 in (1.0, 1j):
        vals = odes.potential_v(xs[np.abs(np.sinh(xs + g) ** 2 / om0
                                          - om0 * np.sinh(xs) ** 2) > 1e-3], om0, g)
        worst_im = max(worst_im, float(np.abs(vals.imag).max()))
    out = [_report("potential", "V real on the real axis", worst_im,
                   ctx.tol("potential_reality"), t0)]
    t0 = time.perf_counter()
    barrier = odes.potential_profile(1j, g, (-6, 6), 601)
    vals = barrier.values[np.isfinite(barrier.values)]
    ok_barrier = bool((vals.real > -1e-12).all()) and not barrier.poles
    well = odes.potential_profile(1.0, g, (-6, 6), 601)
    wvals = well.values[np.isfinite(well.values)]
    pole_dev = min((abs(px + g / 2) for px in well.poles), default=float("inf"))
    ok_well = bool((wvals.real < 1e-12).all())
    shape_penalty = 0.0 if (ok_barrier and ok_well) else 1.0
    out.append(_report("potential",
                       "barrier for om0=i, well with pole for om0=1",
                       pole_dev + shape_penalty, 1e-6, t0))
    return out


CHECKS = {
    "yang-baxter": check_yang_baxter,
    "transfer-commute": check_transfer_commute,
    "highest-weight": check_highest_weight,
    "exchange": check_exchange,
    "polynomial": check_polynomial,
    "linear-problem": check_linear_problem,
    "compatibility": check_compatibility,
    "nonlinear": check_nonlinear,
    "transport": check_transport,
    "reduced-det": check_reduced_det,
    "theta": check_theta,
    "conserved-n1": check_conserved_n1,
    "bethe": check_bethe_match,
    "riccati-n1": check_riccati_n1,
    "sigma2": check_sigma2,
    "riccati2": check_riccati2,
    "riccati-h": check_riccati_h,
    "upsilon": check_upsilon,
    "u-equation": check_u_equation,
    "pde": check_pde,
    "schrodinger": check_schrodinger,
    "root-of-unity": check_root_of_unity,
    "potential": check_potential,
}


# ---------------------------------------------------------------------------
# commands

def _load_config(args):
    if args.config:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig.reference()
    if args.out:
        cfg.output_dir = Path(args.out)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "checks", None):
        cfg.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in cfg.checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    if getattr(args, "perturb_lambda", None):
        cfg.perturb_lambda = args.perturb_lambda
    return cfg


def cmd_spectrum(args):
    cfg = _load_config(args)
    out = cfg.output_dir
    source = SectorSource(cfg, cfg.sectors)
    systems = [source(n) for n in cfg.sectors]
    # exact coefficients, and their residual against direct builds of T(x)
    rows = []
    for es, residuals in zip(systems, polynomial_residuals(systems)):
        n = es.n
        rec = es.to_record(np.linspace(0.25, 1.15, 7))
        rec["fits"] = [{"degree": cfg.model.L,
                        "residual": float(r),
                        "coefficients": [[z.real, z.imag] for z in c]}
                       for r, c in zip(residuals, es.coeffs)]
        atomic_write_text(out / f"spectrum-n{n}.json",
                          json.dumps(rec, indent=2, sort_keys=True))
        for k in range(es.size):
            rows.append((n, k, es.eigs[k].real, es.eigs[k].imag,
                         float(residuals[k])))
    write_csv(out / "spectrum.csv",
              ["sector", "k", "re_eig_at_xstar", "im_eig_at_xstar", "fit_residual"],
              rows)
    print(f"wrote {len(cfg.sectors)} sector files and spectrum.csv to {out}/")
    return EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args)
    ctx = VerifyContext(cfg)
    names = cfg.checks or list(CHECKS)
    reports = []
    checks = []     # per check: inclusive time, and time and builds less shared work
    for name in names:
        t0, b0, first = time.perf_counter(), model.builds, len(ctx.shared)
        try:
            reports.extend(CHECKS[name](ctx))
        except DegenerateSpectrum:
            raise  # aborts the run (exit 3, in main)
        except Exception as exc:  # recorded as a failed report, run continues
            reports.append(VerificationReport(
                check=name, identity=f"exception: {type(exc).__name__}",
                residual=float("inf"), tolerance=0.0, passed=False,
                details={"message": str(exc)}))
        inclusive = time.perf_counter() - t0
        for entry in ctx.shared[first:]:
            entry["check"] = name
        shared = ctx.shared[first:]
        checks.append({"check": name, "inclusive_s": inclusive,
                       "exclusive_s": inclusive - sum(e["seconds"] for e in shared),
                       "exclusive_builds": model.builds - b0
                       - sum(e["builds"] for e in shared)})
    for r in reports:
        r.parameters = {"model": cfg.model.to_dict(), "seed": cfg.seed}
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    atomic_write_text(cfg.output_dir / "reports.jsonl", "\n".join(lines) + "\n")
    atomic_write_text(cfg.output_dir / "profile.json",
                      json.dumps({"shared": ctx.shared, "checks": checks}, indent=2))
    for r in reports:
        print(r.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"\n{len(reports) - n_fail}/{len(reports)} checks passed"
          + (f", {n_fail} FAILED" if n_fail else ""))
    return EXIT_FAIL if n_fail else EXIT_OK


def cmd_bethe(args):
    cfg = _load_config(args)
    out = cfg.output_dir
    tol = cfg.tolerances["bethe_residual"]
    # root-finding and matching are exercised in the low sectors, where the
    # all-up reference state gives the Bethe description
    sectors = [n for n in cfg.sectors if n in (1, 2) and n <= cfg.model.L] or [1, 2]
    try:
        loaded = bt.roots_from_json(Path(args.roots).read_text()) if args.roots else []
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.roots}: {exc}") from exc
    source = SectorSource(cfg, sectors)
    incomplete = False
    rows = []
    for n in sectors:
        es = None if args.roots and args.verify_only else source(n)
        if args.roots:
            sols = [replace(s, residual=bt.solution_residual(s, cfg.model))
                    for s in loaded if s.n == n]
        else:
            sols = bt.solve_bae(es)
        atomic_write_text(out / f"roots-n{n}.json", bt.roots_to_json(sols))
        for i, s in enumerate(sols):
            if not s.residual <= tol:
                incomplete = True
                print(f"sector {n}: root set {i} fails the residual tolerance "
                      f"({s.residual:.2e} > {tol:.0e})")
        if args.verify_only:
            rows.extend((n, i, "-", s.residual, s.source, s.singular)
                        for i, s in enumerate(sols))
            continue
        rep = bt.match_spectrum(cfg.model, n, sols, es)
        for si, ei, dev in rep.pairs:
            rows.append((n, si, ei, dev, sols[si].source, sols[si].singular))
        if not rep.complete:
            incomplete = True
            print(f"sector {n}: {len(rep.unmatched_eigenvalues)} unmatched "
                  f"eigenvalues {rep.unmatched_eigenvalues}, "
                  f"{len(rep.unmatched_solutions)} unmatched solutions")
        else:
            print(f"sector {n}: {len(rep.pairs)} of {es.size} eigenvalues "
                  f"matched, max deviation {rep.max_deviation:.2e}")
    write_csv(out / "bethe-matching.csv",
              ["sector", "solution", "eigenvalue", "deviation_or_residual",
               "source", "singular"], rows)
    return EXIT_FAIL if incomplete else EXIT_OK


def _parse_complex(s):
    s = s.strip().lower().replace("i", "j")
    if s == "j":
        s = "1j"
    return complex(s)


def cmd_potential(args):
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
        omega0 = _parse_complex(args.omega0)
        lo, hi = (float(t) for t in args.range.split(":"))
    except ValueError as exc:
        raise ConfigError(exc) from exc
    outdir = Path(args.out or "out")
    tag = "i" if omega0 == 1j else f"{omega0.real:g}" if omega0.imag == 0 else "c"
    series, labels = [], []
    xs_ref = None
    for g in gammas:
        prof = odes.potential_profile(omega0, g, (lo, hi), args.samples)
        write_csv(outdir / f"potential-om{tag}-g{g:g}.csv", ["x", "re_V"],
                  [(float(x), float(v.real)) for x, v in zip(prof.xs, prof.values)])
        xs_ref = prof.xs
        series.append(prof.values.real)
        labels.append(f"gamma={g:g}")
        if prof.poles:
            print(f"omega0={args.omega0}, gamma={g:g}: poles at "
                  + ", ".join(f"{p:.6f}" for p in prof.poles))
    write_svg_line(outdir / f"potential-om{tag}.svg", xs_ref, series, labels,
                   title=f"potential, omega0 = {args.omega0}")
    print(f"wrote {len(gammas)} profiles and potential-om{tag}.svg to {outdir}/")
    return EXIT_OK


def cmd_report(args):
    path = Path(args.out or "out") / "reports.jsonl"
    if not path.exists():
        print(f"no reports at {path}", file=sys.stderr)
        return EXIT_CONFIG
    reports = [VerificationReport.from_dict(json.loads(line))
               for line in path.read_text().splitlines() if line.strip()]
    for r in reports:
        print(r.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"\n{len(reports) - n_fail}/{len(reports)} checks passed"
          + (f", {n_fail} FAILED" if n_fail else ""))
    return EXIT_FAIL if n_fail else EXIT_OK


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="sixvertex",
        description="Desk-scale six-vertex transfer-matrix laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed override")

    p = sub.add_parser("spectrum", help="brute-force sector spectra + fits")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument("--checks", help="comma-separated check names")
    p.add_argument("--perturb-lambda", dest="perturb_lambda", type=float,
                   help="scale eigenvalues by (1+f): negative-control run")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bethe", help="solve Bethe equations and match spectrum")
    common(p)
    p.add_argument("--roots", help="JSON root file to (re)validate")
    p.add_argument("--verify-only", action="store_true",
                   help="only recompute residuals of supplied roots")
    p.set_defaults(fn=cmd_bethe)

    p = sub.add_parser("potential", help="emit potential profiles (CSV + SVG)")
    p.add_argument("--omega0", default="i")
    p.add_argument("--gammas", default="0.1,0.3,5.43,8.12")
    p.add_argument("--range", default="-8:8")
    p.add_argument("--samples", type=int, default=801)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("report", help="summarize a previous verify run")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateSpectrum as exc:
        print(f"degenerate spectrum: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
