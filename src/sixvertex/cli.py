"""Command-line surface: spectrum | verify | bethe | potential | report.

Exit codes: 0 all-pass, 1 check failures or incomplete matching, 2 config
errors, 3 degenerate-spectrum abort.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's gettext loads it with the first parser, mid-run
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bethe as bt
from . import functional as fx
from . import model, odes
from .model import (ExpSum, monodromy_blocks, sector_indices, transfer, verify_ybe,
                    yba_exchange_residual)
from .reports import (ConfigError, RunConfig, VerificationReport,
                      atomic_write_text, write_csv, write_svg_line)
from .spectrum import (DegenerateSpectrum, complex_pairs, diagonalize_blocks,
                       polynomial_residuals, polynomiality_check, sample_sectors)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_DEGENERATE = 0, 1, 2, 3

# scale of the planted 1%-off controls: the eigenvalue in `compatibility`,
# the wave speed in `pde`, every eigenvalue of a `verify --perturb-lambda` run
_CONTROL_FACTOR = 1.01
# the bounds that several readers share (every other bound is written in its
# row): the margin of the planted controls of `polynomial`, `pde` and
# `schrodinger`, and the residual and spectrum match of a Bethe root set
NEGATIVE_CONTROL, BETHE_RESIDUAL, BETHE_MATCH = 1e-3, 1e-12, 1e-8


# ---------------------------------------------------------------------------
# the verify context

class VerifyContext:
    """Shared state of one verify or bethe run.  The samples of T(x)
    (coefficient blocks from L+1 builds), sector eigensystems, Bethe
    solutions and their oracle matches are built once, on first use, and
    kept for the run; each build is timed as its own entry of `shared`, with
    the monodromy builds it made, so no check is charged for work that
    others reuse.  The samples cover the sectors declared by the checks
    named in `checks` (`_check`).  Each eigensystem is diagonalized in
    memory from the samples; nothing is kept between runs.  A
    negative-control run (`perturb`) scales every eigenvalue by
    `_CONTROL_FACTOR`.  The context keeps the run's seed and draws nothing:
    each check draws from a stream of its own (`check_stream`)."""

    def __init__(self, config: RunConfig, checks, perturb=False):
        self.factor = _CONTROL_FACTOR if perturb else 1.0
        self.params = config.model
        self.seed = config.seed
        self._sampled = sorted({n for name in checks
                                for n in CHECKS[name].sectors(self.params.L)})
        self._samples = None
        self._eigs = {}
        self._bethe = {}
        self._match = {}
        # one entry per memo miss: work, n, seconds, builds (and check, in verify)
        self.shared = []

    def measured(self, work):
        """work(), the `shared` entries it added, and its ledger: inclusive
        seconds, and the seconds and monodromy builds less those entries."""
        t0, b0, first = time.perf_counter(), model.builds, len(self.shared)
        out = work()
        inclusive, nested = time.perf_counter() - t0, self.shared[first:]
        return out, nested, {
            "inclusive_s": inclusive,
            "exclusive_s": inclusive - sum(e["seconds"] for e in nested),
            "exclusive_builds": model.builds - b0 - sum(e["builds"] for e in nested)}

    def _timed(self, work, n, build):
        """build() and its `shared` entry, which leaves out the shared work
        that build() triggers (it has entries of its own, ahead of it)."""
        out, _, ledger = self.measured(build)
        self.shared.append({"work": work, "n": n, "seconds": ledger["exclusive_s"],
                            "builds": ledger["exclusive_builds"]})
        return out, self.shared[-1]

    def samples(self):
        """n -> coefficient blocks of sector n (`sample_sectors`), for every
        sector the run samples."""
        if self._samples is None:
            self._samples, _ = self._timed(
                "samples", None, lambda: sample_sectors(self.params, self._sampled))
        return self._samples

    def eigensystem(self, n):
        """Sector eigensystem; its `shared` entry also records how well
        conditioned it is."""
        if n not in self._eigs:
            es, entry = self._timed("eigensystem", n, lambda: diagonalize_blocks(
                self.params, n, self.samples()[n]))
            entry.update(min_relative_gap=es.min_relative_gap(),
                         biorthogonality_defect=es.biorthogonality_defect())
            self._eigs[n] = es
        return self._eigs[n]

    def lam(self, n, k=slice(None)):
        """Exact eigenvalue sum k of sector n (a slice or index array gives
        their stack, all of the sector by default), scaled by the run's
        factor (1 unless this is a negative-control run)."""
        f = self.eigensystem(n).lam(k)
        return ExpSum(f.ms, f.coeffs * self.factor)

    def bethe(self, n):
        """Root sets of sector n and their conditioning, which also goes on
        the `shared` entry of the solve (timed apart from the eigensystem)."""
        if n not in self._bethe:
            es = self.eigensystem(n)
            sols, entry = self._timed("bethe", n, lambda: bt.solve_bae(es))
            self._bethe[n] = sols, bt.conditioning(sols, es, BETHE_RESIDUAL)
            entry.update(self._bethe[n][1])
        return self._bethe[n]

    def match(self, n):
        """`bt.match_spectrum` of the sector-n root sets against the oracle."""
        if n not in self._match:
            sols, es = self.bethe(n)[0], self.eigensystem(n)
            self._match[n], _ = self._timed(
                "match", n, lambda: bt.match_spectrum(self.params, n, sols, es))
        return self._match[n]


def _report(identity, residual, tol, **details):
    """A row, judged at the bound `tol`; `cmd_verify` names its check."""
    return VerificationReport(check="", identity=identity, residual=float(residual),
                              tolerance=tol, details=details)


def _exceed_report(identity, value, threshold, **details):
    """Record a must-exceed (negative-control) check as a margin residual,
    preserving the pass <=> residual <= tolerance invariant."""
    margin = threshold / max(float(value), 1e-300)
    return _report(identity, margin, 1.0, **details, measured=float(value),
                   must_exceed=float(threshold))


# the registry of `verify`, in run order
CHECKS = {}


def _check(name, sectors=lambda L: ()):
    """Register a check under `name`, with the sectors it reads at chain
    length L (none by default); `cmd_verify` calls it with those sectors and
    its own stream."""
    def register(fn):
        fn.sectors = sectors
        CHECKS[name] = fn
        return fn
    return register


def check_stream(seed, name):
    """The stream of check `name`: its points depend on the run's seed and
    its name alone, not on the other checks of the run (a str seed is hashed
    with SHA-512, whatever PYTHONHASHSEED)."""
    return random.Random(f"{seed}/{name}")


def _uniform(rng, lo, hi, size):
    """size uniform draws from [lo, hi), in order."""
    return np.array([rng.uniform(lo, hi) for _ in range(size)])


# ---------------------------------------------------------------------------
# registered checks

@_check("yang-baxter")
def check_yang_baxter(ctx, sectors, rng):
    draws = []
    for _ in range(50):
        x = _uniform(rng, -1.5, 1.5, 3) + 1j * _uniform(rng, -0.5, 0.5, 3)
        draws.append([*x, rng.uniform(0.2, 1.2) + 1j * rng.uniform(-0.3, 0.3)])
    worst = verify_ybe(*np.transpose(draws)).max()
    return [_report("R12 R13 R23 = R23 R13 R12", worst, 1e-12)]


@_check("transfer-commute", lambda L: range(L + 1))
def check_transfer_commute(ctx, sectors, rng):
    """||[T_i, T_j]||_F / (||T_i||_F ||T_j||_F) over every pair of the run's
    L+1 samples T_i = exp(L x_i) T(x_i), on the sector blocks, where T(x) is
    nonzero; no build.  T(x) is a degree-L trigonometric polynomial that the
    samples span, so this holds exactly when [T(x), T(y)] = 0 for all x and
    y (the factors exp(L x_i) cancel in the ratio)."""
    L = ctx.params.L
    comm = np.zeros((L + 1, L + 1))     # squared norms, summed over sectors
    norm = np.zeros(L + 1)
    for n in sectors:
        S = np.fft.fft(ctx.samples()[n], axis=0)  # the sector's samples
        norm += np.linalg.norm(S, axis=(1, 2)) ** 2
        for i in range(L):              # sample i against every later one
            C = S[i] @ S[i + 1:]
            C -= S[i + 1:] @ S[i]
            comm[i, i + 1:] += np.linalg.norm(C, axis=(1, 2)) ** 2
    i, j = np.triu_indices(L + 1, 1)
    worst = np.sqrt(comm[i, j] / (norm[i] * norm[j])).max()
    return [_report("[T(x), T(y)] = 0", worst, 1e-10, L=L)]


@_check("highest-weight")
def check_highest_weight(ctx, sectors, rng):
    """The vacuum rows read the sector-0 entries of A and D at ten random
    points (one stacked build); C|0> = 0 holds by construction, since C has
    no block from sector 0."""
    p = ctx.params
    xs = np.array([rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-0.3, 0.3)
                   for _ in range(10)])
    A, _, _, D = monodromy_blocks(xs, p)
    lam_a, lam_d = p.lam_a(xs), p.lam_d(xs)
    sc = np.maximum(1.0, np.maximum(np.abs(lam_a), np.abs(lam_d)))
    worst = max((np.abs(A[0][:, 0, 0] - p.phi1 * lam_a) / sc).max(),
                (np.abs(D[0][:, 0, 0] - p.phi2 * lam_d) / sc).max())
    del A, D
    out = [_report("A|0>, D|0> eigen; C|0> = 0", worst, 1e-12)]
    # the trace against its closed form: the trace over each site of
    # R(x - mu_j) is (a + b) times the unit on the auxiliary space, so
    # tr T(x) = (phi1 + phi2) prod_j (a_j + b_j); the magnetization blocks
    # hold by construction.  The deviation is relative to sum |T_ii|, the
    # rounding scale of the sum: near gamma = i pi, a + b nearly vanishes and
    # tr T cancels far below its terms
    x = 0.37
    diag = np.empty(p.dim, dtype=complex)     # summed in basis order
    for n, T in enumerate(transfer([x], p)):
        diag[sector_indices(p.L, n)] = np.diagonal(T[0])
    closed = (p.phi1 + p.phi2) * np.prod([np.sinh(x - m + p.gamma) + np.sinh(x - m)
                                          for m in p.mu])
    out.append(_report("magnetization blocks + trace",
                       abs(diag.sum() - closed) / np.abs(diag).sum(), 1e-14))
    return out


@_check("exchange")
def check_exchange(ctx, sectors, rng):
    """The exchange relations on every pair of four random points (one
    stacked build), relative to the largest max|T(x)|^2 among them."""
    worst, t_norm = yba_exchange_residual(_uniform(rng, -1.0, 1.0, 4), ctx.params)
    return [_report("A-B and D-B subalgebra relations", worst / t_norm ** 2, 1e-11)]


@_check("polynomial", lambda L: range(L + 1))
def check_polynomial(ctx, sectors, rng):
    systems = [ctx.eigensystem(n) for n in sectors]
    worst = max((r.max() for r in polynomial_residuals(systems)), default=0.0)
    out = [_report("u^{L/2} Lam(x) is degree-L in u", worst, 1e-9)]
    # u^{L/2} exp((L+2)x) = u^{L+1}: outside the degree-L form at every L
    _, planted = polynomiality_check(
        lambda x: ctx.params.lam_a(x) + np.exp((ctx.params.L + 2) * x), ctx.params)
    out.append(_exceed_report("planted non-eigenvalue fails fit", planted,
                              NEGATIVE_CONTROL))
    return out


def _sample_points(rng, count):
    return list(_uniform(rng, -0.9, 1.1, count) + 1j * _uniform(rng, -0.2, 0.2, count))


def _random_roots(rng, n):
    """n random roots in the square |re|, |im| < 1."""
    return _uniform(rng, -1, 1, n) + 1j * _uniform(rng, -1, 1, n)


# the linear problem and its determinants need n <= L - 1
@_check("linear-problem", lambda L: range(1, min(3, L - 1) + 1))
def check_linear_problem(ctx, sectors, rng):
    out = []
    for n in sectors:
        es = ctx.eigensystem(n)
        pts = _sample_points(rng, n + 1)
        count = min(es.size, 4)
        res, scale = fx.linear_relation_residual(
            pts, ctx.lam(n, slice(count)), es.left[:count], ctx.params)
        worst = float((np.abs(res) / scale).max())
        out.append(_report(f"sum_i M_i F_{n} = 0 (n={n})", worst, 1e-10, n=n))
    return out


@_check("compatibility", lambda L: range(1, min(3, L - 1) + 1))
def check_compatibility(ctx, sectors, rng):
    """One extended matrix per sector, for a stack of the first four
    eigenvalues, the on-shell eigenvalue 0 and its 1%-off control."""
    out = []
    for n in sectors:
        pts = [0.31, -0.42, 0.55, 0.9][:n + 1]
        es = ctx.eigensystem(n)
        count, f = min(es.size, 4), es.lam(0)
        stack = ExpSum(f.ms, np.vstack([ctx.lam(n, slice(count)).coeffs, f.coeffs,
                                        _CONTROL_FACTOR * f.coeffs]))
        M = fx.extended_matrix(pts, stack, ctx.params)
        dets = np.abs(fx.compatibility_residual(M))
        out.append(_report(f"det extended matrix = 0 (n={n})",
                           dets[:count].max(), 1e-8, n=n))
        # negative control: the 1%-off determinant must sit far above the
        # on-shell value of the same eigenpair and its rounding level
        out.append(_exceed_report(
            f"perturbed eigenvalue separated (n={n})", dets[-1],
            fx.separation_threshold(M[-2]), n=n,
            on_shell=float(dets[-2]), rank_on_shell=int(fx.extended_rank(M[-2]))))
    return out


@_check("nonlinear-n1", lambda L: [1])
def check_nonlinear_n1(ctx, sectors, rng):
    out, p = [], ctx.params
    x0, x1 = 0.31, -0.42
    for n in sectors:
        # the sector, then the cross-check's off-shell eigenvalue: one m-matrix
        f = ctx.eigensystem(n).lam(0)
        bad = ExpSum(f.ms, 1.07 * f.coeffs)
        stack = ExpSum(f.ms, np.vstack([ctx.lam(n).coeffs, bad.coeffs]))
        r = fx.nonlinear_eq_n1_residual(x0, x1, stack, p)
        worst = (np.abs(r) / np.abs(stack(x0) * stack(x1)))[:-1].max()
        out.append(_report("two-point identity", worst, 1e-8))
        # cross-check: identical to the determinant path
        d = np.linalg.det(fx.extended_matrix([x0, x1], bad, p))
        out.append(_report("agrees with determinant path",
                           abs(r[-1] - d) / abs(d), 1e-12))
    return out


@_check("nonlinear-n2", lambda L: range(2, min(2, L) + 1))
def check_nonlinear_n2(ctx, sectors, rng):
    out, pts = [], (0.31, -0.42, 0.55)
    for n in sectors:
        lam = ctx.lam(n)
        scale = np.abs(lam(pts[0]) * lam(pts[1]) * lam(pts[2]))
        worst = (np.abs(fx.nonlinear_eq_n2_residual(*pts, lam, ctx.params)) / scale).max()
        out.append(_report("three-point identity", worst, 1e-8))
    return out


@_check("transport", lambda L: range(2, min(3, L - 1) + 1))
def check_transport(ctx, sectors, rng):
    out = []
    for n in sectors:
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, 0)
        pts = _sample_points(rng, n + 1)
        M = fx.extended_matrix(pts, lam, ctx.params)  # shared by both rows
        loop = abs(fx.transport_loop(list(range(min(n + 1, 4))), M) - 1)
        out.append(_report(f"loop composition = 1 (n={n})", loop, 1e-9, n=n))
        # factorization: transport ratio against directly computed F ratios
        F = fx.f_n([pts[:i] + pts[i + 1:] for i in range(3)], es.left[0],
                   ctx.params)[0]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            tv = fx.transport(i, j, M)
            worst = max(worst, abs(tv - F[j] / F[i]) / abs(tv))
        out.append(_report(f"det ratio = F ratio (n={n})", worst, 1e-8, n=n))
    return out


@_check("reduced-det", lambda L: range(2, min(4, L - 1) + 1))
def check_reduced_det(ctx, sectors, rng):
    out = []
    p = ctx.params
    for n in sectors:
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, min(1, es.size - 1))
        pts = _sample_points(rng, n + 1)
        M = fx.extended_matrix(pts, lam, p)
        worst = 0.0
        for i in range(1, n + 1):
            dv = np.linalg.det(fx.v_matrix(i, M))
            dt = fx.tilde_v_det(i, pts, M, p)
            pred = (p.c * p.b(pts[0] - pts[i])
                    / np.prod([p.b(pts[0] - pts[j]) ** 2 for j in range(1, n + 1)]) * dt)
            worst = max(worst, abs(dv - pred) / abs(dv))
        # permutation identity
        i, j = 1, 2
        sw = list(pts)
        sw[i], sw[j] = sw[j], sw[i]
        d1 = fx.tilde_v_det(i, pts, M, p)
        d2 = fx.tilde_v_det(j, sw, fx.extended_matrix(sw, lam, p), p)
        worst = max(worst, abs(d1 - d2) / abs(d1))
        out.append(_report(f"normalization + permutation (n={n})", worst, 1e-10, n=n))
        spread = fx.tilde_v_spread(1, pts, lam, p)
        out.append(_report(f"det independent of x_i (n={n})", spread, 1e-9, n=n))
    return out


@_check("theta", lambda L: range(2, min(2, L - 1) + 1))
def check_theta(ctx, sectors, rng):
    out = []
    for n in sectors:
        lam = ctx.lam(n, 0)
        pts = [0.31, -0.42, 0.55][:n + 1]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2)]:
            worst = max(worst, fx.theta_conservation(i, j, pts, lam, ctx.params))
        out.append(_report(f"d_j theta_ij = 0 (n={n})", worst, 1e-6, n=n))
    return out


# G+/G- = d/dy log(lam_minus(y) sinh(y + w1)) at y = 0, and lam_minus(w1) = 0
# is the root's Bethe equation: over the L zeros w_k of lam_minus, G+/G- =
# -sum_{k > 1} coth(w_k).  At L = 1 none is left, G+ = 0 at every x and the
# log is undefined: the identity needs n <= L - 1
@_check("conserved-n1", lambda L: range(1, min(1, L - 1) + 1))
def check_conserved_n1(ctx, sectors, rng):
    out = []
    p = ctx.params
    for n in sectors:
        v, _, _ = fx.conserved_n1(np.array([0.2, 0.9]), ctx.lam(n), p)
        out.append(_report("constancy across x", np.abs(v[:, 0] - v[:, 1]).max(), 1e-8))
        # closed form against a Bethe root
        sols, _ = ctx.bethe(n)
        pairs = ctx.match(n).pairs
        worst = 0.0
        if pairs:
            val, _, _ = fx.conserved_n1(0.4, ctx.lam(n, [ei for _, ei, _ in pairs]), p)
            target = np.array([fx.conserved_n1_closed_form(sols[si].roots[0], p)
                               for si, _, _ in pairs])
            worst = (np.abs(np.exp(val) - target) / np.abs(target)).max()
        out.append(_report("exp equals coth(w1) + dlm(0)/lm(0)", worst, 1e-7))
    return out


@_check("bethe", lambda L: range(1, min(2, L) + 1))
def check_bethe_match(ctx, sectors, rng):
    out = []
    for n in sectors:
        sols, cond = ctx.bethe(n)
        res = max((s.residual for s in sols), default=0.0)
        out.append(_report(f"residue-form residuals (n={n})", res, BETHE_RESIDUAL, n=n,
                           solutions=len(sols), **cond))
        rep = ctx.match(n)
        out.append(_report(f"spectrum match (n={n})", rep.residual, BETHE_MATCH, n=n,
                           unmatched_eigenvalues=rep.unmatched_eigenvalues,
                           unmatched_solutions=rep.unmatched_solutions,
                           unmatched_no_degree_n_q=len(rep.no_degree_n_q), **cond))
    return out


@_check("riccati-n1", lambda L: [1])
def check_riccati_n1(ctx, sectors, rng):
    out, xs = [], np.array([0.43, 0.9])
    for n in sectors:
        lam = ctx.lam(n)
        r = odes.riccati_lambda_residual(lam, xs, ctx.params)
        out.append(_report("first-order quadratic ODE", np.abs(r).max(), 1e-7))
        s = odes.sigma1_residual(lam, xs, ctx.params)
        out.append(_report("surface form agrees",
                           np.maximum(np.abs(s), np.abs(r - s)).max(), 1e-7))
    return out


# points of the `sigma2` row; x = -gamma/2 is avoided, where every determinant
# term of some reference odd-L eigenvalues vanishes and the row reads 0/0
_SIGMA2_POINTS = np.array([0.63, -0.213])


@_check("sigma2", lambda L: range(2, min(2, L) + 1))
def check_sigma2(ctx, sectors, rng):
    out = []
    for n in sectors:
        worst = np.abs(odes.sigma2_residual(ctx.lam(n), _SIGMA2_POINTS, ctx.params)).max()
        out.append(_report("second-order ODE (coalescing reduction)", worst, 1e-6))
    return out


@_check("riccati2", lambda L: range(2, min(2, L) + 1))
def check_riccati2(ctx, sectors, rng):
    out = []
    for n in sectors if ctx.params.reference_point else ():
        worst = np.abs(odes.riccati2_residual(ctx.lam(n), np.array([0.43, 0.8]),
                                              ctx.params)).max()
        out.append(_report("standard Riccati at untwisted point", worst, 1e-6))
    return out


@_check("riccati-h")
def check_riccati_h(ctx, sectors, rng):
    worst = 0.0
    for n in (1, 2, 3):
        roots = _random_roots(rng, n)
        worst = max(worst, odes.riccati_h_residual(
            bt.CothSum(roots), np.array([0.37, -0.6]), n).max())
    return [_report("coth-sum ODE chain (orders 1..3)", worst, 1e-9)]


@_check("upsilon")
def check_upsilon(ctx, sectors, rng):
    worst = 0.0
    for n in range(1, 7):
        roots = _random_roots(rng, n)
        worst = max(worst, odes.upsilon_annihilation(roots, n))
    return [_report("annihilator of exp(-int h), exact", worst, 1e-13)]


# points of the pointwise `u-equation` and `schrodinger` rows
_ODE_POINTS = np.array([0.2, 0.45, 0.7, 0.95, 1.2])


@_check("u-equation", lambda L: [1])
def check_u_equation(ctx, sectors, rng):
    """With u'/u = Lam/(c lam_minus), the linear second-order equation for u
    divided by u is minus the `riccati-n1` numerator: judged pointwise on
    the Bethe-root evaluator."""
    sols = [s for n in sectors for s in ctx.bethe(n)[0] if not s.singular]
    if not sols:
        return []
    ev = bt.RootEigenvalue(sols[0].roots, ctx.params)
    worst = np.abs(odes.riccati_lambda_residual(ev, _ODE_POINTS, ctx.params)).max()
    return [_report("linearized second-order form", worst, 1e-6)]


# the travelling waves: speed and the points X = chi - omega tau judged
_PDE_OMEGA, _PDE_POINTS = 0.8, np.array([0.37, -0.6])


@_check("pde")
def check_pde(ctx, sectors, rng):
    out, draws = [], []
    for n in (1, 2, 3):
        roots = _random_roots(rng, n)
        draws.append(roots)
        worst = odes.pde_travelling_wave_residual(n, roots, _PDE_OMEGA, _PDE_POINTS).max()
        out.append(_report(f"travelling-wave reduction order {n}", worst, 1e-10))
    # negative control: the waves move at omega, the PDEs' coefficients use
    # 1.01 omega
    control = min(odes.pde_travelling_wave_residual(
        len(roots), roots, _PDE_OMEGA, _PDE_POINTS,
        omega_pde=_CONTROL_FACTOR * _PDE_OMEGA).max() for roots in draws)
    out.append(_exceed_report("wave speed off by 1% rejected", control, NEGATIVE_CONTROL))
    return out


@_check("schrodinger", lambda L: range(2, min(2, L) + 1))
def check_schrodinger(ctx, sectors, rng):
    out = []
    for n in sectors if ctx.params.reference_point else ():
        worst = odes.schrodinger_map_residual(ctx.lam(n), _ODE_POINTS, ctx.params).max()
        out.append(_report("psi'' + (V - 1) psi = 0, energy fixed", worst, 1e-5))
        broken = odes.schrodinger_map_residual(ctx.lam(n, 0), _ODE_POINTS, ctx.params,
                                               potential_scale=1.1).max()
        out.append(_exceed_report("scaled potential rejected", broken, NEGATIVE_CONTROL))
    return out


@_check("root-of-unity", lambda L: range(L + 1))
def check_root_of_unity(ctx, sectors, rng):
    if not ctx.params.reference_point:
        return []
    power = odes.omega0_power_deviation(ctx.params)
    out = [_report("O^L = Id", power, 1e-12)]
    devs = odes.omega0_sector_deviations(ctx.params, {n: ctx.lam(n) for n in sectors})
    worst = max((v.max() for v in devs.values()), default=0.0)
    out.append(_report("(Lam(0)/c^L)^L = 1", worst, 1e-9))
    return out


@_check("potential")
def check_potential(ctx, sectors, rng):
    g = 0.3
    well, barrier = (odes.potential_profile(om0, g, (-6, 6), 601) for om0 in (1.0, 1j))
    wvals, bvals = (prof.values[np.isfinite(prof.values)] for prof in (well, barrier))
    out = [_report("V real on the real axis",
                   max(np.abs(wvals.imag).max(), np.abs(bvals.imag).max()), 1e-12)]
    ok_barrier = bool((bvals.real > -1e-12).all()) and not barrier.poles
    pole_dev = min((abs(px + g / 2) for px in well.poles), default=float("inf"))
    ok_well = bool((wvals.real < 1e-12).all())
    shape_penalty = 0.0 if (ok_barrier and ok_well) else 1.0
    out.append(_report("barrier for om0=i, well with pole for om0=1",
                       pole_dev + shape_penalty, 1e-6))
    return out


# ---------------------------------------------------------------------------
# commands

def _load_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict({})
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)    # validated as the config key
    return cfg


def cmd_spectrum(args):
    cfg = _load_config(args)
    out = args.out
    samples = sample_sectors(cfg.model, range(cfg.model.L + 1))
    systems = [diagonalize_blocks(cfg.model, n, blocks) for n, blocks in samples.items()]
    # exact coefficients, and their residual against direct builds of T(x)
    rows = []
    for es, residuals in zip(systems, polynomial_residuals(systems)):
        n, residuals = es.n, residuals.tolist()
        rec = es.to_record()
        rec["fits"] = [{"residual": r, "coefficients": c}
                       for r, c in zip(residuals, complex_pairs(es.coeffs))]
        atomic_write_text(out / f"spectrum-n{n}.json", json.dumps(rec, sort_keys=True))
        for k, ((re, im), r) in enumerate(zip(rec["eigenvalues_at_x_star"], residuals)):
            rows.append((n, k, re, im, r))
    write_csv(out / "spectrum.csv",
              ["sector", "k", "re_eig_at_xstar", "im_eig_at_xstar", "fit_residual"],
              rows)
    print(f"wrote {len(systems)} sector files and spectrum.csv to {out}/")
    return EXIT_OK


def _print_rows(reports):
    """Print each row and the pass count; the exit code of the run."""
    for r in reports:
        print(r.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"\n{len(reports) - n_fail}/{len(reports)} checks passed"
          + (f", {n_fail} FAILED" if n_fail else ""))
    return EXIT_FAIL if n_fail else EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args)
    names = args.checks or list(CHECKS)
    ctx = VerifyContext(cfg, names, perturb=args.perturb_lambda)
    reports, checks = [], []    # checks: per check, its `measured` ledger

    def rows(check, rng):
        try:
            return check(ctx, check.sectors(cfg.model.L), rng)
        except DegenerateSpectrum:
            raise  # aborts the run (exit 3, in main)
        except Exception as exc:  # recorded as a failed report, run continues
            return [_report(f"exception: {type(exc).__name__}", float("inf"), 0.0,
                            message=str(exc))]
    for name in names:
        rng = check_stream(ctx.seed, name)
        out, shared, ledger = ctx.measured(lambda: rows(CHECKS[name], rng))
        for r in out:
            r.check = name
        reports.extend(out)
        for entry in shared:
            entry["check"] = name
        checks.append({"check": name, **ledger})
    for r in reports:
        r.parameters = {"model": cfg.model.to_dict(), "seed": cfg.seed}
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
    atomic_write_text(args.out / "reports.jsonl", "\n".join(lines) + "\n")
    atomic_write_text(args.out / "profile.json",
                      json.dumps({"shared": ctx.shared, "checks": checks}, indent=2))
    return _print_rows(reports)


def cmd_bethe(args):
    cfg = _load_config(args)
    out = args.out
    sectors = list(CHECKS["bethe"].sectors(cfg.model.L))
    if args.verify_only and not args.roots:
        raise ConfigError("--verify-only judges the root sets of --roots; none given")
    if args.roots:
        try:
            loaded = bt.roots_from_json(Path(args.roots).read_text(), cfg.model)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{args.roots}: {exc}") from exc
        held = sorted({s.n for s in loaded})
        if not held or not set(held) <= set(sectors):
            raise ConfigError(f"{args.roots}: holds root sets of sectors {held}, "
                              f"bethe judges sectors {sectors}")
        sectors = held
    # samples the sectors of the `bethe` check, on first use: --verify-only builds nothing
    ctx = VerifyContext(cfg, ["bethe"])
    incomplete = False
    rows = []
    for n in sectors:
        if args.roots:
            sols = [replace(s, residual=bt.solution_residual(s, cfg.model))
                    for s in loaded if s.n == n]
        else:
            sols = ctx.bethe(n)[0]
        atomic_write_text(out / f"roots-n{n}.json", bt.roots_to_json(sols))
        for i, s in enumerate(sols):
            if not s.residual <= BETHE_RESIDUAL:
                incomplete = True
                print(f"sector {n}: root set {i} fails the residual tolerance "
                      f"({s.residual:.2e} > {BETHE_RESIDUAL:.0e})")
        if args.verify_only:
            rows.extend((n, i, "-", s.residual, s.source, s.singular)
                        for i, s in enumerate(sols))
            continue
        es = ctx.eigensystem(n)
        rep = bt.match_spectrum(cfg.model, n, sols, es) if args.roots else ctx.match(n)
        rows.extend((n, si, ei, dev, sols[si].source, sols[si].singular)
                    for si, ei, dev in rep.pairs)
        incomplete |= not rep.residual <= BETHE_MATCH
        print(f"sector {n}: {len(rep.pairs)} of {es.size} eigenvalues matched, max "
              f"deviation {rep.max_deviation:.2e}, {len(rep.no_degree_n_q)} without a "
              f"degree-{n} Q; unmatched: eigenvalues {rep.unmatched_eigenvalues}, "
              f"root sets {rep.unmatched_solutions}")
    write_csv(out / "bethe-matching.csv",
              ["sector", "solution", "eigenvalue", "deviation_or_residual",
               "source", "singular"], rows)
    return EXIT_FAIL if incomplete else EXIT_OK


def _parse_complex(s):
    return complex(s.strip().lower().replace("i", "j"))


def cmd_potential(args):
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
        omega0 = _parse_complex(args.omega0)
        lo, hi = (float(t) for t in args.range.split(":"))
    except ValueError as exc:
        raise ConfigError(exc) from exc
    if (args.samples < 2 or not lo < hi or omega0 == 0
            or not np.isfinite([omega0, lo, hi, *gammas]).all()
            or np.abs(np.sinh(gammas)).min() < 1e-14):
        raise ConfigError(
            f"potential needs --samples >= 2, a finite range lo:hi with lo < hi, a finite "
            f"nonzero --omega0 and finite --gammas with sinh(gamma) != 0, got {args.samples} "
            f"samples on {args.range}, omega0 {args.omega0}, gammas {args.gammas}")
    outdir = args.out
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
    path = args.out / "reports.jsonl"
    if not path.exists():
        print(f"no reports at {path}", file=sys.stderr)
        return EXIT_CONFIG
    reports = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            try:
                reports.append(VerificationReport.from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}, line {number}: not a report: {exc}") from exc
    return _print_rows(reports)


def _names(text):
    """The names of `--checks`: known, each once, and at least one (an empty
    selection would run them all)."""
    names = [c.strip() for c in text.split(",") if c.strip()]
    if not names or len(set(names)) < len(names) or not set(names) <= set(CHECKS):
        raise argparse.ArgumentTypeError(
            f"{text!r} must name one or more of {sorted(CHECKS)}, each once")
    return names


def _out_dir(text):
    """The directory of `--out`: a path that is a file, or lies under one, is refused."""
    path = Path(text)
    if any(p.exists() and not p.is_dir() for p in (path, *path.parents)):
        raise argparse.ArgumentTypeError(f"{text!r} is a file or lies under one; "
                                         "--out names a directory")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="sixvertex",
        description="Desk-scale six-vertex transfer-matrix laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file: model and seed")

    p = sub.add_parser("spectrum", help="brute-force sector spectra + fits")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument("--seed", type=int, help="seed of the random check points")
    p.add_argument("--checks", type=_names, help="comma-separated check names")
    p.add_argument("--perturb-lambda", action="store_true",
                   help="scale every eigenvalue by 1.01: negative-control run")
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
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("report", help="summarize a previous verify run")
    p.set_defaults(fn=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", type=_out_dir, default="out",
                       help="output directory (default: out/)")

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
