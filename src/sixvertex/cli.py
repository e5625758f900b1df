"""Command-line surface: spectrum | verify | bethe | potential | report.

Exit codes: 0 all-pass, 1 check failures or incomplete matching, 2 config
errors, 3 degenerate-spectrum abort.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's gettext loads it with the first parser, mid-run
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bethe as bt
from . import functional as fx
from . import model, odes
from ._rng import PCG64Stream
from .model import (ExpSum, monodromy_blocks, sector_indices, transfer, verify_ybe,
                    yba_exchange_residual)
from .reports import (ConfigError, RunConfig, VerificationReport,
                      atomic_write_text, write_csv, write_svg_line)
from .spectrum import (DegenerateSpectrum, complex_pairs, diagonalize_blocks,
                       polynomial_residuals, polynomiality_check, sample_sectors)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_DEGENERATE = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# the verify context

class VerifyContext:
    """Shared state of one verify run.  The samples of T(x) (coefficient
    blocks from L+1 builds), sector eigensystems, Bethe solutions and their
    oracle matches are built once, on first use, and kept for the run; each
    build is timed as its own entry of `shared`, with the monodromy builds
    it made, so no check is charged for work that others reuse.  The samples
    cover the configured sectors, and every sector 0..L when the run has
    `transfer-commute`.  Each eigensystem is diagonalized in memory from
    the samples; nothing is kept between runs."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.params = config.model
        self.rng = PCG64Stream(config.seed)
        self._sampled = (range(self.params.L + 1)
                         if "transfer-commute" in (config.checks or CHECKS)
                         else config.sectors)
        self._samples = None
        self._eigs = {}
        self._bethe = {}
        self._match = {}
        # one entry per memo miss: work, n, seconds, builds (cmd_verify adds
        # the check)
        self.shared = []

    def _timed(self, work, n, build):
        """build() and its `shared` entry, which leaves out the shared work
        that build() triggers (it has entries of its own, ahead of it)."""
        t0, b0, first = time.perf_counter(), model.builds, len(self.shared)
        out = build()
        nested = self.shared[first:]
        self.shared.append({
            "work": work, "n": n,
            "seconds": time.perf_counter() - t0 - sum(e["seconds"] for e in nested),
            "builds": model.builds - b0 - sum(e["builds"] for e in nested)})
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
        their stack, all of the sector by default), scaled by
        1 + perturb_lambda (0 unless this is a negative-control run)."""
        f = self.eigensystem(n).lam(k)
        return ExpSum(f.ms, f.coeffs * (1 + self.config.perturb_lambda))

    def bethe(self, n):
        """Root sets of sector n and their conditioning, which also goes on
        the `shared` entry of the solve (timed apart from the eigensystem)."""
        if n not in self._bethe:
            es = self.eigensystem(n)
            sols, entry = self._timed("bethe", n, lambda: bt.solve_bae(es))
            self._bethe[n] = sols, bt.conditioning(sols, es,
                                                   TOLERANCES["bethe_residual"])
            entry.update(self._bethe[n][1])
        return self._bethe[n]

    def match(self, n):
        """`bt.match_spectrum` of the sector-n root sets against the oracle."""
        if n not in self._match:
            sols, es = self.bethe(n)[0], self.eigensystem(n)
            self._match[n], _ = self._timed(
                "match", n, lambda: bt.match_spectrum(self.params, n, sols, es))
        return self._match[n]


def _report(check, identity, residual, tol, **details):
    return VerificationReport(
        check=check, identity=identity, residual=float(residual), tolerance=tol,
        details=details)


def _exceed_report(check, identity, value, threshold, **details):
    """Record a must-exceed (negative-control) check as a margin residual,
    preserving the pass <=> residual <= tolerance invariant."""
    margin = threshold / max(float(value), 1e-300)
    details["measured"] = float(value)
    details["must_exceed"] = float(threshold)
    return VerificationReport(
        check=check, identity=identity, residual=margin, tolerance=1.0,
        details=details)


# ---------------------------------------------------------------------------
# registered checks

def check_yang_baxter(ctx):
    draws = []
    for _ in range(50):
        x = ctx.rng.uniform(-1.5, 1.5, 3) + 1j * ctx.rng.uniform(-0.5, 0.5, 3)
        draws.append([*x, ctx.rng.uniform(0.2, 1.2) + 1j * ctx.rng.uniform(-0.3, 0.3)])
    worst = verify_ybe(*np.transpose(draws)).max()
    return [_report("yang-baxter", "R12 R13 R23 = R23 R13 R12", worst,
                    TOLERANCES["yang_baxter"])]


def check_transfer_commute(ctx):
    """||[T_i, T_j]||_F / (||T_i||_F ||T_j||_F) over every pair of the run's
    L+1 samples T_i = exp(L x_i) T(x_i), on the sector blocks, where T(x) is
    nonzero; no build.  T(x) is a degree-L trigonometric polynomial that the
    samples span, so this holds exactly when [T(x), T(y)] = 0 for all x and
    y (the factors exp(L x_i) cancel in the ratio)."""
    L = ctx.params.L
    comm = np.zeros((L + 1, L + 1))     # squared norms, summed over sectors
    norm = np.zeros(L + 1)
    for blocks in ctx.samples().values():
        S = np.fft.fft(blocks, axis=0)  # the sector's samples
        norm += np.linalg.norm(S, axis=(1, 2)) ** 2
        for i in range(L):              # sample i against every later one
            C = S[i] @ S[i + 1:]
            C -= S[i + 1:] @ S[i]
            comm[i, i + 1:] += np.linalg.norm(C, axis=(1, 2)) ** 2
    i, j = np.triu_indices(L + 1, 1)
    worst = np.sqrt(comm[i, j] / (norm[i] * norm[j])).max()
    return [_report("transfer-commute", "[T(x), T(y)] = 0", worst,
                    TOLERANCES["transfer_commute"], L=L)]


def check_highest_weight(ctx):
    """The vacuum rows read the sector-0 entries of A and D at ten random
    points (one stacked build); C|0> = 0 holds by construction, since C has
    no block from sector 0."""
    p = ctx.params
    xs = np.array([ctx.rng.uniform(-1.0, 1.0) + 1j * ctx.rng.uniform(-0.3, 0.3)
                   for _ in range(10)])
    A, _, _, D = monodromy_blocks(xs, p)
    lam_a, lam_d = p.lam_a(xs), p.lam_d(xs)
    sc = np.maximum(1.0, np.maximum(np.abs(lam_a), np.abs(lam_d)))
    worst = max((np.abs(A[0][:, 0, 0] - p.phi1 * lam_a) / sc).max(),
                (np.abs(D[0][:, 0, 0] - p.phi2 * lam_d) / sc).max())
    del A, D
    out = [_report("highest-weight", "A|0>, D|0> eigen; C|0> = 0", worst,
                   TOLERANCES["highest_weight"])]
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
    out.append(_report("highest-weight", "magnetization blocks + trace",
                       abs(diag.sum() - closed) / np.abs(diag).sum(),
                       TOLERANCES["structure"]))
    return out


def check_exchange(ctx):
    """The exchange relations on every pair of four random points (one
    stacked build), relative to the largest max|T(x)|^2 among them."""
    worst, t_norm = yba_exchange_residual(ctx.rng.uniform(-1.0, 1.0, 4), ctx.params)
    return [_report("exchange", "A-B and D-B subalgebra relations",
                    worst / t_norm ** 2, TOLERANCES["exchange"])]


def check_polynomial(ctx):
    systems = [ctx.eigensystem(n) for n in ctx.config.sectors]
    worst = max((r.max() for r in polynomial_residuals(systems)), default=0.0)
    out = [_report("polynomial", "u^{L/2} Lam(x) is degree-L in u", worst,
                   TOLERANCES["polynomial_fit"])]
    # u^{L/2} exp((L+2)x) = u^{L+1}: outside the degree-L form at every L
    _, planted = polynomiality_check(
        lambda x: ctx.params.lam_a(x) + np.exp((ctx.params.L + 2) * x), ctx.params)
    out.append(_exceed_report("polynomial", "planted non-eigenvalue fails fit",
                              planted, TOLERANCES["negative_control"]))
    return out


def _small_sectors(ctx, cap=3):
    return [n for n in ctx.config.sectors if 1 <= n <= min(cap, ctx.params.L - 1)]


def _sample_points(ctx, count):
    return list(ctx.rng.uniform(-0.9, 1.1, count)
                + 1j * ctx.rng.uniform(-0.2, 0.2, count))


def check_linear_problem(ctx):
    out = []
    for n in _small_sectors(ctx):
        es = ctx.eigensystem(n)
        pts = _sample_points(ctx, n + 1)
        count = min(es.size, 4)
        res, scale = fx.linear_relation_residual(
            pts, ctx.lam(n, slice(count)), es.left[:count], ctx.params)
        worst = float((np.abs(res) / scale).max())
        out.append(_report("linear-problem", f"sum_i M_i F_{n} = 0 (n={n})",
                           worst, TOLERANCES["linear_problem"], n=n))
    return out


# scale of the planted 1%-off controls: the eigenvalue in `compatibility`,
# the wave speed in `pde`
_CONTROL_FACTOR = 1.01


def check_compatibility(ctx):
    """One extended matrix per sector, for a stack of the first four
    eigenvalues, the on-shell eigenvalue 0 and its 1%-off control."""
    out = []
    for n in _small_sectors(ctx):
        pts = [0.31, -0.42, 0.55, 0.9][:n + 1]
        es = ctx.eigensystem(n)
        count, f = min(es.size, 4), es.lam(0)
        stack = ExpSum(f.ms, np.vstack([ctx.lam(n, slice(count)).coeffs, f.coeffs,
                                        _CONTROL_FACTOR * f.coeffs]))
        M = fx.extended_matrix(pts, stack, ctx.params)
        dets = np.abs(fx.compatibility_residual(M))
        out.append(_report("compatibility", f"det extended matrix = 0 (n={n})",
                           dets[:count].max(), TOLERANCES["compatibility"], n=n))
        # negative control: the 1%-off determinant must sit far above the
        # on-shell value of the same eigenpair and its rounding level
        out.append(_exceed_report(
            "compatibility", f"perturbed eigenvalue separated (n={n})",
            dets[-1], fx.separation_threshold(M[-2]), n=n,
            on_shell=float(dets[-2]), rank_on_shell=int(fx.extended_rank(M[-2]))))
    return out


def check_nonlinear(ctx):
    out = []
    p = ctx.params
    if 1 in ctx.config.sectors:
        x0, x1 = 0.31, -0.42
        # the sector, then the cross-check's off-shell eigenvalue: one m-matrix
        f = ctx.eigensystem(1).lam(0)
        bad = ExpSum(f.ms, 1.07 * f.coeffs)
        stack = ExpSum(f.ms, np.vstack([ctx.lam(1).coeffs, bad.coeffs]))
        r = fx.nonlinear_eq_n1_residual(x0, x1, stack, p)
        worst = (np.abs(r) / np.abs(stack(x0) * stack(x1)))[:-1].max()
        out.append(_report("nonlinear-n1", "two-point identity", worst,
                           TOLERANCES["nonlinear_n1"]))
        # cross-check: identical to the determinant path
        d = np.linalg.det(fx.extended_matrix([x0, x1], bad, p))
        out.append(_report("nonlinear-n1", "agrees with determinant path",
                           abs(r[-1] - d) / abs(d), TOLERANCES["nonlinear_n1_det"]))
    if 2 in ctx.config.sectors and ctx.params.L >= 2:
        pts = (0.31, -0.42, 0.55)
        lam = ctx.lam(2)
        scale = np.abs(lam(pts[0]) * lam(pts[1]) * lam(pts[2]))
        worst = (np.abs(fx.nonlinear_eq_n2_residual(*pts, lam, p)) / scale).max()
        out.append(_report("nonlinear-n2", "three-point identity", worst,
                           TOLERANCES["nonlinear_n2"]))
    return out


def check_transport(ctx):
    out = []
    for n in _small_sectors(ctx):
        if n < 2:
            continue
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, 0)
        pts = _sample_points(ctx, n + 1)
        M = fx.extended_matrix(pts, lam, ctx.params)  # shared by both rows
        loop = abs(fx.transport_loop(list(range(min(n + 1, 4))), M) - 1)
        out.append(_report("transport", f"loop composition = 1 (n={n})", loop,
                           TOLERANCES["transport_loop"], n=n))
        # factorization: transport ratio against directly computed F ratios
        F = fx.f_n([pts[:i] + pts[i + 1:] for i in range(3)], es.left[0],
                   ctx.params)[0]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            tv = fx.transport(i, j, M)
            worst = max(worst, abs(tv - F[j] / F[i]) / abs(tv))
        out.append(_report("transport", f"det ratio = F ratio (n={n})", worst,
                           TOLERANCES["factorization"], n=n))
    return out


def check_reduced_det(ctx):
    out = []
    p = ctx.params
    for n in [n for n in ctx.config.sectors if 2 <= n <= min(4, p.L - 1)]:
        es = ctx.eigensystem(n)
        lam = ctx.lam(n, min(1, es.size - 1))
        pts = _sample_points(ctx, n + 1)
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
        out.append(_report("reduced-det", f"normalization + permutation (n={n})",
                           worst, TOLERANCES["reduced_det"], n=n))
        spread = fx.tilde_v_spread(1, pts, lam, p)
        out.append(_report("reduced-det", f"det independent of x_i (n={n})",
                           spread, TOLERANCES["reduced_det_spread"], n=n))
    return out


def check_theta(ctx):
    out = []
    for n in _small_sectors(ctx, cap=2):
        if n < 2:
            continue
        lam = ctx.lam(n, 0)
        pts = [0.31, -0.42, 0.55][:n + 1]
        worst = 0.0
        for (i, j) in [(0, 1), (1, 2)]:
            worst = max(worst, fx.theta_conservation(i, j, pts, lam, ctx.params))
        out.append(_report("theta", f"d_j theta_ij = 0 (n={n})", worst,
                           TOLERANCES["theta_conservation"], n=n))
    return out


def check_conserved_n1(ctx):
    if 1 not in ctx.config.sectors:
        return []
    out = []
    p = ctx.params
    v, _, _ = fx.conserved_n1(np.array([0.2, 0.9]), ctx.lam(1), p)
    out.append(_report("conserved-n1", "constancy across x",
                       np.abs(v[:, 0] - v[:, 1]).max(),
                       TOLERANCES["conserved_constancy"]))
    # closed form against a Bethe root
    sols, _ = ctx.bethe(1)
    pairs = ctx.match(1).pairs
    worst = 0.0
    if pairs:
        val, _, _ = fx.conserved_n1(0.4, ctx.lam(1, [ei for _, ei, _ in pairs]), p)
        target = np.array([fx.conserved_n1_closed_form(sols[si].roots[0], p)
                           for si, _, _ in pairs])
        worst = (np.abs(np.exp(val) - target) / np.abs(target)).max()
    out.append(_report("conserved-n1", "exp equals coth(w1) + dlm(0)/lm(0)",
                       worst, TOLERANCES["conserved_closed_form"]))
    return out


def check_bethe_match(ctx):
    out = []
    p = ctx.params
    for n in [n for n in ctx.config.sectors if n in (1, 2) and n <= p.L]:
        sols, cond = ctx.bethe(n)
        es = ctx.eigensystem(n)
        res = max((s.residual for s in sols), default=0.0)
        out.append(_report("bethe", f"residue-form residuals (n={n})", res,
                           TOLERANCES["bethe_residual"], n=n,
                           solutions=len(sols), **cond))
        # an eigenvalue without a degree-n Q has no root set to match; the
        # TQ system is solved again for the unmatched eigenvalues only
        rep = ctx.match(n)
        no_q = bt.no_degree_n_q(es, rep.unmatched_eigenvalues)
        unmatched = [k for k in rep.unmatched_eigenvalues if k not in no_q]
        excused = len(rep.unmatched_eigenvalues) - len(unmatched)
        matched_dev = max((d for *_, d in rep.pairs), default=0.0)
        n_unmatched = len(unmatched) + len(rep.unmatched_solutions)
        out.append(_report("bethe", f"spectrum match (n={n})",
                           max(matched_dev, float(n_unmatched)),
                           TOLERANCES["bethe_match"], n=n,
                           unmatched_eigenvalues=unmatched,
                           unmatched_solutions=rep.unmatched_solutions,
                           unmatched_no_degree_n_q=excused, **cond))
    return out


def check_riccati_n1(ctx):
    if 1 not in ctx.config.sectors:
        return []
    lam, xs = ctx.lam(1), np.array([0.43, 0.9])
    r = odes.riccati_lambda_residual(lam, xs, ctx.params)
    out = [_report("riccati-n1", "first-order quadratic ODE",
                   np.abs(r).max(), TOLERANCES["riccati_n1"])]
    s = odes.sigma1_residual(lam, xs, ctx.params)
    out.append(_report("riccati-n1", "surface form agrees",
                       np.maximum(np.abs(s), np.abs(r - s)).max(),
                       TOLERANCES["sigma1"]))
    return out


# points of the `sigma2` row; x = -gamma/2 is avoided, where every determinant
# term of some reference odd-L eigenvalues vanishes and the row reads 0/0
_SIGMA2_POINTS = np.array([0.63, -0.213])


def check_sigma2(ctx):
    if 2 not in ctx.config.sectors or ctx.params.L < 2:
        return []
    worst = np.abs(odes.sigma2_residual(ctx.lam(2), _SIGMA2_POINTS, ctx.params)).max()
    return [_report("sigma2", "second-order ODE (coalescing reduction)",
                    worst, TOLERANCES["sigma2"])]


def check_riccati2(ctx):
    if 2 not in ctx.config.sectors or not ctx.params.reference_point:
        return []
    worst = np.abs(odes.riccati2_residual(ctx.lam(2), np.array([0.43, 0.8]),
                                          ctx.params)).max()
    return [_report("riccati2", "standard Riccati at untwisted point", worst,
                    TOLERANCES["riccati2"])]


def check_riccati_h(ctx):
    worst = 0.0
    for n in (1, 2, 3):
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        worst = max(worst, np.abs(odes.riccati_h_residual(
            bt.CothSum(roots), np.array([0.37, -0.6]), n)).max())
    return [_report("riccati-h", "coth-sum ODE chain (orders 1..3)", worst,
                    TOLERANCES["riccati_h"])]


def check_upsilon(ctx):
    worst = 0.0
    for n in range(1, 7):
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        worst = max(worst, odes.upsilon_annihilation(roots, n))
    return [_report("upsilon", "annihilator of exp(-int h), exact", worst,
                    TOLERANCES["upsilon"])]


# points of the pointwise `u-equation` and `schrodinger` rows
_ODE_POINTS = np.array([0.2, 0.45, 0.7, 0.95, 1.2])


def check_u_equation(ctx):
    """With u'/u = Lam/(c lam_minus), the linear second-order equation for u
    divided by u is minus the `riccati-n1` numerator: judged pointwise on
    the Bethe-root evaluator."""
    if 1 not in ctx.config.sectors:
        return []
    sols = [s for s in ctx.bethe(1)[0] if not s.singular]
    if not sols:
        return []
    ev = bt.RootEigenvalue(sols[0].roots, ctx.params)
    worst = np.abs(odes.riccati_lambda_residual(ev, _ODE_POINTS, ctx.params)).max()
    return [_report("u-equation", "linearized second-order form", worst,
                    TOLERANCES["u_equation"])]


# the travelling waves: speed and the points X = chi - omega tau judged
_PDE_OMEGA, _PDE_POINTS = 0.8, np.array([0.37, -0.6])


def check_pde(ctx):
    out, draws = [], []
    for n in (1, 2, 3):
        roots = ctx.rng.uniform(-1, 1, n) + 1j * ctx.rng.uniform(-1, 1, n)
        draws.append(roots)
        worst = odes.pde_travelling_wave_residual(n, roots, _PDE_OMEGA, _PDE_POINTS).max()
        out.append(_report("pde", f"travelling-wave reduction order {n}", worst,
                           TOLERANCES["pde"]))
    # negative control: the waves move at omega, the PDEs' coefficients use
    # 1.01 omega
    control = min(odes.pde_travelling_wave_residual(
        len(roots), roots, _PDE_OMEGA, _PDE_POINTS,
        omega_pde=_CONTROL_FACTOR * _PDE_OMEGA).max() for roots in draws)
    out.append(_exceed_report("pde", "wave speed off by 1% rejected", control,
                              TOLERANCES["negative_control"]))
    return out


def check_schrodinger(ctx):
    if 2 not in ctx.config.sectors or not ctx.params.reference_point:
        return []
    worst = odes.schrodinger_map_residual(ctx.lam(2), _ODE_POINTS, ctx.params).max()
    out = [_report("schrodinger", "psi'' + (V - 1) psi = 0, energy fixed",
                   worst, TOLERANCES["schrodinger"])]
    broken = odes.schrodinger_map_residual(ctx.lam(2, 0), _ODE_POINTS, ctx.params,
                                           potential_scale=1.1).max()
    out.append(_exceed_report("schrodinger", "scaled potential rejected",
                              broken, TOLERANCES["negative_control"]))
    return out


def check_root_of_unity(ctx):
    if not ctx.params.reference_point:
        return []
    power = odes.omega0_power_deviation(ctx.params)
    out = [_report("root-of-unity", "O^L = Id", power,
                   TOLERANCES["root_of_unity_power"])]
    devs = odes.omega0_sector_deviations(
        ctx.params, {n: ctx.lam(n) for n in ctx.config.sectors})
    worst = max((v.max() for v in devs.values()), default=0.0)
    out.append(_report("root-of-unity", "(Lam(0)/c^L)^L = 1", worst,
                       TOLERANCES["root_of_unity_sector"]))
    return out


def check_potential(ctx):
    g = 0.3
    xs = np.linspace(-6, 6, 301)
    worst_im = 0.0
    for om0 in (1.0, 1j):
        vals = odes.potential_v(xs[np.abs(np.sinh(xs + g) ** 2 / om0
                                          - om0 * np.sinh(xs) ** 2) > 1e-3], om0, g)
        worst_im = max(worst_im, float(np.abs(vals.imag).max()))
    out = [_report("potential", "V real on the real axis", worst_im,
                   TOLERANCES["potential_reality"])]
    barrier = odes.potential_profile(1j, g, (-6, 6), 601)
    vals = barrier.values[np.isfinite(barrier.values)]
    ok_barrier = bool((vals.real > -1e-12).all()) and not barrier.poles
    well = odes.potential_profile(1.0, g, (-6, 6), 601)
    wvals = well.values[np.isfinite(well.values)]
    pole_dev = min((abs(px + g / 2) for px in well.poles), default=float("inf"))
    ok_well = bool((wvals.real < 1e-12).all())
    shape_penalty = 0.0 if (ok_barrier and ok_well) else 1.0
    out.append(_report("potential", "barrier for om0=i, well with pole for om0=1",
                       pole_dev + shape_penalty, TOLERANCES["potential_shape"]))
    return out


# the bound of each row, by name: a row passes when its residual is at most
# its bound (must-exceed rows compare a margin with 1.0 instead)
TOLERANCES = {
    "yang_baxter": 1e-12,
    "transfer_commute": 1e-10,
    "highest_weight": 1e-12,
    "exchange": 1e-11,
    "structure": 1e-14,
    "polynomial_fit": 1e-9,
    "linear_problem": 1e-10,
    "compatibility": 1e-8,
    "nonlinear_n1": 1e-8,
    "nonlinear_n1_det": 1e-12,
    "nonlinear_n2": 1e-8,
    "negative_control": 1e-3,
    "transport_loop": 1e-9,
    "factorization": 1e-8,
    "reduced_det": 1e-10,
    "reduced_det_spread": 1e-9,
    "theta_conservation": 1e-6,
    "conserved_constancy": 1e-8,
    "conserved_closed_form": 1e-7,
    "bethe_residual": 1e-12,
    "bethe_match": 1e-8,
    "riccati_n1": 1e-7,
    "sigma1": 1e-7,
    "sigma2": 1e-6,
    "riccati2": 1e-6,
    "riccati_h": 1e-9,
    "upsilon": 1e-13,
    "u_equation": 1e-6,
    "pde": 1e-10,
    "schrodinger": 1e-5,
    "root_of_unity_power": 1e-12,
    "root_of_unity_sector": 1e-9,
    "potential_reality": 1e-12,
    "potential_shape": 1e-6,
}


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
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.reference()
    # the options given, each validated (by `replace`) as the key it overrides
    given = {"output_dir": args.out, "seed": getattr(args, "seed", None),
             "checks": getattr(args, "checks", None),
             "perturb_lambda": getattr(args, "perturb_lambda", None)}
    cfg = replace(cfg, **{k: v for k, v in given.items() if v is not None})
    unknown = [c for c in cfg.checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    return cfg


def cmd_spectrum(args):
    cfg = _load_config(args)
    out = cfg.output_dir
    samples = sample_sectors(cfg.model, cfg.sectors)
    systems = [diagonalize_blocks(cfg.model, n, samples[n]) for n in cfg.sectors]
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
    print(f"wrote {len(cfg.sectors)} sector files and spectrum.csv to {out}/")
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
    return _print_rows(reports)


def cmd_bethe(args):
    cfg = _load_config(args)
    out = cfg.output_dir
    tol = TOLERANCES["bethe_residual"]
    # root-finding and matching are exercised in the low sectors, where the
    # all-up reference state gives the Bethe description
    sectors = [n for n in cfg.sectors if n in (1, 2)]
    if not sectors:
        raise ConfigError(f"bethe needs sector 1 or 2 in sectors, got {cfg.sectors}")
    try:
        loaded = bt.roots_from_json(Path(args.roots).read_text()) if args.roots else []
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.roots}: {exc}") from exc
    # --verify-only with --roots needs no eigensystem, so no samples
    samples = (None if args.roots and args.verify_only
               else sample_sectors(cfg.model, sectors))
    incomplete = False
    rows = []
    for n in sectors:
        es = None if samples is None else diagonalize_blocks(cfg.model, n, samples[n])
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
    return complex(s.strip().lower().replace("i", "j"))


def cmd_potential(args):
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
        omega0 = _parse_complex(args.omega0)
        lo, hi = (float(t) for t in args.range.split(":"))
    except ValueError as exc:
        raise ConfigError(exc) from exc
    if (args.samples < 2 or not lo < hi or omega0 == 0
            or not np.isfinite([omega0, lo, hi, *gammas]).all()):
        raise ConfigError(
            f"potential needs --samples >= 2, a finite range lo:hi with lo < hi, a "
            f"finite nonzero --omega0 and finite --gammas, got {args.samples} samples "
            f"on {args.range}, omega0 {args.omega0}, gammas {args.gammas}")
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
    reports = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            try:
                reports.append(VerificationReport.from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}, line {number}: not a report: {exc}") from exc
    return _print_rows(reports)


def _names(text):
    return [c.strip() for c in text.split(",") if c.strip()]


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="sixvertex",
        description="Desk-scale six-vertex transfer-matrix laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("spectrum", help="brute-force sector spectra + fits")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run verification checks")
    common(p)
    p.add_argument("--seed", type=int, help="seed of the random check points")
    p.add_argument("--checks", type=_names, help="comma-separated check names")
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
