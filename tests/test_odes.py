import numpy as np
import pytest

from conftest import scenario
from sixvertex.model import ExpSum, ModelParams
from sixvertex.bethe import CothSum, RootEigenvalue, solve_bae
from sixvertex.cli import TOLERANCES
from sixvertex.spectrum import diagonalize_sector
from sixvertex import odes


def plus_exp(fit, c):
    """Off-shell probe x -> fit(x) + c exp(x), exact in every derivative:
    frequency 1 is outside the even-L frequencies of the fit."""
    return ExpSum(np.append(fit.ms, 1), np.append(fit.coeffs, c))


class TestUpsilon:
    def test_coefficients_small_orders(self):
        # order 1: z^2 - 1; order 2: z^3 - 4z; order 3: (z^2-1)(z^2-9)
        assert odes.upsilon_coefficients(1) == [-1, 0, 1]
        assert odes.upsilon_coefficients(2) == [0, -4, 0, 1]
        assert odes.upsilon_coefficients(3) == [9, 0, -10, 0, 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_annihilation_exact(self, n, rng):
        roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        assert odes.upsilon_annihilation(roots, n) == 0.0


class TestRiccatiChainH:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coth_sums_satisfy_chain(self, n, rng):
        roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        h = CothSum(roots)
        xs = np.array([0.37, -0.61, 1.2])
        assert np.abs(odes.riccati_h_residual(h, xs, n)).max() < 1e-9
        # over the point array as per point, at every order (off shell when
        # it is not n)
        got = np.array([odes.riccati_h_residual(h, xs, m) for m in (1, 2, 3)])
        want = np.array([[odes.riccati_h_residual(h, x, m) for x in xs] for m in (1, 2, 3)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_first_order_exact(self):
        h = CothSum([0.4 - 0.2j])
        assert abs(odes.riccati_h_residual(h, 0.9, 1)) < 1e-13


class TestRiccatiLambda:
    def test_all_sector1_eigenvalues(self, params, oracle):
        for k in range(4):
            fit = oracle.fit(params, 1, k)
            for x in (0.43, 0.9, -0.3):
                assert abs(odes.riccati_lambda_residual(fit, x, params)) < 1e-7
                assert abs(odes.sigma1_residual(fit, x, params)) < 1e-7

    def test_two_forms_agree(self, params, oracle):
        # algebraically identical packagings, independent transcriptions
        fit = oracle.fit(params, 1, 2)
        for x in (0.43, -0.8):
            r = odes.riccati_lambda_residual(fit, x, params)
            s = odes.sigma1_residual(fit, x, params)
            assert abs(r - s) < 1e-12

    def test_generic_parameters(self, generic_params, oracle):
        fit = oracle.fit(generic_params, 1, 0)
        assert abs(odes.riccati_lambda_residual(
            fit, 0.43, generic_params)) < 1e-7

    def test_closed_form_family_satisfies_identity(self, params):
        # one-root eigenvalue formula solves the ODE for *arbitrary* root
        ev = RootEigenvalue([0.8 + 0.6j], params)
        assert abs(odes.riccati_lambda_residual(ev, 0.3, params)) < 1e-11

    def test_two_point_identity_limit(self, params, oracle):
        # the two-point identity at x1 = x0 + eps approaches -Sigma1 at O(eps)
        from sixvertex.functional import nonlinear_eq_n1_residual
        bad = plus_exp(oracle.fit(params, 1, 1), 0.2)
        x = 0.4
        val, scale, _ = odes.coalescing_reduction(bad, x, params, n=1)
        for eps in (1e-3, 1e-4):
            r = nonlinear_eq_n1_residual(x, x + eps, bad, params)
            assert abs(r - val) < 40 * eps * max(abs(val), 1.0)


# points of the pointwise sector-2 rows of `verify`
ODE_POINTS, SIGMA2_POINTS = (0.2, 0.45, 0.7, 0.95, 1.2), (0.63, -0.213)

# stacked calls on an eigenvalue stack and an array of points: the model
# point at L=6, the points, and the call (outputs on a last axis)
STACKED_CALLS = {
    "coalescing-n2": ("generic", SIGMA2_POINTS, lambda lam, x, p: np.stack(
        odes.coalescing_reduction(lam, x, p, n=2), axis=-1)),
    "coalescing-n1": ("generic", SIGMA2_POINTS, lambda lam, x, p: np.stack(
        odes.coalescing_reduction(lam, x, p, n=1), axis=-1)),
    "sigma2": ("reference", SIGMA2_POINTS, odes.sigma2_residual),
    "riccati2": ("reference", ODE_POINTS, odes.riccati2_residual),
    "schrodinger": ("reference", ODE_POINTS, odes.schrodinger_map_residual),
}


class TestCoalescingReduction:
    def test_batch_equals_single_evaluator_calls(self, oracle):
        # one call for every evaluator of a sector and every point (one
        # m-matrix, one Cauchy rule), as one call per evaluator and point gives
        for name, (point, xs, call) in STACKED_CALLS.items():
            p = ModelParams.from_dict(scenario(6, point))
            es = oracle.eigensystem(p, 2)
            # the sector's stack with an off-shell row too: a term in exp(x) on row 0
            off = plus_exp(es.lam(0), 0.1)
            coeffs = np.vstack([np.append(es.coeffs, np.zeros((es.size, 1)), axis=1),
                                off.coeffs])
            got = call(ExpSum(off.ms, coeffs), np.array(xs), p)
            want = np.array([[call(ExpSum(off.ms, c), x, p) for x in xs] for c in coeffs])
            assert got.shape == want.shape, name
            # each output to 1e-13 of its largest entry
            scale = np.abs(want).max(axis=(0, 1))
            assert (np.abs(got - want).max(axis=(0, 1)) <= 1e-13 * scale).all(), name

    def test_root_set_stack_equals_single_calls(self):
        # a stack of root sets, shape (S, 1, n), broadcasts against the points
        p = ModelParams.from_dict(scenario(6, "reference"))
        roots = np.array([[0.37 + 0.41j, -0.52 + 0.18j], [0.1 - 0.3j, 0.6 + 0.2j],
                          [-0.25 + 0.5j, 0.45 - 0.35j]])
        for call, xs in ((odes.riccati2_residual, ODE_POINTS),
                         (odes.sigma2_residual, SIGMA2_POINTS)):
            got = call(RootEigenvalue(roots[:, None], p), np.array(xs), p)
            want = np.array([[call(RootEigenvalue(w, p), x, p) for x in xs] for w in roots])
            assert got.shape == want.shape
            # the residuals are relative to their largest term already
            assert np.abs(got - want).max() <= 1e-13

    def test_n1_matches_closed_form(self, params, oracle):
        fit = oracle.fit(params, 1, 1)
        x = 0.43
        val, scale, spur = odes.coalescing_reduction(fit, x, params, n=1)
        lp = params.lam_plus(x)
        j0 = ((np.cosh(params.gamma) * lp) ** 2
              - (params.c * params.lam_minus(x)) ** 2
              + params.c * np.cosh(params.gamma)
              * (lp * params.lam_minus(x, 1) - params.lam_minus(x) * params.lam_plus(x, 1)))
        j1 = 2 * np.cosh(params.gamma) * lp + params.c * params.lam_minus(x, 1)
        sig1 = (-params.c * params.lam_minus(x) * fit(x, 1) + j1 * fit(x)
                - fit(x) ** 2 - j0)
        assert abs(val + sig1) < 1e-10 * max(abs(sig1), abs(val), 1.0)
        assert spur < 1e-10 * scale

    def test_direction_independence(self, params, oracle):
        bad = plus_exp(oracle.fit(params, 2, 1), 0.1)
        v1, _, _ = odes.coalescing_reduction(bad, 0.5, params, n=2,
                                             ts=(0.0, 1.0, -1.0))
        v2, _, _ = odes.coalescing_reduction(bad, 0.5, params, n=2,
                                             ts=(0.0, 0.6, -1.3))
        assert abs(v1 - v2) < 1e-8 * abs(v1)

    def test_higher_lambda_derivatives_do_not_enter(self, params, oracle):
        fit = oracle.fit(params, 2, 0)

        def padded(x, d=0):
            if d > 2:
                raise AssertionError("order above 2 requested")
            return fit(x, d)

        val, scale, _ = odes.coalescing_reduction(padded, 0.63, params, n=2)
        assert abs(val) < 1e-12 * scale


def det_near_coalescence(lam, x, p, delta=1e-12):
    """det(m - diag(Lambda)) at the points x, x + delta, x - delta in 120-digit
    arithmetic, m transcribed from its closed form and Lambda the exact sum
    (not its Taylor polynomial).  The determinant is even in delta (the
    last two points swap), so it meets its delta -> 0 limit to O(delta^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        g, phi1, phi2 = (mpmath.mpc(z) for z in (p.gamma, p.phi1, p.phi2))
        mu = [mpmath.mpc(m) for m in p.mu]
        x0, d = mpmath.mpf(x), mpmath.mpf(delta)
        pts = [x0, x0 + d, x0 - d]

        def ratio(u, v):
            return mpmath.sinh(u - v + g) / mpmath.sinh(u - v)

        def entry(i, j):
            xj, rest = pts[j], [pts[k] for k in range(3) if k not in (i, j)]
            pa = phi1 * mpmath.fprod([mpmath.sinh(xj - m + g) for m in mu]
                                     + [ratio(y, xj) for y in rest])
            pd = phi2 * mpmath.fprod([mpmath.sinh(xj - m) for m in mu]
                                     + [ratio(xj, y) for y in rest])
            if i != j:
                return mpmath.sinh(g) / mpmath.sinh(pts[i] - xj) * (pa - pd)
            return pa + pd - mpmath.fsum(mpmath.mpc(c) * mpmath.exp(int(k) * xj)
                                         for k, c in zip(lam.ms, lam.coeffs))

        return complex(mpmath.det(mpmath.matrix(
            [[entry(i, j) for j in range(3)] for i in range(3)])))


class TestCoalescingOracle:
    """The finite part of the reduction against an independent limit.  The
    oracle's Lambda carries every derivative and the reduction's only the
    first two, so the third and higher do not enter the finite part."""

    @pytest.mark.parametrize("point", ["reference", "generic"])
    def test_matches_high_precision_limit(self, point, params, generic_params, oracle):
        p = params if point == "reference" else generic_params
        bad = plus_exp(oracle.fit(p, 2, 1), 0.1)
        for x in (0.63, -0.35):
            val, scale, _ = odes.coalescing_reduction(bad, x, p, n=2)
            assert abs(val - det_near_coalescence(bad, x, p)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [0, 3])
    def test_orders_other_than_one_two_rejected(self, n, params, oracle):
        with pytest.raises(ValueError, match="n in"):
            odes.coalescing_reduction(oracle.fit(params, 2, 0), 0.5, params, n=n)


class TestSigma2:
    def test_all_sector2_eigenvalues_reference(self, params, oracle):
        for k in range(6):
            fit = oracle.fit(params, 2, k)
            for x in (0.63, -0.35):
                assert abs(odes.sigma2_residual(fit, x, params)) < 1e-6

    def test_generic_parameters(self, generic_params, oracle):
        for k in (0, 3):
            fit = oracle.fit(generic_params, 2, k)
            assert abs(odes.sigma2_residual(
                fit, 0.63, generic_params)) < 1e-6
        # on a stack: the reduction's values over its scales
        lams = oracle.eigensystem(generic_params, 2).lam()
        vals, scales, _ = odes.coalescing_reduction(lams, 0.63, generic_params, n=2)
        assert np.array_equal(odes.sigma2_residual(lams, 0.63, generic_params),
                              vals / scales)

    def test_closed_form_family(self, generic_params):
        # arbitrary two-root closed form solves the identity exactly
        ev = RootEigenvalue([0.37 + 0.41j, -0.52 + 0.18j], generic_params)
        for x in (0.3, 0.9):
            assert abs(odes.sigma2_residual(
                ev, x, generic_params)) < 1e-10

    def test_sector1_eigenvalue_rejected(self, params, oracle):
        fit = oracle.fit(params, 1, 0)
        assert abs(odes.sigma2_residual(fit, 0.63, params)) > 1e-3


class TestRiccati2:
    def test_all_sector2_eigenvalues(self, params, oracle):
        for k in range(6):
            fit = oracle.fit(params, 2, k)
            for x in (0.43, 0.8):
                assert abs(odes.riccati2_residual(fit, x, params)) < 1e-6

    def test_k2_spot_value(self, params):
        x, lam0 = 0.57, 0.9 + 0.1j
        _, _, _, k2 = odes.riccati2_coefficients(x, lam0, params)
        expect = params.lam_a(0.0) * np.sinh(x + params.gamma) ** 2 \
            - lam0 * np.sinh(x) ** 2
        assert abs(k2 - expect) < 1e-14 * abs(expect)

    def test_gated_to_reference_point(self, generic_params):
        with pytest.raises(ValueError):
            odes.riccati2_coefficients(0.4, 1.0, generic_params)

    def test_consistency_with_sigma2(self, params, oracle):
        # both sector-2 identities hold simultaneously for the same fit
        fit = oracle.fit(params, 2, 4)
        assert abs(odes.sigma2_residual(fit, 0.43, params)) < 1e-6
        assert abs(odes.riccati2_residual(fit, 0.43, params)) < 1e-6


class TestUEquation:
    """The linear equation for u, divided by u, is minus the sector-1 Riccati
    numerator, so the row judges riccati_lambda_residual on the Bethe-root
    evaluator pointwise."""

    def test_closed_form_root(self, params):
        sols = solve_bae(diagonalize_sector(params, 1))
        ev = RootEigenvalue(sols[0].roots, params)
        for x in (0.2, 0.45, 0.7, 0.95, 1.2):
            assert abs(odes.riccati_lambda_residual(ev, x, params)) < 1e-12

    def test_vanishing_lam_minus(self):
        # this twist puts a zero of lam_minus on the segment [0.2, 1.2]; the
        # pointwise form has no division by lam_minus, so it holds there too
        p = ModelParams(L=2, gamma=0.7, phi1=1.0, phi2=5.0)
        xs = np.linspace(0.2, 1.2, 401)
        lams = np.abs([p.lam_minus(x) for x in xs])
        assert lams.min() < 1e-2 * lams.max()  # hazard present
        sols = solve_bae(diagonalize_sector(p, 1))
        ev = RootEigenvalue(sols[0].roots, p)
        for x in (0.2, 0.45, 0.7, 0.95, 1.2, xs[int(np.argmin(lams))]):
            assert abs(odes.riccati_lambda_residual(ev, x, p)) < 1e-12


class TestPDE:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_residual_and_speed_control(self, n, rng):
        # psi = h(chi - omega tau) solves the order-n PDE at every point; with
        # 1.01 omega in the coefficients it does not
        xs = np.array([0.37, -0.6])
        for _ in range(20):
            roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            got = np.array([odes.pde_travelling_wave_residual(n, roots, 0.8, xs, omega_pde=w)
                            for w in (0.8, 0.808)])
            assert got[0].max() < 1e-12 and got[1].max() > 1e-3
            # over the point array as per point, to 1e-13 of the largest term
            # (the residual's unit)
            want = np.array([[odes.pde_travelling_wave_residual(n, roots, 0.8, x, omega_pde=w)
                              for x in xs] for w in (0.8, 0.808)])
            assert np.abs(got - want).max() <= 1e-13

    def test_real_roots(self):
        # real roots put poles on the real axis; between them the residual is
        # still exact
        for x in (0.2, 0.7, 1.3):
            assert odes.pde_travelling_wave_residual(2, [0.45, 0.9], 0.8, x) < 1e-12

    def test_coth_sum_fourth_derivative(self):
        roots = [0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.7j]
        h = CothSum(roots)
        e, xs = 1e-5, np.array([0.37, -0.6])
        fd = (h(xs + e, 3) - h(xs - e, 3)) / (2 * e)
        assert (np.abs(h(xs, 4) - fd) < 1e-6 * np.abs(fd)).all()
        with pytest.raises(ValueError):
            h(xs, 5)
        # every order over the point array as per point, and over a stack of
        # root sets (shape (2, 1, 3), points (2,): values (2, 2)) as per set
        stack = CothSum(np.array([roots, roots[::-1]])[:, None])
        for d in range(5):
            want = np.array([h(x, d) for x in xs])
            assert np.abs(h(xs, d) - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(stack(xs, d)[0], h(xs, d))
            assert np.abs(stack(xs, d)[1] - want).max() <= 1e-13 * np.abs(want).max()


class TestPotential:
    def test_barrier_closed_form(self, rng):
        # omega0 = i simplifies to +3c^2/(a^2+b^2)^2: positive and bounded
        g = 0.3
        for _ in range(5):
            x = rng.uniform(-4, 4)
            v = odes.potential_v(x, 1j, g)
            expect = 3 * np.sinh(g) ** 2 / (np.sinh(x + g) ** 2
                                            + np.sinh(x) ** 2) ** 2
            assert abs(v - expect) < 1e-12 * abs(expect)
            assert v.real > 0 and abs(v.imag) < 1e-12

    def test_well_pole_location_exact(self):
        for g in (0.1, 0.3, 5.43, 8.12):
            prof = odes.potential_profile(1.0, g, (-8, 8), 401)
            assert len(prof.poles) == 1
            assert abs(prof.poles[0] + g / 2) < 1e-12
            vals = prof.values[np.isfinite(prof.values)]
            assert (vals.real < 1e-12).all()

    def test_no_real_poles_for_barrier(self):
        for g in (0.1, 0.3, 5.43, 8.12):
            prof = odes.potential_profile(1j, g, (-8, 8), 401)
            assert prof.poles == []
            vals = prof.values[np.isfinite(prof.values)]
            assert (vals.real > -1e-12).all()
            assert np.abs(vals.imag).max() < 1e-12

    def test_decay_at_infinity(self):
        for om0 in (1.0, 1j):
            assert abs(odes.potential_v(8.0, om0, 0.5)) < 1e-6
            assert abs(odes.potential_v(-8.0, om0, 0.5)) < 1e-6

    def test_barrier_center_shifts_negative_with_gamma(self):
        centers = {}
        for g in (0.3, 8.12):
            prof = odes.potential_profile(1j, g, (-12, 6), 3601)
            k = int(np.nanargmax(prof.values.real))
            centers[g] = prof.xs[k]
        assert centers[8.12] < centers[0.3]


class TestSchrodinger:
    XS = (0.2, 0.45, 0.7, 0.95, 1.2)

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_every_eigenvalue(self, L):
        # psi''/psi = r' + r^2 with the energy fixed at 1, for every sector-2
        # eigenvalue (not the best one)
        p = ModelParams(L=L, gamma=0.7)
        es = diagonalize_sector(p, 2)
        for k in range(es.size):
            for x in self.XS:
                assert odes.schrodinger_map_residual(es.lam(k), x, p) < 1e-10

    @pytest.mark.parametrize("L", [6, 7, 9])
    def test_critical_within_tolerance(self, L):
        # at gamma = 0.7i zeros of alpha, the poles of r, come within 0.005
        # to 0.05 of the row's points; the Cauchy rule runs on the pole-free
        # P and Q of r = P/Q
        p = ModelParams(L=L, gamma=0.7j)
        worst = odes.schrodinger_map_residual(diagonalize_sector(p, 2).lam(),
                                              np.array(self.XS), p).max()
        assert worst <= TOLERANCES["schrodinger"]

    def test_scaled_potential_rejected(self, params, oracle):
        fit = oracle.fit(params, 2, 1)
        assert odes.schrodinger_map_residual(fit, 0.7, params) < 1e-9
        broken = max(odes.schrodinger_map_residual(fit, x, params,
                                                   potential_scale=1.1)
                     for x in self.XS)
        assert broken > 1e-3

    def test_gated_to_reference_point(self, generic_params, oracle):
        fit = oracle.fit(generic_params, 2, 0)
        with pytest.raises(ValueError):
            odes.schrodinger_map_residual(fit, 0.7, generic_params)


class TestRootOfUnity:
    def test_L2_is_site_swap(self):
        p = ModelParams(L=2, gamma=0.7)
        from sixvertex.model import sector_indices, transfer
        P = np.zeros((4, 4))
        for s in range(4):
            b0, b1 = (s >> 1) & 1, s & 1
            P[(b1 << 1) | b0, s] = 1.0
        for n, T in enumerate(transfer([0.0], p)):
            idx = sector_indices(2, n)
            assert np.abs(T[0] / p.c ** 2 - P[np.ix_(idx, idx)]).max() < 1e-14

    @pytest.mark.parametrize("L", [2, 3, 4, 6])
    def test_power_identity(self, L):
        assert odes.omega0_power_deviation(ModelParams(L=L, gamma=0.7)) < 1e-12

    def test_sector_phases(self, params, oracle):
        systems = [oracle.eigensystem(params, n) for n in range(params.L + 1)]
        devs = odes.omega0_sector_deviations(params, {es.n: es.lam() for es in systems})
        assert sorted(devs) == list(range(params.L + 1))
        assert [len(v) for v in devs.values()] == [es.size for es in systems]
        assert max(v.max() for v in devs.values()) < 1e-9

    def test_gated_to_reference_point(self, generic_params):
        with pytest.raises(ValueError):
            odes.omega0_power_deviation(generic_params)
        with pytest.raises(ValueError):
            odes.omega0_sector_deviations(generic_params, {})
