import numpy as np
import pytest

from sixvertex.model import ExpSum, HighestWeightData, ModelParams
from sixvertex.bethe import CothSum, RootEigenvalue, solve_bae
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
        for x in (0.37, -0.61, 1.2):
            assert abs(odes.riccati_h_residual(h, x, n)) < 1e-9

    def test_first_order_exact(self):
        h = CothSum([0.4 - 0.2j])
        assert abs(odes.riccati_h_residual(h, 0.9, 1)) < 1e-13


class TestRiccatiLambda:
    def test_all_sector1_eigenvalues(self, params, hw, oracle):
        for k in range(4):
            fit = oracle.fit(params, 1, k)
            for x in (0.43, 0.9, -0.3):
                assert abs(odes.riccati_lambda_residual(fit, x, hw, params)) < 1e-7
                assert abs(odes.sigma1_residual(fit, x, hw, params)) < 1e-7

    def test_two_forms_agree(self, params, hw, oracle):
        # algebraically identical packagings, independent transcriptions
        fit = oracle.fit(params, 1, 2)
        for x in (0.43, -0.8):
            r = odes.riccati_lambda_residual(fit, x, hw, params)
            s = odes.sigma1_residual(fit, x, hw, params)
            assert abs(r - s) < 1e-12

    def test_generic_parameters(self, generic_params, generic_hw, oracle):
        fit = oracle.fit(generic_params, 1, 0)
        assert abs(odes.riccati_lambda_residual(
            fit, 0.43, generic_hw, generic_params)) < 1e-7

    def test_closed_form_family_satisfies_identity(self, params, hw):
        # one-root eigenvalue formula solves the ODE for *arbitrary* root
        ev = RootEigenvalue([0.8 + 0.6j], params)
        assert abs(odes.riccati_lambda_residual(ev, 0.3, hw, params)) < 1e-11

    def test_two_point_identity_limit(self, params, hw, oracle):
        # the two-point identity at x1 = x0 + eps approaches -Sigma1 at O(eps)
        from sixvertex.functional import nonlinear_eq_n1_residual
        bad = plus_exp(oracle.fit(params, 1, 1), 0.2)
        x = 0.4
        val, scale, _ = odes.coalescing_reduction(bad, x, hw, params, n=1)
        for eps in (1e-3, 1e-4):
            r = nonlinear_eq_n1_residual(x, x + eps, bad, hw, params)
            assert abs(r - val) < 40 * eps * max(abs(val), 1.0)


class TestCoalescingReduction:
    def test_batch_equals_single_evaluator_calls(self, oracle):
        # one m-matrix for every evaluator, as one call per evaluator gives
        from conftest import generic_model
        p = ModelParams.from_dict(generic_model(6, 1))
        h = HighestWeightData(p)
        es = oracle.eigensystem(p, 2)
        # the sector's stack with an off-shell row too: a term in exp(x) on row 0
        off = plus_exp(es.lam(0), 0.1)
        coeffs = np.vstack([np.append(es.coeffs, np.zeros((es.size, 1)), axis=1),
                            off.coeffs])
        lams = ExpSum(off.ms, coeffs)
        for n, x in ((2, 0.63), (1, -0.213)):
            batched = odes.coalescing_reduction(lams, x, h, p, n=n)
            single = np.array([odes.coalescing_reduction(ExpSum(off.ms, c), x, h, p, n=n)
                               for c in coeffs])       # (eigenvalue, output)
            for got, want in zip(batched, single.T):
                assert got.shape == (len(coeffs),)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        vals, scales, _ = odes.coalescing_reduction(lams, 0.63, h, p, n=2)
        assert np.array_equal(odes.sigma2_residual(lams, 0.63, h, p), vals / scales)

    def test_n1_matches_closed_form(self, params, hw, oracle):
        fit = oracle.fit(params, 1, 1)
        x = 0.43
        val, scale, spur = odes.coalescing_reduction(fit, x, hw, params, n=1)
        lp = hw.lam_plus(x)
        j0 = ((np.cosh(params.gamma) * lp) ** 2
              - (params.c * hw.lam_minus(x)) ** 2
              + params.c * np.cosh(params.gamma)
              * (lp * hw.lam_minus(x, 1) - hw.lam_minus(x) * hw.lam_plus(x, 1)))
        j1 = 2 * np.cosh(params.gamma) * lp + params.c * hw.lam_minus(x, 1)
        sig1 = (-params.c * hw.lam_minus(x) * fit(x, 1) + j1 * fit(x)
                - fit(x) ** 2 - j0)
        assert abs(val + sig1) < 1e-10 * max(abs(sig1), abs(val), 1.0)
        assert spur < 1e-10 * scale

    def test_direction_independence(self, params, hw, oracle):
        bad = plus_exp(oracle.fit(params, 2, 1), 0.1)
        v1, _, _ = odes.coalescing_reduction(bad, 0.5, hw, params, n=2,
                                             ts=(0.0, 1.0, -1.0))
        v2, _, _ = odes.coalescing_reduction(bad, 0.5, hw, params, n=2,
                                             ts=(0.0, 0.6, -1.3))
        assert abs(v1 - v2) < 1e-8 * abs(v1)

    def test_higher_lambda_derivatives_do_not_enter(self, params, hw, oracle):
        fit = oracle.fit(params, 2, 0)

        def padded(x, d=0):
            if d > 2:
                raise AssertionError("order above 2 requested")
            return fit(x, d)

        val, scale, _ = odes.coalescing_reduction(padded, 0.63, hw, params, n=2)
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
    def test_matches_high_precision_limit(self, point, params, hw, generic_params,
                                          generic_hw, oracle):
        p, h = (params, hw) if point == "reference" else (generic_params, generic_hw)
        bad = plus_exp(oracle.fit(p, 2, 1), 0.1)
        for x in (0.63, -0.35):
            val, scale, _ = odes.coalescing_reduction(bad, x, h, p, n=2)
            assert abs(val - det_near_coalescence(bad, x, p)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [0, 3])
    def test_orders_other_than_one_two_rejected(self, n, params, hw, oracle):
        with pytest.raises(ValueError, match="n in"):
            odes.coalescing_reduction(oracle.fit(params, 2, 0), 0.5, hw, params, n=n)


class TestSigma2:
    def test_all_sector2_eigenvalues_reference(self, params, hw, oracle):
        for k in range(6):
            fit = oracle.fit(params, 2, k)
            for x in (0.63, -0.35):
                assert abs(odes.sigma2_residual(fit, x, hw, params)) < 1e-6

    def test_generic_parameters(self, generic_params, generic_hw, oracle):
        for k in (0, 3):
            fit = oracle.fit(generic_params, 2, k)
            assert abs(odes.sigma2_residual(
                fit, 0.63, generic_hw, generic_params)) < 1e-6

    def test_closed_form_family(self, generic_params, generic_hw):
        # arbitrary two-root closed form solves the identity exactly
        ev = RootEigenvalue([0.37 + 0.41j, -0.52 + 0.18j], generic_params)
        for x in (0.3, 0.9):
            assert abs(odes.sigma2_residual(
                ev, x, generic_hw, generic_params)) < 1e-10

    def test_sector1_eigenvalue_rejected(self, params, hw, oracle):
        fit = oracle.fit(params, 1, 0)
        assert abs(odes.sigma2_residual(fit, 0.63, hw, params)) > 1e-3


class TestRiccati2:
    def test_all_sector2_eigenvalues(self, params, oracle):
        for k in range(6):
            fit = oracle.fit(params, 2, k)
            for x in (0.43, 0.8):
                assert abs(odes.riccati2_residual(fit, x, params)) < 1e-6

    def test_k2_spot_value(self, params, hw):
        x, lam0 = 0.57, 0.9 + 0.1j
        _, _, _, k2 = odes.riccati2_coefficients(x, lam0, params)
        expect = hw.lam_a(0.0) * np.sinh(x + params.gamma) ** 2 \
            - lam0 * np.sinh(x) ** 2
        assert abs(k2 - expect) < 1e-14 * abs(expect)

    def test_gated_to_reference_point(self, generic_params):
        with pytest.raises(ValueError):
            odes.riccati2_coefficients(0.4, 1.0, generic_params)

    def test_consistency_with_sigma2(self, params, hw, oracle):
        # both sector-2 identities hold simultaneously for the same fit
        fit = oracle.fit(params, 2, 4)
        assert abs(odes.sigma2_residual(fit, 0.43, hw, params)) < 1e-6
        assert abs(odes.riccati2_residual(fit, 0.43, params)) < 1e-6


class TestUEquation:
    """The linear equation for u, divided by u, is minus the sector-1 Riccati
    numerator, so the row judges riccati_lambda_residual on the Bethe-root
    evaluator pointwise."""

    def test_closed_form_root(self, params, hw):
        sols = solve_bae(diagonalize_sector(params, 1))
        ev = RootEigenvalue(sols[0].roots, params)
        for x in (0.2, 0.45, 0.7, 0.95, 1.2):
            assert abs(odes.riccati_lambda_residual(ev, x, hw, params)) < 1e-12

    def test_vanishing_lam_minus(self):
        # this twist puts a zero of lam_minus on the segment [0.2, 1.2]; the
        # pointwise form has no division by lam_minus, so it holds there too
        p = ModelParams(L=2, gamma=0.7, phi1=1.0, phi2=5.0)
        hw2 = HighestWeightData(p)
        xs = np.linspace(0.2, 1.2, 401)
        lams = np.abs([hw2.lam_minus(x) for x in xs])
        assert lams.min() < 1e-2 * lams.max()  # hazard present
        sols = solve_bae(diagonalize_sector(p, 1))
        ev = RootEigenvalue(sols[0].roots, p)
        for x in (0.2, 0.45, 0.7, 0.95, 1.2, xs[int(np.argmin(lams))]):
            assert abs(odes.riccati_lambda_residual(ev, x, hw2, p)) < 1e-12


class TestPDE:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_residual_and_speed_control(self, n, rng):
        # psi = h(chi - omega tau) solves the order-n PDE at every point; with
        # 1.01 omega in the coefficients it does not
        for _ in range(20):
            roots = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            for x in (0.37, -0.6):
                assert odes.pde_travelling_wave_residual(n, roots, 0.8, x) < 1e-12
            assert max(odes.pde_travelling_wave_residual(n, roots, 0.8, x,
                                                         omega_pde=0.808)
                       for x in (0.37, -0.6)) > 1e-3

    def test_real_roots(self):
        # real roots put poles on the real axis; between them the residual is
        # still exact
        for x in (0.2, 0.7, 1.3):
            assert odes.pde_travelling_wave_residual(2, [0.45, 0.9], 0.8, x) < 1e-12

    def test_coth_sum_fourth_derivative(self):
        h = CothSum([0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.7j])
        e = 1e-5
        for x in (0.37, -0.6):
            fd = (h(x + e, 3) - h(x - e, 3)) / (2 * e)
            assert abs(h(x, 4) - fd) < 1e-6 * abs(fd)
            with pytest.raises(ValueError):
                h(x, 5)


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
