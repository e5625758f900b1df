import numpy as np
import pytest

from conftest import generic_model
from sixvertex.model import ExpSum, ModelParams, cauchy_taylor
from sixvertex.spectrum import diagonalize_sector
from sixvertex import functional as fx


@pytest.fixture(scope="module")
def big_params():
    return ModelParams(L=6, gamma=0.7)


@pytest.fixture(scope="module")
def l5_params():
    return ModelParams(L=5, gamma=0.7, mu=(0.11, -0.23, 0.31, 0.05, -0.17),
                       phi1=1.3, phi2=0.8)


def pts_for(n):
    base = [0.31, -0.42, 0.55, 0.9, -0.15]
    return base[:n + 1]


class TestCoefficients:
    def test_vacuum_sector_coefficient(self, params, oracle):
        # n=0: the single coefficient is lam_plus - Lambda, zero on-shell
        lam = oracle.eigensystem(params, 0).lam(0)
        m = fx.extended_matrix([0.63], lam, params)[..., 0, :]
        assert abs(m[0]) < 1e-10
        m_off = fx.extended_matrix([0.63], lambda x: 1.1 * lam(x), params)[..., 0, :]
        assert abs(m_off[0]) > 1e-3

    def test_linear_relation_small_case(self):
        p = ModelParams(L=2, gamma=0.7)
        from sixvertex.spectrum import diagonalize_sector
        es = diagonalize_sector(p, 1)
        pts = [0.31, -0.42]
        res, scale = fx.linear_relation_residual(
            pts, es.lam([0]), es.left[:1], p)
        assert abs(res[0]) < 1e-10 * scale[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_relation_up_to_L6(self, big_params, oracle, n):
        es = oracle.eigensystem(big_params, n)
        pts = pts_for(n)
        ks = list(range(0, es.size, max(es.size // 3, 1)))
        res, scale = fx.linear_relation_residual(
            pts, es.lam(ks), es.left[ks], big_params)
        assert np.all(np.abs(res) < 1e-10 * scale)

    def test_untwisted_specialization(self, params):
        # with phi2 = 0 only the lam_a branch survives in the i >= 1 entries
        p0 = ModelParams(L=4, gamma=0.7, phi1=1.0, phi2=1e-30)
        pts = pts_for(2)
        m = fx.extended_matrix(pts, lambda x: 0.0, p0)[..., 0, :]
        a, b, c = p0.a, p0.b, p0.c
        for i in (1, 2):
            xi = pts[i]
            qa = np.prod([a(pts[j] - xi) / b(pts[j] - xi)
                          for j in (1, 2) if j != i])
            expect = (c / b(pts[0] - xi)) * qa * p0.lam_a(xi)
            assert abs(m[i] - expect) < 1e-12 * abs(expect)


class TestExtendedMatrix:
    def test_row_zero_is_plain_coefficients(self, params, oracle):
        # row j at the x_0 <-> x_j swapped points, entries 0 and j swapped
        # back, holds the coefficients at the unswapped points: row 0
        lam = oracle.eigensystem(params, 2).lam(1)
        pts = pts_for(2)
        M = fx.extended_matrix(pts, lam, params)
        for j in (1, 2):
            sw = list(pts)
            sw[0], sw[j] = sw[j], sw[0]
            m = fx.extended_matrix(sw, lam, params)[j]
            m[[0, j]] = m[[j, 0]]
            assert np.abs(M[0] - m).max() == 0.0

    def test_double_swap_returns_row_zero(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(0)
        pts = pts_for(2)
        M = fx.extended_matrix(pts, lam, params)
        sw = list(pts)
        sw[0], sw[2] = sw[2], sw[0]
        sw2 = list(sw)
        sw2[0], sw2[2] = sw2[2], sw2[0]
        M3 = fx.extended_matrix(sw2, lam, params)
        assert np.abs(M3 - M).max() == 0.0

    def test_matches_symmetric_matrix_plus_diagonal(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(3)
        pts = pts_for(2)
        M = fx.extended_matrix(pts, lam, params)
        S = fx.symmetric_m_matrix(pts, params)
        target = S - np.diag([lam(x) for x in pts])
        assert np.abs(M - target).max() < 1e-12 * np.abs(S).max()

    def test_point_validation(self, params):
        with pytest.raises(ValueError):
            fx.extended_matrix([0.3, 0.3 + 1e-9], lambda x: 0.0, params)
        with pytest.raises(ValueError):
            # i*pi-shifted coincidence is also singular (b vanishes)
            fx.extended_matrix([0.3, 0.3 + 1j * np.pi], lambda x: 0.0, params)
        with pytest.raises(ValueError):
            fx.extended_matrix((0.3, 0.3 + 1e-9), lambda x: 0.0, params)
        # two unseparated pairs at different nodes, (1, 2) at node 0 and
        # (0, 1) at node 1: the lexicographically first pair is named
        pts = [np.array([0.1, 0.5]), np.array([0.4, 0.5 + 1e-9]),
               np.array([0.4 + 1e-9, 0.9])]
        with pytest.raises(ValueError, match="spectral points 0 and 1 "):
            fx.extended_matrix(pts, lambda x: 0.0 * x, params)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_row_by_row_swaps(self, l5_params, oracle, n):
        # the whole sector as one stack and the swapped rows as one row axis,
        # against row 0 of one extended matrix per eigenvalue and swapped
        # point set
        p = l5_params
        es = oracle.eigensystem(p, n)
        pts = pts_for(n)
        M = fx.extended_matrix(pts, es.lam(), p)
        assert M.shape == (es.size, n + 1, n + 1)
        for k in range(es.size):
            rows = []
            for j in range(n + 1):
                sw = list(pts)
                sw[0], sw[j] = sw[j], sw[0]
                row = fx.extended_matrix(sw, es.lam(k), p)[0]
                row[[0, j]] = row[[j, 0]]
                rows.append(row)
            assert np.array_equal(M[k], rows)


class TestCompatibility:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_on_shell_L6(self, big_params, oracle, n):
        es = oracle.eigensystem(big_params, n)
        pts = pts_for(n)
        ks = list(range(0, es.size, max(es.size // 3, 1)))
        M = fx.extended_matrix(pts, es.lam(ks), big_params)
        assert np.all(np.abs(fx.compatibility_residual(M)) < 1e-8)

    def test_small_case_det(self):
        p = ModelParams(L=2, gamma=0.7)
        from sixvertex.spectrum import diagonalize_sector
        es = diagonalize_sector(p, 1)
        M = fx.extended_matrix([0.31, -0.42], es.lam(0), p)
        scale = np.prod(np.abs(M).max(axis=1))
        assert abs(np.linalg.det(M)) < 1e-9 * scale

    def test_rank_is_codimension_one_on_shell(self, params, oracle):
        for n in (1, 2, 3):
            es = oracle.eigensystem(params, n)
            M = fx.extended_matrix(pts_for(n), es.lam(), params)
            assert np.all(fx.extended_rank(M) == n)

    def test_negative_control_separation(self, params, oracle):
        # the perturbed determinant sits orders of magnitude above on-shell
        for n in (1, 2, 3):
            lam = oracle.eigensystem(params, n).lam(0)
            pts = pts_for(n)
            on = abs(fx.compatibility_residual(fx.extended_matrix(pts, lam, params)))
            off = abs(fx.compatibility_residual(
                fx.extended_matrix(pts, lambda x: 1.01 * lam(x), params)))
            assert off > max(1e3 * on, 1e-12)


class TestExplicitIdentities:
    def test_two_point_on_shell(self, params, oracle):
        es = oracle.eigensystem(params, 1)
        x0, x1 = 0.31, -0.42
        for k in range(es.size):
            lam = es.lam(k)
            scale = abs(lam(x0) * lam(x1))
            assert abs(fx.nonlinear_eq_n1_residual(x0, x1, lam, params)) \
                < 1e-9 * scale

    def test_three_point_on_shell(self, params, oracle):
        es = oracle.eigensystem(params, 2)
        x0, x1, x2 = pts_for(2)
        for k in range(es.size):
            lam = es.lam(k)
            scale = abs(lam(x0) * lam(x1) * lam(x2))
            assert abs(fx.nonlinear_eq_n2_residual(
                x0, x1, x2, lam, params)) < 1e-8 * scale

    def test_two_point_equals_determinant(self, params, oracle):
        # same identity through two independent code paths, off-shell too
        lam = oracle.eigensystem(params, 1).lam(0)
        bad = lambda x: 1.07 * lam(x)
        x0, x1 = 0.31, -0.42
        r = fx.nonlinear_eq_n1_residual(x0, x1, bad, params)
        d = np.linalg.det(fx.extended_matrix([x0, x1], bad, params))
        assert abs(r - d) < 1e-12 * abs(d)

    def test_two_point_equals_determinant_complex_gamma_L9(self):
        # Lambda(-0.42) keeps about 1e-4 of its terms here, so the real
        # points of the identity and the complex points of the extended
        # matrix must give Lambda the same rounding for the paths to agree
        p = ModelParams.from_dict({**generic_model(9, 1), "gamma": "0.7+0.3j"})
        lam = diagonalize_sector(p, 1).lam(0)
        bad = ExpSum(lam.ms, 1.07 * lam.coeffs)
        r = fx.nonlinear_eq_n1_residual(0.31, -0.42, bad, p)
        d = np.linalg.det(fx.extended_matrix([0.31, -0.42], bad, p))
        assert abs(r - d) < 1e-12 * abs(d)

    def test_negative_controls_exceed_threshold(self, params, oracle):
        lam1 = oracle.eigensystem(params, 1).lam(0)
        lam2 = oracle.eigensystem(params, 2).lam(0)
        x0, x1, x2 = pts_for(2)
        b1 = lambda x: 1.01 * lam1(x)
        b2 = lambda x: 1.01 * lam2(x)
        r1 = abs(fx.nonlinear_eq_n1_residual(x0, x1, b1, params)) \
            / abs(b1(x0) * b1(x1))
        r2 = abs(fx.nonlinear_eq_n2_residual(x0, x1, x2, b2, params)) \
            / abs(b2(x0) * b2(x1) * b2(x2))
        assert r1 > 1e-3 and r2 > 1e-3


class TestSymmetricFunction:
    def test_permutation_invariance(self, params, oracle, rng):
        es = oracle.eigensystem(params, 2)
        xs = [0.31, -0.42]
        v1, v2 = fx.f_n([xs, xs[::-1]], es.left[0], params)[0]
        assert abs(v1 - v2) < 1e-12 * abs(v1)

    def test_zero_points_is_overlap(self, params, oracle):
        es = oracle.eigensystem(params, 0)
        lv = es.left[0]
        assert fx.f_n([[]], lv, params)[0, 0] == lv[0]


class TestTransport:
    def test_identity_and_reciprocity(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(0)
        pts = pts_for(2)
        M = fx.extended_matrix(pts, lam, params)
        t11 = fx.transport(1, 1, M)
        assert t11 == 1.0
        t12 = fx.transport(1, 2, M)
        t21 = fx.transport(2, 1, M)
        assert abs(t12 * t21 - 1) < 1e-12

    def test_loop_composition(self, params, oracle):
        lam = oracle.eigensystem(params, 3).lam(1)
        pts = pts_for(3)
        M = fx.extended_matrix(pts, lam, params)
        assert abs(fx.transport_loop([1, 2, 3], M) - 1) < 1e-10
        assert abs(fx.transport_loop([0, 1, 2, 3], M) - 1) < 1e-9

    def test_ratio_property_against_f(self, params, oracle):
        es = oracle.eigensystem(params, 2)
        lam = es.lam(0)
        pts = pts_for(2)
        F = fx.f_n([pts[:i] + pts[i + 1:] for i in range(3)], es.left[0], params)[0]
        M = fx.extended_matrix(pts, lam, params)
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            tv = fx.transport(i, j, M)
            assert abs(tv - F[j] / F[i]) < 1e-8 * abs(tv)

    def test_factorization_cross_products(self, params, oracle):
        # F_n(X_i^0) det(V_j) = F_n(X_j^0) det(V_i) for all pairs
        es = oracle.eigensystem(params, 2)
        lam = es.lam(2)
        pts = pts_for(2)
        M = fx.extended_matrix(pts, lam, params)
        F = fx.f_n([pts[:i] + pts[i + 1:] for i in range(3)], es.left[2], params)[0]
        det = [np.linalg.det(fx.v_matrix(i, M)) for i in range(3)]
        scale = max(abs(F[i] * det[j]) for i in range(3) for j in range(3))
        for i in range(3):
            for j in range(3):
                assert abs(F[i] * det[j] - F[j] * det[i]) < 1e-8 * scale

    def test_singular_transport_raised(self, params):
        # at x0 = (i pi - gamma)/2 the 1x1 Cramer matrix vanishes identically
        x0 = (1j * np.pi - params.gamma) / 2
        with pytest.raises(fx.SingularTransport):
            fx.transport(1, 0, fx.extended_matrix([x0, 0.4], lambda x: 1.0, params))


class TestReducedMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_normalization_permutation_spread(self, l5_params, oracle, n):
        p = l5_params
        es = oracle.eigensystem(p, n)
        lam = es.lam(min(1, es.size - 1))
        pts = pts_for(n)
        M = fx.extended_matrix(pts, lam, p)
        for i in range(1, n + 1):
            dv = np.linalg.det(fx.v_matrix(i, M))
            dt = fx.tilde_v_det(i, pts, M, p)
            pred = (p.c * p.b(pts[0] - pts[i])
                    / np.prod([p.b(pts[0] - pts[j]) ** 2
                               for j in range(1, n + 1)]) * dt)
            assert abs(dv - pred) < 1e-10 * abs(dv)
        i, j = 1, 2
        sw = list(pts)
        sw[i], sw[j] = sw[j], sw[i]
        d1 = fx.tilde_v_det(i, pts, M, p)
        d2 = fx.tilde_v_det(j, sw, fx.extended_matrix(sw, lam, p), p)
        assert abs(d1 - d2) < 1e-10 * abs(d1)
        assert fx.tilde_v_spread(1, pts, lam, p) < 1e-9

    def test_spread_independence_is_structural(self, l5_params):
        # the x_i-independence of det(tilde V_i) turns out to hold for
        # arbitrary functions, not only eigenvalues: Lambda(x_i) never
        # enters the matrix, and the explicit x_i dependence cancels in the
        # determinant identically
        p = l5_params
        gen = lambda x: p.lam_plus(x) + 0.4 * np.exp(x)
        assert fx.tilde_v_spread(1, pts_for(2), gen, p) < 1e-10


class TestComplexParameters:
    def test_identity_chain_with_fully_complex_data(self):
        # anisotropy, inhomogeneities, and twist all genuinely complex
        from sixvertex.spectrum import diagonalize_sector, polynomial_residuals
        from sixvertex import odes
        p = ModelParams(L=3, gamma=0.6 + 0.2j,
                        mu=(0.1 - 0.05j, -0.2 + 0.1j, 0.05),
                        phi1=1.1 - 0.3j, phi2=0.7 + 0.4j)
        es1 = diagonalize_sector(p, 1)
        assert polynomial_residuals([es1])[0].max() < 1e-9
        M = fx.extended_matrix([0.31, -0.42], es1.lam(0), p)
        assert abs(fx.compatibility_residual(M)) < 1e-10
        assert abs(odes.riccati_lambda_residual(es1.lam(0), 0.43, p)) < 1e-10
        es2 = diagonalize_sector(p, 2)
        assert polynomial_residuals([es2])[0].max() < 1e-9
        assert abs(odes.sigma2_residual(es2.lam(0), 0.63, p)) < 1e-10
        res, scale = fx.linear_relation_residual(
            [0.31, -0.42, 0.55], es2.lam([1]), es2.left[1:2], p)
        assert abs(res[0]) < 1e-10 * scale[0]


class TestClosedFormCramer:
    def test_one_point_determinants(self, generic_params, oracle):
        # 1x1 Cramer determinants in closed form (independent transcription)
        p = generic_params
        lam = oracle.eigensystem(p, 1).lam(0)
        x0, x1 = 0.31, -0.42
        M = fx.extended_matrix([x0, x1], lam, p)
        d0 = np.linalg.det(fx.v_matrix(0, M))
        d1 = np.linalg.det(fx.v_matrix(1, M))
        a, b, c = p.a, p.b, p.c
        p1, p2 = p.phi1, p.phi2
        expect0 = (p1 * a(x0 - x1) * p.lam_a(x1) - p2 * a(x1 - x0) * p.lam_d(x1)
                   - b(x0 - x1) * lam(x1)) / b(x0 - x1)
        expect1 = (c / b(x0 - x1)) * (p1 * p.lam_a(x0) - p2 * p.lam_d(x0))
        assert abs(d0 - expect0) < 1e-12 * abs(expect0)
        assert abs(d1 - expect1) < 1e-12 * abs(expect1)


class TestFullClosure:
    def test_bethe_bra_and_roots_close_the_linear_relation(self, params):
        # roots from the solver, the bra built from C-operators, and the
        # closed-form eigenvalue close the linear relation together,
        # without any reference to the brute-force oracle
        from sixvertex.bethe import RootEigenvalue, solve_bae
        from sixvertex.spectrum import diagonalize_sector, left_vector_from_C
        sols = [s for s in solve_bae(diagonalize_sector(params, 2))
                if not s.singular]
        pts = pts_for(2)
        for s in sols[:3]:
            bra = left_vector_from_C(s.roots, params)
            assert np.abs(bra).max() > 1e-12  # non-degenerate Bethe state
            lam = RootEigenvalue(s.roots, params)
            res, scale = fx.linear_relation_residual(pts, lam, bra, params)
            assert abs(res[0]) < 1e-9 * scale[0]


class TestConservedQuantities:
    def test_theta_conservation(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(0)
        pts = pts_for(2)
        for (i, j) in [(0, 1), (1, 2), (0, 2)]:
            assert fx.theta_conservation(i, j, pts, lam, params) < 1e-10

    @pytest.mark.parametrize("L", range(3, 9))
    def test_theta_conservation_reference_chains(self, L):
        # every pair the `theta` row takes; at L=7 a pole of T_{0->1} in x_1
        # sits 0.04 from the point
        p = ModelParams(L=L, gamma=0.7)
        lam = diagonalize_sector(p, 2).lam(0)
        off = ExpSum(lam.ms, 1.01 * lam.coeffs)
        pts = [0.31, -0.42, 0.55]
        for (i, j) in [(0, 1), (1, 2)]:
            assert fx.theta_conservation(i, j, pts, lam, p) < 1e-10
        assert max(fx.theta_conservation(i, j, pts, off, p)
                   for (i, j) in [(0, 1), (1, 2)]) > 1e-4

    def test_transport_itself_depends_on_xj(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(0)
        pts = pts_for(2)
        t1 = fx.transport(0, 1, fx.extended_matrix(pts, lam, params))
        moved = list(pts)
        moved[1] += 0.1
        t2 = fx.transport(0, 1, fx.extended_matrix(moved, lam, params))
        assert abs(t1 - t2) > 1e-2 * abs(t1)

    def test_leading_taylor_coefficient_constant(self, params, oracle):
        # theta with the non-j variables staggered near the origin is
        # x_j-independent on the spectrum
        lam = oracle.eigensystem(params, 2).lam(0)
        for xj in (0.5, 0.9):
            pts = [0.013, xj, -0.029]
            assert fx.theta_conservation(0, 1, pts, lam, params) < 1e-6

    def test_conserved_n1_constancy_and_closed_form(self, params, oracle):
        from sixvertex.bethe import match_spectrum, solve_bae
        es = oracle.eigensystem(params, 1)
        for k in range(es.size):
            v1, _, _ = fx.conserved_n1(0.2, es.lam(k), params)
            v2, _, _ = fx.conserved_n1(0.9, es.lam(k), params)
            assert abs(v1 - v2) < 1e-8
        sols = solve_bae(es)
        rep = match_spectrum(params, 1, sols, es)
        for si, ei, _ in rep.pairs:
            val, _, _ = fx.conserved_n1(0.4, es.lam(ei), params)
            target = fx.conserved_n1_closed_form(sols[si].roots[0], params)
            assert abs(np.exp(val) - target) < 1e-7 * abs(target)

    def test_conserved_n1_negative_control(self, params):
        gen = lambda x: params.lam_plus(x) + 0.3 * np.exp(x)
        v1, _, _ = fx.conserved_n1(0.2, gen, params)
        v2, _, _ = fx.conserved_n1(0.9, gen, params)
        assert abs(v1 - v2) > 1e-3

    def test_conserved_n1_needs_nonnull_lam_minus(self):
        # tune the twist so lam_minus(0) = 0 exactly; the quantity is undefined
        base = ModelParams(L=2, gamma=0.7, mu=(0.2, -0.3))
        phi2 = complex(base.lam_a(0.0) / base.lam_d(0.0))
        p = ModelParams(L=2, gamma=0.7, mu=(0.2, -0.3), phi1=1.0, phi2=phi2)
        assert abs(p.lam_minus(0.0)) < 1e-14
        with pytest.raises(ZeroDivisionError):
            fx.conserved_n1(0.4, lambda x: p.lam_plus(x), p)


def close(batched, per_node, rtol=1e-13):
    """Max-norm relative agreement of a batched result and the stack of
    per-node scalar results."""
    per_node = np.asarray(per_node)
    return np.abs(batched - per_node).max() <= rtol * np.abs(per_node).max()


class TestNodeBatching:
    """Point sets with a trailing node axis against one scalar call per node,
    at a generic L=6 point."""

    @pytest.fixture(scope="class")
    def sector(self):
        p = ModelParams.from_dict(generic_model(6, 1))
        return p, diagonalize_sector(p, 2)

    @pytest.fixture(scope="class")
    def model(self, sector):
        p, es = sector
        return p, es.lam(1)

    @staticmethod
    def circle_points(nodes):
        # x_0 and x_1 on small circles, x_2 a scalar: the mix broadcasts
        circle = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        return [0.31 + 0.02 * circle, -0.42 + 0.03 * circle, 0.55]

    circle = np.exp(2j * np.pi * np.arange(5) / 5)
    pts = circle_points(5)

    def per_node(self, f, pts=None):
        pts = self.pts if pts is None else pts
        return [f([p if np.ndim(p) == 0 else p[k] for p in pts])
                for k in range(max(np.size(p) for p in pts))]

    def test_coefficients_and_extended_matrix(self, model):
        p, lam = model
        M = fx.extended_matrix(self.pts, lam, p)
        m = M[..., 0, :]
        assert m.shape == (5, 3) and M.shape == (5, 3, 3)
        assert close(m, self.per_node(lambda q: fx.extended_matrix(q, lam, p)[0]))
        assert close(M, self.per_node(lambda q: fx.extended_matrix(q, lam, p)))

    @pytest.mark.parametrize("nodes", [3, 5])
    def test_explicit_identities(self, model, nodes):
        # an off-shell eigenvalue keeps the residuals far above rounding; a
        # node count of 3 matches the matrix size, so an axis mix-up gives
        # wrong values there instead of an error
        p, lam = model
        bad = ExpSum(lam.ms, 1.07 * lam.coeffs)
        pts = self.circle_points(nodes)
        m = fx.symmetric_m_matrix(pts, p)
        assert m.shape == (nodes, 3, 3)
        assert close(m, self.per_node(lambda q: fx.symmetric_m_matrix(q, p), pts))
        assert close(fx.nonlinear_eq_n1_residual(*pts[:2], bad, p),
                     self.per_node(lambda q: fx.nonlinear_eq_n1_residual(*q, bad, p),
                                   pts[:2]))
        assert close(fx.nonlinear_eq_n2_residual(*pts, bad, p),
                     self.per_node(lambda q: fx.nonlinear_eq_n2_residual(*q, bad, p),
                                   pts))

    def test_transport_and_reduced_determinant(self, model, sector):
        p, lam = model

        def ext(q, l=lam):
            return fx.extended_matrix(q, l, p)
        for i, j in [(0, 1), (1, 2), (2, 0)]:
            assert close(fx.transport(i, j, ext(self.pts)),
                         self.per_node(lambda q: fx.transport(i, j, ext(q))))
        for i in (1, 2):
            assert close(fx.tilde_v_det(i, self.pts, ext(self.pts), p),
                         self.per_node(lambda q: fx.tilde_v_det(i, q, ext(q), p)))
        # an eigenpair stack over the node grid: one value per eigenpair and node
        es = sector[1]
        for f in (lambda l: fx.transport(1, 2, ext(self.pts, l)),
                  lambda l: fx.transport_loop([0, 1, 2], ext(self.pts, l)),
                  lambda l: fx.tilde_v_det(2, self.pts, ext(self.pts, l), p)):
            stacked = f(es.lam(slice(0, 3)))
            assert stacked.shape == (3, 5)
            assert close(stacked, [f(es.lam(k)) for k in range(3)])

    def test_only_one_point_carries_nodes(self, model):
        p, lam = model
        pts = [0.31, -0.42 + 0.03 * self.circle, 0.55]
        M = fx.extended_matrix(pts, lam, p)
        assert M.shape == (5, 3, 3)
        assert close(M[2], fx.extended_matrix([0.31, pts[1][2], 0.55], lam, p))

    def test_one_unseparated_node_raises(self, model):
        p, lam = model
        x1 = np.array([-0.42, 0.31 + 1e-9, 0.2])
        with pytest.raises(ValueError, match="too close"):
            fx.extended_matrix([0.31, x1, 0.55], lam, p)

    def test_spread_matches_per_shift_determinants(self, model):
        # five separated shifts of x_1 by 0.23, evaluated as one node axis
        p, lam = model
        pts = [0.31, -0.42, 0.55]
        shifts = [[0.31, -0.42 + 0.23 * k, 0.55] for k in range(5)]
        vals = np.array([fx.tilde_v_det(1, q, fx.extended_matrix(q, lam, p), p)
                         for q in shifts])
        spread = np.abs(vals - vals.mean()).max() / abs(vals.mean())
        assert abs(fx.tilde_v_spread(1, pts, lam, p) - spread) < 1e-13


def test_cauchy_taylor_two_variables():
    # exp(z1) sin(2 z2): c[m1, m2] = exp(a) / m1! * 2^m2 sin(2 b + m2 pi/2) / m2!
    a, b = 0.3 + 0.1j, -0.2 + 0.05j
    c = cauchy_taylor(lambda z1, z2: np.exp(z1) * np.sin(2 * z2), (a, b), 0.5, 16)
    fact = np.array([1, 1, 2, 6])
    expect = (np.exp(a) / fact)[:, None] * (
        2.0 ** np.arange(4) * np.sin(2 * b + np.arange(4) * np.pi / 2) / fact)
    assert np.abs(c[:4, :4] - expect).max() < 1e-12
    # leading axes of f's value are a batch: one function per entry, each
    # transformed as by a call of its own, bit for bit
    ks = [[1.0, -0.5], [2.0, 3.0]]
    f = lambda k: lambda z1, z2: np.exp(z1) * np.sin(k * z2)
    batch = cauchy_taylor(lambda *zs: np.array([[f(k)(*zs) for k in row] for row in ks]),
                          (a, b), 0.5, 16)
    assert batch.shape == (2, 2) + c.shape
    for (i, j), k in np.ndenumerate(ks):
        assert np.array_equal(batch[i, j], cauchy_taylor(f(k), (a, b), 0.5, 16))
