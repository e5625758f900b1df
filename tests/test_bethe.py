import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex.model import ModelParams
from sixvertex import bethe as bt


@pytest.fixture(scope="module")
def p2():
    return ModelParams(L=2, gamma=0.7)


def generic_model(L, seed):
    """Twisted, inhomogeneous model point drawn from a seed (the generator of
    the benchmark's verify workload)."""
    rng = np.random.default_rng(seed)
    return {"L": L, "gamma": 0.7,
            "mu": [float(v) for v in rng.uniform(-0.3, 0.3, L)],
            "phi1": float(rng.uniform(0.7, 1.4)),
            "phi2": float(rng.uniform(0.7, 1.4))}


def mp_relative_residual(roots, p):
    """max_i |R_i| / max(|A-term|, |D-term|) of the residue form, evaluated
    with 50 digits at the given (binary) roots."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = [mpmath.mpc(z) for z in roots]
        g, mu = mpmath.mpc(p.gamma), [mpmath.mpc(m) for m in p.mu]
        n, out = len(w), mpmath.mpf(0)
        for i in range(n):
            rest = [w[j] for j in range(n) if j != i]
            ta = (mpmath.mpc(p.phi1) * mpmath.fprod(mpmath.sinh(w[i] - m + g) for m in mu)
                  * mpmath.fprod(mpmath.sinh(v - w[i] + g) for v in rest))
            td = ((-1) ** (n + 1) * mpmath.mpc(p.phi2)
                  * mpmath.fprod(mpmath.sinh(w[i] - m) for m in mu)
                  * mpmath.fprod(mpmath.sinh(w[i] - v + g) for v in rest))
            out = max(out, abs(ta - td) / max(abs(ta), abs(td)))
        return float(out)


class TestResidual:
    def test_analytic_roots_L2(self, p2):
        # sinh(w+g)^2 = sinh(-w)^2 has the solutions -g/2 and (i pi - g)/2
        g = 0.7
        for w in (-g / 2, (1j * np.pi - g) / 2):
            assert np.abs(bt.bae_residual([w], p2)).max() < 1e-15

    def test_non_root_rejected(self, p2, rng):
        w = rng.uniform(0.2, 1.0)
        assert np.abs(bt.bae_residual([w], p2)).max() > 1e-3

    def test_relative_residual_inf_on_null_rows(self, params):
        # the singular pair zeroes both products; it is not a regular solution
        assert bt.bae_relative_residual([0.0, -0.7], params) == float("inf")

    @given(shift=st.integers(-2, 2), swap=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_symmetry_invariance(self, params, shift, swap):
        # residuals transform trivially under root permutation and i*pi shifts
        w = np.array([0.3 + 0.2j, -0.5 - 0.1j])
        base = np.abs(bt.bae_residual(w, params)).max()
        w2 = w[::-1].copy() if swap else w.copy()
        w2[0] += 1j * np.pi * shift
        shifted = np.abs(bt.bae_residual(w2, params)).max()
        assert shifted == pytest.approx(base, rel=1e-10)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobian_matches_central_differences(self, params, generic_params,
                                                  rng, n):
        h = 1e-6
        for p in (params, generic_params):
            for _ in range(3):
                w = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                _, _, dta, dtd = bt._terms(w[None], p)
                jac = (dta - dtd)[0]
                fd = np.column_stack([(bt.bae_residual(w + h * e, p)
                                       - bt.bae_residual(w - h * e, p)) / (2 * h)
                                      for e in np.eye(n)])
                assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max()

    def test_batched_residual_matches_single_sets(self, params, generic_params,
                                                  rng):
        for p in (params, generic_params):
            ws = rng.uniform(-1, 1, (6, 2)) + 1j * rng.uniform(-1, 1, (6, 2))
            ta, td, _, _ = bt._terms(ws, p)
            rel = bt._relative(ta, td)
            for k, w in enumerate(ws):
                np.testing.assert_allclose(ta[k] - td[k], bt.bae_residual(w, p),
                                           rtol=1e-14, atol=0)
                assert rel[k] == pytest.approx(bt.bae_relative_residual(w, p),
                                               rel=1e-14)


class TestHighPrecisionOracle:
    """The float relative residual of the solver's own roots agrees with a
    50-digit evaluation, so the 1e-12 acceptance bound is met in fact."""

    @staticmethod
    def _compare(p, sols):
        for s in sols:
            if not s.singular:
                mp_res = mp_relative_residual(s.roots, p)
                assert abs(bt.bae_relative_residual(s.roots, p) - mp_res) <= 1e-14
                assert mp_res <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_reference(self, params, n):
        self._compare(params, bt.solve_bae(params, n))

    def test_near_singular_roots(self):
        p = ModelParams.from_dict(generic_model(6, 11))
        sols = bt.solve_bae(p, 2, seed=11)
        # one root set sits next to a singular pair: w_2 - w_1 ~ gamma
        gap = min(abs(np.sinh(s.roots[0] - s.roots[1] + p.gamma))
                  for s in sols if not s.singular)
        assert gap < 1e-3
        self._compare(p, sols)


class TestSolver:
    def test_L2_exact_solutions(self, p2):
        sols = bt.solve_bae(p2, 1, seed=7)
        assert len(sols) == 2
        found = sorted((s.roots[0] for s in sols), key=lambda w: w.imag)
        assert abs(found[0] - (-0.35)) < 1e-12
        assert abs(found[1] - (-0.35 + 0.5j * np.pi)) < 1e-12

    def test_vacuum_sector(self, params):
        sols = bt.solve_bae(params, 0)
        assert len(sols) == 1 and sols[0].roots == ()

    def test_sector_bound(self, params):
        with pytest.raises(ValueError):
            bt.solve_bae(params, 5)

    def test_reference_counts(self, params):
        s1 = bt.solve_bae(params, 1)
        s2 = bt.solve_bae(params, 2)
        assert len(s1) == 4
        assert len(s2) == 6
        assert sum(s.singular for s in s2) == 1
        assert all(s.residual < 1e-12 for s in s1 + s2)
        assert {s.source for s in s2} == {"solved", "analytic"}
        singular = next(s for s in s2 if s.singular)
        assert singular.source == "analytic"

    def test_roots_pairwise_separated(self, params):
        for s in bt.solve_bae(params, 2):
            w = np.asarray(s.roots)
            gaps = np.abs(w[:, None] - w[None, :])[~np.eye(2, dtype=bool)]
            assert gaps.min() > 1e-8

    def test_overflowing_seed_rejected_without_warnings(self):
        p6 = ModelParams(L=6, gamma=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bt._newton(np.array([[200 + 0j]]), p6) == [None]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generic_L6_complete(self, oracle, seed):
        # every n=2 eigenvalue at a generic L=6 point has a regular root set
        # accepted at the check's own tolerance
        p = ModelParams.from_dict(generic_model(6, seed))
        sols = bt.solve_bae(p, 2, seed=seed)
        regular = [s for s in sols if not s.singular]
        assert len(regular) == 15
        assert all(s.residual <= 1e-12 for s in regular)
        rep = bt.match_spectrum(p, 2, sols, oracle.eigensystem(p, 2))
        assert not rep.unmatched_eigenvalues
        assert rep.max_deviation <= 1e-8

    @pytest.mark.parametrize("d", [1e-13, -1e-13])
    def test_conjugate_pair_order_is_stable(self, d):
        # the real parts of a conjugate pair differ only by rounding; the
        # order follows the imaginary parts, whatever those last bits are
        up = bt.BetheRoots(n=2, roots=(-0.4 + 0.3j, 0.2 + 0.1j), residual=0.0)
        down = bt.BetheRoots(n=2, roots=(-0.4 + d - 0.3j, 0.2 - 0.1j), residual=0.0)
        for sols in ([up, down], [down, up]):
            assert sorted(sols, key=bt._solution_order) == [down, up]

    def test_singular_jacobian_seed_leaves_batch(self):
        # at L=1 the structured seed -gamma/2 has an exactly zero Jacobian;
        # the other seeds still find the one root -gamma/2 + i pi/2
        p1 = ModelParams(L=1, gamma=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = bt.solve_bae(p1, 1)
        assert len(sols) == 1
        assert abs(sols[0].roots[0] - (-0.35 + 0.5j * np.pi)) < 1e-12

    def test_determinism(self, params):
        a = bt.solve_bae(params, 2, seed=5)
        b = bt.solve_bae(params, 2, seed=5)
        assert bt.roots_to_json(a) == bt.roots_to_json(b)


class TestEigenvalueFormula:
    def test_closed_form_L2(self, p2):
        g, x, w = 0.7, 0.9, -0.35
        lam = bt.eigenvalue_from_roots(x, [w], p2)
        expect = (np.sinh(x - g / 2) * np.sinh(x + g) ** 2
                  + np.sinh(x + 1.5 * g) * np.sinh(x) ** 2) / np.sinh(x + g / 2)
        assert abs(lam - expect) < 1e-12 * abs(expect)

    def test_permutation_and_strip_invariance(self, params):
        roots = [0.3 + 0.2j, -0.5 - 0.1j]
        x = 0.9
        v = bt.eigenvalue_from_roots(x, roots, params)
        assert abs(bt.eigenvalue_from_roots(x, roots[::-1], params) - v) \
            < 1e-13 * abs(v)
        assert abs(bt.eigenvalue_from_roots(
            x, [roots[0] + 1j * np.pi, roots[1]], params) - v) < 1e-13 * abs(v)

    def test_removable_singularity_for_true_roots(self, params):
        # two-sided differences shrink: the pole at x -> w is removable
        w = bt.solve_bae(params, 1)[0].roots[0]
        ev = bt.RootEigenvalue([w], params)
        jumps = [abs(ev(w + eps) - ev(w - eps)) * eps for eps in (1e-2, 1e-3, 1e-4)]
        assert jumps[2] < jumps[0]
        assert jumps[2] < 1e-4

    def test_pole_point_raised_off_shell(self, params):
        with pytest.raises(bt.PolePoint):
            bt.eigenvalue_from_roots(0.4, [0.4 + 1e-8], params)

    def test_limit_path_on_shell(self, params):
        w = bt.solve_bae(params, 1)[0].roots[0]
        v = bt.eigenvalue_from_roots(w + 1e-8, [w], params)
        ref = bt.eigenvalue_from_roots(w + 0.05, [w], params)
        assert abs(v - ref) < 0.2 * abs(ref)

    def test_bethe_eigenvalues_are_polynomial(self, params):
        # the closed-form eigenvalue of any solved root set passes the
        # degree-L polynomial structure check
        from sixvertex.spectrum import polynomiality_check
        for n in (1, 2):
            for s in bt.solve_bae(params, n):
                ev = bt.RootEigenvalue(s.roots, params)
                _, residual = polynomiality_check(ev, params)
                assert residual < 1e-9

    def test_derivatives_match_fd(self, params):
        ev = bt.RootEigenvalue([0.3 + 0.2j, -0.5 - 0.1j], params)
        x, h = 0.9, 1e-4
        d1 = (ev(x + h) - ev(x - h)) / (2 * h)
        d2 = (ev(x + h) - 2 * ev(x) + ev(x - h)) / h ** 2
        assert abs(ev(x, 1) - d1) < 1e-6 * abs(d1)
        assert abs(ev(x, 2) - d2) < 1e-5 * abs(d2)


class TestHFunction:
    def test_first_order_identity_exact(self, rng):
        w = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        h = bt.CothSum([w])
        x = 0.37
        assert abs(h(x, 1) + 1 - h(x) ** 2) < 1e-13

    def test_second_order_identity(self, rng):
        roots = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        h = bt.CothSum(roots)
        x = 0.43
        res = h(x, 2) - 3 * h(x) * h(x, 1) + h(x) * (h(x) ** 2 - 4)
        assert abs(res) < 1e-9

    def test_h_is_minus_dlog_gbar(self, rng):
        roots = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        x, hstep = 0.9, 1e-6
        gbar = lambda x: np.prod(np.sinh(roots - x))
        fd = -(np.log(gbar(x + hstep)) - np.log(gbar(x - hstep))) / (2 * hstep)
        assert abs(bt.CothSum(roots)(x) - fd) < 1e-9 * max(1.0, abs(fd))


class TestMatching:
    def test_reference_matching_complete(self, params, oracle):
        for n, count in ((1, 4), (2, 6)):
            sols = bt.solve_bae(params, n)
            rep = bt.match_spectrum(params, n, sols, oracle.eigensystem(params, n))
            assert rep.complete
            assert len(rep.pairs) == count
            assert rep.max_deviation < 1e-8

    def test_dropping_a_solution_is_reported(self, params, oracle):
        sols = bt.solve_bae(params, 1)[:-1]
        rep = bt.match_spectrum(params, 1, sols, oracle.eigensystem(params, 1))
        assert len(rep.unmatched_eigenvalues) == 1
        assert not rep.unmatched_solutions

    def test_generic_twist_matching(self, generic_params, oracle):
        # empirical bijection question: measured, and complete at this point
        sols = bt.solve_bae(generic_params, 1)
        rep = bt.match_spectrum(generic_params, 1, sols,
                                oracle.eigensystem(generic_params, 1))
        assert rep.complete and rep.max_deviation < 1e-8


class TestSerialization:
    def test_roundtrip(self, params):
        sols = bt.solve_bae(params, 2)
        text = bt.roots_to_json(sols)
        back = bt.roots_from_json(text)
        assert len(back) == len(sols)
        for a, b in zip(sols, back):
            assert a.n == b.n and a.singular == b.singular
            assert np.abs(np.asarray(a.roots) - np.asarray(b.roots)).max() == 0.0
            assert b.source == "user"
