import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_model
from sixvertex.model import ModelParams
from sixvertex.spectrum import diagonalize_blocks, sample_sectors
from sixvertex import bethe as bt
from sixvertex.cli import BETHE_MATCH


@pytest.fixture(scope="module")
def p2():
    return ModelParams(L=2, gamma=0.7)


def generic(L, seed):
    return ModelParams.from_dict(generic_model(L, seed))


def mp_relative_residual(roots, p, pairs=()):
    """max_i |R_i| / max(|A-term|, |D-term|) of the residue form, evaluated
    with 50 digits at the given (binary) coordinates: roots, with root j of
    each pair (i, j, delta) taken as roots[i] - gamma + delta."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = [mpmath.mpc(z) for z in roots]
        g, mu = mpmath.mpc(p.gamma), [mpmath.mpc(m) for m in p.mu]
        for i, j, d in pairs:
            w[j] = w[i] - g + mpmath.mpc(d)
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


def reference_solve_bae(es):
    """The per-set construction `bt.solve_bae` stacks, kept as a reference:
    for each eigenvalue with a degree-n Q, np.roots of its null vector,
    canonical roots, singular snap and pair tie one set at a time; Newton on
    the stack; each residual recomputed from the finished set."""
    p, n = es.params, es.n
    sets = []
    for s, q in zip(*bt._tq_null_vectors(es)):
        if not (s[-1] <= bt._NULL_TOL * s[0]
                and min(abs(q[0]), abs(q[-1])) > bt._NULL_TOL * np.abs(q).max()):
            continue
        w = np.log(np.roots(q[::-1])) / 2
        w = w - 1j * np.pi * np.round(w.imag / np.pi)
        w = np.where(w.imag <= -np.pi / 2 + 1e-12, w + 1j * np.pi, w)
        w = w[np.lexsort((w.imag.round(9), w.real.round(9)))]
        held = np.zeros(n, dtype=bool)
        for m in p.mu:
            i = np.flatnonzero(np.abs(np.sinh(w - m)) < bt._NULL_TOL)
            j = np.flatnonzero(np.abs(np.sinh(w + p.gamma - m)) < bt._NULL_TOL)
            if len(i) and len(j):
                w[i[0]], w[j[0]] = m, m - p.gamma
                held[[i[0], j[0]]] = True
        z, partner, paired = w.copy(), np.arange(n), set()
        if not held.any():
            for i, j in itertools.permutations(range(n), 2):
                d = w[j] + p.gamma - w[i]
                d -= 1j * np.pi * np.round(d.imag / np.pi)
                if not paired & {i, j} and abs(np.sinh(d)) < bt._PAIR_TOL:
                    z[j], partner[j] = d, i
                    paired |= {i, j}
        sets.append((z, partner, held, s[-2] / s[0]))
    if not sets:
        return []
    z0, partner, held, gaps = (np.array(c) for c in zip(*sets))
    found = []
    for z, pk, hk, gap in zip(bt._newton(z0, p, partner, held)[0], partner,
                              held, gaps):
        tied = pk != np.arange(n)
        singular = bool(hk.any())
        sol = bt.BetheRoots(
            n, np.where(tied, z[pk] - p.gamma + z, z), 0.0,
            "analytic" if singular else "solved", singular, tq_gap=float(gap),
            pairs=[(pk[j], j, z[j]) for j in np.flatnonzero(tied)])
        found.append(replace(sol, residual=bt.solution_residual(sol, p)))
    return sorted(found, key=bt._solution_order)


def tuple_min_greedy(cost):
    """The matching loop `bt._greedy_pairs` replaces: min over (cost, s, e)
    tuples of the free rows and columns."""
    pairs, free_s, free_e = [], set(range(cost.shape[0])), set(range(cost.shape[1]))
    while free_s and free_e:
        d, s, e = min((cost[s, e], s, e) for s in free_s for e in free_e)
        pairs.append((s, e, float(d)))
        free_s.remove(s)
        free_e.remove(e)
    return pairs, sorted(free_s), sorted(free_e)


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

    @pytest.mark.parametrize("partner", [[0, 0], [0, 0, 2], [2, 1, 2]])
    def test_tied_jacobian_matches_central_differences(self, generic_params,
                                                       rng, partner):
        # in tied coordinates z_j = delta the Jacobian follows the chain rule
        n, h = len(partner), 1e-6
        for _ in range(3):
            z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            _, _, dta, dtd = bt._terms(z[None], generic_params, [partner])
            jac = (dta - dtd)[0]

            def res(z):
                ta, td, _, _ = bt._terms(z[None], generic_params, [partner])
                return (ta - td)[0]
            fd = np.column_stack([(res(z + h * e) - res(z - h * e)) / (2 * h)
                                  for e in np.eye(n)])
            assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max()

    def test_tied_coordinates_give_the_same_terms(self, generic_params, rng):
        # away from any near-singular pair both coordinate systems agree
        w = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        g, z = generic_params.gamma, w.copy()
        z[1] = w[1] + g - w[0]
        plain = bt._terms(w[None], generic_params)
        tied = bt._terms(z[None], generic_params, [[0, 0, 2]])
        for a, b in zip(plain[:2], tied[:2]):
            np.testing.assert_allclose(b, a, rtol=1e-13)

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
                mp_res = mp_relative_residual(s.roots, p, s.pairs)
                assert abs(s.residual - mp_res) <= 1e-14
                assert mp_res <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_reference(self, params, oracle, n):
        self._compare(params, bt.solve_bae(oracle.eigensystem(params, n)))

    def test_near_singular_roots(self, oracle):
        # each point has a root set next to a singular pair, w_2 - w_1 ~ gamma
        # (pair factors 1.8e-6, 1.6e-4, 8.7e-7, 3.2e-7), carried as (w, delta)
        for seed in (1, 11, 12, 14):
            p = generic(6, seed)
            sols = bt.solve_bae(oracle.eigensystem(p, 2))
            tied = [s for s in sols if s.pairs]
            assert tied and min(abs(np.sinh(d)) for s in tied
                                for *_, d in s.pairs) < 1e-3
            self._compare(p, sols)


class TestSolver:
    def test_L2_exact_solutions(self, p2, oracle):
        sols = bt.solve_bae(oracle.eigensystem(p2, 1))
        assert len(sols) == 2
        found = sorted((s.roots[0] for s in sols), key=lambda w: w.imag)
        assert abs(found[0] - (-0.35)) < 1e-12
        assert abs(found[1] - (-0.35 + 0.5j * np.pi)) < 1e-12

    def test_vacuum_sector(self, params, oracle):
        sols = bt.solve_bae(oracle.eigensystem(params, 0))
        assert len(sols) == 1 and sols[0].roots == ()

    def test_sector_bound(self, params, oracle):
        with pytest.raises(ValueError):
            bt.solve_bae(oracle.eigensystem(params, 5))

    def test_reference_counts(self, params, oracle):
        s1 = bt.solve_bae(oracle.eigensystem(params, 1))
        s2 = bt.solve_bae(oracle.eigensystem(params, 2))
        assert len(s1) == 4
        assert len(s2) == 6
        assert sum(s.singular for s in s2) == 1
        assert all(s.residual < 1e-12 for s in s1 + s2)
        assert {s.source for s in s2} == {"solved", "analytic"}
        singular = next(s for s in s2 if s.singular)
        assert singular.source == "analytic"
        assert singular.roots == (-0.7, 0.0)

    def test_roots_pairwise_separated(self, params, oracle):
        for s in bt.solve_bae(oracle.eigensystem(params, 2)):
            w = np.asarray(s.roots)
            gaps = np.abs(w[:, None] - w[None, :])[~np.eye(2, dtype=bool)]
            assert gaps.min() > 1e-8

    def test_overflowing_seed_rejected_without_warnings(self):
        p6 = ModelParams(L=6, gamma=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best, rel = bt._newton(np.array([[200 + 0j]]), p6)
        assert rel.tolist() == [np.inf] and best.tolist() == [[200 + 0j]]

    def test_singular_sets_polished_outside_the_pair(self, oracle):
        # at reference L=8, n=4, four sets hold the exact pair {0, -gamma}
        # plus two more roots, which Newton polishes with the pair held
        # (unpolished, (-1.4316, -0.7, 0, 0.7316) had residual 5.7e-12)
        p = ModelParams(L=8, gamma=0.7)
        sols = bt.solve_bae(oracle.eigensystem(p, 4))
        singular = [s for s in sols if s.singular]
        assert len(singular) >= 4
        assert all(s.residual <= 1e-12 for s in sols)
        for s in singular:
            assert {-0.7, 0.0} <= set(s.roots)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_generic_L6_complete(self, oracle, seed):
        # every n=2 eigenvalue at a generic L=6 point has a regular root set
        # that meets the check's own tolerance (the multistart solver missed
        # one at seeds 12, 14, 17 and 20)
        p = generic(6, seed)
        sols = bt.solve_bae(oracle.eigensystem(p, 2))
        regular = [s for s in sols if not s.singular]
        assert len(regular) == 15
        assert all(s.residual <= 1e-12 for s in regular)
        rep = bt.match_spectrum(p, 2, sols, oracle.eigensystem(p, 2))
        assert not rep.unmatched_eigenvalues
        assert rep.max_deviation <= 1e-8

    def test_no_degree_n_q_at_n_equals_L(self, p2, oracle):
        # the one n=2 eigenvalue at L=2 has no degree-2 Q, so no root set
        es = oracle.eigensystem(p2, 2)
        assert bt.solve_bae(es) == []
        assert bt.conditioning([], es, 1e-12)["no_degree_n_q"] == 1
        assert bt.no_degree_n_q(es, [0]) == [0]
        # the match excuses it, so the empty collection passes the match
        rep = bt.match_spectrum(p2, 2, [], es)
        assert rep.residual <= BETHE_MATCH and rep.no_degree_n_q == [0]
        assert rep.unmatched_eigenvalues == [] and rep.max_deviation == 0.0
        es1 = oracle.eigensystem(p2, 1)
        assert bt.no_degree_n_q(es1, range(es1.size)) == []
        assert bt.no_degree_n_q(es1, []) == []

    @pytest.mark.parametrize("point", ["reference", "generic-6-1"])
    def test_every_sector_classified(self, params, oracle, point):
        p = params if point == "reference" else generic(6, 1)
        for n in range(1, p.L):
            es = oracle.eigensystem(p, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sols = bt.solve_bae(es)
            cond = bt.conditioning(sols, es, 1e-12)
            assert cond["regular"] + cond["singular"] + cond["no_degree_n_q"] \
                == es.size
            assert all(s.residual <= 1e-12 for s in sols)
        # beyond the equator of the untwisted chain Q has no degree n
        if point == "reference":
            assert bt.conditioning(sols, es, 1e-12)["no_degree_n_q"] == es.size

    @pytest.mark.parametrize("point", ["reference", 1, 2, 3])
    def test_multistart_finds_no_other_set(self, params, oracle, point):
        # an independent search: undamped Newton from random seeds, restarted
        # from its best iterates; every regular set it converges to is one
        # of the TQ sets
        p = params if point == "reference" else generic(6, point)
        rng = np.random.default_rng(7)
        for n in (1, 2):
            tq = [bt.canonical_roots(s.roots)
                  for s in bt.solve_bae(oracle.eigensystem(p, n)) if not s.singular]
            z = (rng.uniform(-2, 2, (200, n))
                 + 1j * rng.uniform(-np.pi / 2, np.pi / 2, (200, n)))
            for _ in range(6):
                best, rel = bt._newton(z, p)
                z = best[np.isfinite(rel)]
            converged = 0
            for w in z:
                sep = np.abs(np.sinh(w[:, None] - w[None, :])) + np.eye(n)
                if bt.bae_relative_residual(w, p) <= 1e-10 and sep.min() > 1e-6:
                    converged += 1
                    c = bt.canonical_roots(w)
                    assert min(np.abs(np.subtract(c, t)).max() for t in tq) < 1e-6
            assert converged >= 50

    @pytest.mark.parametrize("d", [1e-13, -1e-13])
    def test_conjugate_pair_order_is_stable(self, d):
        # the real parts of a conjugate pair differ only by rounding; the
        # order follows the imaginary parts, whatever those last bits are
        up = bt.BetheRoots(n=2, roots=(-0.4 + 0.3j, 0.2 + 0.1j), residual=0.0)
        down = bt.BetheRoots(n=2, roots=(-0.4 + d - 0.3j, 0.2 - 0.1j), residual=0.0)
        for sols in ([up, down], [down, up]):
            assert sorted(sols, key=bt._solution_order) == [down, up]

    def test_singular_jacobian_seed_leaves_batch(self, oracle):
        # at L=1 the Jacobian vanishes exactly at -gamma/2; that set leaves
        # the batch, the other still reaches the root -gamma/2 + i pi/2,
        # the one root set the solver returns
        p1 = ModelParams(L=1, gamma=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (stuck, moved), rel = bt._newton([[-0.35], [-0.3 + 1.5j]], p1)
            sols = bt.solve_bae(oracle.eigensystem(p1, 1))
        assert stuck[0] == -0.35 and np.isfinite(rel).all()
        assert abs(moved[0] - (-0.35 + 0.5j * np.pi)) < 1e-12
        assert len(sols) == 1
        assert abs(sols[0].roots[0] - (-0.35 + 0.5j * np.pi)) < 1e-12

    def test_determinism(self, params):
        from sixvertex.spectrum import diagonalize_sector
        a = bt.solve_bae(diagonalize_sector(params, 2))
        b = bt.solve_bae(diagonalize_sector(params, 2))
        assert bt.roots_to_json(a) == bt.roots_to_json(b)


# the points the stacked construction was compared at: singular sets at the
# reference point, tied pairs everywhere from n = 2
STACKING_POINTS = {
    "generic-6-1": generic_model(6, 1), "generic-6-3": generic_model(6, 3),
    "generic-8-1": generic_model(8, 1),
    "reference-8": {"L": 8, "gamma": 0.7}, "reference-10": {"L": 10, "gamma": 0.7},
    "complex-gamma-8": {**generic_model(8, 1), "gamma": "0.7+0.3j"},
    "complex-gamma-10": {**generic_model(10, 1), "gamma": "0.7+0.3j"}}


class TestStacking:
    @pytest.mark.parametrize("point", STACKING_POINTS)
    def test_solve_equals_the_per_set_reference(self, point):
        p = ModelParams.from_dict(STACKING_POINTS[point])
        blocks = sample_sectors(p, (1, 2, 3))
        for n in (1, 2, 3):
            es = diagonalize_blocks(p, n, blocks[n])
            got = bt.solve_bae(es)
            assert got == reference_solve_bae(es)
            # a regular set's residual is Newton's own best
            assert all(s.residual == s.newton_residual for s in got
                       if not s.singular)

    @pytest.mark.parametrize("point", ["generic-6-1", "reference-8"])
    def test_one_stack_per_sector(self, oracle, monkeypatch, point):
        # no per-set np.roots, and Newton's _terms calls plus one for the
        # singular sets' residuals
        p = ModelParams.from_dict(STACKING_POINTS[point])
        calls, terms = [], bt._terms

        def counted(*args, **kwargs):
            calls.append(1)
            return terms(*args, **kwargs)
        monkeypatch.setattr(bt, "_terms", counted)
        monkeypatch.setattr(np, "roots", None)
        for n in (1, 2, 3):
            es = oracle.eigensystem(p, n)
            calls.clear()
            sols = bt.solve_bae(es)
            assert len(calls) == bt._MAX_ITER + 1 + any(s.singular for s in sols)

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sorted_greedy_is_the_tuple_min_greedy(self, rows, cols, data):
        # few distinct values and inf entries, so that ties are common
        values = st.sampled_from([0.0, 1e-9, 1e-9, 0.5, 2.0, np.inf, np.inf])
        cost = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols)
        assert bt._greedy_pairs(cost) == tuple_min_greedy(cost)

    def test_stacked_eigenvalues_equal_single_sets(self, oracle):
        p = generic(6, 1)
        sols = bt.solve_bae(oracle.eigensystem(p, 2))
        xs = np.linspace(0.21, 1.3, 20)
        stack = np.array([s.roots for s in sols])[:, None]
        got = bt.RootEigenvalue(stack, p)(xs)
        assert got.shape == (len(sols), 20)
        for row, s in zip(got, sols):
            assert np.array_equal(row, bt.RootEigenvalue(s.roots, p)(xs))


class TestNewtonCounters:
    def test_counts_of_solved_sectors(self, params, oracle):
        # every set the TQ roots start from converges, singular ones too
        for p in (params, generic(6, 1)):
            for n in (1, 2):
                es = oracle.eigensystem(p, n)
                sols = bt.solve_bae(es)
                cond = bt.conditioning(sols, es, 1e-12)
                assert cond["newton_converged"] == len(sols)
                assert cond["newton_above_tol"] == cond["newton_overflowed"] == 0

    def test_above_tolerance_and_overflow(self, params, oracle):
        # Newton overflows from a far seed; the counts follow the residuals
        # Newton left on the sets
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rel = bt._newton(np.array([[200 + 0j]]), ModelParams(L=6, gamma=0.7))
        assert rel[0] == np.inf
        es = oracle.eigensystem(params, 1)
        sols = bt.solve_bae(es)
        made = [replace(sols[0], newton_residual=r)
                for r in (0.0, 1e-12, 2e-12, 0.1, np.inf, rel[0])]
        cond = bt.conditioning(made, es, 1e-12)
        assert (cond["newton_converged"], cond["newton_above_tol"],
                cond["newton_overflowed"]) == (2, 2, 2)

    def test_newton_residual_is_not_compared(self, params, oracle):
        s = bt.solve_bae(oracle.eigensystem(params, 1))[0]
        assert replace(s, newton_residual=1.0) == s
        assert np.isnan(bt.roots_from_json(bt.roots_to_json([s]), params)[0].newton_residual)


class TestEigenvalueFormula:
    def test_closed_form_L2(self, p2):
        g, x, w = 0.7, 0.9, -0.35
        lam = bt.RootEigenvalue([w], p2)(x)
        expect = (np.sinh(x - g / 2) * np.sinh(x + g) ** 2
                  + np.sinh(x + 1.5 * g) * np.sinh(x) ** 2) / np.sinh(x + g / 2)
        assert abs(lam - expect) < 1e-12 * abs(expect)

    def test_permutation_and_strip_invariance(self, params):
        roots = [0.3 + 0.2j, -0.5 - 0.1j]
        x = 0.9
        v = bt.RootEigenvalue(roots, params)(x)
        assert abs(bt.RootEigenvalue(roots[::-1], params)(x) - v) < 1e-13 * abs(v)
        assert abs(bt.RootEigenvalue(
            [roots[0] + 1j * np.pi, roots[1]], params)(x) - v) < 1e-13 * abs(v)

    def test_removable_singularity_for_true_roots(self, params, oracle):
        # two-sided differences shrink: the pole at x -> w is removable
        w = bt.solve_bae(oracle.eigensystem(params, 1))[0].roots[0]
        ev = bt.RootEigenvalue([w], params)
        jumps = [abs(ev(w + eps) - ev(w - eps)) * eps for eps in (1e-2, 1e-3, 1e-4)]
        assert jumps[2] < jumps[0]
        assert jumps[2] < 1e-4

    def test_bethe_eigenvalues_are_polynomial(self, params, oracle):
        # the closed-form eigenvalue of any solved root set passes the
        # degree-L polynomial structure check
        from sixvertex.spectrum import polynomiality_check
        for n in (1, 2):
            for s in bt.solve_bae(oracle.eigensystem(params, n)):
                ev = bt.RootEigenvalue(s.roots, params)
                _, residual = polynomiality_check(ev, params)
                assert residual < 1e-9

    # values of the two-branch evaluator this formula replaced, at a
    # reference and a generic twisted inhomogeneous root set (x, d, value)
    FROZEN = {
        "reference": ((-1.0562305173394375 + 1.5707963267948966j,
                       0.3562305173394372 + 1.5707963267948966j), [
            (0.37 + 0.11j, 0, 1.8110628907226867 + 0.9438848791971268j),
            (0.37 + 0.11j, 1, 8.019028135678798 + 3.802271749781192j),
            (0.37 + 0.11j, 2, 32.304505920073176 + 15.121377483504139j),
            (0.9 - 0.2j, 0, 12.70287319491401 - 13.298850310098702j),
            (0.9 - 0.2j, 1, 51.65680987180765 - 53.21736110916321j),
            (0.9 - 0.2j, 2, 206.7270322868996 - 212.8857764572249j)]),
        "generic": ((-0.7299303902654369 - 1.2378919590122346j,
                     -0.2665660709663987 - 0.3343726931974534j), [
            (0.37 + 0.11j, 0, -0.1030530001087028 + 0.8942820830867564j),
            (0.37 + 0.11j, 1, 1.5144199287623152 + 3.399993224918714j),
            (0.37 + 0.11j, 2, 14.977873901650593 + 12.904701842692935j),
            (0.9 - 0.2j, 0, 5.529193364125334 - 6.140445451195703j),
            (0.9 - 0.2j, 1, 30.278899254024218 - 34.115267500776824j),
            (0.9 - 0.2j, 2, 145.5528107875045 - 156.48121205269246j)]),
    }

    @pytest.mark.parametrize("point", ["reference", "generic"])
    def test_values_of_the_branch_evaluator_kept(self, params, generic_params,
                                                 point):
        p = params if point == "reference" else generic_params
        roots, rows = self.FROZEN[point]
        ev = bt.RootEigenvalue(roots, p)
        for x, d, value in rows:
            assert abs(ev(x, d) - value) <= 1e-14 * abs(value)
        with pytest.raises(ValueError):
            ev(0.37, 3)

    def test_array_of_points_equals_scalar_calls(self):
        p = generic(6, 1)
        ev = bt.RootEigenvalue([0.37 + 0.41j, -0.52 + 0.18j, 0.1 - 0.3j], p)
        xs = np.linspace(0.21, 1.3, 20) + 0.05j
        for d in (0, 1, 2):
            got = ev(xs, d)
            want = np.array([ev(x, d) for x in xs])
            assert got.shape == xs.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
            es = oracle.eigensystem(params, n)
            rep = bt.match_spectrum(params, n, bt.solve_bae(es), es)
            assert rep.residual <= BETHE_MATCH
            assert len(rep.pairs) == count
            assert rep.max_deviation < 1e-8

    def test_dropping_a_solution_is_reported(self, params, oracle):
        es = oracle.eigensystem(params, 1)
        rep = bt.match_spectrum(params, 1, bt.solve_bae(es)[:-1], es)
        assert len(rep.unmatched_eigenvalues) == 1
        assert not rep.unmatched_solutions

    def test_pairs_listed_by_solution(self, generic_params, oracle):
        # the greedy walk finds pairs in cost order, which follows the last
        # bits of the costs; the report lists them by solution index
        es = oracle.eigensystem(generic_params, 2)
        sols = bt.solve_bae(es)
        rep = bt.match_spectrum(generic_params, 2, sols, es)
        assert not rep.unmatched_eigenvalues and not rep.unmatched_solutions
        assert [s for s, _, _ in rep.pairs] == list(range(len(sols)))

    @pytest.mark.parametrize("point", ["reference-4", "generic-6-1"])
    def test_a_root_moved_by_one_percent_fails(self, params, oracle, point):
        p = params if point == "reference-4" else generic(6, 1)
        for n in (1, 2):
            es = oracle.eigensystem(p, n)
            sols = bt.solve_bae(es)
            for i, s in enumerate(sols):
                moved = replace(s, roots=(1.01 * s.roots[0],) + s.roots[1:], pairs=())
                rep = bt.match_spectrum(p, n, sols[:i] + [moved] + sols[i + 1:], es)
                assert rep.residual > BETHE_MATCH, (n, i)

    def test_generic_twist_matching(self, generic_params, oracle):
        # empirical bijection question: measured, and complete at this point
        es = oracle.eigensystem(generic_params, 1)
        rep = bt.match_spectrum(generic_params, 1, bt.solve_bae(es), es)
        assert rep.residual <= BETHE_MATCH


class TestSerialization:
    def test_roundtrip(self, params, oracle):
        # roots and the deltas of tied pairs come back bit for bit, and so
        # does the residual recomputed from them
        for p in (params, generic(6, 14)):
            sols = bt.solve_bae(oracle.eigensystem(p, 2))
            back = bt.roots_from_json(bt.roots_to_json(sols), p)
            assert len(back) == len(sols)
            assert any(s.pairs for s in back) == (p is not params)
            for a, b in zip(sols, back):
                assert a.n == b.n and a.singular == b.singular
                assert a.roots == b.roots and a.pairs == b.pairs
                assert bt.solution_residual(b, p) == a.residual
                assert b.source == "user"

    def test_malformed_records_rejected(self, params):
        # a sector that is not an integer, and far roots that overflow a
        # product judging them, refused before the product warns: at L=4
        # sinh at the match points (1000), the residue-form products
        # (sinh(200)^4) and Q(x) of finite factors (two roots at 400)
        for n in (True, 1.0, "1"):
            with pytest.raises(TypeError, match="n must be an integer"):
                bt.roots_from_json(json.dumps([{"n": n, "roots": [[-0.35, 0.0]]}]), params)
        for roots in ([[1000, 0.0]], [[200, 0.0]], [[400, 0.0], [400.5, 0.0]]):
            with pytest.raises(ValueError, match="must be finite"):
                bt.roots_from_json(json.dumps([{"n": len(roots), "roots": roots}]), params)
        # a far root whose products stay finite is read
        sol, = bt.roots_from_json(json.dumps([{"n": 1, "roots": [[150, 0.0]]}]), params)
        assert sol.roots == (150,)

    def test_tied_root_must_follow_its_pair(self, oracle):
        # the written value of a tied root is checked against its pair
        p = generic(6, 14)
        s = next(s for s in bt.solve_bae(oracle.eigensystem(p, 2)) if s.pairs)
        _, j, _ = s.pairs[0]
        roots = list(s.roots)
        roots[j] += 1e-9
        assert bt.solution_residual(bt.BetheRoots(
            2, roots, 0.0, pairs=s.pairs), p) == float("inf")

    @pytest.mark.parametrize("pairs", [[(0, 3, 0.1)], [(1, 1, 0.1)],
                                       [(0, 1, 0.1), (1, 2, 0.1)],
                                       [(0, 1, 0.1), (1, 0, 0.1)],
                                       [(0, 1, 0.1), (2, 1, 0.1)],
                                       [(0, 1, 0.1), (0, 2, 0.1)],
                                       [(0, 1, np.nan)], [(0, 1, np.inf)]])
    def test_malformed_pairs_rejected(self, pairs):
        # out of range, self-tie, chain, loop, a root in two pairs, and a
        # delta that is not finite
        with pytest.raises(ValueError):
            bt.BetheRoots(n=3, roots=(0.1, 0.2, 0.3), residual=0.0, pairs=pairs)
