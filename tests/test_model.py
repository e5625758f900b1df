import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_model
from sixvertex import model
from sixvertex.spectrum import diagonalize_sector
from sixvertex.model import (ExpSum, HighestWeightData, ModelParams,
                             magnetization_diagonal, monodromy_blocks,
                             popcount, r_matrix, sector_block,
                             sector_indices, transfer, verify_ybe,
                             yba_exchange_residual)


finite_reals = st.floats(-1.5, 1.5)
small_complex = st.builds(complex, finite_reals, st.floats(-0.5, 0.5))


class TestWeights:
    @given(x=small_complex, g=small_complex)
    @settings(max_examples=60, deadline=None)
    def test_addition_theorem(self, x, g):
        # a(x) = b(x) cosh(g) + c cosh(x) for every complex x, g
        a = np.sinh(x + g)
        lhs = a - np.sinh(x) * np.cosh(g) - np.sinh(g) * np.cosh(x)
        assert abs(lhs) < 1e-12 * max(1.0, abs(a))

    def test_degenerate_values(self):
        p = ModelParams(L=2, gamma=0.7)
        assert p.b(0.0) == 0.0
        assert p.a(0.0) == p.c


class TestRMatrix:
    def test_zero_argument_is_permutation(self):
        g = 0.7
        P = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(r_matrix(0.0, g), np.sinh(g) * P, atol=1e-15)

    def test_zero_anisotropy_is_scalar(self):
        x = 0.83
        assert np.allclose(r_matrix(x, 0.0), np.sinh(x) * np.eye(4), atol=1e-15)

    def test_frozen_entries(self):
        # independent evaluation of sinh at (x=1, gamma=0.5)
        R = r_matrix(1.0, 0.5)
        assert R[0, 0] == pytest.approx(2.1292794550948173)
        assert R[1, 1] == pytest.approx(1.1752011936438014)
        assert R[1, 2] == pytest.approx(0.5210953054937474)


class TestYangBaxter:
    def test_coincident_points(self):
        assert verify_ybe(0.4, 0.4, -0.9, 0.8) < 1e-12

    def test_random_real_points(self, rng):
        worst = 0.0
        for _ in range(50):
            x1, x2, x3 = rng.uniform(-1.5, 1.5, 3)
            g = rng.uniform(0.2, 1.2)
            worst = max(worst, verify_ybe(x1, x2, x3, g))
        assert worst < 1e-12

    def test_complex_points(self):
        assert verify_ybe(0.3 + 0.2j, -0.7 - 0.1j, 1.1 + 0.05j, 0.8 + 0.3j) < 1e-12

    def test_batch_equals_per_set_calls(self, rng):
        # 50 point sets and anisotropies as one batched product
        x = rng.uniform(-1.5, 1.5, (4, 50)) + 1j * rng.uniform(-0.5, 0.5, (4, 50))
        batched = verify_ybe(*x)
        assert batched.shape == (50,)
        assert np.array_equal(batched, [verify_ybe(*s) for s in x.T])

    def test_wrong_weights_fail(self, monkeypatch):
        # the residual tests the R-matrix, not its embedding into three slots
        exact = model.r_matrix

        def off(x, gamma):
            R = exact(x, gamma)
            R[1, 2] *= 1.1
            R[2, 1] *= 1.1
            return R

        monkeypatch.setattr(model, "r_matrix", off)
        assert verify_ybe(0.3 + 0.2j, -0.7 - 0.1j, 1.1 + 0.05j, 0.8 + 0.3j) > 1e-2


def twisted_inhomogeneous(L):
    """Complex gamma, twisted, inhomogeneous point drawn from the seed L."""
    rng = np.random.default_rng(L)
    return ModelParams(L=L, gamma=0.7 + 0.3j, mu=tuple(rng.uniform(-0.3, 0.3, L)),
                       phi1=1.3, phi2=0.8 - 0.2j)


def kron_monodromy(x, p):
    """The block recursion written with np.kron: (A, B) <- (A r11 + B r21,
    A r12 + B r22), likewise (C, D), then the twist."""
    A = D = np.ones((1, 1), dtype=complex)
    B = C = np.zeros((1, 1), dtype=complex)
    for m in p.mu:
        R = r_matrix(x - m, p.gamma).reshape(2, 2, 2, 2)   # R[a, s, b, t]
        r11, r12, r21, r22 = R[0, :, 0], R[0, :, 1], R[1, :, 0], R[1, :, 1]
        A, B, C, D = (np.kron(A, r11) + np.kron(B, r21),
                      np.kron(A, r12) + np.kron(B, r22),
                      np.kron(C, r11) + np.kron(D, r21),
                      np.kron(C, r12) + np.kron(D, r22))
    return p.phi1 * A, p.phi1 * B, p.phi2 * C, p.phi2 * D


def dense_monodromy(x, p):
    """Gamma0 R_01(x - mu_1) ... R_0L(x - mu_L) as one 2^(L+1) matrix on
    aux (x) chain, aux the most significant slot.  Each R_0j is R (x) 1 on
    the slots (aux, j, the other sites in order), carried to the slot order
    (aux, 1, ..., L) by permuting the axes of its tensor."""
    L, n = p.L, p.L + 1
    T = np.kron(np.diag([p.phi1, p.phi2]), np.eye(2 ** L))
    for j, m in enumerate(p.mu, start=1):
        slots = [0, j] + [s for s in range(1, L + 1) if s != j]
        perm = list(np.argsort(slots))
        R0j = np.kron(r_matrix(x - m, p.gamma), np.eye(2 ** (L - 1)))
        R0j = R0j.reshape((2,) * 2 * n).transpose(perm + [n + k for k in perm])
        T = T @ R0j.reshape(2 ** n, 2 ** n)
    T = T.reshape(2, 2 ** L, 2, 2 ** L)
    return T[0, :, 0], T[0, :, 1], T[1, :, 0], T[1, :, 1]


class TestMonodromy:
    def test_single_site_blocks(self):
        # 4x4 hand computation at L=1
        p = ModelParams(L=1, gamma=0.5, mu=(0.0,), phi1=1.3, phi2=0.8)
        x = 1.0
        A, B, C, D = monodromy_blocks(x, p)
        a, b, c = p.a(x), p.b(x), p.c
        assert np.allclose(A, 1.3 * np.diag([a, b]))
        assert np.allclose(D, 0.8 * np.diag([b, a]))
        assert np.allclose(B, 1.3 * c * np.array([[0, 0], [1, 0]]))
        assert np.allclose(C, 0.8 * c * np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("L", range(1, 8))
    def test_matches_dense_ordered_product(self, L):
        p = twisted_inhomogeneous(L)
        x = 0.41 + 0.13j
        for got, ref in zip(monodromy_blocks(x, p), dense_monodromy(x, p)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("L", range(1, 9))
    def test_matches_kronecker_recursion(self, L):
        p = twisted_inhomogeneous(L)
        x = 0.41 + 0.13j
        for got, ref in zip(monodromy_blocks(x, p), kron_monodromy(x, p)):
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_blocks_do_not_share_memory(self):
        # a caller that writes into one block leaves the others as they are
        blocks = monodromy_blocks(0.3, twisted_inhomogeneous(3))
        for i, X in enumerate(blocks):
            for Y in blocks[i + 1:]:
                assert not np.shares_memory(X, Y)
        D = blocks[3].copy()
        blocks[0][...] = 7.0
        assert np.array_equal(blocks[3], D)

    def test_singular_vector(self, rng):
        # C(x)|0> = 0 for all x; B(x) does not annihilate a generic vector
        p = ModelParams(L=3, gamma=0.7, mu=(0.0, 0.2, -0.4), phi1=1.1, phi2=0.9)
        e0 = np.zeros(8)
        e0[0] = 1.0
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        for x in (p.mu[0], 0.63, -0.8 + 0.3j):
            A, B, C, D = monodromy_blocks(x, p)
            assert np.abs(C @ e0).max() == 0.0
            assert np.abs(B @ v).max() > 1e-3

    def test_near_degenerate_anisotropy_diagonal(self):
        # as gamma -> 0 all c-weights vanish and A becomes scalar
        p = ModelParams(L=3, gamma=1e-10, mu=(0.1, -0.2, 0.3), phi1=1.2, phi2=0.9)
        x = 0.77
        A, _, _, _ = monodromy_blocks(x, p)
        target = 1.2 * np.prod([np.sinh(x - m) for m in p.mu]) * np.eye(8)
        assert np.abs(A - target).max() < 1e-8

    def test_highest_weight_action(self, generic_params, generic_hw, rng):
        p, hw = generic_params, generic_hw
        e0 = np.zeros(p.dim)
        e0[0] = 1.0
        for _ in range(10):
            x = rng.uniform(-1, 1) + 1j * rng.uniform(-0.3, 0.3)
            A, B, C, D = monodromy_blocks(x, p)
            sc = max(abs(hw.lam_a(x)), abs(hw.lam_d(x)), 1.0)
            assert np.abs(A @ e0 - p.phi1 * hw.lam_a(x) * e0).max() < 1e-12 * sc
            assert np.abs(D @ e0 - p.phi2 * hw.lam_d(x) * e0).max() < 1e-12 * sc
            assert np.abs(C @ e0).max() < 1e-14 * sc

    def test_magnetization_blocks_exact(self, generic_params):
        # structural zeros are exact: A, D preserve popcount, B raises, C lowers
        A, B, C, D = monodromy_blocks(0.37, generic_params)
        hdiag = magnetization_diagonal(generic_params.L)
        delta = hdiag[:, None] - hdiag[None, :]
        for M, shift in ((A, 0), (D, 0), (B, -2), (C, 2)):
            assert np.abs(M[delta != shift]).max() == 0.0


class TestTransfer:
    def test_single_site_eigenvalues(self):
        p = ModelParams(L=1, gamma=0.7, mu=(0.0,), phi1=1.2, phi2=0.9)
        x = 0.55
        T = transfer(x, p)
        assert np.allclose(np.diag(T), [1.2 * p.a(x) + 0.9 * p.b(x),
                                        1.2 * p.b(x) + 0.9 * p.a(x)])

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_commuting_family(self, L, rng):
        p = ModelParams(L=L, gamma=0.7)
        for _ in range(3):
            x, y = rng.uniform(-1, 1, 2)
            Tx, Ty = transfer(x, p), transfer(y, p)
            num = np.linalg.norm(Tx @ Ty - Ty @ Tx)
            assert num < 1e-10 * np.linalg.norm(Tx) * np.linalg.norm(Ty)

    def test_zero_point_permutation(self, params):
        # T(0) = c^L * O with O a permutation operator
        p = params
        O = transfer(0.0, p) / p.c ** p.L
        assert np.abs(np.abs(O).sum(axis=0) - 1).max() < 1e-12
        assert np.abs(np.abs(O).sum(axis=1) - 1).max() < 1e-12
        assert np.abs(O @ O.conj().T - np.eye(p.dim)).max() < 1e-12

    def test_trace_identity(self, generic_params):
        x = 0.41
        A, _, _, D = monodromy_blocks(x, generic_params)
        T = transfer(x, generic_params)
        assert abs(np.trace(T) - np.trace(A) - np.trace(D)) < 1e-12 * abs(np.trace(T))


def dense_exchange(xs, params):
    """Worst residual of the seven exchange relations over every pair of xs,
    and max|A + D| over xs, transcribed on the dense blocks of each build."""
    a, b, c = params.a, params.b, params.c
    blocks = [[M.copy() for M in model.monodromy_blocks(x, params)] for x in xs]
    worst = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            x1, x2 = xs[i], xs[j]
            (A1, B1, _, D1), (A2, B2, _, D2) = blocks[i], blocks[j]
            rels = [
                A1 @ A2 - A2 @ A1, D1 @ D2 - D2 @ D1, B1 @ B2 - B2 @ B1,
                A1 @ B2 - a(x2 - x1) / b(x2 - x1) * B2 @ A1 - c / b(x1 - x2) * B1 @ A2,
                B1 @ A2 - a(x2 - x1) / b(x2 - x1) * A2 @ B1 - c / b(x1 - x2) * A1 @ B2,
                D1 @ B2 - a(x1 - x2) / b(x1 - x2) * B2 @ D1 - c / b(x2 - x1) * B1 @ D2,
                B1 @ D2 - a(x1 - x2) / b(x1 - x2) * D2 @ B1 - c / b(x2 - x1) * D1 @ B2]
            worst = max(worst, max(np.abs(r).max() for r in rels))
    return worst, max(np.abs(A + D).max() for A, _, _, D in blocks)


class TestExchange:
    POINTS = [0.41, -0.27, 0.83, -0.66]

    def test_relations_small(self):
        p = ModelParams(L=4, gamma=0.7)
        res, t_norm = yba_exchange_residual([0.4, -0.3], p)
        assert t_norm == max(np.abs(transfer(x, p)).max() for x in (0.4, -0.3))
        assert res < 1e-11 * t_norm ** 2

    def test_swap_self_consistency(self, generic_params):
        p = generic_params
        scale = np.abs(transfer(0.52, p)).max() ** 2
        r1, _ = yba_exchange_residual([0.52, -0.17], p)
        r2, _ = yba_exchange_residual([-0.17, 0.52], p)
        assert r1 < 1e-11 * scale and r2 < 1e-11 * scale

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("built_gamma", [None, 0.75])
    def test_point_set_is_the_max_over_its_pairs(self, monkeypatch, L, built_gamma):
        # with the blocks built at another gamma than the coefficients use,
        # the relations fail at O(1) and the comparison is not one of
        # rounding noise
        p = ModelParams.from_dict(generic_model(L, 2))
        if built_gamma is not None:
            blocks, other = model.monodromy_blocks, ModelParams.from_dict(
                {**generic_model(L, 2), "gamma": built_gamma})
            monkeypatch.setattr(model, "monodromy_blocks",
                                lambda x, _: blocks(x, other))
        res, t_norm = yba_exchange_residual(self.POINTS, p)
        ref, ref_norm = dense_exchange(self.POINTS, p)
        assert t_norm == ref_norm
        assert abs(res - ref) <= 1e-13 * (ref if built_gamma else ref_norm ** 2)
        pairs = max(yba_exchange_residual([x1, x2], p)[0]
                    for k, x1 in enumerate(self.POINTS) for x2 in self.POINTS[k + 1:])
        assert abs(res - pairs) <= 1e-13 * (ref if built_gamma else ref_norm ** 2)
        if built_gamma:
            assert ref > 1e-3 * ref_norm ** 2

    def test_singular_point_rejected(self, params):
        with pytest.raises(ValueError):
            yba_exchange_residual([0.4, 0.4], params)
        # one singular pair inside a set, also b(x1 - x2) = 0 at x1 - x2 = i pi
        for xs in ([0.1, 0.4, -0.3, 0.4], [0.1, 0.4, -0.3, 0.4 + 1j * np.pi]):
            with pytest.raises(ValueError):
                yba_exchange_residual(xs, params)


class TestExpSum:
    def test_expansion_reproduces_product(self, rng):
        offsets = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        f = ExpSum.sinh_product(offsets)
        assert f.ms.tolist() == [-3, -1, 1, 3]
        xs = np.array([0.73, -0.2 + 0.4j])
        for x, fx in zip(xs, f(xs)):
            expect = np.prod(np.sinh(x + offsets))
            assert abs(f(x) - expect) < 1e-12
            assert abs(fx - expect) < 1e-12

    @pytest.mark.parametrize("x", [
        0.31 - 0.05j, -0.42, np.array([0.43, -0.42]),
        0.3 + 0.02 * np.exp(2j * np.pi * np.arange(8) / 8),
        np.array([[0.2, -0.42], [0.9, 0.55j]])],
        ids=["scalar", "real", "real-array", "circle", "grid"])
    def test_stack_equals_row_by_row(self, x):
        # the sector-2 eigenvalues of a generic L=6 point as one stack round
        # exactly as each row alone, at scalar and at array x, real or complex
        es = diagonalize_sector(ModelParams.from_dict(generic_model(6, 1)), 2)
        stack = es.lam()
        for d in range(3):
            got = stack(x, d)
            assert got.shape == (es.size,) + np.shape(x)
            for k in range(es.size):
                row = ExpSum(stack.ms, es.coeffs[k])
                assert np.shape(row(x, d)) == np.shape(x)
                assert np.array_equal(got[k], row(x, d))
                at_points = [row(xx, d) for xx in np.ravel(x)]
                assert np.array_equal(np.ravel(got[k]), at_points)
                assert np.array_equal(got[k], row(np.asarray(x, dtype=complex), d))


    def test_memory_order_does_not_change_rounding(self):
        # an F-ordered coefficient stack evaluates bit-identically to its
        # C-ordered copy and to each of its rows alone
        p = ModelParams.from_dict({**generic_model(8, 1), "gamma": "0.7+0.3j"})
        es = diagonalize_sector(p, 3)
        ms, f_order = es.lam().ms, np.asfortranarray(es.coeffs)
        assert not f_order.flags.c_contiguous
        x = np.array([0.31 - 0.05j, -0.42, 0.9 + 0.2j])
        for d in range(3):
            got = ExpSum(ms, f_order)(x, d)
            assert np.array_equal(got, ExpSum(ms, np.ascontiguousarray(f_order))(x, d))
            for k in range(es.size):
                assert np.array_equal(got[k], ExpSum(ms, f_order[k])(x, d))


class TestHighestWeightData:
    def test_homogeneous_values(self, params, hw):
        assert hw.lam_d(0.0) == 0.0
        assert abs(hw.lam_a(0.0) - params.c ** params.L) < 1e-14

    @pytest.mark.parametrize("d,h,rel", [(1, 1e-5, 1e-8), (2, 1e-4, 1e-6),
                                         (3, 1e-2, 1e-2)])
    def test_derivatives_match_finite_differences(self, generic_hw, d, h, rel):
        # step chosen per order: the eps/h^d rounding floor dominates otherwise
        x = 0.37 + 0.11j
        for f in (generic_hw.lam_a, generic_hw.lam_d,
                  generic_hw.lam_plus, generic_hw.lam_minus):
            if d == 1:
                fd = (f(x + h) - f(x - h)) / (2 * h)
            elif d == 2:
                fd = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
            else:
                fd = (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                      - f(x - 2 * h)) / (2 * h ** 3)
            assert abs(fd - f(x, d)) < rel * max(abs(f(x, d)), 1.0)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(L=0, gamma=0.7)
        with pytest.raises(ValueError):
            ModelParams(L=2, gamma=0.7, mu=(0.0,))
        with pytest.raises(ValueError):
            ModelParams(L=2, gamma=0.7, phi1=0.0)
        with pytest.raises(ValueError):
            ModelParams(L=2, gamma=0.0)

    def test_dict_roundtrip(self, generic_params):
        d = generic_params.to_dict()
        p2 = ModelParams.from_dict(d)
        assert p2 == generic_params

    def test_from_dict_accepts_strings_and_pairs(self):
        p = ModelParams.from_dict({"L": 2, "gamma": "0.5+0.1j",
                                   "mu": [[0.1, 0.0], [0.0, -0.2]],
                                   "phi1": 1.0, "phi2": [0.0, 1.0]})
        assert p.gamma == 0.5 + 0.1j
        assert p.mu == (0.1, -0.2j)
        assert p.phi2 == 1j


def test_sector_indices_partition():
    L = 5
    all_idx = sorted(i for n in range(L + 1) for i in sector_indices(L, n))
    assert all_idx == list(range(2 ** L))
    assert len(sector_indices(L, 2)) == 10
    assert all(popcount(s) == 2 for s in sector_indices(L, 2))


def test_sector_block_equals_fresh_fancy_index():
    # the cached, read-only index pair slices exactly what a fresh np.ix_ does
    L = 5
    M = np.arange(4 ** L, dtype=float).reshape(2 ** L, 2 ** L) * (1 + 0.5j)
    for n_row, n_col in [(2, 2), (3, 2), (1, 2), (0, 0), (5, 4)]:
        rows = np.flatnonzero([popcount(s) == n_row for s in range(2 ** L)])
        cols = np.flatnonzero([popcount(s) == n_col for s in range(2 ** L)])
        got = sector_block(M, L, n_row, n_col)
        assert np.array_equal(got, M[np.ix_(rows, cols)])
        got[...] = 0                                     # a copy, not a view
        assert np.array_equal(sector_block(M, L, n_row, n_col), M[np.ix_(rows, cols)])
    for idx in model._block_index(L, 2, 3):
        assert not idx.flags.writeable
    with pytest.raises(ValueError):
        sector_block(M, L, 6, 0)
