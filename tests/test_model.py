import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generic_model, scenario
from sixvertex import model
from sixvertex.spectrum import diagonalize_sector
from sixvertex.model import (ExpSum, HighestWeightData, ModelParams,
                             monodromy_blocks, popcount, r_matrix,
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


def assemble(blocks, L):
    """Dense 2^L x 2^L (A, B, C, D) of every point of a stack, from their
    sector blocks (operator 2 i + k takes sector n to n + k - i)."""
    dense = []
    for op, stacks in enumerate(blocks):
        i, k = divmod(op, 2)
        M = np.zeros((len(stacks[0]), 2 ** L, 2 ** L), dtype=complex)
        for n, S in enumerate(stacks):
            if S.shape[1]:
                M[np.ix_(range(len(S)), sector_indices(L, n + k - i),
                         sector_indices(L, n))] = S
        dense.append(M)
    return dense


def magnetization(L):
    """Diagonal of H = sum_j (E11 - E22)_j in the chain basis."""
    return np.array([L - 2 * popcount(s) for s in range(2 ** L)])


class TestMonodromy:
    def test_single_site_blocks(self):
        # 4x4 hand computation at L=1
        p = ModelParams(L=1, gamma=0.5, mu=(0.0,), phi1=1.3, phi2=0.8)
        x = 1.0
        A, B, C, D = (M[0] for M in assemble(monodromy_blocks([x], p), 1))
        a, b, c = p.a(x), p.b(x), p.c
        assert np.allclose(A, 1.3 * np.diag([a, b]))
        assert np.allclose(D, 0.8 * np.diag([b, a]))
        assert np.allclose(B, 1.3 * c * np.array([[0, 0], [1, 0]]))
        assert np.allclose(C, 0.8 * c * np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("L", range(1, 8))
    def test_matches_dense_ordered_product(self, L):
        p = twisted_inhomogeneous(L)
        x = 0.41 + 0.13j
        for got, ref in zip(assemble(monodromy_blocks([x], p), L), dense_monodromy(x, p)):
            assert np.abs(got[0] - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("L", range(1, 9))
    def test_matches_kronecker_recursion(self, L):
        # every sector block of A, B, C, D against the np.kron build, on the
        # twisted complex-gamma point and, up to L = 6, the three scenarios
        points = [twisted_inhomogeneous(L)] + [
            ModelParams.from_dict(scenario(L, point))
            for point in ("reference", "generic", "complex-gamma")
            if L <= 6]
        xs = [0.41 + 0.13j, -0.73, 0.2 - 0.35j]
        for p in points:
            built = monodromy_blocks(xs, p)
            for k, x in enumerate(xs):
                for op, ref in enumerate(kron_monodromy(x, p)):
                    i, j = divmod(op, 2)
                    scale = np.abs(ref).max()
                    for n, S in enumerate(built[op]):
                        rows = sector_indices(L, n + j - i) if S.shape[1] else []
                        block = ref[np.ix_(rows, sector_indices(L, n))]
                        assert np.abs(S[k] - block).max(initial=0) <= 1e-15 * scale

    def test_point_alone_equals_in_stack(self, monkeypatch):
        # bit-identical alone, in any order of a stack, and across chunks
        p = ModelParams.from_dict(scenario(6, "complex-gamma"))
        xs = np.array([0.41 + 0.13j, -0.73, 0.2 - 0.35j, 1.1, -0.05 + 0.6j])
        alone = [monodromy_blocks([x], p) for x in xs]
        stacks = [(xs, monodromy_blocks(xs, p)),
                  (xs[::-1], monodromy_blocks(xs[::-1], p))]
        monkeypatch.setattr(model, "_CHUNK_ENTRIES", 2 * model._layout(6)[1])
        stacks.append((xs, monodromy_blocks(xs, p)))      # chunks of 2, 2, 1
        for order, blocks in stacks:
            for k, x in enumerate(order):
                ref = alone[list(xs).index(x)]
                for op in range(4):
                    for S, R in zip(blocks[op], ref[op]):
                        assert np.array_equal(S[k], R[0])
        A, _, _, D = stacks[-1][1]
        for T, An, Dn in zip(transfer(xs, p), A, D):
            assert np.array_equal(T, An + Dn)

    def test_blocks_do_not_share_memory(self):
        # a caller that writes into one block leaves the others as they are
        blocks = [S for stacks in monodromy_blocks([0.3, -0.2], twisted_inhomogeneous(3))
                  for S in stacks]
        for i, X in enumerate(blocks):
            for Y in blocks[i + 1:]:
                assert not np.shares_memory(X, Y)
        D = blocks[-1].copy()
        blocks[0][...] = 7.0
        assert np.array_equal(blocks[-1], D)

    def test_singular_vector(self, rng):
        # C(x)|0> = 0 for all x (C has no block from sector 0); B(x) does not
        # annihilate a generic vector
        p = ModelParams(L=3, gamma=0.7, mu=(0.0, 0.2, -0.4), phi1=1.1, phi2=0.9)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        xs = [p.mu[0], 0.63, -0.8 + 0.3j]
        _, B, C, _ = monodromy_blocks(xs, p)
        assert C[0].shape == (3, 0, 1)
        for Bk in assemble(monodromy_blocks(xs, p), 3)[1]:
            assert np.abs(Bk @ v).max() > 1e-3

    def test_near_degenerate_anisotropy_diagonal(self):
        # as gamma -> 0 all c-weights vanish and A becomes scalar
        p = ModelParams(L=3, gamma=1e-10, mu=(0.1, -0.2, 0.3), phi1=1.2, phi2=0.9)
        x = 0.77
        A = assemble(monodromy_blocks([x], p), 3)[0][0]
        target = 1.2 * np.prod([np.sinh(x - m) for m in p.mu]) * np.eye(8)
        assert np.abs(A - target).max() < 1e-8

    def test_highest_weight_action(self, generic_params, generic_hw, rng):
        p, hw = generic_params, generic_hw
        e0 = np.zeros(p.dim)
        e0[0] = 1.0
        xs = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-0.3, 0.3, 10)
        for x, A, B, C, D in zip(xs, *assemble(monodromy_blocks(xs, p), p.L)):
            sc = max(abs(hw.lam_a(x)), abs(hw.lam_d(x)), 1.0)
            assert np.abs(A @ e0 - p.phi1 * hw.lam_a(x) * e0).max() < 1e-12 * sc
            assert np.abs(D @ e0 - p.phi2 * hw.lam_d(x) * e0).max() < 1e-12 * sc
            assert np.abs(C @ e0).max() < 1e-14 * sc

    def test_magnetization_blocks_exact(self, generic_params):
        # in the independent Kronecker build the entries off the sector
        # blocks are exact zeros: A, D preserve popcount, B raises, C lowers;
        # so the sector blocks are the whole operators
        for p in (generic_params, ModelParams.from_dict(scenario(5, "complex-gamma"))):
            hdiag = magnetization(p.L)
            delta = hdiag[:, None] - hdiag[None, :]
            for M, shift in zip(kron_monodromy(0.37 - 0.2j, p), (0, -2, 2, 0)):
                assert np.abs(M[delta != shift]).max() == 0.0


def sector_norm(T):
    """Frobenius norm over all sector blocks of one operator."""
    return np.sqrt(sum(np.linalg.norm(Tn) ** 2 for Tn in T))


class TestTransfer:
    def test_single_site_eigenvalues(self):
        p = ModelParams(L=1, gamma=0.7, mu=(0.0,), phi1=1.2, phi2=0.9)
        x = 0.55
        T = transfer([x], p)
        assert np.allclose([T[0][0, 0, 0], T[1][0, 0, 0]],
                           [1.2 * p.a(x) + 0.9 * p.b(x), 1.2 * p.b(x) + 0.9 * p.a(x)])

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_commuting_family(self, L, rng):
        p = ModelParams(L=L, gamma=0.7)
        for _ in range(3):
            T = transfer(rng.uniform(-1, 1, 2), p)
            num = sector_norm([Tn[0] @ Tn[1] - Tn[1] @ Tn[0] for Tn in T])
            assert num < 1e-10 * sector_norm([Tn[0] for Tn in T]) * sector_norm(
                [Tn[1] for Tn in T])

    def test_zero_point_permutation(self, params):
        # T(0) = c^L * O with O a permutation operator, one per sector
        p = params
        for T in transfer([0.0], p):
            O = T[0] / p.c ** p.L
            assert np.abs(np.abs(O).sum(axis=0) - 1).max() < 1e-12
            assert np.abs(np.abs(O).sum(axis=1) - 1).max() < 1e-12
            assert np.abs(O @ O.conj().T - np.eye(len(O))).max() < 1e-12

    def test_trace_identity(self, generic_params):
        # T = A + D on every sector, and its trace is that of A plus D
        xs = [0.41, -0.2 + 0.3j]
        A, _, _, D = monodromy_blocks(xs, generic_params)
        T = transfer(xs, generic_params)
        for Tn, An, Dn in zip(T, A, D):
            assert np.array_equal(Tn, An + Dn)
        tr = sum(np.trace(Tn, axis1=1, axis2=2) for Tn in T)
        trA = sum(np.trace(An, axis1=1, axis2=2) for An in A)
        trD = sum(np.trace(Dn, axis1=1, axis2=2) for Dn in D)
        assert np.all(np.abs(tr - trA - trD) < 1e-12 * np.abs(tr))


def dense_exchange(xs, params, built):
    """Worst residual of the seven exchange relations over every pair of xs,
    and max|A + D| over xs, transcribed on the dense Kronecker blocks built
    at the point `built` (the relations' coefficients use `params`)."""
    a, b, c = params.a, params.b, params.c
    blocks = [kron_monodromy(x, built) for x in xs]
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


def max_t(xs, p):
    return max(np.abs(T).max() for T in transfer(xs, p))


class TestExchange:
    POINTS = [0.41, -0.27, 0.83, -0.66]

    def test_relations_small(self):
        p = ModelParams(L=4, gamma=0.7)
        res, t_norm = yba_exchange_residual([0.4, -0.3], p)
        assert t_norm == max_t([0.4, -0.3], p)
        assert res < 1e-11 * t_norm ** 2

    def test_swap_self_consistency(self, generic_params):
        p = generic_params
        scale = max_t([0.52], p) ** 2
        r1, _ = yba_exchange_residual([0.52, -0.17], p)
        r2, _ = yba_exchange_residual([-0.17, 0.52], p)
        assert r1 < 1e-11 * scale and r2 < 1e-11 * scale

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("built_gamma", [None, 0.75])
    def test_point_set_is_the_max_over_its_pairs(self, monkeypatch, L, built_gamma):
        # with the blocks built at another gamma than the coefficients use,
        # the relations fail at O(1) and the comparison is not one of
        # rounding noise
        p = built = ModelParams.from_dict(generic_model(L, 2))
        if built_gamma is not None:
            blocks, built = model.monodromy_blocks, ModelParams.from_dict(
                {**generic_model(L, 2), "gamma": built_gamma})
            monkeypatch.setattr(model, "monodromy_blocks",
                                lambda xs, _: blocks(xs, built))
        res, t_norm = yba_exchange_residual(self.POINTS, p)
        ref, ref_norm = dense_exchange(self.POINTS, p, built)
        assert abs(t_norm - ref_norm) <= 1e-15 * ref_norm
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
