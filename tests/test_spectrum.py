from dataclasses import replace

import numpy as np
import pytest

from sixvertex import cli
from sixvertex.model import ModelParams, transfer
from sixvertex.reports import RunConfig
from sixvertex import spectrum
from sixvertex.spectrum import (DegenerateSpectrum, diagonalize_sector,
                                left_vector_from_C, polynomial_residuals,
                                polynomiality_check)


class TestDiagonalizeSector:
    def test_single_site_closed_form(self):
        p = ModelParams(L=1, gamma=0.7, mu=(0.3,), phi1=1.2, phi2=0.9)
        es = diagonalize_sector(p, 0)
        lam = es.lam(0)
        for x in (0.55, -0.2 + 0.1j):
            expect = 1.2 * p.a(x - 0.3) + 0.9 * p.b(x - 0.3)
            assert abs(lam(x) - expect) < 1e-12 * abs(expect)

    @pytest.mark.parametrize("L,gamma", [(2, 0.7), (3, 0.7), (5, 0.7), (6, 0.7),
                                         (3, 0.6 + 0.2j)],
                             ids=["L2", "L3", "L5", "L6", "L3-complex-gamma"])
    def test_trace_consistency(self, L, gamma):
        # generic twisted, inhomogeneous point; every sector
        rng = np.random.default_rng(L)
        p = ModelParams(L=L, gamma=gamma, mu=tuple(rng.uniform(-0.3, 0.3, L)),
                        phi1=1.3, phi2=0.8)
        x = 0.8 - 0.1j
        T = transfer([x], p)
        for n in range(L + 1):
            tr = np.trace(T[n][0])
            es = diagonalize_sector(p, n)
            assert abs(sum(es.eigenvalues_at(x)) - tr) < 1e-12 * abs(tr)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_sector_dimensions(self, params, oracle, n):
        from math import comb
        es = oracle.eigensystem(params, n)
        assert es.size == comb(params.L, n)

    def test_biorthogonality(self, generic_params, oracle):
        for n in (1, 2):
            es = oracle.eigensystem(generic_params, n)
            assert es.biorthogonality_defect() < 1e-9

    def test_eigen_residual_at_fresh_points(self, params, oracle, rng):
        es = oracle.eigensystem(params, 2)
        for _ in range(3):
            x = rng.uniform(-0.8, 1.2)
            Tb = transfer([x], params)[2][0]
            lams = es.eigenvalues_at(x)
            for k in range(es.size):
                r = np.linalg.norm(Tb @ es.right[:, k] - lams[k] * es.right[:, k])
                assert r < 1e-9 * np.linalg.norm(Tb)

    def test_eigenvalues_at_is_the_exact_sum_stack(self, generic_params, oracle):
        # one point or an array of points: the values of lam(), bit for bit
        es = oracle.eigensystem(generic_params, 2)
        xs = np.array([0.21, -0.4 + 0.3j, 1.1, 0.05j])
        vals = es.eigenvalues_at(xs)
        assert vals.shape == (es.size, len(xs))
        assert np.array_equal(vals, es.lam()(xs))
        for j, x in enumerate(xs):
            assert np.array_equal(vals[:, j], es.eigenvalues_at(x))

    def test_commuting_family_off_diagonals(self, generic_params, oracle, rng):
        # the eigenbasis built at x* must diagonalize T(y) for fresh y
        es = oracle.eigensystem(generic_params, 2)
        y = 0.93
        Tb = transfer([y], generic_params)[2][0]
        G = es.left @ Tb @ es.right
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-9 * np.abs(Tb).max()

    @pytest.mark.parametrize("L,n", [(4, 1), (4, 2), (7, 3)])
    def test_left_vectors_are_left_eigenvectors(self, L, n):
        rng = np.random.default_rng(L)
        p = ModelParams(L=L, gamma=0.7, mu=tuple(rng.uniform(-0.3, 0.3, L)),
                        phi1=1.3, phi2=0.8)
        es = diagonalize_sector(p, n)
        Tb = transfer([es.x_star], p)[n][0]
        r = np.linalg.norm(es.left @ Tb - es.eigs[:, None] * es.left, axis=1)
        assert np.all(r <= 1e-12 * np.linalg.norm(Tb, 2)
                      * np.linalg.norm(es.left, axis=1))

    @staticmethod
    def _singular_eig(monkeypatch, attempts):
        """np.linalg.eig whose first `attempts` calls return a right
        eigenvector matrix with a zero column, which `inv` rejects."""
        eig, calls = np.linalg.eig, []

        def singular(a):
            w, vr = eig(a)
            calls.append(a)
            if len(calls) <= attempts:
                vr[:, 1] = 0.0
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.inv(vr)
            return w, vr
        monkeypatch.setattr(np.linalg, "eig", singular)
        return calls

    def test_singular_eigenvectors_retry(self, generic_params, monkeypatch):
        calls = self._singular_eig(monkeypatch, attempts=1)
        es = diagonalize_sector(generic_params, 2)
        assert len(calls) == 2 and es.x_star != 0.2137
        assert es.biorthogonality_defect() < 1e-9

    def test_singular_eigenvectors_raise_degenerate(self, generic_params,
                                                   monkeypatch):
        calls = self._singular_eig(monkeypatch, attempts=10)
        with pytest.raises(DegenerateSpectrum):
            diagonalize_sector(generic_params, 2)
        assert len(calls) == spectrum._RETRIES + 1

    def test_collision_detection_raises(self, params):
        # at the root of unity gamma = i pi/2 two sector-2 eigenvalues of the
        # homogeneous L=4 chain coincide at every spectral point
        with pytest.raises(DegenerateSpectrum, match="collide"):
            diagonalize_sector(replace(params, gamma=1j * np.pi / 2), 2)

    def test_empty_arguments_rejected(self, params):
        with pytest.raises(ValueError):
            diagonalize_sector(params, 7)


def test_record_holds_plain_python_values(generic_params):
    # numbers reach json.dumps as Python floats and ints, not numpy scalars
    es = diagonalize_sector(generic_params, 2)

    def walk(v):
        if isinstance(v, dict):
            assert all(isinstance(k, str) for k in v)
            for w in v.values():
                yield from walk(w)
        elif isinstance(v, list):
            for w in v:
                yield from walk(w)
        else:
            yield v
    rec = es.to_record()
    assert {type(v) for v in walk(rec)} <= {str, int, float}
    assert np.array(rec["eigenvalues_at_x_star"]).shape == (es.size, 2)


class TestPolynomiality:
    def test_all_reference_eigenvalues(self, params, oracle):
        # exact sums against the direct bilinear form at fresh points, and
        # against an independent least-squares fit of that form
        for n in range(params.L + 1):
            es = oracle.eigensystem(params, n)
            assert polynomial_residuals([es])[0].max() < 1e-9
            for k in range(es.size):
                fit = oracle.fit(params, n, k)
                scale = np.abs(es.coeffs[k]).max()
                assert np.abs(fit.coeffs - es.coeffs[k]).max() < 1e-9 * scale

    def test_vacuum_sector_is_exact_degree_L(self, params, oracle):
        # the n=0 eigenvalue is lam_plus, an exact degree-L polynomial in u
        fit, residual = polynomiality_check(lambda x: params.lam_plus(x), params)
        assert residual < 1e-12
        assert abs(fit.coeffs[-1]) > 1e-3 * np.abs(fit.coeffs).max()

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_negative_control(self, L, tmp_path):
        # the planted non-eigenvalue of the `polynomial` check must fail the
        # degree-L fit at odd L too
        cfg = RunConfig.from_dict({"model": {"L": L, "gamma": 0.7},
                                   "sectors": [], "output_dir": str(tmp_path)})
        _, planted = cli.check_polynomial(cli.VerifyContext(cfg))
        assert planted.passed
        assert planted.details["measured"] > 1e-2

    def test_perturbed_coefficient_is_detected(self, generic_params, oracle):
        es = oracle.eigensystem(generic_params, 2)
        k = 1
        m = int(np.argmax(np.abs(es.coeffs[k])))
        coeffs = es.coeffs.copy()
        coeffs[k, m] *= 1 + 1e-6
        res, = polynomial_residuals([replace(es, coeffs=coeffs)])
        assert res[k] > 1e-9
        assert np.delete(res, k).max() < 1e-12

    def test_fit_evaluates_and_differentiates(self, params, oracle):
        lam = oracle.eigensystem(params, 2).lam(0)
        f = oracle.direct(params, 2, 0)
        x, h = 0.4, 1e-5
        assert abs(lam(x) - f(x)) < 1e-10
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        assert abs(lam(x, 1) - d1) < 1e-7 * max(abs(d1), 1.0)


class TestLeftVectorFromC:
    def test_empty_root_set_is_vacuum_bra(self, params):
        # sector 0 holds the one all-up basis state
        row = left_vector_from_C([], params)
        assert np.array_equal(row, [1.0])

    def test_bethe_bra_is_left_eigenvector(self):
        # L=2, n=1, root w = -gamma/2 solves the Bethe equations
        p = ModelParams(L=2, gamma=0.7)
        row = left_vector_from_C([-0.35], p)
        x = 0.9
        T = transfer([x], p)[1][0]
        out = row @ T
        k = int(np.argmax(np.abs(row)))
        lam = out[k] / row[k]
        assert np.abs(out - lam * row).max() < 1e-9 * np.abs(out).max()

    def test_non_root_is_not_left_eigenvector(self):
        p = ModelParams(L=2, gamma=0.7)
        row = left_vector_from_C([0.4], p)
        T = transfer([0.9], p)[1][0]
        out = row @ T
        k = int(np.argmax(np.abs(row)))
        lam = out[k] / row[k]
        assert np.abs(out - lam * row).max() > 1e-3 * np.abs(out).max()
