import numpy as np
import pytest

from sixvertex.model import ModelParams, transfer
from sixvertex.spectrum import diagonalize_sector, polynomiality_check


REFERENCE = dict(L=4, gamma=0.7, mu=(0.0, 0.0, 0.0, 0.0), phi1=1.0, phi2=1.0)


def generic_model(L, seed):
    """Twisted, inhomogeneous model point drawn from a seed (the generator of
    the benchmark's verify workload), as a config mapping."""
    rng = np.random.default_rng(seed)
    return {"L": L, "gamma": 0.7,
            "mu": [float(v) for v in rng.uniform(-0.3, 0.3, L)],
            "phi1": float(rng.uniform(0.7, 1.4)),
            "phi2": float(rng.uniform(0.7, 1.4))}


def scenario(L, point):
    """Model of one scenario, as a config mapping: the reference point, the
    benchmark's twisted inhomogeneous point at seed 1, or that point at
    complex gamma; "critical" and "critical-generic" are the reference and
    the generic point at gamma = 0.7i."""
    gamma = {"complex-gamma": "0.7+0.3j", "critical": "0.7j",
             "critical-generic": "0.7j"}.get(point, 0.7)
    if point in ("reference", "critical"):
        return {"L": L, "gamma": gamma}
    return {**generic_model(L, 1), "gamma": gamma}


@pytest.fixture(scope="session")
def params():
    """Reference scenario: L=4, gamma=0.7, homogeneous, untwisted."""
    return ModelParams(**REFERENCE)


@pytest.fixture(scope="session")
def generic_params():
    """Generic twisted, inhomogeneous point (away from any special locus)."""
    return ModelParams(L=4, gamma=0.7, mu=(0.11, -0.23, 0.31, 0.05),
                       phi1=1.3, phi2=0.8)


class OracleBank:
    """Session-wide store of sector eigendecompositions and fits."""

    def __init__(self):
        self._eigs = {}
        self._fits = {}

    def eigensystem(self, params, n):
        key = (params, n)
        if key not in self._eigs:
            self._eigs[key] = diagonalize_sector(params, n)
        return self._eigs[key]

    def direct(self, params, n, k):
        """x -> left_k T(x) right_k of sector n at a point or an array of
        points, building T at all of them in one stacked call."""
        es = self.eigensystem(params, n)
        return lambda x: (es.left[k] @ transfer(np.ravel(x), params)[n]
                          @ es.right[:, k]).reshape(np.shape(x))

    def fit(self, params, n, k):
        """Degree-L least-squares fit of the direct bilinear form: a reference
        independent of the exact sums the eigensystem stores."""
        key = (params, n, k)
        if key not in self._fits:
            fit, residual = polynomiality_check(self.direct(params, n, k), params)
            assert residual < 1e-9
            self._fits[key] = fit
        return self._fits[key]


@pytest.fixture(scope="session")
def oracle():
    return OracleBank()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
