"""The model's exact symmetries as metamorphic relations.

Each image of a scenario has a spectrum known exactly from the scenario's
own: shifting every mu_j and the point x by s, rotating the mu_j
cyclically, and flipping every spin, which maps sector n at (phi1, phi2) to
sector L - n at (phi2, phi1).  The auxiliary linear problem's matrix,
`symmetric_m_matrix`, is unchanged by the shift and permuted with its
points.  Each relation is also run on a planted fault, named beside it, and
must fail there.

Bounds are stated from measured worst values over these scenarios (relative
to the largest eigenvalue of a sector, or the largest matrix entry): 4.4e-15
for the three spectrum relations, 2.4e-15 for the matrix shift and 3.7e-16
for the permutation; every fault reads 1.8e-2 or more.
"""

from dataclasses import replace

import numpy as np
import pytest

from sixvertex import functional as fx
from sixvertex.model import ModelParams, transfer

X, S = 0.31 + 0.05j, 0.17
MU = (0.12, -0.27, 0.05, 0.21, -0.08, -0.16)
TWIST = dict(phi1=1.2 + 0.1j, phi2=0.8 - 0.3j)
SCENARIOS = {"complex-gamma-L6": ModelParams(L=6, gamma=0.7 + 0.2j, mu=MU, **TWIST),
             "critical-L6": ModelParams(L=6, gamma=0.7j, mu=MU, **TWIST),
             "real-gamma-L5": ModelParams(L=5, gamma=0.7, mu=MU[:5], **TWIST)}
PTS = [0.31 + 0.05j, -0.42, 0.55, 0.9, -0.15]
FAULT = 1e-3


def spectra(p, x):
    """Eigenvalues of T(x), one array per sector n = 0..L."""
    return [np.linalg.eigvals(T[0]) for T in transfer(x, p)]


def distance(a, b):
    """Worst two-sided nearest-eigenvalue distance over the sectors of two
    spectra, each relative to the sector's largest eigenvalue."""
    def one(u, v):
        d = np.abs(u[:, None] - v)
        return max(d.min(axis=0).max(), d.min(axis=1).max()) / np.abs(u).max()
    return max(one(u, v) for u, v in zip(a, b))


def shifted(p):
    return replace(p, mu=tuple(m + S for m in p.mu))


def shift(spec, p):
    return distance(spec(p, X), spec(shifted(p), X + S))


def rotation(spec, p):
    return distance(spec(p, X), spec(replace(p, mu=p.mu[1:] + p.mu[:1]), X))


def spin_flip(spec, p):
    return distance(spec(p, X), spec(replace(p, phi1=p.phi2, phi2=p.phi1), X)[::-1])


# each relation with a builder that breaks it, named for what it gets wrong
SPECTRUM_RELATIONS = {
    "shift": (shift, "inhomogeneities dropped",
              lambda p, x: spectra(replace(p, mu=(0,) * p.L), x)),
    "rotation": (rotation, "first site's mu_1 read 0.05 off",
                 lambda p, x: spectra(replace(p, mu=(p.mu[0] + 0.05,) + p.mu[1:]), x)),
    "spin-flip": (spin_flip, "A built without phi1",
                  lambda p, x: spectra(replace(p, phi1=1), x)),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("relation", SPECTRUM_RELATIONS)
def test_spectrum_relation(scenario, relation):
    p = SCENARIOS[scenario]
    holds, fault, faulty = SPECTRUM_RELATIONS[relation]
    assert holds(spectra, p) <= 1e-13
    assert holds(faulty, p) > FAULT, fault


def relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def without_mu(pts, p):
    """Fault: the m-matrix built with the inhomogeneities dropped."""
    return fx.symmetric_m_matrix(pts, replace(p, mu=(0,) * p.L))


def rows_not_swapped_back(pts, p):
    """Fault: row j is row 0 at the x_0 <-> x_j swapped points, with entries
    0 and j left where the swap put them."""
    rows = []
    for j in range(len(pts)):
        sw = list(pts)
        sw[0], sw[j] = sw[j], sw[0]
        rows.append(fx.symmetric_m_matrix(sw, p)[0])
    return np.array(rows)


def m_shift(build, p, pts):
    return relative(build([x + S for x in pts], shifted(p)), build(pts, p))


def m_permutation(build, p, pts):
    idx = np.arange(len(pts))
    m = build(pts, p)
    return max(relative(build([pts[k] for k in perm], p), m[np.ix_(perm, perm)])
               for perm in (idx[::-1], np.roll(idx, 1)))


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_m_matrix_relations(scenario, n):
    p, pts = SCENARIOS[scenario], PTS[:n + 1]
    assert m_shift(fx.symmetric_m_matrix, p, pts) <= 2e-14
    assert m_shift(without_mu, p, pts) > FAULT
    assert m_permutation(fx.symmetric_m_matrix, p, pts) <= 4e-15
    assert m_permutation(rows_not_swapped_back, p, pts) > FAULT
