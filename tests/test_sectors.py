"""The sectors each check declares on its `@_check` line, against the
sectors of the chain and the sectors at which its identities are stated."""

import pytest

from sixvertex import cli


@pytest.mark.parametrize("L", range(1, 11))
def test_entries_are_sectors_of_the_chain(L):
    for name, check in cli.CHECKS.items():
        ns = list(check.sectors(L))
        assert all(isinstance(n, int) and 0 <= n <= L for n in ns), (name, ns)
        assert ns == sorted(set(ns)), (name, ns)


def expected(name, L):
    """The sectors of each check, as the identities are stated: the linear
    problem and its determinants in n <= L - 1, `conserved-n1` only where
    sector 1 leaves lam_minus a second zero (L >= 2)."""
    def span(lo, hi):
        return list(range(lo, hi + 1))
    return {
        "transfer-commute": span(0, L), "polynomial": span(0, L),
        "root-of-unity": span(0, L),
        "linear-problem": span(1, min(3, L - 1)), "compatibility": span(1, min(3, L - 1)),
        "transport": span(2, min(3, L - 1)), "reduced-det": span(2, min(4, L - 1)),
        "theta": span(2, min(2, L - 1)),
        "nonlinear-n1": [1], "nonlinear-n2": span(2, min(2, L)),
        "bethe": span(1, min(2, L)),
        "conserved-n1": span(1, min(1, L - 1)),
        "riccati-n1": [1], "u-equation": [1],
        "sigma2": span(2, min(2, L)), "riccati2": span(2, min(2, L)),
        "schrodinger": span(2, min(2, L)),
    }.get(name, [])


@pytest.mark.parametrize("L", range(1, 11))
def test_entries_are_the_stated_sectors(L):
    for name, check in cli.CHECKS.items():
        assert list(check.sectors(L)) == expected(name, L), name
