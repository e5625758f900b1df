"""Every entry of `cli.SECTORS` names the sectors of a check that reads it.

The checks read the table as `SECTORS["name"]` subscripts.  A key that no
subscript names is an entry left behind by a deleted or renamed check: the
run would sample sectors that nothing reads.
"""

import ast
from pathlib import Path

import pytest

from sixvertex import cli


def reads():
    """The keys of every `SECTORS[...]` read in cli.py (None where the key
    is not a literal)."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return [node.slice.value if isinstance(node.slice, ast.Constant) else None
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "SECTORS"]


def test_every_key_is_a_check():
    assert set(cli.SECTORS) <= set(cli.CHECKS)


def test_every_entry_has_a_reader():
    assert set(cli.SECTORS) - set(reads()) == set()
    assert None not in reads()


@pytest.mark.parametrize("L", range(1, 11))
def test_entries_are_sectors_of_the_chain(L):
    for name, entry in cli.SECTORS.items():
        ns = list(entry(L))
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
    for name in cli.CHECKS:
        assert list(cli.SECTORS.get(name, lambda L: [])(L)) == expected(name, L), name
