"""Every bound in `cli.TOLERANCES` judges a row.

The checks read the table as `TOLERANCES["name"]` subscripts.  A key that no
subscript names is a bound left behind by a deleted check, and a subscript
that names no key is a row that cannot run.
"""

import ast
from pathlib import Path

from sixvertex import cli


def reads():
    """The keys of every `TOLERANCES[...]` read in cli.py (None where the
    key is not a literal)."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return [node.slice.value if isinstance(node.slice, ast.Constant) else None
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "TOLERANCES"]


def test_every_read_names_a_bound():
    assert reads() and set(reads()) <= set(cli.TOLERANCES)


def test_every_bound_has_a_reader():
    assert set(cli.TOLERANCES) - set(reads()) == set()
