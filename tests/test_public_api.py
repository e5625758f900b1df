"""Every public name has a reader in the package.

A name in a module's `__all__` that no code of the package loads is API that
only tests or demos call; it is deleted, or listed here with the reason it
stays.
"""

import ast
from pathlib import Path

import sixvertex

# names the package itself does not read yet, each kept for a stated reason
ALLOWED = {
    # read by name by the benchmark's tracer until it stops timing cache loads
    "ResultCache",
    # the Bethe bra; judging Bethe roots against the operator gives it a caller
    "left_vector_from_C",
    # the one-sector entry point that the demos call
    "diagonalize_sector",
}


def modules():
    root = Path(sixvertex.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(root.glob("*.py")) if path.name != "__init__.py"}


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_is_read_in_the_package():
    trees = modules()
    reads = set().union(*map(loaded, trees.values()))
    unread = {name for tree in trees.values() for name in exported(tree)} - reads
    # an allowed name that gains a reader leaves the allowlist with it
    assert unread == ALLOWED
