"""Every name a package module imports is used in that module, and the
package's ``__all__`` lists each public name it binds.

A deletion that leaves an import behind fails here.  A name counts as used
when the module reads it, names it in an annotation (a string annotation
is parsed, so a ``TYPE_CHECKING`` import used only there counts) or lists
it in ``__all__``.
"""

import ast
import types
from pathlib import Path

import pytest

import cpt_sense

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cpt_sense"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def used_names(tree):
    names = read_names(tree)
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, "%s imports %s and never uses them" % (path.name,
                                                               unused)


def test_a_string_annotation_counts_and_a_dead_import_does_not():
    tree = ast.parse("import math\nfrom typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from x import T\n"
                     "def f(a: 'T') -> None:\n    return TYPE_CHECKING\n")
    assert set(imported_names(tree)) - used_names(tree) == {"math"}


def test_all_lists_each_public_name_once():
    """``cpt_sense.__all__`` names each public name the package binds, once
    and no other, so ``from cpt_sense import *`` imports them all."""
    names = cpt_sense.__all__
    assert len(names) == len(set(names))
    star: dict = {}
    exec("from cpt_sense import *", star)  # a name that does not resolve raises
    assert set(names) <= set(star)
    bound = {name for name, value in vars(cpt_sense).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert bound == set(names)
