"""The library ships only what its results run on: every module-level
public function and class in ``src/weyl_ising`` is either used somewhere
in the package or exported in ``weyl_ising.__all__``.  Helpers that only
tests call belong in ``tests/``."""

import ast
from pathlib import Path

import weyl_ising

SRC = Path(weyl_ising.__file__).resolve().parent


def _uses(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` pairs that ``tree`` refers to, resolved to the
    module defining them: a bare name means this module's own top-level
    definition (a definition's references to itself do not count), a
    ``from .mod import name`` means ``mod.name``, and ``alias.name`` on
    a package module bound by ``from . import mod as alias`` means
    ``mod.name``.  The package's ``__init__`` re-exports are not uses;
    ``__all__`` speaks for them."""
    aliases = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif module != "__init__":
                    uses.add((node.module, alias.name))
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                uses.add((module, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                uses.add((aliases[node.value.id], node.attr))
    return uses


def unreferenced_public_names(src: Path, exported) -> list[str]:
    """``module.name`` for each public top-level def or class of the
    modules in ``src`` that no module there refers to and that is not in
    ``exported``."""
    defined: list[tuple[str, str]] = []
    used: set[tuple[str, str]] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((path.stem, node.name))
        used |= _uses(path.stem, tree)
    return [f"{module}.{name}" for module, name in defined
            if (module, name) not in used and name not in exported]


def test_every_public_name_is_used_or_exported():
    assert unreferenced_public_names(SRC, set(weyl_ising.__all__)) == []


def test_a_name_counts_as_used_only_in_its_own_module(tmp_path):
    (tmp_path / "a.py").write_text(
        "def order(g):\n    return order(g)\n\n"
        "def rank():\n    return 1\n\n"
        "def used():\n    return 2\n")
    (tmp_path / "b.py").write_text(
        "from . import a as other\nfrom .a import used\n\n"
        "def main(x, order):\n    return x.rank + order + other.used()\n")
    assert unreferenced_public_names(tmp_path, {"main"}) == [
        "a.order", "a.rank"]
