"""The library ships only what its results run on: every module-level
public function and class in ``src/weyl_ising`` is either used somewhere
in the package or exported in ``weyl_ising.__all__``, and every exported
name is used by the package or by a demo.  Helpers that only tests call
belong in ``tests/``."""

import ast
from pathlib import Path

import weyl_ising

SRC = Path(weyl_ising.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _uses(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` pairs that ``tree`` refers to, resolved to the
    module defining them: a bare name means this module's own top-level
    definition (a definition's references to itself, and assignments to
    the name, do not count), a ``from .mod import name`` means
    ``mod.name``, a ``from . import name`` means ``__init__.name``, and
    ``alias.name`` on a package module bound by ``from . import mod as
    alias`` means ``mod.name``.  The package's ``__init__`` re-exports
    are not uses; ``__all__`` speaks for them."""
    aliases = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                if module != "__init__":
                    uses.add((node.module or "__init__", alias.name))
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id != own):
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


def _homes(init: ast.Module) -> dict[str, str]:
    """The module defining each name the package's ``__init__`` binds:
    ``mod`` for a ``from .mod import name`` re-export, ``__init__`` for
    its own assignments."""
    homes = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                homes[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    homes[target.id] = "__init__"
    return homes


def unused_exports(src: Path, demos: Path, exported) -> list[str]:
    """The names in ``exported`` that no module in ``src`` refers to (as
    ``_uses`` resolves references) and no demo in ``demos`` imports,
    from the package (resolved through ``__init__``) or from one of its
    modules.  Submodule names are not checked."""
    used: set[tuple[str, str]] = set()
    for path in src.glob("*.py"):
        used |= _uses(path.stem, ast.parse(path.read_text()))
    homes = _homes(ast.parse((src / "__init__.py").read_text()))
    package = src.name
    for path in demos.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if node.module == package:
                        used.add((homes.get(alias.name), alias.name))
                    elif (node.module or "").startswith(package + "."):
                        used.add((node.module.split(".")[1], alias.name))
    return [name for name in exported
            if not (src / f"{name}.py").exists()
            and (homes.get(name), name) not in used]


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


def test_every_export_is_used_by_the_package_or_a_demo():
    assert unused_exports(SRC, DEMOS, weyl_ising.__all__) == []


def test_an_export_counts_as_used_in_its_defining_module(tmp_path):
    src, demos = tmp_path / "pkg", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text(
        "__version__ = '1'\nfrom .a import shown, solo, tested\n")
    (src / "a.py").write_text(
        "def shown():\n    return 1\n\n"
        "def solo():\n    return solo()\n\n"
        "def tested():\n    return 3\n")
    (src / "b.py").write_text(
        "from . import __version__\n\n"
        "def tested(x):\n    return x\n")
    (demos / "show.py").write_text("from pkg import shown\n")
    exported = ["__version__", "a", "shown", "solo", "tested"]
    assert unused_exports(src, demos, exported) == ["solo", "tested"]


def assertion_sites(src: Path) -> list[str]:
    """``module:line`` of each ``assert`` statement and each use of the
    name ``AssertionError`` in the modules in ``src``: a failure there
    would not be a typed error."""
    sites = []
    for path in sorted(src.glob("*.py")):
        lines = sorted(
            node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "AssertionError"))
        sites += [f"{path.stem}:{line}" for line in lines]
    return sites


def test_no_module_asserts():
    assert assertion_sites(SRC) == []


def test_asserts_and_assertion_errors_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n    assert x\n    return x\n")
    (tmp_path / "b.py").write_text(
        "def g(x):\n    if x:\n        raise AssertionError('no')\n"
        "    try:\n        return x\n    except AssertionError:\n"
        "        return None\n")
    (tmp_path / "c.py").write_text(
        "def h(x):\n    if not x:\n        raise ValueError('asserted')\n")
    assert assertion_sites(tmp_path) == ["a:2", "b:3", "b:6"]
