"""Every name a package module imports is used in that module, every
name it exports is read somewhere, only ``mgraph`` sees how a multigraph
stores its copies, and importing the CLI loads no module it does not
need to start.

Stdlib ``ast`` only: a module's imported names are compared with the
names it loads (annotations included, quoted ones parsed).  A name
re-exported through ``__all__`` counts as used, and ``__init__.py``,
which exists to re-export, is not checked.  Outside ``mgraph.py`` no
module may construct an ``EdgeCopy`` or read a graph's ``_by_pair``:
they read copies through ``Multigraph`` methods.

A name in a module's ``__all__`` is read when some other part of the
code names it: an ``ast`` ``Name``, ``Attribute`` or ``from ... import``
in a package module (its own definition and ``__init__.py`` excluded),
in the oracles, fixtures or acceptance criteria under ``tests/``, or a
part of a qualified name the benchmark tracer wraps.
"""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, load_spans

PACKAGE = REPO_ROOT / "src" / "multihom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# outside the package, the files whose reads keep an exported name
READERS = [REPO_ROOT / "tests" / name for name in ("oracles.py", "conftest.py", "test_acceptance.py")]
# exported and read by nothing, but documented in the README: the
# paper's tensor (⊗) and the colouring of a cell's edges
UNREAD_BY_DESIGN = {"mgraph.tensor", "mcomplex.cell_coloring"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` excluded."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, those in quoted annotations, and ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {
                    n.id
                    for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)
                }
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported_names(tree).items(), key=lambda t: t[1])
        if name not in used
    ]


def storage_reads(source: str) -> list[str]:
    """Each ``EdgeCopy(...)`` call and each ``._by_pair`` read, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "EdgeCopy":
                out.append(f"EdgeCopy(...) (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "_by_pair":
            out.append(f"._by_pair (line {node.lineno})")
    return out


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def defined_names(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def read_names(node: ast.AST) -> set[str]:
    """Names loaded, attributes read and names imported under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def traced_names() -> set[str]:
    """Each part of the qualified names in the benchmark tracer's ``TARGETS``."""
    targets = load_spans().TARGETS.values()
    return {part for _, qualname in targets for part in qualname.split(".")}


def unread_exports(modules: dict[str, ast.Module], readers: list[ast.Module], outside: set[str]):
    """``module.name`` for each exported name read by no top-level
    statement of the modules but its own definition, by no reader, and
    not in ``outside``."""
    reads = set(outside)
    for tree in readers:
        reads |= read_names(tree)
    for tree in modules.values():
        for node in tree.body:
            reads |= read_names(node) - defined_names(node)
    return [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in exported_names(tree)
        if name not in reads
    ]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "mgraph.py"),
    ids=lambda p: p.name,
)
def test_only_mgraph_sees_the_copy_storage(path):
    assert storage_reads(path.read_text()) == []


def test_every_exported_name_is_read():
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    readers = [ast.parse(p.read_text()) for p in READERS]
    unread = unread_exports(modules, readers, traced_names())
    assert sorted(set(unread) - UNREAD_BY_DESIGN) == []


# the library modules the package republishes; cli, randgen and value are not
LIBRARY = ("chainlat", "chainparse", "errors", "filtration", "homology",
           "incremental", "mcomplex", "mgraph", "workspace")


@pytest.mark.parametrize("stem", LIBRARY)
def test_package_republishes_every_exported_name(stem):
    import multihom

    exported = exported_names(ast.parse((PACKAGE / f"{stem}.py").read_text()))
    assert exported
    assert [name for name in exported if not hasattr(multihom, name)] == []


def test_cli_import_loads_no_start_up_weight():
    # every command pays for importing the CLI: dataclasses pulls in
    # inspect (with ast, dis and tokenize), only fuzz uses hashlib and csv,
    # and numpy or networkx alone would cost more than the whole package,
    # which has no runtime dependency; the child writes no bytecode into src/
    probe = (
        "import sys, multihom.cli; print(sorted("
        "{'dataclasses', 'inspect', 'hashlib', 'csv', 'numpy', 'networkx'}"
        " & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.stdout.strip() == "[]"


class TestScanner:
    def test_flags_an_unused_name(self):
        src = "from typing import Iterable, Mapping\n\ndef f(x: Iterable): ...\n"
        assert unused_imports(src) == ["Mapping (line 1)"]

    def test_quoted_annotation_and_all_count_as_uses(self):
        src = (
            "import json\nfrom .a import B, C\n__all__ = ['C']\n"
            "def f() -> 'B': return json\n"
        )
        assert unused_imports(src) == []

    def test_dotted_import_binds_its_first_part(self):
        assert unused_imports("import os.path\nos.sep\n") == []
        assert unused_imports("import os.path\n") == ["os (line 1)"]

    def test_future_import_is_not_a_name(self):
        assert unused_imports("from __future__ import annotations\n") == []

    def test_flags_edge_copies_and_the_pair_index(self):
        src = (
            "from .mgraph import EdgeCopy\nimport multihom.mgraph as mg\n"
            "a = EdgeCopy(1, 2, 1, 'red')\nb = mg.EdgeCopy(1, 2, 1, 'red')\n"
            "c = g._by_pair[(1, 2)]\nd = g.colors((1, 2))\n"
        )
        assert storage_reads(src) == [
            "EdgeCopy(...) (line 3)",
            "EdgeCopy(...) (line 4)",
            "._by_pair (line 5)",
        ]

    def test_an_export_read_only_by_its_own_definition_is_unread(self):
        a = ast.parse(
            "__all__ = ['f', 'g', 'h', 'K']\n"
            "def f(n): return f(n - 1)\n"
            "def g(): return h\n"
            "def h(): ...\n"
            "K = 1\n"
        )
        b = ast.parse("from .a import g\n")
        assert unread_exports({"a": a}, [], set()) == ["a.f", "a.g", "a.K"]
        assert unread_exports({"a": a, "b": b}, [ast.parse("x.K")], set()) == ["a.f"]
        assert unread_exports({"a": a}, [], {"f", "g", "K"}) == []
