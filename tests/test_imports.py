"""Every name a package module imports is used in that module, only
``mgraph`` sees how a multigraph stores its copies, and importing the CLI
loads no module it does not need to start.

Stdlib ``ast`` only: a module's imported names are compared with the
names it loads (annotations included, quoted ones parsed).  A name
re-exported through ``__all__`` counts as used, and ``__init__.py``,
which exists to re-export, is not checked.  Outside ``mgraph.py`` no
module may construct an ``EdgeCopy`` or read a graph's ``_by_pair``:
they read copies through ``Multigraph`` methods.
"""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "multihom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_cli_import_loads_no_start_up_weight():
    # every command pays for importing the CLI: dataclasses pulls in
    # inspect (with ast, dis and tokenize), only fuzz uses hashlib and csv,
    # and numpy alone would cost more than the whole package
    probe = (
        "import sys, multihom.cli; print(sorted("
        "{'dataclasses', 'inspect', 'hashlib', 'csv', 'numpy'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(PACKAGE.parent)},
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
