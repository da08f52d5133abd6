"""The traced benchmark pass can still find every function it wraps.

``bench/spans.py`` names its targets by module and qualified name and
wraps every binding of each one across ``multihom.*``; a target that no
longer resolves, or has no binding, makes ``--trace 1`` raise.  The file
is loaded read-only here and nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil

import pytest

import multihom
from conftest import REPO_ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", REPO_ROOT / "bench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()

# bindings() scans the multihom modules already imported
for info in pkgutil.iter_modules(multihom.__path__, "multihom."):
    importlib.import_module(info.name)


@pytest.mark.parametrize("name", sorted(SPANS.TARGETS))
def test_target_resolves_and_is_bound(name):
    module, qualname = SPANS.TARGETS[name]
    fn = SPANS.resolve(module, qualname)
    assert callable(fn)
    assert SPANS.bindings(fn), f"{module}.{qualname} has no binding to trace"
