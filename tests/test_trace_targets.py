"""The traced benchmark pass can still find every function it wraps,
and read what it counts.

``bench/spans.py`` names its targets by module and qualified name and
wraps every binding of each one across ``multihom.*``; a target that no
longer resolves, or has no binding, makes ``--trace 1`` raise.  It
counts a build's cells as ``sum(len(grade) for grade in result.grades)``,
so a complex's ``grades`` must stay a sequence of sized grades.  The file
is loaded read-only here and nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from collections import defaultdict
from collections.abc import Sequence, Sized

import hypothesis.strategies as st
import pytest
from hypothesis import given

import multihom
from multihom import POLICIES, clique_multicomplex
from conftest import REPO_ROOT, multigraphs


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


@given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
def test_build_counter_reads_sized_grades(g, policy):
    x = clique_multicomplex(g, policy)
    assert isinstance(x.grades, Sequence)
    assert all(isinstance(grade, Sized) for grade in x.grades)
    assert [len(grade) for grade in x.grades] == [
        x.cell_count(d) for d in range(x.dimension + 1)
    ]
    counts = defaultdict(float)
    SPANS.Tracer()._on_mcomplex_build(counts, (g, policy), {}, x, 0.0)
    assert counts["mcomplex.build.cells"] == len(x.all_cells())
