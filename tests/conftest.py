"""Shared fixtures and hypothesis strategies for the suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from multihom import ChainExpr, Connective, Multigraph

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PALETTE = ("red", "black", "blue")
ATOM_NAMES = ("G", "H", "K", "L", "M")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKSPACES = REPO_ROOT / "workspaces"


def load_spans():
    """``bench/spans.py``, loaded read-only: nothing is installed."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", REPO_ROOT / "bench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- strategies ----------------------------------------------------------------


@st.composite
def multigraphs(draw, max_nodes: int = 6, max_mult: int = 3, sparse_labels: bool = False):
    """Small edge-coloured multigraphs with hypothesis-controlled shape.

    Nodes are 1..n, or with ``sparse_labels`` n distinct ids drawn from
    -20..100.
    """
    if sparse_labels:
        nodes = sorted(draw(st.sets(st.integers(-20, 100), min_size=1, max_size=max_nodes)))
    else:
        n = draw(st.integers(1, max_nodes))
        nodes = list(range(1, n + 1))
    rows = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            mult = draw(st.integers(0, max_mult))
            for _ in range(mult):
                rows.append((u, v, draw(st.sampled_from(PALETTE))))
    return Multigraph.build(nodes, rows, PALETTE)


def connectives(k: int):
    return st.tuples(
        *[st.sampled_from((Connective.TENSOR, Connective.MERGE)) for _ in range(k - 1)]
    )


@st.composite
def chain_exprs(draw, min_k: int = 1, max_k: int = 4):
    k = draw(st.integers(min_k, max_k))
    atoms = tuple(draw(st.permutations(ATOM_NAMES[:k])))
    return ChainExpr(atoms, tuple(draw(connectives(k))))


@st.composite
def chain_pairs_same_atoms(draw, min_k: int = 2, max_k: int = 5):
    """Two chains over one atom sequence (the domain of leq/meet/join)."""
    k = draw(st.integers(min_k, max_k))
    atoms = tuple(ATOM_NAMES[:k])
    return (
        ChainExpr(atoms, tuple(draw(connectives(k)))),
        ChainExpr(atoms, tuple(draw(connectives(k)))),
    )


@st.composite
def chain_triples_same_atoms(draw, min_k: int = 2, max_k: int = 4):
    k = draw(st.integers(min_k, max_k))
    atoms = tuple(ATOM_NAMES[:k])
    return tuple(ChainExpr(atoms, tuple(draw(connectives(k)))) for _ in range(3))


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="session")
def palette():
    return PALETTE


@pytest.fixture(scope="session")
def three_paths_path() -> Path:
    return WORKSPACES / "three_paths.json"


@pytest.fixture(scope="session")
def disjoint_triangles_path() -> Path:
    return WORKSPACES / "disjoint_triangles.json"


def triangle(a: int, b: int, c: int, color: str = "black", palette=("black",)) -> Multigraph:
    return Multigraph.build(
        sorted((a, b, c)),
        [(a, b, color), (a, c, color), (b, c, color)],
        palette,
    )


def path_graph(vertices, color: str = "black", palette=("black",)) -> Multigraph:
    rows = [(u, v, color) for u, v in zip(vertices, vertices[1:])]
    return Multigraph.build(sorted(vertices), rows, palette)
