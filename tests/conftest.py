"""Shared fixtures and hypothesis strategies for the suite."""

from __future__ import annotations

import importlib.util
import itertools
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


@st.composite
def complete_split_multigraphs(draw, max_nodes: int = 6, max_mult: int = 3):
    """Multigraphs on nodes 1..n whose simple graph is complete split: a
    drawn set U of nodes is linked to every other node, and no pair lies
    among the rest, R.  U may be empty (an edgeless graph) or hold every
    node (a complete one); each pair has 1..``max_mult`` copies."""
    n = draw(st.integers(1, max_nodes))
    nodes = draw(st.permutations(range(1, n + 1)))
    linked = set(nodes[: draw(st.integers(0, n))])  # U; the rest is R
    rows = []
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if u in linked or v in linked:
            for _ in range(draw(st.integers(1, max_mult))):
                rows.append((u, v, draw(st.sampled_from(PALETTE))))
    return Multigraph.build(nodes, rows, PALETTE)


@st.composite
def peelable_multigraphs(draw, max_nodes: int = 6, max_mult: int = 3):
    """Multigraphs on nodes 1..n whose ``per-combination`` Betti numbers
    peel node by node (see ``homology``).  Each graph on two or more
    nodes is a node joined to all of a smaller draw, the disjoint union
    of two draws, or a connected triangle-free graph; each pair has
    1..``max_mult`` copies."""

    def shape(n: int) -> list[tuple[int, int]]:
        """The pairs of a peelable simple graph on nodes 0..n-1."""
        way = draw(st.sampled_from(("join", "union", "triangle-free"))) if n > 1 else "join"
        if way == "join":  # node n - 1 linked to all the others
            return shape(n - 1) + [(v, n - 1) for v in range(n - 1)] if n > 1 else []
        if way == "union":
            k = draw(st.integers(1, n - 1))
            return shape(k) + [(u + k, v + k) for u, v in shape(n - k)]
        # a tree, then pairs between nodes with no common neighbour
        linked = {frozenset((draw(st.integers(0, v - 1)), v)) for v in range(1, n)}
        for pair in map(frozenset, itertools.combinations(range(n), 2)):
            u, v = pair
            ends = [{w for p in linked if x in p for w in p - {x}} for x in (u, v)]
            if pair not in linked and not ends[0] & ends[1] and draw(st.booleans()):
                linked.add(pair)
        return [tuple(sorted(p)) for p in linked]

    n = draw(st.integers(1, max_nodes))
    label = draw(st.permutations(range(1, n + 1)))
    rows = [
        (label[u], label[v], draw(st.sampled_from(PALETTE)))
        for u, v in shape(n)
        for _ in range(draw(st.integers(1, max_mult)))
    ]
    return Multigraph.build(range(1, n + 1), rows, PALETTE)


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
