"""Metamorphic relations: outputs that a change of input which should not
matter leaves unchanged (Segura, Fraser, Sanchez & Ruiz-Cortes, IEEE TSE
2016).

Each pair is the fuzz draw on a shared node universe: g then h from
``random.Random(seed)`` by ``random_multigraph(rng, max_nodes=7,
max_mult=3, palette=PALETTE, node_universe=1..8)``, seeds 0-299.
Hypothesis picks the seed and the bijection; the ``incremental`` relations
also run on seeds where a ``canonical`` ledger read off tagged cells of
the built merge broke them.

- Palette bijection: the ``incremental`` report is unchanged, under both
  policies.
- Operand swap: ``incremental H G`` is ``incremental G H`` with the g and
  h fields swapped, under both policies.
- Node and palette bijections: Betti vectors are unchanged under both
  policies.
- Disjoint union: with h's nodes renamed apart from g's, the Betti vector
  of g.h is the sum of g's and h's, under both policies.
- An isolated node adds 1 to beta_0 and nothing else, under both policies.

The ``incremental`` relations run through ``cli.main`` on a workspace
holding the pair, and the union and isolated-node relations through both
library calls and ``cli.main``'s ``betti``.  The ``incremental`` ledger
is read off the ranks, cell counts and cliques of g, h and g.h, which
depend on neither colour names nor operand order, so both relations
hold under ``canonical`` too, though its cells above dimension 2 are
glued along each pair's first copy in colour order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from multihom import (
    POLICIES,
    Multigraph,
    betti,
    betti_sum,
    clique_betti,
    clique_multicomplex,
    merge,
)
from multihom.cli import EXIT_OK, main
from multihom.randgen import random_multigraph

from conftest import PALETTE

SEEDS = st.integers(0, 299)
UNIVERSE = range(1, 9)
# colour names to rename the palette to, some sorting between its own
NAMES = ("amber", "black", "blue", "crimson", "red", "zinc")
OTHER_SIDE = {"beta_g": "beta_h", "n_g": "n_h", "p_g": "p_h"}
OTHER_SIDE |= {h: g for g, h in OTHER_SIDE.items()}


def draw(seed: int) -> tuple[Multigraph, Multigraph]:
    rng = random.Random(seed)
    g = random_multigraph(rng, max_nodes=7, max_mult=3, palette=PALETTE, node_universe=UNIVERSE)
    h = random_multigraph(rng, max_nodes=7, max_mult=3, palette=PALETTE, node_universe=UNIVERSE)
    return g, h


def relabel(g: Multigraph, node=lambda v: v, color=lambda c: c) -> Multigraph:
    """g with its nodes and colours renamed, each pair's copies in order."""
    return Multigraph.build(
        [node(v) for v in g.nodes],
        [(node(e.u), node(e.v), color(e.color)) for e in g.edges],
        [color(c) for c in g.palette],
    )


def incremental_json(g: Multigraph, h: Multigraph, policy: str, left="G", right="H") -> dict:
    """``incremental LEFT RIGHT --json`` on a workspace binding G to g and H to h."""
    palette = sorted(g.palette | h.palette)
    graphs = {"G": g.to_json_dict(), "H": h.to_json_dict()}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps({"colors": palette, "graphs": graphs}))
        argv = ["--workspace", str(path), "--json", "--policy", policy]
        with contextlib.redirect_stdout(out):
            assert main([*argv, "incremental", left, right]) == EXIT_OK
    return json.loads(out.getvalue())


def betti_json(g: Multigraph, h: Multigraph, policy: str) -> list[int]:
    """``betti 'G . H' --json``'s vector on a workspace binding G to g and H to h."""
    graphs = {"G": g.to_json_dict(), "H": h.to_json_dict()}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(json.dumps({"colors": list(PALETTE), "graphs": graphs}))
        argv = ["--workspace", str(path), "--json", "--policy", policy]
        with contextlib.redirect_stdout(out):
            assert main([*argv, "betti", "G . H"]) == EXIT_OK
    return json.loads(out.getvalue())["betti"]


def sides_swapped(report: dict) -> dict:
    """A report dict with every g field and its h field exchanged."""
    params = {
        d: {key: p[OTHER_SIDE.get(key, key)] for key in p} for d, p in report["params"].items()
    }
    return {**report, "params": params}


def palette_bijection():
    return st.permutations(NAMES).map(lambda names: dict(zip(PALETTE, names)))


def node_bijection():
    """A renaming of the node universe that need not keep its order."""
    n = len(UNIVERSE)
    ids = st.lists(st.integers(-20, 100), min_size=n, max_size=n, unique=True)
    return ids.map(lambda new: dict(zip(UNIVERSE, new)))


@pytest.mark.parametrize("policy", POLICIES)
@given(seed=SEEDS, colours=palette_bijection())
@example(seed=9, colours=dict(zip(PALETTE, ("amber", "black", "blue"))))
@example(seed=95, colours=dict(zip(PALETTE, ("zinc", "red", "blue"))))
@example(seed=237, colours=dict(zip(PALETTE, ("amber", "black", "blue"))))
def test_incremental_ignores_a_palette_bijection(policy, seed, colours):
    g, h = draw(seed)
    renamed = (relabel(x, color=colours.__getitem__) for x in (g, h))
    assert incremental_json(*renamed, policy) == incremental_json(g, h, policy)


@pytest.mark.parametrize("policy", POLICIES)
@given(seed=SEEDS)
@example(seed=95)
@example(seed=128)
@example(seed=152)
@example(seed=219)
@example(seed=237)
@example(seed=265)
@example(seed=271)
def test_incremental_operand_swap_swaps_the_sides(policy, seed):
    g, h = draw(seed)
    forward = incremental_json(g, h, policy)
    backward = incremental_json(g, h, policy, left="H", right="G")
    assert backward == sides_swapped(forward)


@given(seed=SEEDS, nodes=node_bijection(), colours=palette_bijection())
def test_betti_vectors_ignore_node_and_palette_bijections(seed, nodes, colours):
    g, h = draw(seed)
    pairs = {
        "nodes": [relabel(x, node=nodes.__getitem__) for x in (g, h)],
        "palette": [relabel(x, color=colours.__getitem__) for x in (g, h)],
    }
    for policy in POLICIES:
        expected = [clique_betti(x, policy) for x in (g, h, merge(g, h))]
        merged = betti(clique_multicomplex(merge(g, h), policy))
        for renamed, (a, b) in pairs.items():
            got = [clique_betti(x, policy) for x in (a, b, merge(a, b))]
            assert got == expected, (policy, renamed)
            assert betti(clique_multicomplex(merge(a, b), policy)) == merged, (policy, renamed)


@given(seed=SEEDS)
def test_a_disjoint_union_adds_the_betti_vectors(seed):
    g, h = draw(seed)
    apart = relabel(h, node=lambda v: v + len(UNIVERSE))
    for policy in POLICIES:
        expected = betti_sum([clique_betti(g, policy), clique_betti(h, policy)])
        assert clique_betti(merge(g, apart), policy) == expected, policy
        assert betti_json(g, apart, policy) == list(expected), policy


@given(seed=SEEDS)
def test_an_isolated_node_adds_one_to_beta0_alone(seed):
    g, _ = draw(seed)
    point = Multigraph.build([0], [], PALETTE)  # 0 lies outside the node universe
    for policy in POLICIES:
        beta0, *rest = clique_betti(g, policy) or (0,)
        expected = (beta0 + 1, *rest)
        assert clique_betti(merge(g, point), policy) == expected, policy
        assert betti_json(g, point, policy) == list(expected), policy
