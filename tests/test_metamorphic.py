"""Metamorphic relations: outputs that a change of input which should not
matter leaves unchanged (Segura, Fraser, Sanchez & Ruiz-Cortes, IEEE TSE
2016).

Each pair is the fuzz draw on a shared node universe: g then h from
``random.Random(seed)`` by ``random_multigraph(rng, max_nodes=7,
max_mult=3, palette=PALETTE, node_universe=1..8)``, seeds 0-299.
Hypothesis picks the seed and the bijection.

- Palette bijection: under ``per-combination`` the ``incremental`` report
  is unchanged.
- Operand swap: under ``per-combination`` ``incremental H G`` is
  ``incremental G H`` with the g and h fields swapped.
- Node and palette bijections: Betti vectors are unchanged under both
  policies.

The ``incremental`` relations run through ``cli.main`` on a workspace
holding the pair.  Under ``canonical`` the d = 2 ledger keeps neither: a
``canonical`` cell above dimension 2 is glued along each pair's first
copy in colour order, so colour names and operand order decide whether a
merged 3-cell is g's, h's or interaction-created, and ``cl`` follows
them.  The last test pins the seeds where the swap breaks it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given

from multihom import (
    CANONICAL,
    PER_COMBINATION,
    POLICIES,
    Multigraph,
    betti,
    clique_betti,
    clique_multicomplex,
    merge,
    validate,
)
from multihom.cli import EXIT_OK, main
from multihom.randgen import random_multigraph

from conftest import PALETTE

SEEDS = st.integers(0, 299)
UNIVERSE = range(1, 9)
# colour names to rename the palette to, some sorting between its own
NAMES = ("amber", "black", "blue", "crimson", "red", "zinc")
# the seeds of 0-299 where an operand swap changes the canonical d = 2 cl
CANONICAL_SWAP_BREAKS = [95, 128, 152, 219, 237, 265, 271]
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


@given(seed=SEEDS, colours=palette_bijection())
def test_incremental_per_combination_ignores_a_palette_bijection(seed, colours):
    g, h = draw(seed)
    renamed = (relabel(x, color=colours.__getitem__) for x in (g, h))
    assert incremental_json(*renamed, PER_COMBINATION) == incremental_json(g, h, PER_COMBINATION)


@given(seed=SEEDS)
def test_incremental_per_combination_operand_swap_swaps_the_sides(seed):
    g, h = draw(seed)
    forward = incremental_json(g, h, PER_COMBINATION)
    backward = incremental_json(g, h, PER_COMBINATION, left="H", right="G")
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


def test_canonical_operand_swap_breaks_only_on_the_recorded_seeds():
    # a known failure of the canonical d = 2 ledger, kept visible: the
    # oracle and every d = 1 parameter still swap with the sides
    broken = []
    for seed in range(300):
        g, h = draw(seed)
        forward, backward = validate(g, h, CANONICAL), validate(h, g, CANONICAL)
        assert (backward.oracle_beta1, backward.oracle_beta2) == (
            forward.oracle_beta1,
            forward.oracle_beta2,
        )
        swap = sides_swapped(forward.to_json_dict())
        assert backward.to_json_dict()["params"]["d1"] == swap["params"]["d1"]
        if backward.to_json_dict() != swap:
            broken.append(seed)
    assert broken == CANONICAL_SWAP_BREAKS
