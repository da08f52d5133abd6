"""Interaction filtrations: Hasse diagrams of chains under the flow maps.

Starting from a chain, repeatedly applying flow maps (across tensor-
reordered representatives) merges pairs of layers.  After evaluation the
tensor order is forgotten and merge is commutative, so a node of the
diagram is a multiset of layer graphs under ``Multigraph`` equality,
which compares per-pair colour multisets and so ignores copy numbering;
two chains whose layers are equal as such multisets collapse to one node.
For clique complexes this is the structural equality of the layer
complexes: a complex built from a copy-renumbered graph equals the
original's, and a complex's 0-cells and coloured 1-cells give its graph
back, so unequal graphs never give equal complexes.  Levels are
graded by the interaction count (number of merges), each cover raises it
by one, and the top is the single fully merged complex.

The level profile deliberately reports two channels per level — a
closed-form size and the measured size — because they disagree in
general; consumers decide what to make of that.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .chainlat import (
    ChainEnv,
    ChainExpr,
    Connective,
    all_chains,
    evaluate,
    merge_count,
)
from .errors import IndexOutOfRange
from .homology import BettiVector, betti, betti_sum
from .mcomplex import CANONICAL, Multicomplex, clique_multicomplex
from .mgraph import Multigraph, merge

__all__ = [
    "FiltrationNode",
    "FiltrationPoset",
    "enumerate_chains",
    "build_filtration",
    "betti_trace",
    "trace_for_chains",
    "level_profile",
    "chain_betti",
    "chain_complexes",
    "prefix_leq",
]

Block = tuple[str, ...]  # a merged run of atoms, sorted


def chain_complexes(
    x: ChainExpr, env: ChainEnv, policy: str = CANONICAL
) -> tuple[Multicomplex, ...]:
    """One clique complex per tensor layer of the evaluated chain."""
    return tuple(clique_multicomplex(g, policy) for g in evaluate(x, env))


def chain_betti(x: ChainExpr, env: ChainEnv, policy: str = CANONICAL) -> BettiVector:
    """Betti vector of a chain: layers are disjoint, so vectors add."""
    return betti_sum(betti(c) for c in chain_complexes(x, env, policy))


def _chain_of_blocks(blocks: Sequence[Block]) -> ChainExpr:
    atoms: list[str] = []
    conns: list[Connective] = []
    for i, block in enumerate(blocks):
        if i:
            conns.append(Connective.TENSOR)
        atoms.extend(block)
        conns.extend([Connective.MERGE] * (len(block) - 1))
    return ChainExpr(tuple(atoms), tuple(conns))


@dataclass(frozen=True)
class FiltrationNode:
    """One configuration: canonical chain, grade, layer graphs, Betti."""

    chain: ChainExpr
    level: int
    layers: tuple[Multigraph, ...]
    betti: BettiVector


@dataclass
class FiltrationPoset:
    """Hasse diagram over filtration nodes, graded by interaction count."""

    k: int
    start: ChainExpr
    nodes: tuple[FiltrationNode, ...]
    covers: tuple[tuple[int, int, str], ...]  # (src node idx, dst node idx, f label)
    env: ChainEnv
    policy: str = CANONICAL

    def level(self, j: int) -> tuple[FiltrationNode, ...]:
        if not (0 <= j <= self.k - 1):
            raise IndexOutOfRange(f"level {j} outside 0..{self.k - 1}")
        return tuple(n for n in self.nodes if n.level == j)

    def node_for_chain(self, x: ChainExpr) -> FiltrationNode:
        """Find the node a chain evaluates into (up to layer reordering)."""
        layers = Counter(evaluate(x, self.env))
        for n in self.nodes:
            if Counter(n.layers) == layers:
                return n
        raise KeyError(f"chain {x.text()!r} does not evaluate into this filtration")

    def to_dot(self) -> str:
        lines = ["digraph filtration {", "  rankdir=BT;"]
        for i, n in enumerate(self.nodes):
            beta = "(" + ", ".join(str(b) for b in n.betti) + ")"
            lines.append(
                f'  n{i} [label="{n.chain.pretty()} | β = {beta}", shape=box];'
            )
        for src, dst, label in self.covers:
            lines.append(f'  n{src} -> n{dst} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        # The cells show copy numbering, so here layers are told apart by
        # their colours in copy order; nodes share each distinct layer's dict.
        layer_json: dict[tuple, dict] = {}

        def layer(g: Multigraph) -> dict:
            key = (g.nodes, tuple((p, g.colors(p)) for p in g.pairs()))
            if key not in layer_json:
                layer_json[key] = clique_multicomplex(g, self.policy).to_json_dict()
            return layer_json[key]

        return {
            "k": self.k,
            "start": self.start.text(),
            "policy": self.policy,
            "nodes": [
                {
                    "delta": i,
                    "chain": n.chain.text(),
                    "level": n.level,
                    "betti": list(n.betti),
                    "layers": [layer(g) for g in n.layers],
                }
                for i, n in enumerate(self.nodes)
            ],
            "covers": [
                {
                    "from": self.nodes[s].chain.text(),
                    "to": self.nodes[t].chain.text(),
                    "map": label,
                }
                for s, t, label in self.covers
            ],
            "level_profile": level_profile(self),
        }


def build_filtration(
    x: ChainExpr, env: ChainEnv, policy: str = CANONICAL
) -> FiltrationPoset:
    """Close a start chain under the flow maps and dedup evaluated nodes.

    Successors merge one unordered pair of layers at a time; the edge
    label f_j names the flow position realizing the cover against the
    successor's canonical block order.
    """
    k = x.k

    # A node's identity is the multiset of its layer graphs: each block
    # gets the id of its graph's class under ``Multigraph`` equality, and
    # the key is the sorted tuple of the block ids.  Equal graphs give
    # equal clique complexes, so each class is built once, and only its
    # Betti vector is kept.
    ids: dict[Multigraph, int] = {}
    class_betti: list[BettiVector] = []
    block_ids: dict[Block, int] = {}

    def class_id(g: Multigraph) -> int:
        if g not in ids:
            ids[g] = len(class_betti)
            class_betti.append(betti(clique_multicomplex(g, policy)))
        return ids[g]

    def node(layers: list[tuple[Block, Multigraph]]) -> FiltrationNode:
        return FiltrationNode(
            chain=_chain_of_blocks([b for b, _ in layers]),
            level=k - len(layers),
            layers=tuple(g for _, g in layers),
            betti=betti_sum(class_betti[block_ids[b]] for b, _ in layers),
        )

    start = sorted(
        zip((tuple(sorted(b)) for b in x.blocks()), evaluate(x, env)),
        key=itemgetter(0),
    )
    for b, g in start:
        block_ids[b] = class_id(g)

    # Each node's layers as (block, graph) pairs sorted by block; blocks
    # repeat when atoms do.  Graphs come from the parent that first
    # reaches the node, and the list is also the breadth-first queue.
    node_layers = [start]
    nodes = [node(start)]
    seen = {tuple(sorted(block_ids[b] for b, _ in start)): 0}
    covers: set[tuple[int, int, str]] = set()
    for idx, layers in enumerate(node_layers):
        for i, j in itertools.combinations(range(len(layers)), 2):
            (a, g), (b, h) = layers[i], layers[j]
            block = tuple(sorted(a + b))
            rest = [layers[t] for t in range(len(layers)) if t not in (i, j)]
            merged = None
            if block not in block_ids:
                merged = merge(g, h)
                block_ids[block] = class_id(merged)
            key = tuple(sorted([block_ids[c] for c, _ in rest] + [block_ids[block]]))
            if key not in seen:
                seen[key] = len(nodes)
                succ = sorted(
                    rest + [(block, merged if merged is not None else merge(g, h))],
                    key=itemgetter(0),
                )
                node_layers.append(succ)
                nodes.append(node(succ))
            # f label: position of the seam inside the successor's blocks
            offset = sum(len(c) for c, _ in rest if c < block)
            covers.add((idx, seen[key], f"f{offset + len(min(a, b))}"))

    # re-sort nodes by (level, chain text) and remap cover indices
    order = sorted(range(len(nodes)), key=lambda i: (nodes[i].level, nodes[i].chain.text()))
    remap = {old: new for new, old in enumerate(order)}
    nodes_sorted = tuple(nodes[i] for i in order)
    covers_sorted = tuple(
        sorted((remap[s], remap[t], lab) for s, t, lab in covers)
    )
    return FiltrationPoset(
        k=k, start=x, nodes=nodes_sorted, covers=covers_sorted, env=env, policy=policy
    )


def _trace_rows(nodes: Sequence[FiltrationNode], dim: int) -> list[dict]:
    """Rows (delta, chain, level, beta_dim), delta counting ``nodes`` in order."""
    return [
        {
            "delta": delta,
            "chain": n.chain.text(),
            "level": n.level,
            "beta": n.betti[dim] if dim < len(n.betti) else 0,
        }
        for delta, n in enumerate(nodes)
    ]


def betti_trace(p: FiltrationPoset, dim: int = 0) -> list[dict]:
    """Rows (delta, chain, level, beta_dim) over all nodes in delta order."""
    return _trace_rows(p.nodes, dim)


def trace_for_chains(
    p: FiltrationPoset, chains: Sequence[ChainExpr], dim: int = 0
) -> list[dict]:
    """Trace restricted to the nodes the given chains evaluate into; this
    is how a drawn sub-diagram (a union of covering chains) is read off."""
    picked = list({id(n): n for n in map(p.node_for_chain, chains)}.values())
    picked.sort(key=lambda n: (n.level, n.chain.text()))
    return _trace_rows(picked, dim)


def level_profile(p: FiltrationPoset) -> dict:
    """Formula channel vs measured channel, per level and for the fold
    count.  The two disagree in general; both are reported, neither is
    adjusted."""
    k = p.k
    levels = []
    for j in range(k):
        measured = len(p.level(j))
        levels.append(
            {
                "level": j,
                "formula_size": math.comb(k, j + 1),
                "measured_size": measured,
            }
        )
    return {
        "levels": levels,
        "folds": {"formula": 2**k - k, "measured": len(p.nodes)},
    }


# -- enumeration ----------------------------------------------------------------


def enumerate_chains(
    atoms: Sequence[str], include_permutations: bool = False
) -> tuple[ChainExpr, ...]:
    """All chains over the atoms.

    Fixed order: the 2^(k-1) connective patterns.  With permutations:
    chains over every atom order, identified up to merge-commutativity
    (each merge block becomes a sorted group), i.e. ordered set
    partitions of the atoms — 13 of them for k = 3.
    """
    if not include_permutations:
        return all_chains(atoms)
    seen: set[ChainExpr] = set()
    for perm in itertools.permutations(atoms):
        for x in all_chains(perm):
            blocks = tuple(tuple(sorted(b)) for b in x.blocks())
            seen.add(_chain_of_blocks(blocks))
    return tuple(sorted(seen, key=lambda c: (merge_count(c), c.text())))


def prefix_leq(x: ChainExpr, y: ChainExpr) -> bool:
    """Mixed-length comparison: x embeds as a prefix of y and no prefix
    position downgrades a merge to a tensor."""
    if x.k > y.k:
        return False
    if x.atoms != y.atoms[: x.k]:
        return False
    return not any(
        a is Connective.MERGE and b is Connective.TENSOR
        for a, b in zip(x.connectives, y.connectives[: x.k - 1])
    )
