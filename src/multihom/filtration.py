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

Building the diagram builds no complex.  Each block's graph gets the id
of its class in a ``ClassTable`` when the block is first met, by one
merge per pair of classes, and a node is known by the sorted ids of its
layers.  The table builds a class's clique complex only when a Betti
number is read: the (d+1)-skeleton for a trace of beta_d, the whole
complex for whole vectors (``--dot``).  A node's exact layer graphs,
whose copy numbering shows in ``--json``, are replayed along first
parents only when asked for; ``--json`` builds their complexes and takes
the classes' whole vectors from them.

The level profile deliberately reports two channels per level — a
closed-form size and the measured size — because they disagree in
general; consumers decide what to make of that.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from functools import cached_property
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
]

Block = tuple[str, ...]  # a merged run of atoms, sorted


def chain_betti(x: ChainExpr, env: ChainEnv, policy: str = CANONICAL) -> BettiVector:
    """Betti vector of a chain: layers are disjoint, so vectors add."""
    return betti_sum(betti(clique_multicomplex(g, policy)) for g in evaluate(x, env))


def _chain_of_blocks(blocks: Sequence[Block]) -> ChainExpr:
    atoms: list[str] = []
    conns: list[Connective] = []
    for i, block in enumerate(blocks):
        if i:
            conns.append(Connective.TENSOR)
        atoms.extend(block)
        conns.extend([Connective.MERGE] * (len(block) - 1))
    return ChainExpr(tuple(atoms), tuple(conns))


class ClassTable:
    """The layer graphs met while building a filtration, one class per
    ``Multigraph`` equality class: the class's first graph, and its Betti
    vectors memoized per depth.  Equal graphs give equal clique complexes,
    so a class is built at most once per depth, and only when a vector is
    read."""

    def __init__(self, policy: str):
        self.policy = policy
        self.ids: dict[Multigraph, int] = {}
        self.graphs: list[Multigraph] = []
        self._betti: dict[tuple[int, int | None], BettiVector] = {}

    def id(self, g: Multigraph) -> int:
        """The class id of g, a new one if no graph met so far equals it."""
        if g not in self.ids:
            self.ids[g] = len(self.graphs)
            self.graphs.append(g)
        return self.ids[g]

    def betti(self, c: int, dim: int | None = None) -> BettiVector:
        """Class c's whole Betti vector, or with ``dim`` beta_0..beta_dim,
        read off the (dim+1)-skeleton."""
        if (c, dim) not in self._betti:
            top = None if dim is None else dim + 1
            x = clique_multicomplex(self.graphs[c], self.policy, top)
            self._betti[c, dim] = betti(x)[:top]
        return self._betti[c, dim]

    def remember(self, g: Multigraph, x: Multicomplex) -> None:
        """Take the whole Betti vector of g's class from x, g's whole
        complex, unless it is known."""
        c = self.ids[g]
        if (c, None) not in self._betti:
            self._betti[c, None] = betti(x)


class FiltrationNode:
    """One configuration: its blocks (merged runs of atoms, sorted), grade,
    and ``key``, the sorted class ids of its layer graphs.  Every node but
    the start records its first parent and the two of the parent's layers
    it merges; ``layers`` replays those merges from the start, so only
    output that shows copy numbering pays for them."""

    def __init__(
        self,
        blocks: tuple[Block, ...],
        level: int,
        key: tuple[int, ...],
        classes: ClassTable,
        parent: FiltrationNode | None = None,
        merged: tuple[int, int] = (0, 0),
    ):
        self.blocks = blocks
        self.level = level
        self.key = key
        self.classes = classes
        self.parent = parent
        self.merged = merged
        self.text = " | ".join(map(" . ".join, blocks))

    def __repr__(self):
        return (
            f"FiltrationNode(blocks={self.blocks!r}, level={self.level!r}, "
            f"key={self.key!r}, merged={self.merged!r})"
        )

    @cached_property
    def chain(self) -> ChainExpr:
        """The canonical chain: the blocks in order, tensored."""
        return _chain_of_blocks(self.blocks)

    @cached_property
    def betti(self) -> BettiVector:
        """The whole Betti vector: layers are disjoint, so vectors add."""
        return betti_sum(map(self.classes.betti, self.key))

    def beta(self, dim: int) -> int:
        """beta_dim alone, read off (dim+1)-skeletons of the layers."""
        vectors = (self.classes.betti(c, dim) for c in self.key)
        return sum(v[dim] for v in vectors if dim < len(v))

    @cached_property
    def layers(self) -> tuple[Multigraph, ...]:
        """The layer graphs in block order, as the first parent's layers
        with its layers i < j replaced by their merge at the merged
        block's place.  The start node's layers are set when it is made."""
        i, j = self.merged
        blocks, layers = list(self.parent.blocks), list(self.parent.layers)
        block, merged = tuple(sorted(blocks[i] + blocks[j])), merge(layers[i], layers[j])
        del blocks[j], blocks[i], layers[j], layers[i]
        layers.insert(bisect_right(blocks, block), merged)
        return tuple(layers)


class FiltrationPoset:
    """Hasse diagram over filtration nodes, graded by interaction count."""

    def __init__(
        self,
        k: int,
        start: ChainExpr,
        nodes: tuple[FiltrationNode, ...],
        covers: tuple[tuple[int, int, str], ...],  # (src node idx, dst node idx, f label)
        env: ChainEnv,
        classes: ClassTable,
        policy: str = CANONICAL,
    ):
        self.k = k
        self.start = start
        self.nodes = nodes
        self.covers = covers
        self.env = env
        self.classes = classes
        self.policy = policy

    def __repr__(self):
        return (
            f"FiltrationPoset(k={self.k!r}, start={self.start!r}, nodes={self.nodes!r}, "
            f"covers={self.covers!r}, env={self.env!r}, classes={self.classes!r}, "
            f"policy={self.policy!r})"
        )

    def level(self, j: int) -> tuple[FiltrationNode, ...]:
        if not (0 <= j <= self.k - 1):
            raise IndexOutOfRange(f"level {j} outside 0..{self.k - 1}")
        return tuple(n for n in self.nodes if n.level == j)

    @cached_property
    def _by_key(self) -> dict[tuple[int, ...], FiltrationNode]:
        return {n.key: n for n in self.nodes}

    def node_for_chain(self, x: ChainExpr) -> FiltrationNode:
        """Find the node a chain evaluates into (up to layer reordering)."""
        try:
            key = sorted(self.classes.ids[g] for g in evaluate(x, self.env))
            return self._by_key[tuple(key)]
        except KeyError:
            raise KeyError(
                f"chain {x.text()!r} does not evaluate into this filtration"
            ) from None

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
        # A layer's complex also gives its class's whole Betti vector, so a
        # node's layers are built before its vector is read.
        layer_json: dict[tuple, dict] = {}

        def layer(g: Multigraph) -> dict:
            key = (g.nodes, tuple((p, g.colors(p)) for p in g.pairs()))
            if key not in layer_json:
                x = clique_multicomplex(g, self.policy)
                self.classes.remember(g, x)
                layer_json[key] = x.to_json_dict()
            return layer_json[key]

        nodes = []
        for i, n in enumerate(self.nodes):
            layers = [layer(g) for g in n.layers]
            nodes.append(
                {
                    "delta": i,
                    "chain": n.text,
                    "level": n.level,
                    "betti": list(n.betti),
                    "layers": layers,
                }
            )
        return {
            "k": self.k,
            "start": self.start.text(),
            "policy": self.policy,
            "nodes": nodes,
            "covers": [
                {
                    "from": self.nodes[s].text,
                    "to": self.nodes[t].text,
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
    successor's canonical block order.  No complex is built here: the
    class table builds one when a Betti vector is first read.
    """
    k = x.k
    start = sorted(
        zip((tuple(sorted(b)) for b in x.blocks()), evaluate(x, env)),
        key=itemgetter(0),
    )
    classes = ClassTable(policy)

    # A node's identity is the multiset of its layer graphs: each block
    # gets the id of its graph's class when it is first met, and the key
    # is the sorted tuple of the block ids.  Each pair of classes is
    # merged once: blocks whose parts have equal graphs meet it again.
    block_ids = {b: classes.id(g) for b, g in start}
    key = tuple(sorted(block_ids[b] for b, _ in start))
    nodes = [FiltrationNode(tuple(b for b, _ in start), k - len(start), key, classes)]
    nodes[0].layers = tuple(g for _, g in start)
    seen = {key: 0}
    merged: dict[tuple[int, int], int] = {}  # sorted pair of class ids -> their merge's
    covers: set[tuple[int, int, int]] = set()  # (src, dst, seam)
    for idx, parent in enumerate(nodes):  # breadth first: nodes grows as it goes
        blocks = parent.blocks  # atoms, and so blocks, may repeat
        ids = [block_ids[c] for c in blocks]
        for i, j in itertools.combinations(range(len(blocks)), 2):
            a, b = blocks[i], blocks[j]
            block = tuple(sorted(a + b))
            if block not in block_ids:
                pair = (ids[i], ids[j]) if ids[i] <= ids[j] else (ids[j], ids[i])
                if pair not in merged:
                    g, h = classes.graphs[ids[i]], classes.graphs[ids[j]]
                    merged[pair] = classes.id(merge(g, h))
                block_ids[block] = merged[pair]
            succ = list(parent.key)
            succ.remove(ids[i])
            succ.remove(ids[j])
            insort(succ, block_ids[block])
            key = tuple(succ)
            rest = blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :]
            if key not in seen:
                seen[key] = len(nodes)
                at = bisect_right(rest, block)  # after equal blocks, as the layers replay
                succ = rest[:at] + (block,) + rest[at:]
                nodes.append(FiltrationNode(succ, k - len(succ), key, classes, parent, (i, j)))
            # f label: position of the seam inside the successor's blocks
            offset = sum(map(len, rest[: bisect_left(rest, block)]))
            covers.add((idx, seen[key], offset + len(a)))

    # re-sort nodes by (level, chain text) and remap cover indices
    order = sorted(range(len(nodes)), key=lambda i: (nodes[i].level, nodes[i].text))
    remap = {old: new for new, old in enumerate(order)}
    nodes_sorted = tuple(nodes[i] for i in order)
    covers_sorted = tuple(
        sorted((remap[s], remap[t], f"f{seam}") for s, t, seam in covers)
    )
    return FiltrationPoset(k, x, nodes_sorted, covers_sorted, env, classes, policy)


def _trace_rows(nodes: Sequence[FiltrationNode], dim: int) -> list[dict]:
    """Rows (delta, chain, level, beta_dim), delta counting ``nodes`` in order."""
    return [
        {"delta": delta, "chain": n.text, "level": n.level, "beta": n.beta(dim)}
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
    picked.sort(key=lambda n: (n.level, n.text))
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
