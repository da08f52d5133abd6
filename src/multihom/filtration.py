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

Building the diagram builds no complex.  One walk, ``_successors``,
gives each merge of two of a node's layers: the merged block, the
other blocks and the successor's key.  ``build_filtration`` adds nodes
from it, ``covers`` labels its maps from it, and each node records
where the walk put its merged layer, so ``layers`` replays by index.
A block's graph gets the id of its class in a ``ClassTable`` when the
block is first met, ``ClassTable.merges`` merges each pair of classes
once, and a node is known by the sorted ids of its layers.  The table
reads a class's Betti numbers with ``homology.clique_betti``: beta_0 off
the class's graph, and under ``canonical`` every deeper one too, so
neither builds a cell.  Under ``per-combination`` a deeper one builds
the (d+1)-skeleton for a trace of beta_d, and the whole complex for
whole vectors (``--dot``).  ``--json`` replays the exact layer graphs,
whose copy numbering shows there, builds their complexes and takes the
classes' whole vectors from them.

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
from .homology import BettiVector, betti, betti_sum, clique_betti
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
    return betti_sum(clique_betti(g, policy) for g in evaluate(x, env))


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
    vectors memoized per depth; the class id of each block met; and in
    ``merges`` the class id of each merged pair of classes (sorted), so
    each pair is merged once.  Equal graphs give equal clique complexes,
    so a class's vector is read at most once per depth, by
    ``clique_betti``."""

    def __init__(self, policy: str):
        self.policy = policy
        self.ids: dict[Multigraph, int] = {}
        self.graphs: list[Multigraph] = []
        self.block_ids: dict[Block, int] = {}
        self.merges: dict[tuple[int, int], int] = {}
        self._betti: dict[tuple[int, int | None], BettiVector] = {}

    def id(self, g: Multigraph) -> int:
        """The class id of g, a new one if no graph met so far equals it."""
        c = self.ids.setdefault(g, len(self.graphs))
        if c == len(self.graphs):
            self.graphs.append(g)
        return c

    def betti(self, c: int, dim: int | None = None) -> BettiVector:
        """Class c's whole Betti vector, or with ``dim`` beta_0..beta_dim."""
        if (c, dim) not in self._betti:
            self._betti[c, dim] = clique_betti(self.graphs[c], self.policy, dim)
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
    the start records its first parent and ``merged``, (i, j, at): its
    layer at ``at`` is the merge of the parent's layers i < j.  ``layers``
    replays those merges from the start, so only output that shows copy
    numbering pays for them."""

    def __init__(
        self,
        blocks: tuple[Block, ...],
        key: tuple[int, ...],
        classes: ClassTable,
        parent: FiltrationNode | None = None,
        merged: tuple[int, int, int] = (0, 0, 0),
    ):
        self.blocks = blocks
        self.level = sum(map(len, blocks)) - len(blocks)
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
        """beta_dim alone, from each layer's class at depth dim."""
        vectors = (self.classes.betti(c, dim) for c in self.key)
        return sum(v[dim] for v in vectors if dim < len(v))

    @cached_property
    def layers(self) -> tuple[Multigraph, ...]:
        """The layer graphs in block order: the first parent's, with its
        layers i < j replaced by their merge at ``at``.  The start node's
        layers are set when it is made."""
        i, j, at = self.merged
        layers = list(self.parent.layers)
        merged = merge(layers[i], layers[j])
        del layers[j], layers[i]
        layers.insert(at, merged)
        return tuple(layers)


class FiltrationPoset:
    """Hasse diagram over filtration nodes, graded by interaction count;
    its chain length is the start's, its policy the class table's."""

    def __init__(
        self,
        start: ChainExpr,
        nodes: tuple[FiltrationNode, ...],
        env: ChainEnv,
        classes: ClassTable,
    ):
        self.k = start.k
        self.start = start
        self.nodes = nodes
        self.env = env
        self.classes = classes

    def __repr__(self):
        return (
            f"FiltrationPoset(start={self.start!r}, nodes={self.nodes!r}, "
            f"env={self.env!r}, classes={self.classes!r})"
        )

    @cached_property
    def covers(self) -> tuple[tuple[int, int, str], ...]:
        """The covers (src node idx, dst node idx, f label), sorted.  Each
        merge of two of a node's layers is one, and the label f_j names the
        seam's position in the successor's canonical block order."""
        covers = set()
        for s, n in enumerate(self.nodes):
            for i, _, block, rest, key in _successors(n):
                seam = sum(map(len, rest[: bisect_left(rest, block)])) + len(n.blocks[i])
                covers.add((s, self._index[key], f"f{seam}"))
        return tuple(sorted(covers))

    def level(self, j: int) -> tuple[FiltrationNode, ...]:
        if not (0 <= j <= self.k - 1):
            raise IndexOutOfRange(f"level {j} outside 0..{self.k - 1}")
        return tuple(n for n in self.nodes if n.level == j)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        """Each node's index, by key."""
        return {n.key: t for t, n in enumerate(self.nodes)}

    def node_for_chain(self, x: ChainExpr) -> FiltrationNode:
        """Find the node a chain evaluates into (up to layer reordering)."""
        try:
            key = sorted(self.classes.ids[g] for g in evaluate(x, self.env))
            return self.nodes[self._index[tuple(key)]]
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
                x = clique_multicomplex(g, self.classes.policy)
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
            "policy": self.classes.policy,
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


def _successors(node: FiltrationNode):
    """Each merge of two of a node's layers i < j, as (i, j, merged block,
    the other blocks, successor key).  A block first met gets its class
    id, by one merge per pair of classes."""
    classes, blocks, key = node.classes, node.blocks, node.key
    block_ids, merges = classes.block_ids, classes.merges
    ids = [block_ids[b] for b in blocks]  # atoms, and so blocks, may repeat
    for i, j in itertools.combinations(range(len(blocks)), 2):
        block = tuple(sorted(blocks[i] + blocks[j]))
        if block not in block_ids:
            pair = (ids[i], ids[j]) if ids[i] <= ids[j] else (ids[j], ids[i])
            if pair not in merges:
                g, h = classes.graphs[ids[i]], classes.graphs[ids[j]]
                merges[pair] = classes.id(merge(g, h))
            block_ids[block] = merges[pair]
        succ = list(key)
        succ.remove(ids[i])
        succ.remove(ids[j])
        insort(succ, block_ids[block])
        yield i, j, block, blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :], tuple(succ)


def build_filtration(
    x: ChainExpr, env: ChainEnv, policy: str = CANONICAL
) -> FiltrationPoset:
    """Close a start chain under the flow maps and dedup evaluated nodes.

    Successors merge one unordered pair of layers at a time.  No complex
    is built here: the class table builds one when a Betti vector of depth
    1 or more is first read.  Nor is any cover: ``covers`` finds them
    again from the nodes when first read.
    """
    start = sorted(
        zip((tuple(sorted(b)) for b in x.blocks()), evaluate(x, env)),
        key=itemgetter(0),
    )
    classes = ClassTable(policy)
    # A node's identity is the multiset of its layer graphs: its key is
    # the sorted class ids of its blocks.
    classes.block_ids.update((b, classes.id(g)) for b, g in start)
    key = tuple(sorted(classes.block_ids[b] for b, _ in start))
    nodes = [FiltrationNode(tuple(b for b, _ in start), key, classes)]
    nodes[0].layers = tuple(g for _, g in start)
    seen = {key}
    for parent in nodes:  # breadth first: nodes grows as it goes
        for i, j, block, rest, key in _successors(parent):
            if key not in seen:
                seen.add(key)
                at = bisect_right(rest, block)  # after equal blocks
                succ = rest[:at] + (block,) + rest[at:]
                nodes.append(FiltrationNode(succ, key, classes, parent, (i, j, at)))

    nodes.sort(key=lambda n: (n.level, n.text))
    return FiltrationPoset(x, tuple(nodes), env, classes)


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
