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

Building the diagram builds no complex and merges no graph.  A layer's
class in a ``ClassTable`` is known by its graph's ``key``, the identity
``Multigraph`` equality compares, and the class of a merge of two
classes by ``merged_key`` of their keys, once per pair of classes.  A
class first met as a merge makes its graph only when something reads
it, by ``merge`` of the two class graphs that first made it, in block
order.  beta_0 of a class comes off its key's node set and pairs, so a
beta_0 trace makes no graph beyond the start's.  A deeper Betti number
comes from ``homology.clique_betti`` on the class graph, with no cell
built under either policy: it counts the (d+1)-skeleton for a trace of
beta_d, and the whole complex for whole vectors (``--dot`` and
``--json``).  ``--json`` replays the exact layer graphs, whose copy
numbering shows there, and builds layer complexes only for the cells it
prints.

One walk, ``_successors``, gives each merge of two of a node's layers
whose successor is new, over integer codes: a block's code is the sum
of (k+1)^rank over its atoms (an atom occurs at most k times, so no
digit carries), so a merged block's code is the sum of its parts'; a
node's code is the sum of 2^(s*c) over its layers' classes c, with s
the bit length of the start's block count (a class occurs at most that
often).  ``build_filtration`` adds nodes from it level by level, and
``covers`` labels its maps from it.  Each node records where its merged
layer went, so ``layers`` replays by index.

The level profile deliberately reports two channels per level — a
closed-form size and the measured size — because they disagree in
general; consumers decide what to make of that.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Container, Iterable, Iterator
from functools import cached_property
from operator import attrgetter, itemgetter
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
from .homology import BettiVector, betti0_of, betti_sum, clique_betti
from .mcomplex import CANONICAL, check_policy, clique_multicomplex
from .mgraph import GraphKey, Multigraph, merge, merged_key

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
    """The layer classes met while building a filtration from the start's
    (block, graph) pairs, one per ``Multigraph`` equality class.

    ``ids`` gives each class's key its id, ``keys`` each id its key.  A
    start class holds its graph in ``graphs``; a class first met as a
    merge holds in ``made_from`` the two classes that first made it, in
    block order, and its graph is made when ``graph`` reads it.
    ``merges`` holds the class of each merged pair of classes (sorted),
    so each pair is merged once, by key.  ``codes`` gives each block met
    its code, ``code_ids`` each code its class and ``blocks`` its block,
    one tuple shared by every node with that block, and ``weights[c]`` is
    class c's term in a node's code.  A class's Betti vectors are
    memoized per depth: beta_0 is read off its key, deeper ones by
    ``clique_betti`` on its graph."""

    def __init__(self, policy: str, start: Sequence[tuple[Block, Multigraph]]):
        self.policy = policy
        self.ids: dict[GraphKey, int] = {}
        self.keys: list[GraphKey] = []
        self.graphs: dict[int, Multigraph] = {}
        self.made_from: dict[int, tuple[int, int]] = {}
        self.merges: dict[tuple[int, int], int] = {}
        self.codes: dict[Block, int] = {}
        self.code_ids: dict[int, int] = {}
        self.blocks: dict[int, Block] = {}
        self.weights: list[int] = []
        self._shift = len(start).bit_length()
        self._betti: dict[tuple[int, int | None], BettiVector] = {}
        atoms = sorted({a for b, _ in start for a in b})
        base = sum(len(b) for b, _ in start) + 1
        term = {a: base**r for r, a in enumerate(atoms)}
        for b, g in start:
            self.codes[b] = code = sum(map(term.__getitem__, b))
            self.blocks.setdefault(code, b)
            self.code_ids[code] = c = self._class(g.key)
            self.graphs.setdefault(c, g)

    def _class(self, key: GraphKey) -> int:
        """The class id of key, a new one if no class met so far has it."""
        c = self.ids.setdefault(key, len(self.keys))
        if c == len(self.keys):
            self.keys.append(key)
            self.weights.append(1 << (self._shift * c))
        return c

    def merged(self, a: int, b: int) -> int:
        """The class of the merge of classes a and b, in that order."""
        pair = (a, b) if a <= b else (b, a)
        if pair not in self.merges:
            new = len(self.keys)
            self.merges[pair] = c = self._class(merged_key(self.keys[a], self.keys[b]))
            if c == new:
                self.made_from[c] = (a, b)
        return self.merges[pair]

    def code(self, ids: Iterable[int]) -> int:
        """The code of a node whose layers have the classes ids."""
        weights = self.weights
        return sum([weights[c] for c in ids])

    def graph(self, c: int) -> Multigraph:
        """Class c's graph: the first graph met, or made, in it."""
        if c not in self.graphs:
            a, b = self.made_from[c]
            self.graphs[c] = merge(self.graph(a), self.graph(b))
        return self.graphs[c]

    def betti(self, c: int, dim: int | None = None) -> BettiVector:
        """Class c's whole Betti vector, or with ``dim`` beta_0..beta_dim."""
        vector = self._betti.get((c, dim))
        if vector is None:
            if dim == 0:
                nodes, _, per_pair = self.keys[c]
                vector = betti0_of(nodes, map(itemgetter(0), per_pair))
            else:
                vector = clique_betti(self.graph(c), self.policy, dim)
            self._betti[c, dim] = vector
        return vector


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
        betti, total = self.classes.betti, 0
        for c in self.key:
            vector = betti(c, dim)
            if dim < len(vector):
                total += vector[dim]
        return total

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
            for i, j, block, code in _successors(n, ()):
                rest = _others(n.blocks, i, j)
                seam = sum(map(len, rest[: bisect_left(rest, block)])) + len(n.blocks[i])
                covers.add((s, self._index[code], f"f{seam}"))
        return tuple(sorted(covers))

    def level(self, j: int) -> tuple[FiltrationNode, ...]:
        if not (0 <= j <= self.k - 1):
            raise IndexOutOfRange(f"level {j} outside 0..{self.k - 1}")
        return tuple(n for n in self.nodes if n.level == j)

    @cached_property
    def _index(self) -> dict[int, int]:
        """Each node's index, by code."""
        return {self.classes.code(n.key): t for t, n in enumerate(self.nodes)}

    def node_for_chain(self, x: ChainExpr) -> FiltrationNode:
        """Find the node a chain evaluates into (up to layer reordering)."""
        classes = self.classes
        try:
            key = tuple(sorted(classes.ids[g.key] for g in evaluate(x, self.env)))
            # a class repeated more often than any node repeats one can
            # carry into another node's code, so the key is compared too
            node = self.nodes[self._index[classes.code(key)]]
        except KeyError:
            node = None
        if node is None or node.key != key:
            raise KeyError(f"chain {x.text()!r} does not evaluate into this filtration")
        return node

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
                layer_json[key] = clique_multicomplex(g, self.classes.policy).to_json_dict()
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


def _others(blocks: tuple[Block, ...], i: int, j: int) -> tuple[Block, ...]:
    """The blocks but i < j."""
    return blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :]


def _successors(node: FiltrationNode, seen: Container[int]):
    """Each merge of two of a node's layers i < j whose successor's code
    is not in ``seen``, as (i, j, merged block, successor code).  A block
    first met gets its class, by one key merge per pair of classes."""
    classes, blocks = node.classes, node.blocks
    code_ids, code_blocks, weights = classes.code_ids, classes.blocks, classes.weights
    codes = list(map(classes.codes.__getitem__, blocks))  # atoms, and so blocks, may repeat
    ids = list(map(code_ids.__getitem__, codes))
    terms = list(map(weights.__getitem__, ids))
    code = sum(terms)
    for i in range(len(codes) - 1):
        a, without = codes[i], code - terms[i]
        for j in range(i + 1, len(codes)):
            merged = a + codes[j]
            c = code_ids.get(merged)
            if c is None:
                c = code_ids[merged] = classes.merged(ids[i], ids[j])
                block = tuple(sorted(blocks[i] + blocks[j]))
                classes.codes[block], code_blocks[merged] = merged, block
            succ = without - terms[j] + weights[c]
            if succ not in seen:
                yield i, j, code_blocks[merged], succ


def build_filtration(
    x: ChainExpr, env: ChainEnv, policy: str = CANONICAL
) -> FiltrationPoset:
    """Close a start chain under the flow maps and dedup evaluated nodes.

    Successors merge one unordered pair of layers at a time.  No complex
    is built here, and no graph merged: the class table reads a Betti
    vector off a class's graph when first asked, and makes a class's
    graph when first read.  Nor is any cover: ``covers`` finds them again
    from the nodes when first read.  An unknown policy is refused first.
    """
    check_policy(policy)
    start = sorted(
        zip((tuple(sorted(b)) for b in x.blocks()), evaluate(x, env)),
        key=itemgetter(0),
    )
    classes = ClassTable(policy, start)
    codes, code_ids = classes.codes, classes.code_ids

    def key(blocks: tuple[Block, ...]) -> tuple[int, ...]:
        # a node's identity is the multiset of its layers' classes: its
        # key is their sorted ids
        return tuple(sorted([code_ids[codes[b]] for b in blocks]))

    blocks = tuple(b for b, _ in start)
    nodes = [FiltrationNode(blocks, key(blocks), classes)]
    nodes[0].layers = tuple(g for _, g in start)
    level = nodes
    while level:  # every cover raises the level by one
        seen: set[int] = set()
        made = []
        for parent in level:
            for i, j, block, code in _successors(parent, seen):
                seen.add(code)
                rest = _others(parent.blocks, i, j)
                at = bisect_right(rest, block)  # after equal blocks
                blocks = rest[:at] + (block,) + rest[at:]
                made.append(FiltrationNode(blocks, key(blocks), classes, parent, (i, j, at)))
        nodes += made
        level = made

    nodes.sort(key=attrgetter("level", "text"))
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
    picked.sort(key=attrgetter("level", "text"))
    return _trace_rows(picked, dim)


def level_profile(p: FiltrationPoset) -> dict:
    """Formula channel vs measured channel, per level and for the fold
    count.  The two disagree in general; both are reported, neither is
    adjusted."""
    k = p.k
    measured = Counter(n.level for n in p.nodes)
    levels = [
        {"level": j, "formula_size": math.comb(k, j + 1), "measured_size": measured[j]}
        for j in range(k)
    ]
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
    partitions of the atoms — 13 of them for k = 3.  Each is made once,
    from an ordered set partition of the atoms' positions; atoms named
    more than once make some of them alike, and a set keeps one.
    """
    if not include_permutations:
        return all_chains(atoms)
    chains = set(map(_chain_of_blocks, _ordered_partitions(tuple(atoms))))
    return tuple(sorted(chains, key=lambda c: (merge_count(c), c.text())))


def _ordered_partitions(atoms: tuple[str, ...]) -> Iterator[tuple[Block, ...]]:
    """The ordered set partitions of the atoms' positions, each block
    given as its atoms, sorted."""
    if not atoms:
        yield ()
        return
    positions = range(len(atoms))
    for r in range(1, len(atoms) + 1):
        for block in itertools.combinations(positions, r):
            head = tuple(sorted(atoms[i] for i in block))
            rest = tuple(atoms[i] for i in positions if i not in block)
            for tail in _ordered_partitions(rest):
                yield (head, *tail)
