"""Edge-coloured multigraphs and the two composition operators.

A multigraph here is a finite node set, a palette of colours, and a
multiset of undirected edges where every parallel copy carries its own
colour.  Two graphs over the same palette compose in two ways:

* ``tensor`` (written ``|`` in chain syntax) places graphs side by side
  as ordered, non-interacting layers;
* ``merge`` (written ``.``) overlays them on a shared node universe:
  nodes with equal labels are identified and multiplicities add per
  endpoint pair.

Graphs are immutable values.  Equality is semantic: node set, palette,
and the colour multiset per endpoint pair — the copy indices used to
tell parallel edges apart are bookkeeping, not identity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import GraphStructureError, PaletteMismatch, SelfLoopPresent

__all__ = [
    "Color",
    "NodeId",
    "EdgeCopy",
    "Multigraph",
    "Multilayer",
    "tensor",
    "merge",
    "color_count",
    "canonical",
    "vertex_disjoint",
]

Color = str
NodeId = int


@dataclass(frozen=True, order=True)
class EdgeCopy:
    """One copy of an undirected edge; ``copy`` is 1-based within its pair."""

    u: NodeId
    v: NodeId
    copy: int
    color: Color

    def __post_init__(self):
        if self.u == self.v:
            raise SelfLoopPresent(f"self-loop at node {self.u}")
        if self.u > self.v:
            raise GraphStructureError(f"edge endpoints must be ordered: ({self.u}, {self.v})")
        if self.copy < 1:
            raise GraphStructureError(f"copy index must be >= 1, got {self.copy}")

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.u, self.v)


def _normalize_pair(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    if u == v:
        raise SelfLoopPresent(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Immutable edge-coloured multigraph over a fixed palette."""

    nodes: frozenset[NodeId]
    edges: tuple[EdgeCopy, ...]
    palette: frozenset[Color]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        # The one grouping of copies by pair; every per-pair view reads it.
        # Edges are sorted, so pairs and each pair's copies come in order.
        by_pair: dict[tuple[NodeId, NodeId], list[EdgeCopy]] = {}
        for e in self.edges:
            if e.u not in self.nodes or e.v not in self.nodes:
                raise GraphStructureError(f"edge {e.pair} has endpoints outside the node set")
            if e.color not in self.palette:
                raise PaletteMismatch(f"colour {e.color!r} not in palette {sorted(self.palette)}")
            by_pair.setdefault(e.pair, []).append(e)
        for pair, copies in by_pair.items():
            indices = [e.copy for e in copies]
            if indices != list(range(1, len(copies) + 1)):
                raise GraphStructureError(
                    f"copy indices for pair {pair} must be contiguous 1..m, got {indices}"
                )
        object.__setattr__(self, "_by_pair", {p: tuple(c) for p, c in by_pair.items()})

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        nodes: Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId, Color] | tuple[NodeId, NodeId, Color, int]],
        palette: Iterable[Color],
    ) -> "Multigraph":
        """Build from ``(u, v, color)`` or ``(u, v, color, mult)`` rows.

        Copy indices are assigned per endpoint pair in row order, so the
        same row repeated (or a ``mult`` > 1) yields parallel copies.
        """
        counters: dict[tuple[NodeId, NodeId], int] = {}
        out: list[EdgeCopy] = []
        for row in edges:
            if len(row) == 3:
                u, v, color = row  # type: ignore[misc]
                mult = 1
            else:
                u, v, color, mult = row  # type: ignore[misc]
            if mult < 1:
                raise GraphStructureError(f"multiplicity must be >= 1, got {mult}")
            pair = _normalize_pair(u, v)
            for _ in range(mult):
                counters[pair] = counters.get(pair, 0) + 1
                out.append(EdgeCopy(pair[0], pair[1], counters[pair], color))
        return cls(frozenset(nodes), tuple(out), frozenset(palette))

    @classmethod
    def _from_pairs(
        cls,
        nodes: frozenset[NodeId],
        by_pair: dict[tuple[NodeId, NodeId], tuple[EdgeCopy, ...]],
        palette: frozenset[Color],
    ) -> "Multigraph":
        """Trusted constructor: ``by_pair`` is already the pair index of a
        valid graph (pairs sorted, each pair's copies 1..m in order,
        endpoints in ``nodes``, colours in ``palette``), so nothing is
        sorted or checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "nodes", nodes)
        object.__setattr__(g, "edges", tuple(itertools.chain.from_iterable(by_pair.values())))
        object.__setattr__(g, "palette", palette)
        object.__setattr__(g, "_by_pair", by_pair)
        return g

    @classmethod
    def empty(cls, palette: Iterable[Color] = ()) -> "Multigraph":
        return cls(frozenset(), (), frozenset(palette))

    # -- views -----------------------------------------------------------------

    def pairs(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Distinct endpoint pairs, sorted."""
        return tuple(self._by_pair)

    def multiplicity(self, pair: tuple[NodeId, NodeId]) -> int:
        return len(self.copies(pair))

    def multiplicities(self) -> dict[tuple[NodeId, NodeId], int]:
        return {p: len(c) for p, c in self._by_pair.items()}

    def copies(self, pair: tuple[NodeId, NodeId]) -> tuple[EdgeCopy, ...]:
        return self._by_pair.get(pair, ())

    def colors_used(self) -> frozenset[Color]:
        return frozenset(e.color for e in self.edges)

    def color_multiset(self, pair: tuple[NodeId, NodeId]) -> tuple[Color, ...]:
        return tuple(sorted(e.color for e in self.copies(pair)))

    # -- identity ----------------------------------------------------------------

    @cached_property
    def _key(self):
        per_pair = tuple((p, self.color_multiset(p)) for p in self._by_pair)
        return (self.nodes, self.palette, per_pair)

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Multigraph(|V|={len(self.nodes)}, |E|={len(self.edges)}, colours={sorted(self.colors_used())})"

    def to_json_dict(self) -> dict:
        """Canonical JSON form: copies grouped by (pair, colour)."""
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"u": u, "v": v, "color": c, "mult": m}
                for (u, v), copies in self._by_pair.items()
                for c, m in sorted(Counter(e.color for e in copies).items())
            ],
        }


@dataclass(frozen=True)
class Multilayer:
    """Ordered layers produced by ``tensor``; layers do not interact."""

    layers: tuple[Multigraph, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)


def _as_layers(x: Multigraph | Multilayer) -> tuple[Multigraph, ...]:
    return x.layers if isinstance(x, Multilayer) else (x,)


def tensor(g: Multigraph | Multilayer, h: Multigraph | Multilayer) -> Multilayer:
    """Juxtapose as ordered layers; no identification, order is kept."""
    return Multilayer(_as_layers(g) + _as_layers(h))


def merge(g: Multigraph, h: Multigraph) -> Multigraph:
    """Overlay on the shared node universe.

    Nodes union (equal labels identified), per-pair multiplicities add,
    and g's copies keep their indices while h's are appended after, so
    copy identities on the g side are stable across a merge.  Both
    operands are valid graphs, so the result is assembled pair by pair
    without sorting or checking it again.
    """
    if g.palette != h.palette:
        raise PaletteMismatch(
            f"operands disagree on palette: {sorted(g.palette)} vs {sorted(h.palette)}"
        )
    left, right = g._by_pair, h._by_pair
    by_pair = {}
    for pair in sorted(left.keys() | right.keys()):
        copies = left.get(pair, ())
        m = len(copies)
        by_pair[pair] = copies + tuple(
            EdgeCopy(e.u, e.v, m + e.copy, e.color) for e in right.get(pair, ())
        )
    return Multigraph._from_pairs(g.nodes | h.nodes, by_pair, g.palette)


def color_count(g: Multigraph) -> int:
    """Number of distinct colours actually used by edges."""
    return len(g.colors_used())


def canonical(g: Multigraph) -> Multigraph:
    """Re-index copies per pair in colour order; canonical representative
    of the semantic equality class."""
    edges = tuple(
        EdgeCopy(e.u, e.v, i, e.color)
        for pair in g.pairs()
        for i, e in enumerate(sorted(g.copies(pair), key=lambda e: (e.color, e.copy)), start=1)
    )
    return Multigraph(g.nodes, edges, g.palette)


def vertex_disjoint(*graphs: Multigraph) -> bool:
    return all(
        not (a.nodes & b.nodes) for a, b in itertools.combinations(graphs, 2)
    )
