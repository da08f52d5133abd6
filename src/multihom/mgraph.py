"""Edge-coloured multigraphs and the two composition operators.

A multigraph here is a finite node set, a palette of colours, and a
multiset of undirected edges where every parallel copy carries its own
colour.  Two graphs over the same palette compose in two ways:

* ``tensor`` (written ``|`` in chain syntax) places graphs side by side
  as ordered, non-interacting layers;
* ``merge`` (written ``.``) overlays them on a shared node universe:
  nodes with equal labels are identified and multiplicities add per
  endpoint pair.

A graph stores, per endpoint pair (pairs sorted), its copies' colours
in copy order, so copy indices are contiguous by construction.  Every
door (``Multigraph(nodes, edges, palette)`` from ``EdgeCopy`` values,
``build``, ``merge``, ``canonical``, ``empty``) ends in one checked step
(endpoints in the node set, colours in the palette, per pair).  The
views ``edges`` and ``copies`` make ``EdgeCopy`` values on demand.

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
Pair = tuple[NodeId, NodeId]
ColorsByPair = dict[Pair, tuple[Color, ...]]  # per pair, the colour of copy 1, 2, ...


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
    def pair(self) -> Pair:
        return (self.u, self.v)


def _normalize_pair(u: NodeId, v: NodeId) -> Pair:
    if u == v:
        raise SelfLoopPresent(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False, init=False)
class Multigraph:
    """Immutable edge-coloured multigraph over a fixed palette."""

    nodes: frozenset[NodeId]
    palette: frozenset[Color]
    _by_pair: ColorsByPair

    def __init__(
        self, nodes: Iterable[NodeId], edges: Iterable[EdgeCopy], palette: Iterable[Color]
    ):
        """From ``EdgeCopy`` values in any order; each pair's copies must be 1..m."""
        by_pair: dict[Pair, list[EdgeCopy]] = {}
        for e in sorted(edges):
            by_pair.setdefault(e.pair, []).append(e)
        for pair, copies in by_pair.items():
            indices = [e.copy for e in copies]
            if indices != list(range(1, len(copies) + 1)):
                raise GraphStructureError(
                    f"copy indices for pair {pair} must be contiguous 1..m, got {indices}"
                )
        self._store(nodes, {p: tuple(e.color for e in c) for p, c in by_pair.items()}, palette)

    def _store(self, nodes: Iterable[NodeId], by_pair: ColorsByPair, palette: Iterable[Color]):
        """The one checked step every graph goes through: each pair's
        endpoints are nodes and its colours are in the palette."""
        nodes, palette = frozenset(nodes), frozenset(palette)
        for (u, v), colors in by_pair.items():
            if u not in nodes or v not in nodes:
                raise GraphStructureError(f"edge {(u, v)} has endpoints outside the node set")
            if not palette.issuperset(colors):
                bad = next(c for c in colors if c not in palette)
                raise PaletteMismatch(f"colour {bad!r} not in palette {sorted(palette)}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "_by_pair", dict(sorted(by_pair.items())))

    @classmethod
    def _of(cls, nodes: Iterable[NodeId], by_pair: ColorsByPair, palette: Iterable[Color]):
        g = object.__new__(cls)
        g._store(nodes, by_pair, palette)
        return g

    # -- construction helpers -------------------------------------------------

    @classmethod
    def build(
        cls,
        nodes: Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId, Color] | tuple[NodeId, NodeId, Color, int]],
        palette: Iterable[Color],
    ) -> "Multigraph":
        """Build from ``(u, v, color)`` or ``(u, v, color, mult)`` rows; copies
        are numbered per endpoint pair in row order, so the same row repeated
        (or a ``mult`` > 1) yields parallel copies."""
        by_pair: dict[Pair, list[Color]] = {}
        for row in edges:
            if len(row) == 3:
                u, v, color = row  # type: ignore[misc]
                mult = 1
            else:
                u, v, color, mult = row  # type: ignore[misc]
            if mult < 1:
                raise GraphStructureError(f"multiplicity must be >= 1, got {mult}")
            by_pair.setdefault(_normalize_pair(u, v), []).extend([color] * mult)
        return cls._of(nodes, {p: tuple(c) for p, c in by_pair.items()}, palette)

    @classmethod
    def empty(cls, palette: Iterable[Color] = ()) -> "Multigraph":
        return cls._of((), {}, palette)

    # -- views -----------------------------------------------------------------

    def pairs(self) -> tuple[Pair, ...]:
        """Distinct endpoint pairs, sorted."""
        return tuple(self._by_pair)

    def multiplicity(self, pair: Pair) -> int:
        return len(self.colors(pair))

    def multiplicities(self) -> dict[Pair, int]:
        return {p: len(c) for p, c in self._by_pair.items()}

    def colors(self, pair: Pair) -> tuple[Color, ...]:
        """The pair's colours in copy order: copy i has ``colors(pair)[i - 1]``."""
        return self._by_pair.get(pair, ())

    def copies(self, pair: Pair) -> tuple[EdgeCopy, ...]:
        u, v = pair
        return tuple(EdgeCopy(u, v, i, c) for i, c in enumerate(self.colors(pair), start=1))

    @cached_property
    def edges(self) -> tuple[EdgeCopy, ...]:
        """Every copy, sorted by (pair, copy)."""
        return tuple(e for p in self._by_pair for e in self.copies(p))

    def colors_used(self) -> frozenset[Color]:
        return frozenset(itertools.chain.from_iterable(self._by_pair.values()))

    def color_multiset(self, pair: Pair) -> tuple[Color, ...]:
        return tuple(sorted(self.colors(pair)))

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
        copies = sum(self.multiplicities().values())
        return f"Multigraph(|V|={len(self.nodes)}, |E|={copies}, colours={sorted(self.colors_used())})"

    def to_json_dict(self) -> dict:
        """Canonical JSON form: copies grouped by (pair, colour)."""
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"u": u, "v": v, "color": c, "mult": m}
                for (u, v), colors in self._by_pair.items()
                for c, m in sorted(Counter(colors).items())
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
    copy identities on the g side are stable across a merge: per pair,
    h's colours are concatenated after g's.
    """
    if g.palette != h.palette:
        raise PaletteMismatch(
            f"operands disagree on palette: {sorted(g.palette)} vs {sorted(h.palette)}"
        )
    by_pair = dict(g._by_pair)
    for pair, colors in h._by_pair.items():
        by_pair[pair] = by_pair.get(pair, ()) + colors
    return Multigraph._of(g.nodes | h.nodes, by_pair, g.palette)


def color_count(g: Multigraph) -> int:
    """Number of distinct colours actually used by edges."""
    return len(g.colors_used())


def canonical(g: Multigraph) -> Multigraph:
    """Re-index copies per pair in colour order; canonical representative
    of the semantic equality class."""
    by_pair = {p: tuple(sorted(c)) for p, c in g._by_pair.items()}
    return Multigraph._of(g.nodes, by_pair, g.palette)


def vertex_disjoint(*graphs: Multigraph) -> bool:
    return all(not (a.nodes & b.nodes) for a, b in itertools.combinations(graphs, 2))
