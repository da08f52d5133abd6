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
``build``, ``merge``, ``empty``) ends in one checked step
(endpoints in the node set, colours in the palette, per pair).  The
views ``edges`` and ``copies`` make ``EdgeCopy`` values on demand.

Graphs are immutable values.  Equality is semantic: node set, palette,
and the colour multiset per endpoint pair — the copy indices used to
tell parallel edges apart are bookkeeping, not identity.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Iterable

from .errors import GraphStructureError, PaletteMismatch, SelfLoopPresent
from .value import OrderedValue, Value

__all__ = [
    "Color",
    "NodeId",
    "EdgeCopy",
    "Multigraph",
    "Multilayer",
    "tensor",
    "merge",
]

Color = str
NodeId = int
Pair = tuple[NodeId, NodeId]
ColorsByPair = dict[Pair, tuple[Color, ...]]  # per pair, the colour of copy 1, 2, ...


class EdgeCopy(OrderedValue):
    """One copy of an undirected edge; ``copy`` is 1-based within its pair."""

    _fields = ("u", "v", "copy", "color")
    u: NodeId
    v: NodeId
    copy: int
    color: Color

    def __init__(self, u: NodeId, v: NodeId, copy: int, color: Color):
        if u == v:
            raise SelfLoopPresent(f"self-loop at node {u}")
        if u > v:
            raise GraphStructureError(f"edge endpoints must be ordered: ({u}, {v})")
        if copy < 1:
            raise GraphStructureError(f"copy index must be >= 1, got {copy}")
        self._set(u=u, v=v, copy=copy, color=color)

    @property
    def pair(self) -> Pair:
        return (self.u, self.v)


def _normalize_pair(u: NodeId, v: NodeId) -> Pair:
    if u == v:
        raise SelfLoopPresent(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


class Multigraph(Value):
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
        self._set(nodes=nodes, palette=palette, _by_pair=dict(sorted(by_pair.items())))

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


class Multilayer(Value):
    """Ordered layers produced by ``tensor``; layers do not interact."""

    _fields = ("layers",)
    layers: tuple[Multigraph, ...]

    def __init__(self, layers: tuple[Multigraph, ...] = ()):
        self._set(layers=layers)

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
