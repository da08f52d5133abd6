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
in copy order, so copy indices are contiguous by construction.  The one
door from outside is ``build`` (``empty`` calls it), which checks each
pair once: endpoints in the node set, colours in the palette.  ``merge``
checks only that its operands share a palette, as both passed that
check.  The ``edges`` view makes ``EdgeCopy`` records on demand.

Graphs are immutable values.  Equality is semantic: node set, palette,
and the colour multiset per endpoint pair — the copy indices used to
tell parallel edges apart are bookkeeping, not identity.  ``key`` is
that identity as a hashable value, and ``merged_key`` gives the key of
a merge from its operands' keys, with no graph made.
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
    "merged_key",
]

Color = str
NodeId = int
Pair = tuple[NodeId, NodeId]
ColorsByPair = dict[Pair, tuple[Color, ...]]  # per pair, the colour of copy 1, 2, ...
# the node set, the palette, and each pair (sorted) with its colours sorted
GraphKey = tuple[frozenset[NodeId], frozenset[Color], tuple[tuple[Pair, tuple[Color, ...]], ...]]


class EdgeCopy(OrderedValue):
    """One copy of an undirected edge; ``copy`` is 1-based within its pair."""

    _fields = ("u", "v", "copy", "color")
    u: NodeId
    v: NodeId
    copy: int
    color: Color

    def __init__(self, u: NodeId, v: NodeId, copy: int, color: Color):
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

    # -- construction ------------------------------------------------------------

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
        # the one checked step, per pair: endpoints are nodes, colours are in the palette
        nodes, palette = frozenset(nodes), frozenset(palette)
        for (u, v), colors in by_pair.items():
            if u not in nodes or v not in nodes:
                raise GraphStructureError(f"edge {(u, v)} has endpoints outside the node set")
            if not palette.issuperset(colors):
                bad = next(c for c in colors if c not in palette)
                raise PaletteMismatch(f"colour {bad!r} not in palette {sorted(palette)}")
        g = object.__new__(cls)
        g._set(
            nodes=nodes, palette=palette, _by_pair={p: tuple(by_pair[p]) for p in sorted(by_pair)}
        )
        return g

    @classmethod
    def empty(cls, palette: Iterable[Color] = ()) -> "Multigraph":
        return cls.build((), (), palette)

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

    @cached_property
    def edges(self) -> tuple[EdgeCopy, ...]:
        """Every copy, sorted by (pair, copy)."""
        return tuple(
            EdgeCopy(*p, i, c)
            for p, colors in self._by_pair.items() for i, c in enumerate(colors, 1)
        )

    def colors_used(self) -> frozenset[Color]:
        return frozenset(itertools.chain.from_iterable(self._by_pair.values()))

    def color_multiset(self, pair: Pair) -> tuple[Color, ...]:
        return tuple(sorted(self.colors(pair)))

    # -- identity ----------------------------------------------------------------

    @cached_property
    def key(self) -> GraphKey:
        """What equality compares: the node set, the palette, and each
        pair with its colour multiset, as a sorted tuple."""
        per_pair = tuple((p, self.color_multiset(p)) for p in self._by_pair)
        return (self.nodes, self.palette, per_pair)

    @cached_property
    def _hash(self) -> int:
        return hash(self.key)

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

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


def _check_palettes(a: frozenset[Color], b: frozenset[Color]) -> None:
    if a != b:
        raise PaletteMismatch(f"operands disagree on palette: {sorted(a)} vs {sorted(b)}")


def merge(g: Multigraph, h: Multigraph) -> Multigraph:
    """Overlay on the shared node universe.

    Nodes union (equal labels identified), per-pair multiplicities add,
    and g's copies keep their indices while h's are appended after, so
    copy identities on the g side are stable across a merge: per pair,
    h's colours are concatenated after g's.
    """
    _check_palettes(g.palette, h.palette)
    by_pair = dict(g._by_pair)
    for pair, colors in h._by_pair.items():
        by_pair[pair] = by_pair.get(pair, ()) + colors
    # both operands passed the checked step over this palette, and so
    # does every pair of their union
    out = object.__new__(Multigraph)
    out._set(nodes=g.nodes | h.nodes, palette=g.palette, _by_pair=dict(sorted(by_pair.items())))
    return out


def merged_key(a: GraphKey, b: GraphKey) -> GraphKey:
    """``merge(g, h).key`` from ``g.key`` and ``h.key``: the node sets
    unite, a pair in one operand keeps its colours, and a shared pair
    gets the sorted concatenation of both.  Raises ``PaletteMismatch``
    as ``merge`` does."""
    nodes, palette, per_pair = a
    _check_palettes(palette, b[1])
    by_pair = dict(per_pair)
    for pair, colors in b[2]:
        by_pair[pair] = tuple(sorted(by_pair[pair] + colors)) if pair in by_pair else colors
    return (nodes | b[0], palette, tuple(sorted(by_pair.items())))
