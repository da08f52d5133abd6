"""Clique multicomplexes: cells with multiplicity glued along chosen faces.

The clique multicomplex of a multigraph has one 0-cell per node and one
1-cell per edge copy.  A triangle with edge multiplicities m1, m2, m3
carries m1*m2*m3 parallel 2-cells, one per combination of boundary edge
copies.  Above dimension 2 the ``canonical`` policy keeps exactly one
cell per clique, glued along the faces that use each pair's first copy
in colour order (so the choice does not depend on how the multigraph
was presented); the ``per-combination`` policy keeps one cell per
assignment of a copy to every edge of the clique, faces given by
restriction.  Either way the
gluing is consistent: two faces of a cell agree on their shared subface,
which is what makes the GF(2) boundary square to zero.

Cells are identified by (vertex tuple, copy); the copy index is the
1-based lexicographic rank of the cell's edge-copy assignment (pairs in
sorted order, the first most significant), or 1 for the single
``canonical`` cell.  A cell stores only its faces; the assignment is
what those faces reach at dimension 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ComplexStructureError, PaletteMismatch
from .mgraph import EdgeCopy, Multigraph, merge

__all__ = [
    "CANONICAL",
    "PER_COMBINATION",
    "POLICIES",
    "Multicell",
    "Multicomplex",
    "clique_multicomplex",
    "complex_merge",
    "cell_coloring",
    "duplications",
]

CANONICAL = "canonical"
PER_COMBINATION = "per-combination"
POLICIES = (CANONICAL, PER_COMBINATION)

CellKey = tuple[tuple[int, ...], int]


@dataclass(frozen=True, order=True)
class Multicell:
    """One cell: sorted vertex tuple, 1-based copy, explicit glued faces.

    ``faces`` maps each codimension-1 vertex subset to the copy of that
    face the cell is glued to.  The gluing is the whole record: which
    edge copy the cell lies over, and so its colours, is read by walking
    the faces down to dimension 1 (``cell_coloring``).
    """

    vertices: tuple[int, ...]
    copy: int
    faces: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        if tuple(sorted(set(self.vertices))) != self.vertices:
            raise ComplexStructureError(
                f"cell vertices must be sorted and distinct: {self.vertices}"
            )
        if self.copy < 1:
            raise ComplexStructureError(f"cell copy must be >= 1, got {self.copy}")
        if self.dim >= 1 and len(self.faces) != len(self.vertices):
            raise ComplexStructureError(
                f"{self.dim}-cell on {self.vertices} needs {len(self.vertices)} faces"
            )

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def key(self) -> CellKey:
        return (self.vertices, self.copy)


@dataclass(eq=False)
class Multicomplex:
    """Graded cell collection with a colouring of the 1-cells."""

    palette: frozenset[str]
    grades: tuple[tuple[Multicell, ...], ...]
    coloring: dict[CellKey, str]
    policy: str = CANONICAL

    def __post_init__(self):
        self._index: dict[CellKey, Multicell] = {
            c.key: c for grade in self.grades for c in grade
        }
        self._canon: tuple | None = None

    # -- views -------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.grades) - 1

    def cells(self, d: int) -> tuple[Multicell, ...]:
        if 0 <= d < len(self.grades):
            return self.grades[d]
        return ()

    def all_cells(self) -> tuple[Multicell, ...]:
        return tuple(c for grade in self.grades for c in grade)

    def cell_count(self, d: int) -> int:
        return len(self.cells(d))

    def find(self, key: CellKey) -> Multicell:
        return self._index[key]

    def multiplicity(self, vertices: tuple[int, ...]) -> int:
        d = len(vertices) - 1
        return sum(1 for c in self.cells(d) if c.vertices == vertices)

    def shapes(self, d: int) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for c in self.cells(d):
            out[c.vertices] = out.get(c.vertices, 0) + 1
        return out

    def __repr__(self):
        counts = ",".join(str(len(g)) for g in self.grades)
        return f"Multicomplex(cells per dim=[{counts}], policy={self.policy})"

    # -- structure checks ----------------------------------------------------

    def validate(self) -> None:
        """Face closure, copy contiguity, gluing consistency, colour totality."""
        shape_copies: dict[tuple[int, ...], list[int]] = {}
        for d, grade in enumerate(self.grades):
            for c in grade:
                if c.dim != d:
                    raise ComplexStructureError(f"cell {c.key} misfiled at dim {d}")
                shape_copies.setdefault(c.vertices, []).append(c.copy)
        for vertices, copies in shape_copies.items():
            copies.sort()
            if copies != list(range(1, len(copies) + 1)):
                raise ComplexStructureError(
                    f"copies for shape {vertices} not contiguous: {copies}"
                )
        for c in self.all_cells():
            for face_key in c.faces:
                if face_key not in self._index:
                    raise ComplexStructureError(
                        f"cell {c.key} glued to missing face {face_key}"
                    )
            # two faces must agree on their shared subface
            for (s1, p1), (s2, p2) in itertools.combinations(c.faces, 2):
                shared = tuple(sorted(set(s1) & set(s2)))
                if len(shared) < 1:
                    continue
                f1 = self._index[(s1, p1)]
                f2 = self._index[(s2, p2)]
                g1 = dict(f1.faces).get(shared) if f1.dim >= 1 else None
                g2 = dict(f2.faces).get(shared) if f2.dim >= 1 else None
                if g1 != g2:
                    raise ComplexStructureError(
                        f"gluing of {c.key} inconsistent over {shared}: "
                        f"{(s1, p1)} -> {g1} vs {(s2, p2)} -> {g2}"
                    )
        for c in self.cells(1):
            if c.key not in self.coloring:
                raise ComplexStructureError(f"1-cell {c.key} has no colour")
            if self.coloring[c.key] not in self.palette:
                raise PaletteMismatch(
                    f"1-cell {c.key} coloured outside the palette"
                )

    # -- derived data ----------------------------------------------------------

    def underlying_multigraph(self) -> Multigraph:
        """Nodes and coloured edge copies of the 1-skeleton."""
        nodes = [c.vertices[0] for c in self.cells(0)]
        edges = tuple(
            EdgeCopy(c.vertices[0], c.vertices[1], c.copy, self.coloring[c.key])
            for c in self.cells(1)
        )
        return Multigraph(frozenset(nodes), edges, self.palette)

    def canonical_form(self) -> tuple:
        """Serialization invariant under per-shape copy permutations.

        Copies are re-indexed bottom-up: 1-cells by colour, higher cells
        by their (remapped) face tuples.  Complexes built from merges in
        either operand order canonicalize identically.
        """
        if self._canon is None:
            remap: dict[CellKey, int] = {}
            new_grades: list[tuple] = []
            new_coloring: dict[CellKey, str] = {}
            for d, grade in enumerate(self.grades):
                staged = []
                for c in grade:
                    if d == 0:
                        content = ()
                    elif d == 1:
                        content = (self.coloring[c.key],)
                    else:
                        content = tuple(
                            sorted((s, remap[(s, p)]) for s, p in c.faces)
                        )
                    staged.append((c.vertices, content, c.copy, c))
                staged.sort(key=lambda t: (t[0], t[1], t[2]))
                counters: dict[tuple[int, ...], int] = {}
                out_cells = []
                for vertices, content, _old_copy, c in staged:
                    counters[vertices] = counters.get(vertices, 0) + 1
                    new_copy = counters[vertices]
                    remap[c.key] = new_copy
                    out_cells.append((vertices, new_copy, content))
                    if d == 1:
                        new_coloring[(vertices, new_copy)] = content[0]
                new_grades.append(tuple(sorted(out_cells)))
            self._canon = (
                tuple(sorted(self.palette)),
                self.policy,
                tuple(new_grades),
            )
        return self._canon

    def __eq__(self, other):
        if not isinstance(other, Multicomplex):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self):
        return hash(self.canonical_form())

    def to_json_dict(self) -> dict:
        return {
            "palette": sorted(self.palette),
            "policy": self.policy,
            "cells": [
                [
                    {
                        "vertices": list(c.vertices),
                        "copy": c.copy,
                        "faces": [
                            {"vertices": list(s), "copy": p} for s, p in c.faces
                        ],
                        **(
                            {"color": self.coloring[c.key]}
                            if c.dim == 1
                            else {}
                        ),
                    }
                    for c in grade
                ]
                for grade in self.grades
            ],
        }

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_cells(
        cls,
        palette: Iterable[str],
        cells: Iterable[Multicell],
        coloring: Mapping[CellKey, str],
        policy: str = CANONICAL,
        validate: bool = True,
    ) -> "Multicomplex":
        """Assemble an explicit cell list (graded, sorted, validated).

        This is the door for complexes that are not clique complexes of
        any multigraph, e.g. a pillow: two 2-cells glued to the same
        three edges.
        """
        by_dim: dict[int, list[Multicell]] = {}
        for c in cells:
            by_dim.setdefault(c.dim, []).append(c)
        top = max(by_dim) if by_dim else -1
        grades = tuple(tuple(sorted(by_dim.get(d, ()))) for d in range(top + 1))
        x = cls(frozenset(palette), grades, dict(coloring), policy)
        if validate:
            x.validate()
        return x

    @classmethod
    def empty(cls, palette: Iterable[str] = (), policy: str = CANONICAL) -> "Multicomplex":
        return cls(frozenset(palette), (), {}, policy)


# -- clique construction -----------------------------------------------------------


def _cliques(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, ...]]:
    """Every clique of the simple graph on ``nodes`` and ``pairs``, as a
    sorted vertex tuple.

    Nodes are indexed by bit in sorted order and ``up[i]`` is the bitset
    of i's higher neighbours, so a clique grows depth-first only by its
    common higher neighbours (ordered-neighbour expansion, as in Bron &
    Kerbosch 1973) and each clique is reached exactly once.
    """
    order = sorted(nodes)
    bit = {v: i for i, v in enumerate(order)}
    up = [0] * len(order)
    for u, v in pairs:
        i, j = sorted((bit[u], bit[v]))
        up[i] |= 1 << j

    def grow(clique: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            tau = clique + (order[i],)
            yield tau
            yield from grow(tau, cand & up[i])

    return grow((), (1 << len(order)) - 1)


def clique_multicomplex(g: Multigraph, policy: str = CANONICAL) -> Multicomplex:
    """Build the clique multicomplex of a multigraph.

    Every clique of the underlying simple graph contributes cells; see
    the module docstring for how multiplicities propagate upward under
    each policy.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    mult = g.multiplicities()
    cells: list[Multicell] = []
    coloring: dict[CellKey, str] = {}

    # Per pair, the 0-based copy that comes first in (colour, copy) order.
    # The canonical policy glues its single high-dimensional cell along
    # these, so the result is invariant under re-indexing parallel copies
    # (e.g. merging the same two graphs in either order).
    first_copy = {p: min(g.copies(p), key=lambda e: (e.color, e.copy)).copy - 1 for p in mult}

    for v in sorted(g.nodes):
        cells.append(Multicell((v,), 1))
    for e in g.edges:
        cell = Multicell((e.u, e.v), e.copy, faces=(((e.u,), 1), ((e.v,), 1)))
        cells.append(cell)
        coloring[cell.key] = e.color

    # from_cells sorts every grade, so the clique order does not matter
    for tau in _cliques(g.nodes, mult):
        d = len(tau) - 1
        if d < 2:
            continue
        pairs = list(itertools.combinations(tau, 2))  # tau is sorted
        radix = [mult[p] for p in pairs]
        # a face's copy is the rank of the restricted assignment; faces
        # are lexicographic, so already in sorted face order
        faces = [(sigma, _strides(pairs, radix, sigma)) for sigma in itertools.combinations(tau, d)]
        if d >= 3 and policy == CANONICAL:
            combos = [tuple(first_copy[p] for p in pairs)]
            if d >= 4:
                # faces above dimension 2 are the single cell of their clique
                faces = [(sigma, ()) for sigma, _ in faces]
        else:
            # product order is lexicographic rank order
            combos = itertools.product(*map(range, radix))
        for copy, combo in enumerate(combos, start=1):
            glued = tuple((sigma, 1 + sum(map(mul, combo, w))) for sigma, w in faces)
            cells.append(Multicell(tau, copy, glued))

    return Multicomplex.from_cells(g.palette, cells, coloring, policy, validate=False)


def _strides(
    pairs: Sequence[tuple[int, int]], radix: Sequence[int], sigma: tuple[int, ...]
) -> list[int]:
    """Mixed-radix weights of ``sigma``'s own pairs (the last one least
    significant), 0 for the pairs of ``pairs`` that ``sigma`` omits."""
    weights, stride = [0] * len(pairs), 1
    for j in reversed(range(len(pairs))):
        if pairs[j][0] in sigma and pairs[j][1] in sigma:
            weights[j], stride = stride, stride * radix[j]
    return weights


def cell_coloring(x: Multicomplex, c: Multicell) -> tuple[str, ...]:
    """Colours of the 1-cells reached by walking the cell's glued faces
    down to dimension 1, in sorted (pair, copy) order (one copy per pair
    when the gluing is consistent).  Order matters: two cells over the
    same colour multiset can still differ as ordered lists."""
    if c.dim < 1:
        return ()
    keys = {c.key}
    for _ in range(c.dim - 1):
        keys = {f for k in keys for f in x.find(k).faces}
    return tuple(x.coloring[k] for k in sorted(keys))


def duplications(x: Multicomplex, d: int) -> int:
    """Number of parallel-copy surpluses at dimension d: sum of (m-1)
    over cell shapes."""
    return sum(count - 1 for count in x.shapes(d).values())


def complex_merge(a: Multicomplex, b: Multicomplex) -> Multicomplex:
    """Merge two clique complexes by merging their underlying multigraphs
    and rebuilding.  Defined for clique-derived complexes; extra cells of
    a hand-assembled complex would not survive the round trip."""
    if a.palette != b.palette:
        raise PaletteMismatch("complexes disagree on the palette")
    if a.policy != b.policy:
        raise ValueError(f"policy mismatch: {a.policy} vs {b.policy}")
    merged = merge(a.underlying_multigraph(), b.underlying_multigraph())
    return clique_multicomplex(merged, a.policy)
