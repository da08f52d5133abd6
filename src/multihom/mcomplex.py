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

A complex stores its cells as integer rows.  Each dimension is a
``Grade``: the cells' keys in sorted order, and each cell's faces as
row indices into the grade below (at dimension 1 also each cell's
colour).  The builder writes those rows by arithmetic: a face's row is
its clique's first row plus the rank of the restricted assignment.
``Multicell`` is the value type of one cell; ``cells``, ``find`` and
``all_cells`` build it on demand as a view of a row, and
``Multicomplex.from_cells`` is the door for hand-built cells, which it
converts into the same rows.

``clique_multicomplex`` counts the cells in closed form from the cliques
before it makes any, and refuses a complex larger than the cell budget
(``MAX_CELLS`` unless ``cell_budget`` sets another).  It refuses as soon
as the count passes the budget, or a clique of k vertices appears with
2^k - 1 > budget (each subclique gives at least one cell), keeping only
each clique and its cell count until then.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import itemgetter

from .errors import CellBudgetExceeded, ComplexStructureError, PaletteMismatch
from .mgraph import Multigraph, merge

__all__ = [
    "CANONICAL",
    "PER_COMBINATION",
    "POLICIES",
    "MAX_CELLS",
    "Multicell",
    "Grade",
    "Multicomplex",
    "cell_budget",
    "current_cell_budget",
    "clique_multicomplex",
    "complex_merge",
    "cell_coloring",
    "duplications",
]

CANONICAL = "canonical"
PER_COMBINATION = "per-combination"
POLICIES = (CANONICAL, PER_COMBINATION)
MAX_CELLS = 1_000_000

CellKey = tuple[tuple[int, ...], int]

_max_cells: ContextVar[int] = ContextVar("max_cells", default=MAX_CELLS)


@contextmanager
def cell_budget(max_cells: int) -> Iterator[None]:
    """Within the block, ``clique_multicomplex`` refuses a complex of
    more than ``max_cells`` cells."""
    token = _max_cells.set(max_cells)
    try:
        yield
    finally:
        _max_cells.reset(token)


def current_cell_budget() -> int:
    """The cell budget in force: ``MAX_CELLS`` unless ``cell_budget`` set another."""
    return _max_cells.get()


@dataclass(frozen=True, order=True)
class Multicell:
    """One cell: sorted vertex tuple, 1-based copy, explicit glued faces.

    ``faces`` maps each codimension-1 vertex subset to the copy of that
    face the cell is glued to.  The gluing is the whole record: which
    edge copy the cell lies over, and so its colours, is read by walking
    the faces down to dimension 1 (``cell_coloring``).  A complex keeps
    no ``Multicell`` objects; it builds one as a view of a row.
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


class Grade(Sequence):
    """The cells of one dimension d, one row each, in (vertices, copy) order.

    Row i has the key ``(vertices[i], copies[i])``.  ``faces`` holds one
    list per face position: ``faces[k][i]`` is the row in ``below``, the
    grade of dimension d - 1, of row i's k-th face (no lists at d = 0).
    At d = 1, ``colors[i]`` is row i's colour.  Indexing builds a
    ``Multicell`` view of a row.
    """

    __slots__ = ("below", "vertices", "copies", "faces", "colors")

    def __init__(
        self,
        below: "Grade | None",
        vertices: list[tuple[int, ...]],
        copies: list[int],
        faces: tuple[list[int], ...] = (),
        colors: list[str | None] | None = None,
    ):
        self.below = below
        self.vertices = vertices
        self.copies = copies
        self.faces = faces
        self.colors = colors

    def __len__(self) -> int:
        return len(self.copies)

    def __getitem__(self, i: int) -> Multicell:
        below = self.below
        faces = tuple((below.vertices[r], below.copies[r]) for r in (s[i] for s in self.faces))
        return Multicell(self.vertices[i], self.copies[i], faces)

    def __iter__(self) -> Iterator[Multicell]:
        return map(self.__getitem__, range(len(self)))

    def key(self, i: int) -> CellKey:
        return (self.vertices[i], self.copies[i])

    def keys(self) -> Iterator[CellKey]:
        return zip(self.vertices, self.copies)

    def face_rows(self) -> Iterator[tuple[int, ...]]:
        """Each row's face rows, in face order (empty at dimension 0)."""
        return zip(*self.faces) if self.faces else itertools.repeat((), len(self))

    def row(self, key: CellKey) -> int:
        """The row of ``key``; KeyError if no cell has it."""
        vertices, copy = key
        lo = bisect_left(self.vertices, vertices)
        hi = bisect_right(self.vertices, vertices, lo)
        i = bisect_left(self.copies, copy, lo, hi)
        if i == hi or self.copies[i] != copy:
            raise KeyError(key)
        return i


_NO_CELLS = Grade(None, [], [])


@dataclass(eq=False)
class Multicomplex:
    """Graded cell collection with a colouring of the 1-cells."""

    palette: frozenset[str]
    grades: tuple[Grade, ...]
    policy: str = CANONICAL

    def __post_init__(self):
        self._canon: tuple | None = None

    # -- views -------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.grades) - 1

    def grade(self, d: int) -> Grade:
        """The d-cells' rows; an empty grade outside 0..dimension."""
        return self.grades[d] if 0 <= d < len(self.grades) else _NO_CELLS

    @cached_property
    def coloring(self) -> dict[CellKey, str]:
        """Colour of each 1-cell, by key."""
        edges = self.grade(1)
        return dict(zip(edges.keys(), edges.colors or ()))

    def cells(self, d: int) -> tuple[Multicell, ...]:
        return tuple(self.grade(d))

    def all_cells(self) -> tuple[Multicell, ...]:
        return tuple(c for grade in self.grades for c in grade)

    def cell_count(self, d: int) -> int:
        return len(self.grade(d))

    def find(self, key: CellKey) -> Multicell:
        grade = self.grade(len(key[0]) - 1)
        return grade[grade.row(key)]

    def multiplicity(self, vertices: tuple[int, ...]) -> int:
        keys = self.grade(len(vertices) - 1).vertices
        return bisect_right(keys, vertices) - bisect_left(keys, vertices)

    def shapes(self, d: int) -> dict[tuple[int, ...], int]:
        return dict(Counter(self.grade(d).vertices))

    def __repr__(self):
        counts = ",".join(str(len(g)) for g in self.grades)
        return f"Multicomplex(cells per dim=[{counts}], policy={self.policy})"

    # -- structure checks ----------------------------------------------------

    def validate(self) -> None:
        """Copy contiguity, gluing consistency, colour totality.  Faces
        exist by construction: a face is a row of the grade below."""
        for grade in self.grades:
            for vertices, run in itertools.groupby(grade.keys(), key=itemgetter(0)):
                copies = [copy for _, copy in run]
                if copies != list(range(1, len(copies) + 1)):
                    raise ComplexStructureError(
                        f"copies for shape {vertices} not contiguous: {copies}"
                    )
        for grade in self.grades[2:]:
            below, base = grade.below, grade.below.below
            # each (d-1)-cell's face rows, keyed by their vertices
            subfaces = [
                {base.vertices[q]: q for q in rows} for rows in below.face_rows()
            ]
            for i, rows in enumerate(grade.face_rows()):
                # two faces must agree on their shared subface
                for r1, r2 in itertools.combinations(rows, 2):
                    shared = tuple(sorted(set(below.vertices[r1]) & set(below.vertices[r2])))
                    if not shared:
                        continue
                    q1, q2 = subfaces[r1].get(shared), subfaces[r2].get(shared)
                    if q1 != q2:
                        raise ComplexStructureError(
                            f"gluing of {grade.key(i)} inconsistent over {shared}: "
                            f"{below.key(r1)} -> {q1 if q1 is None else base.key(q1)} vs "
                            f"{below.key(r2)} -> {q2 if q2 is None else base.key(q2)}"
                        )
        edges = self.grade(1)
        for key, color in zip(edges.keys(), edges.colors or ()):
            if color is None:
                raise ComplexStructureError(f"1-cell {key} has no colour")
            if color not in self.palette:
                raise PaletteMismatch(f"1-cell {key} coloured outside the palette")

    # -- derived data ----------------------------------------------------------

    def underlying_multigraph(self) -> Multigraph:
        """Nodes and coloured edge copies of the 1-skeleton."""
        edges = self.grade(1)
        # rows are in (pair, copy) order, so build numbers each pair's copies as they are
        return Multigraph.build(
            [v for (v,) in self.grade(0).vertices],
            [(u, v, color) for (u, v), color in zip(edges.vertices, edges.colors or ())],
            self.palette,
        )

    def canonical_form(self) -> tuple:
        """Serialization invariant under per-shape copy permutations.

        Copies are re-indexed bottom-up: 1-cells by colour, higher cells
        by their (remapped) face tuples.  Complexes built from merges in
        either operand order canonicalize identically.
        """
        if self._canon is None:
            remap: list[int] = []  # new copy of each row one dimension down
            new_grades: list[tuple] = []
            for d, grade in enumerate(self.grades):
                if d == 0:
                    contents = [()] * len(grade)
                elif d == 1:
                    contents = [(color,) for color in grade.colors]
                else:
                    below = grade.below.vertices
                    contents = [
                        tuple(sorted((below[r], remap[r]) for r in rows))
                        for rows in grade.face_rows()
                    ]
                order = sorted(
                    range(len(grade)),
                    key=lambda i: (grade.vertices[i], contents[i], grade.copies[i]),
                )
                counters: dict[tuple[int, ...], int] = {}
                remap = [0] * len(grade)
                out_cells = []
                for i in order:
                    vertices = grade.vertices[i]
                    counters[vertices] = remap[i] = counters.get(vertices, 0) + 1
                    out_cells.append((vertices, remap[i], contents[i]))
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
        cells = []
        for d, grade in enumerate(self.grades):
            below = grade.below
            colors = grade.colors if d == 1 else itertools.repeat(None)
            cells.append(
                [
                    {
                        "vertices": list(vertices),
                        "copy": copy,
                        "faces": [
                            {"vertices": list(below.vertices[r]), "copy": below.copies[r]}
                            for r in rows
                        ],
                        **({"color": color} if d == 1 else {}),
                    }
                    for vertices, copy, rows, color in zip(
                        grade.vertices, grade.copies, grade.face_rows(), colors
                    )
                ]
            )
        return {"palette": sorted(self.palette), "policy": self.policy, "cells": cells}

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
        three edges.  A face must be a cell one dimension down, whether
        or not ``validate`` is set, because the store keeps it as a row.
        """
        by_dim: dict[int, list[Multicell]] = {}
        for c in cells:
            by_dim.setdefault(c.dim, []).append(c)
        grades: list[Grade] = []
        below: Grade | None = None
        for d in range(max(by_dim, default=-1) + 1):
            ordered = sorted(by_dim.get(d, ()))
            faces: tuple[list[int], ...] = tuple([] for _ in range(d + 1)) if d else ()
            row_of = {key: i for i, key in enumerate(below.keys())} if d else {}
            for c in ordered:
                if d == 0 and c.faces:
                    raise ComplexStructureError(f"0-cell {c.key} has faces")
                for rows, face_key in zip(faces, c.faces):
                    if face_key not in row_of:
                        raise ComplexStructureError(
                            f"cell {c.key} glued to missing face {face_key}"
                        )
                    rows.append(row_of[face_key])
            below = Grade(
                below,
                [c.vertices for c in ordered],
                [c.copy for c in ordered],
                faces,
                [coloring.get(c.key) for c in ordered] if d == 1 else None,
            )
            grades.append(below)
        x = cls(frozenset(palette), tuple(grades), policy)
        if validate:
            x.validate()
        return x

    @classmethod
    def empty(cls, palette: Iterable[str] = (), policy: str = CANONICAL) -> "Multicomplex":
        return cls(frozenset(palette), (), policy)


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
    # depth-first with an explicit stack of the (clique, candidates not yet
    # tried) to return to, so a clique of any size needs no recursion
    stack: list[tuple[tuple[int, ...], int]] = []
    clique, cand = (), (1 << len(order)) - 1
    while cand or stack:
        if not cand:
            clique, cand = stack.pop()
            continue
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        tau = clique + (order[i],)
        yield tau
        if cand & up[i]:
            stack.append((clique, cand))
            clique, cand = tau, cand & up[i]


def clique_multicomplex(g: Multigraph, policy: str = CANONICAL) -> Multicomplex:
    """Build the clique multicomplex of a multigraph.

    Every clique of the underlying simple graph contributes cells; see
    the module docstring for how multiplicities propagate upward under
    each policy.  The cell count is summed clique by clique before any
    cell is made, and a complex above the cell budget is refused with
    ``CellBudgetExceeded``.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    mult = g.multiplicities()
    budget = current_cell_budget()

    # cliques of dimension >= 2 by dimension: (clique, cells)
    cliques: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    total = len(g.nodes) + sum(mult.values())
    over = False
    for tau in _cliques(g.nodes, mult):
        d = len(tau) - 1
        # each of a clique's 2^(d+1) - 1 subcliques is a clique with a cell
        over = total > budget or (2 << d) - 1 > budget
        if over:
            break
        if d >= 2:
            single = d >= 3 and policy == CANONICAL
            n = 1 if single else prod(mult[p] for p in itertools.combinations(tau, 2))
            total += n
            cliques.setdefault(d, []).append((tau, n))
    if over or total > budget:
        raise CellBudgetExceeded(
            f"the {policy} clique complex of a graph on {len(g.nodes)} nodes "
            f"has more than {budget} cells"
        )
    if not g.nodes:
        return Multicomplex(g.palette, (), policy)

    nodes = sorted(g.nodes)
    grades = [Grade(None, [(v,) for v in nodes], [1] * len(nodes))]
    if mult:
        row = {v: i for i, v in enumerate(nodes)}
        vertices = [p for p, m in mult.items() for _ in range(m)]  # (pair, copy) order
        grades.append(
            Grade(
                grades[0],
                vertices,
                [copy for m in mult.values() for copy in range(1, m + 1)],
                ([row[u] for u, _ in vertices], [row[v] for _, v in vertices]),
                [color for p in mult for color in g.colors(p)],
            )
        )
    # each shape's first row, one dimension down
    first = dict(zip(mult, itertools.accumulate(mult.values(), initial=0)))

    def first_copy(p: tuple[int, int]) -> int:
        """The pair's 0-based copy that comes first in (colour, copy) order.
        The canonical policy glues its single high-dimensional cell along
        these, so the result is invariant under re-indexing parallel copies
        (e.g. merging the same two graphs in either order).  Only 3-cells
        read them: the faces of higher single cells are single cells."""
        colors = g.colors(p)
        return colors.index(min(colors))

    for d in range(2, max(cliques, default=1) + 1):
        single = d >= 3 and policy == CANONICAL
        vertices, copies = [], []
        faces = tuple([] for _ in range(d + 1))
        below_first, first = first, {}
        for tau, n in sorted(cliques[d], key=itemgetter(0)):
            pairs = list(itertools.combinations(tau, 2))  # tau is sorted
            radix = [mult[p] for p in pairs]
            first[tau] = len(copies)
            vertices += [tau] * n
            copies += range(1, n + 1)
            # faces are lexicographic, so already in sorted face order
            for rows, sigma in zip(faces, itertools.combinations(tau, d)):
                base = below_first[sigma]
                if single and d >= 4:
                    # faces above dimension 2 are the single cell of their clique
                    rows.append(base)
                    continue
                # a face's copy is the rank of the restricted assignment
                weights = _strides(pairs, radix, sigma)
                if single:
                    rows.append(base + sum(first_copy(p) * w for p, w in zip(pairs, weights) if w))
                else:
                    rows += _face_rows(base, radix, weights)
        grades.append(Grade(grades[-1], vertices, copies, faces))
    return Multicomplex(g.palette, tuple(grades), policy)


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


def _face_rows(base: int, radix: Sequence[int], weights: Sequence[int]) -> list[int]:
    """``base`` plus a face's rank under every copy combination of its
    clique, in product order (the first pair most significant), which is
    the order of the clique's cells."""
    rows = [base]
    for r, w in zip(radix, weights):
        if r > 1:
            steps = range(0, r * w, w) if w else [0] * r
            rows = [s + t for s in rows for t in steps]
    return rows


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
