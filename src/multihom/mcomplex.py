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
colour).  The builder writes those rows by one rank rule at every
dimension d >= 1: a face's row is its clique's first row plus the
cell's copy digits (copy - 1 of each pair), each weighted by its place
in the face's mixed radix, the last pair least significant.  A pair the
face omits weighs 0, and so does every pair of a single ``canonical``
face (d >= 4); the single cell above dimension 2 takes as each pair's
digit its copy first in (colour, copy) order.  ``Multicell`` is the value
type of one cell; ``cells``, ``find`` and ``all_cells`` build it on
demand as a view of a row, and ``Multicomplex.from_cells`` is the door
for hand-built cells, which it converts into the same rows.

``clique_cells`` counts the cells in closed form from the cliques before
any is made, and returns them as the complex's ``Shape``: a list by
dimension d = 0..D, no grade empty, whose grade d maps each (d+1)-clique
(a sorted vertex tuple) to its cell count, in lexicographic order.
Grade 0 maps each ``(v,)`` to 1, and grade 1 is the pair
multiplicities.  The shape is all that ``clique_multicomplex`` builds
from (a clique's cells are rows in order, so its first row is the sum
of the counts before it), and all that the Betti reads of
``homology.clique_betti`` and the merge ledger of ``incremental`` read:
S(g)'s simplices are a grade's keys, and the cells its values.  It
refuses a complex larger than the cell budget (``MAX_CELLS`` unless
``cell_budget`` sets another).  It refuses as soon as the count passes
the budget, or a clique of k vertices appears with 2^k - 1 > budget
(each subclique gives at least one cell), keeping only each clique and
its cell count until then.

With ``dim`` it builds the ``dim``-skeleton: cliques stop growing at
dim + 1 vertices, and the budget counts only the cells built.  Each cell
of dimension d is made from the cells below it alone, so the skeleton's
grades 0..dim are those of the whole complex, and beta_0..beta_d need
only the (d+1)-skeleton.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property
from math import prod
from operator import itemgetter

from .errors import CellBudgetExceeded, ComplexStructureError, PaletteMismatch
from .mgraph import Multigraph, merge
from .value import OrderedValue

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
    "clique_cells",
    "clique_multicomplex",
    "complex_merge",
    "cell_coloring",
    "check_policy",
]

CANONICAL = "canonical"
PER_COMBINATION = "per-combination"
POLICIES = (CANONICAL, PER_COMBINATION)
MAX_CELLS = 1_000_000

CellKey = tuple[tuple[int, ...], int]
# by dimension d, each (d+1)-clique as a sorted vertex tuple with its cell count
Shape = list[dict[tuple[int, ...], int]]

_max_cells: ContextVar[int] = ContextVar("max_cells", default=MAX_CELLS)


@contextmanager
def cell_budget(max_cells: int) -> Iterator[None]:
    """Within the block, ``clique_cells`` refuses a complex or skeleton of
    more than ``max_cells`` cells, and so does everything that counts
    through it: ``clique_multicomplex``, every Betti read of a graph
    beyond beta_0 (``clique_betti`` and the verbs that read it),
    ``check-laws``, and ``incremental`` and ``fuzz``.  The workspace
    loader refuses a graph with more than ``max_cells`` edge copies."""
    token = _max_cells.set(max_cells)
    try:
        yield
    finally:
        _max_cells.reset(token)


def check_policy(policy: str) -> None:
    """Refuse a policy outside ``POLICIES`` with ``ValueError``."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def current_cell_budget() -> int:
    """The cell budget in force: ``MAX_CELLS`` unless ``cell_budget`` set another."""
    return _max_cells.get()


class Multicell(OrderedValue):
    """One cell: sorted vertex tuple, 1-based copy, explicit glued faces.

    ``faces`` maps each codimension-1 vertex subset to the copy of that
    face the cell is glued to.  The gluing is the whole record: which
    edge copy the cell lies over, and so its colours, is read by walking
    the faces down to dimension 1 (``cell_coloring``).  A complex keeps
    no ``Multicell`` objects; it builds one as a view of a row.
    """

    _fields = ("vertices", "copy", "faces")
    vertices: tuple[int, ...]
    copy: int
    faces: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(
        self,
        vertices: tuple[int, ...],
        copy: int,
        faces: tuple[tuple[tuple[int, ...], int], ...] = (),
    ):
        if tuple(sorted(set(vertices))) != vertices:
            raise ComplexStructureError(f"cell vertices must be sorted and distinct: {vertices}")
        if copy < 1:
            raise ComplexStructureError(f"cell copy must be >= 1, got {copy}")
        if len(vertices) >= 2 and len(faces) != len(vertices):
            raise ComplexStructureError(
                f"{len(vertices) - 1}-cell on {vertices} needs {len(vertices)} faces"
            )
        self._set(vertices=vertices, copy=copy, faces=faces)

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


class Multicomplex:
    """Graded cell collection with a colouring of the 1-cells."""

    def __init__(
        self, palette: frozenset[str], grades: tuple[Grade, ...], policy: str = CANONICAL
    ):
        self.palette = palette
        self.grades = grades
        self.policy = policy
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

    def __repr__(self):
        counts = ",".join(str(len(g)) for g in self.grades)
        return f"Multicomplex(cells per dim=[{counts}], policy={self.policy})"

    # -- structure checks ----------------------------------------------------

    def validate(self) -> None:
        """Copy contiguity, one face on each codimension-1 vertex subset,
        gluing consistency, colour totality.  Faces exist by construction:
        a face is a row of the grade below."""
        for grade in self.grades:
            for vertices, run in itertools.groupby(grade.keys(), key=itemgetter(0)):
                copies = [copy for _, copy in run]
                if copies != list(range(1, len(copies) + 1)):
                    raise ComplexStructureError(
                        f"copies for shape {vertices} not contiguous: {copies}"
                    )
        for d, grade in enumerate(self.grades[1:], 1):
            below = grade.below
            for i, rows in enumerate(grade.face_rows()):
                # a cell twice on one face, or on a non-face, misses a subset
                if sorted(below.vertices[r] for r in rows) != list(
                    itertools.combinations(grade.vertices[i], d)
                ):
                    raise ComplexStructureError(
                        f"{d}-cell {grade.key(i)} is not glued to one face per "
                        f"codimension-1 subset: {[below.key(r) for r in rows]}"
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


def _higher_cliques(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]], size: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every clique of 3 to ``size`` vertices (no upper bound if None) of
    the simple graph on ``nodes`` and sorted ``pairs``, as sorted vertex
    tuples in lexicographic order.

    Nodes are indexed by bit in sorted order and ``up[i]`` is the bitset of
    i's higher neighbours.  Each pair (i, j) seeds a depth-first growth by
    common higher neighbours, ``up[i] & up[j]`` first (ordered-neighbour
    expansion, as in Bron & Kerbosch 1973), so each clique is reached once.
    """
    order = sorted(nodes)
    bit = {v: i for i, v in enumerate(order)}
    up = [0] * len(order)
    for u, v in pairs:
        up[bit[u]] |= 1 << bit[v]
    # depth-first with an explicit stack of the (clique, candidates not yet
    # tried) to return to, so a clique of any size needs no recursion
    stack: list[tuple[tuple[int, ...], int]] = []
    for i, later in enumerate(up):
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            # ``later`` holds i's neighbours above j, so this is up[i] & up[j]
            clique, cand = (order[i], order[j]), later & up[j]
            while cand or stack:
                if not cand:
                    clique, cand = stack.pop()
                    continue
                low = cand & -cand
                cand ^= low
                k = low.bit_length() - 1
                tau = clique + (order[k],)
                yield tau
                if cand & up[k] and len(tau) != size:
                    stack.append((clique, cand))
                    clique, cand = tau, cand & up[k]


def clique_cells(g: Multigraph, policy: str = CANONICAL, dim: int | None = None) -> Shape:
    """The shape of ``clique_multicomplex(g, policy, dim)``, counted clique
    by clique before any cell is made: grade d maps each (d+1)-clique of
    g, a sorted vertex tuple, to its cell count, in lexicographic order,
    for d = 0..D with no grade empty.  Grade 0 maps each ``(v,)`` to 1,
    and grade 1 is g's pair multiplicities.  A count above the cell
    budget is refused with ``CellBudgetExceeded`` (see the module
    docstring).
    """
    check_policy(policy)
    if dim is not None and dim < 0:
        raise ValueError(f"a skeleton needs dim >= 0, got {dim}")
    mult = g.multiplicities() if dim != 0 else {}  # a 0-skeleton has no edges
    budget = current_cell_budget()
    shape: Shape = [dict.fromkeys(zip(sorted(g.nodes)), 1)] * bool(g.nodes) + [mult] * bool(mult)

    # a skeleton below dimension 2 is its nodes and edge copies, and needs no clique
    total = len(g.nodes) + sum(mult.values())
    over = False
    size = None if dim is None else dim + 1
    for tau in _higher_cliques(g.nodes, mult, size) if dim is None or dim >= 2 else ():
        d = len(tau) - 1
        # each of a clique's 2^(d+1) - 1 subcliques is a clique with a cell
        over = total > budget or (2 << d) - 1 > budget
        if over:
            break
        single = d >= 3 and policy == CANONICAL
        n = 1 if single else prod(map(mult.__getitem__, itertools.combinations(tau, 2)))
        total += n
        if d == len(shape):  # the clique it grows from came just before it
            shape.append({})
        shape[d][tau] = n
    if over or total > budget:
        raise CellBudgetExceeded(
            f"the {policy} clique complex of a graph on {len(g.nodes)} nodes "
            f"has more than {budget} cells"
        )
    return shape


def _cell_counts(shape: Shape) -> list[int]:
    """The cells per grade of a complex of shape ``shape``."""
    return [sum(cliques.values()) for cliques in shape]


def clique_multicomplex(
    g: Multigraph, policy: str = CANONICAL, dim: int | None = None
) -> Multicomplex:
    """Build the clique multicomplex of a multigraph, or with ``dim`` its
    ``dim``-skeleton (the cells of dimension at most ``dim``).

    Every clique of the underlying simple graph contributes cells; see
    the module docstring for how multiplicities propagate upward under
    each policy.  The cells are counted by ``clique_cells`` before any
    is made, and a complex above the cell budget is refused with
    ``CellBudgetExceeded``.
    """
    shape = clique_cells(g, policy, dim)
    grades: list[Grade] = []
    for d, cliques in enumerate(shape):
        vertices, copies = [], []
        for tau, n in cliques.items():  # tau is sorted, and cliques come sorted
            vertices += [tau] * n
            copies += range(1, n + 1)
        faces = _face_rows(g, policy, shape, d) if d else ()
        colors = [color for p in cliques for color in g.colors(p)] if d == 1 else None
        grades.append(Grade(grades[-1] if d else None, vertices, copies, faces, colors))
    return Multicomplex(g.palette, tuple(grades), policy)


def _face_rows(g: Multigraph, policy: str, shape: Shape, d: int) -> tuple[list[int], ...]:
    """The d-cells' face rows, one list per face position, for g's clique
    complex of shape ``shape`` (as ``clique_cells`` counts it), d >= 1: a
    face's row is its clique's first row plus the cell's copy digits
    weighted by the face's radix.  Cliques whose pairs have the same
    copies and digits share the sums."""
    single = d >= 3 and policy == CANONICAL
    mult = shape[1]
    # each (d-1)-clique's first row: its cells are the rows from there, one per copy
    first = dict(zip(shape[d - 1], itertools.accumulate(shape[d - 1].values(), initial=0)))
    faces = tuple([] for _ in range(d + 1))
    positions = list(itertools.combinations(range(d + 1), 2))[::-1]  # least significant first
    sums: dict[tuple, list[list[int]]] = {}  # by copies and digits: face rows less first rows
    for tau in shape[d]:
        pairs = list(itertools.combinations(tau, 2))[::-1]
        ms = tuple(map(mult.__getitem__, pairs))
        # the one cell's digit of each pair is its copy first in (colour, copy)
        # order; otherwise a pair's digits are all its copies, which ``ms`` gives
        digits = tuple((c.index(min(c)),) for c in map(g.colors, pairs)) if single else ms
        offsets = sums.setdefault((ms, digits), [])
        if not offsets:
            for gone in reversed(range(d + 1)):  # face k omits vertex d - k
                # the faces of a single cell above dimension 3 are single cells
                weighted, place = [], 0 if single and d >= 4 else 1
                for (i, j), m, ds in zip(positions, ms, digits):
                    weight = 0 if gone in (i, j) else place
                    weighted.append([t * weight for t in (ds if single else range(m))])
                    place *= m if weight else 1
                offsets.append(list(map(sum, itertools.product(*reversed(weighted)))))
        for rows, face, offset in zip(faces, itertools.combinations(tau, d), offsets):
            rows += map(first[face].__add__, offset)
    return faces


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
