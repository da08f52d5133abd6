"""GF(2) cellular homology of multicomplexes.

Incidence between (d-1)-cells and d-cells is stored as Python int
bitsets, indexed by the rows of the complex's store: bit i stands for
row i of a grade, and a cell's faces are already row indices into the
grade below, so no key is looked up.  ``boundary_matrix`` builds
the columns of the d-th boundary matrix (one bitset per d-cell);
``coboundary_rows`` builds its rows (one bitset per (d-1)-cell), which
is the short side whenever a dimension has more cells than the one
below.  Neither makes a ``Multicell``.  Over GF(2) no orientation
bookkeeping is needed, and parallel copies contribute independent
vectors exactly when their glued boundaries differ.

``betti`` takes the rank of each boundary matrix as the number of
pivots (lowest set bits) of a reduced basis of its rows.  Two facts let
it find the pivots while building almost no rows.

The pivot set is fixed by the row space alone: it is {lowest set bit
of v : v != 0 in the span}, whichever rows span it and however they are
reduced.  The rows of the first boundary matrix span the cut space of
the 1-skeleton, and an edge is the lowest edge of some cut exactly when
no lower edges join its ends.  So that pivot set is the spanning forest
Kruskal's algorithm picks in row order, found by a union-find over the
1-cells' faces (``_forest``).  Parallel copies never join two trees, so
the same forest over a graph's pairs gives beta_0 of its clique complex:
``betti0`` reads it there and builds no complex.

A row whose lowest set bit is no pivot stored yet lies outside the span
of the stored vectors, so it is independent and can stand in the basis
unreduced.  For d >= 2 a row's lowest set bit is its lowest coface, the
smallest d-cell index at which a face list names it, read off the face
lists (an "apparent" pivot, as in Bauer's Ripser, 2021).  Such a row is
kept by its index alone.  Only when two rows share a lowest coface are
the dimension's rows built, once, and the later rows reduced in a
``Gf2Basis``.  (A cell glued twice to one face cancels that incidence, so
when a cell repeats a face the dimension is reduced on its rows too.)

Ranks go in ascending dimension with clearing (the "twist" of Chen &
Kerber, 2011, applied to the coboundary as in Ripser): the rows of the
d-th boundary matrix whose index is a pivot one dimension down are
skipped.  Skipping is exact for any cell order.  A vector r in the row
space of the (d-1)-th matrix with pivot i is a coboundary, so the next
coboundary maps it to zero: the rows of the d-th matrix indexed by the
set bits of r sum to zero.  Every other set bit of r lies above i, so
row i is the sum of rows with higher indices.  By descending induction
on the index, the rows kept span the same space as all rows.  Betti
numbers then come from the usual rank formula.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Set

from .mcomplex import Multicomplex
from .mgraph import Multigraph
from .value import Value

__all__ = [
    "Gf2Basis",
    "BoundaryMatrix",
    "boundary_matrix",
    "coboundary_rows",
    "betti",
    "betti0",
    "betti_sum",
    "euler_characteristic",
    "boundary_squares_to_zero",
]

BettiVector = tuple[int, ...]


class Gf2Basis:
    """Row-reduced basis of GF(2) bit vectors, grown one vector at a time."""

    def __init__(self):
        self.pivots: dict[int, int] = {}  # lowest set bit -> reduced vector

    def reduce(self, vec: int) -> int:
        while vec:
            low = vec & -vec
            if low not in self.pivots:
                break
            vec ^= self.pivots[low]
        return vec

    def add(self, vec: int) -> bool:
        """Insert; True iff the vector was independent (rank grew)."""
        residue = self.reduce(vec)
        if residue:
            self.pivots[residue & -residue] = residue
            return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


class BoundaryMatrix(Value):
    """The d-th boundary matrix as its columns, one bitset per d-cell."""

    _fields = ("columns",)
    columns: tuple[int, ...]

    def __init__(self, columns: tuple[int, ...]):
        self._set(columns=columns)

    def rank(self) -> int:
        basis = Gf2Basis()
        for col in self.columns:
            basis.add(col)
        return basis.rank


def boundary_matrix(x: Multicomplex, d: int) -> BoundaryMatrix:
    """Boundary matrix for dimension d >= 1 (columns from glued faces)."""
    if d < 1:
        raise ValueError(f"boundary matrices are defined for d >= 1, got {d}")
    columns = []
    for faces in x.grade(d).face_rows():
        col = 0
        for i in faces:
            col ^= 1 << i
        columns.append(col)
    return BoundaryMatrix(tuple(columns))


def coboundary_rows(x: Multicomplex, d: int) -> list[int]:
    """Rows of the d-th boundary matrix, d >= 1: bit j of row i is set
    when the j-th d-cell is glued to the i-th (d-1)-cell."""
    if d < 1:
        raise ValueError(f"boundary matrices are defined for d >= 1, got {d}")
    rows = [0] * x.cell_count(d - 1)
    for faces in x.grade(d).faces:  # one list per face position
        for j, i in enumerate(faces):
            rows[i] ^= 1 << j
    return rows


def betti(x: Multicomplex) -> BettiVector:
    """Betti numbers beta_0..beta_D via the GF(2) rank formula, each rank
    the number of pivots of the boundary rows, taken in ascending
    dimension with clearing (see the module docstring)."""
    if x.dimension < 0:
        return ()
    # the pivots of the first boundary matrix: the spanning forest in row order
    pivots: Set[int] = set(_forest(list(range(x.cell_count(0))), zip(*x.grade(1).faces)))
    ranks = [0, len(pivots)] + [0] * x.dimension
    for d in range(2, x.dimension + 1):
        pivots = _pivots(x, d, pivots)
        ranks[d] = len(pivots)
    return tuple(
        x.cell_count(d) - ranks[d] - ranks[d + 1] for d in range(x.dimension + 1)
    )


def betti0(g: Multigraph) -> BettiVector:
    """(beta_0,) of g's clique complex under either policy, or () if g has
    no nodes: the count of g's components, as parallel copies never join
    two trees.  No complex is built."""
    if not g.nodes:
        return ()
    return (len(g.nodes) - len(_forest({v: v for v in g.nodes}, g.pairs())),)


def _forest(parent: list[int] | dict[int, int], links: Iterable[tuple[int, int]]) -> list[int]:
    """Positions of the links that join two trees when a forest grows link
    by link in the given order (Kruskal's choice), by union-find with path
    halving over ``parent``, which maps each item to itself at the start."""
    kept = []
    for pos, (a, b) in enumerate(links):
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a != b:
            parent[a] = b
            kept.append(pos)
    return kept


def _pivots(x: Multicomplex, d: int, cleared: Set[int]) -> Set[int]:
    """Pivots of the row space of the d-th boundary matrix, d >= 2, from
    its rows not in ``cleared``.  Rows are built only if two rows share
    a lowest coface."""
    low = _lowest_cofaces(x.grade(d).faces, x.cell_count(d))
    if low is None:  # a cell repeats a face: reduce every row
        basis = Gf2Basis()
        for i, row in enumerate(coboundary_rows(x, d)):
            if i not in cleared:
                basis.add(row)
        return {p.bit_length() - 1 for p in basis.pivots}
    taken: dict[int, int] = {}  # pivot -> row, for the rows kept by index alone
    rows: list[int] | None = None
    for i, j in low.items():
        if i in cleared:
            continue
        if rows is None:
            if j not in taken:
                taken[j] = i
                continue
            rows = coboundary_rows(x, d)
            basis = Gf2Basis()
            basis.pivots = {1 << p: rows[r] for p, r in taken.items()}
        basis.add(rows[i])
    return taken.keys() if rows is None else {p.bit_length() - 1 for p in basis.pivots}


def _lowest_cofaces(faces: Sequence[list[int]], n: int) -> dict[int, int] | None:
    """Each (d-1)-row's lowest coface: the smallest of the n d-cells whose
    face lists name it, for every row some cell names.  None if a cell is
    found naming a row at two face positions, as it always is when that
    cell is the row's lowest coface: the two incidences cancel."""
    low: dict[int, int] = {}
    down = range(n - 1, -1, -1)
    for k, rows in enumerate(faces):
        first = dict(zip(reversed(rows), down))  # later cells overwrite, so the first wins
        if not k:
            low = first
            continue
        for i, j in first.items():
            lowest = low.get(i, n)
            if j < lowest:
                low[i] = j
            elif j == lowest:
                return None
    return low


def betti_sum(vectors: Iterable[BettiVector]) -> BettiVector:
    """Componentwise sum with zero padding (homology of a disjoint union)."""
    vectors = list(vectors)
    width = max((len(v) for v in vectors), default=0)
    return tuple(sum(v[d] for v in vectors if d < len(v)) for d in range(width))


def euler_characteristic(x: Multicomplex) -> int:
    return sum((-1) ** d * x.cell_count(d) for d in range(x.dimension + 1))


def boundary_squares_to_zero(x: Multicomplex) -> bool:
    """Check d(d(cell)) = 0 over GF(2) for every cell of dimension >= 2."""
    for grade in x.grades[2:]:
        below = grade.below.faces
        for faces in grade.face_rows():
            acc = 0
            for r in faces:
                for lower in below:
                    acc ^= 1 << lower[r]
            if acc:
                return False
    return True
