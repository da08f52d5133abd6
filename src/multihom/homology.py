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

``betti`` takes every rank from the rows, with clearing (the "twist" of
Chen & Kerber, 2011, applied to the coboundary as in Ripser).  For
d = 1..D in ascending order, the rows of the d-th boundary matrix go
into a ``Gf2Basis``, except each row whose index is a pivot (lowest set
bit) of the reduced rows kept for dimension d-1; the rank is the size
of the basis.  Skipping is exact for any cell order.  A reduced row r of
the (d-1)-th matrix with pivot i is a coboundary, so the next
coboundary maps it to zero: the rows of the d-th matrix indexed by the
set bits of r sum to zero.  Every other set bit of r lies above i, so
row i is the sum of rows with higher indices.  By descending induction
on the index, the rows kept span the same space as all rows.  Betti
numbers then come from the usual rank formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .mcomplex import CellKey, Multicomplex
from .mgraph import Multigraph, Multilayer

__all__ = [
    "Gf2Basis",
    "gf2_rank",
    "BoundaryMatrix",
    "boundary_matrix",
    "coboundary_rows",
    "betti",
    "betti_sum",
    "euler_characteristic",
    "boundary_squares_to_zero",
    "connected_components",
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


def gf2_rank(columns: Iterable[int]) -> int:
    """Rank of a GF(2) matrix given as column bitsets."""
    basis = Gf2Basis()
    for col in columns:
        basis.add(col)
    return basis.rank


@dataclass(frozen=True)
class BoundaryMatrix:
    """d-th boundary matrix: rows are (d-1)-cells, columns are d-cells."""

    row_keys: tuple[CellKey, ...]
    col_keys: tuple[CellKey, ...]
    columns: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_keys), len(self.col_keys))

    def rank(self) -> int:
        return gf2_rank(self.columns)

    def dense(self) -> list[list[int]]:
        return [
            [(col >> i) & 1 for col in self.columns]
            for i in range(len(self.row_keys))
        ]


def boundary_matrix(x: Multicomplex, d: int) -> BoundaryMatrix:
    """Boundary matrix for dimension d >= 1 (columns from glued faces)."""
    if d < 1:
        raise ValueError(f"boundary matrices are defined for d >= 1, got {d}")
    rows, cols = x.grade(d - 1), x.grade(d)
    columns = []
    for faces in cols.face_rows():
        col = 0
        for i in faces:
            col ^= 1 << i
        columns.append(col)
    return BoundaryMatrix(tuple(rows.keys()), tuple(cols.keys()), tuple(columns))


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
    taken from coboundary rows with clearing (see the module docstring)."""
    if x.dimension < 0:
        return ()
    ranks = [0] * (x.dimension + 2)
    cleared: dict[int, int] = {}  # pivots of the reduced rows one dimension down
    for d in range(1, x.dimension + 1):
        basis = Gf2Basis()
        for i, row in enumerate(coboundary_rows(x, d)):
            if 1 << i not in cleared:
                basis.add(row)
        ranks[d] = basis.rank
        cleared = basis.pivots
    return tuple(
        x.cell_count(d) - ranks[d] - ranks[d + 1] for d in range(x.dimension + 1)
    )


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


def connected_components(g: Multigraph | Multilayer) -> int:
    """Components of the underlying simple graph; layers add up."""
    if isinstance(g, Multilayer):
        return sum(connected_components(layer) for layer in g.layers)
    parent = {v: v for v in g.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.pairs():
        parent[find(u)] = find(v)
    return sum(1 for v, p in parent.items() if v == p)
