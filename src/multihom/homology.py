"""GF(2) cellular homology of multicomplexes.

Incidence between (d-1)-cells and d-cells is stored as Python int
bitsets, indexed by the rows of the complex's store: bit i stands for
row i of a grade, and a cell's faces are already row indices into the
grade below, so no key is looked up.  ``boundary_matrix`` builds
the columns of the d-th boundary matrix (one bitset per d-cell);
``coboundary_rows`` builds its rows (one bitset per (d-1)-cell) from the
d-cells' face rows, which is the short side whenever a dimension has
more cells than the one below.  Neither makes a ``Multicell``.  Over
GF(2) no orientation bookkeeping is needed, and parallel copies
contribute independent vectors exactly when their glued boundaries
differ.

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

``clique_betti`` gives the Betti numbers of a graph's clique complex.
Under ``canonical`` it builds no cell: it reduces the ranks of S, the
clique complex of g's simple graph, with the same forest and pivot
routine, and adds sums over the pair multiplicities m_e.  With T the
triangles of g:

    beta_1(K_g) = beta_1(S) + sum over pairs e in no triangle of (m_e - 1)
    beta_2(K_g) = beta_2(S) + sum over uvw in T of (m_uv m_uw m_vw - 1)
                            - sum over pairs e in some triangle of (m_e - 1)
    beta_d(K_g) = beta_d(S) for d = 0 and d >= 3

Proof sketch.  The ``canonical`` cells above dimension 2 are glued along
each pair's first copy in colour order, one choice per pair, so they and
the 2-cells they reach form a copy s(S) of S.  Let A be the 2-skeleton
of K_g: then K_g = A u s(S) and A n s(S) = s(S)^(2), and Mayer-Vietoris
holds over GF(2) for any two subcomplexes.  H_2 of a 2-dimensional
complex is its cycle space, so H_2(s(S)^(2)) -> H_2(A) is injective,
and H_1(s(S)^(2)) -> H_1(s(S)) is an isomorphism; so the sequence splits
into the three lines.  For beta_1(A): two copies of an edge in a
triangle differ by the boundary of two parallel 2-cells, and each edge
in no triangle adds m_e - 1 loops.  beta_2(A) then follows from A's
Euler characteristic.  The 2-skeletons of the two policies are equal,
so the beta_1 line holds under ``per-combination`` too.

The rank path stays beside the closed form, and both reduce ranks with
``_forest`` and ``_pivots``: the closed form adds only the multiplicity
sums.  ``betti`` is needed for what has no closed form here
(``per-combination`` above beta_0, and hand-built complexes, which are
the clique complex of no graph), for callers that hold the complex
anyway (``merge --emit-complex``, ``filtrate --json``), and as the
oracle the closed form is tested against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Set
from itertools import combinations

from .mcomplex import CANONICAL, Multicomplex, check_policy, clique_cells, clique_multicomplex
from .mgraph import Multigraph
from .value import Value

__all__ = [
    "Gf2Basis",
    "BoundaryMatrix",
    "boundary_matrix",
    "coboundary_rows",
    "betti",
    "betti0",
    "betti0_of",
    "clique_betti",
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


def coboundary_rows(faces: Sequence[Sequence[int]], below: int) -> list[int]:
    """Rows of a boundary matrix of dimension d >= 1, given as its
    d-cells' face rows, one list per face position (a ``Grade``'s
    ``faces``), over ``below`` (d-1)-cells: bit j of row i is set when
    the j-th d-cell is glued to the i-th (d-1)-cell."""
    rows = [0] * below
    for at in faces:
        for j, i in enumerate(at):
            rows[i] ^= 1 << j
    return rows


def betti(x: Multicomplex) -> BettiVector:
    """Betti numbers beta_0..beta_D via the GF(2) rank formula, each rank
    the number of pivots of the boundary rows, taken in ascending
    dimension with clearing (see the module docstring)."""
    counts = [x.cell_count(d) for d in range(x.dimension + 1)]
    # the pivots of the first boundary matrix: the spanning forest in row order
    forest = _forest(list(range(x.cell_count(0))), zip(*x.grade(1).faces))
    return _ranked(counts, forest, lambda d: x.grade(d).faces)


def clique_betti(g: Multigraph, policy: str = CANONICAL, dim: int | None = None) -> BettiVector:
    """Betti numbers of g's clique multicomplex, beta_0..beta_D, or with
    ``dim`` beta_0..beta_dim: what ``betti`` gives on the complex, or on
    its (dim+1)-skeleton cut to dim + 1 entries.

    beta_0 alone is ``betti0``'s forest, under either policy and with no
    cell counted.  Deeper vectors are counted against the cell budget as
    the complex or skeleton would be, and refused as it would be.  Under
    ``canonical`` they come from S(g) in closed form (see the module
    docstring) and no cell is built; under ``per-combination`` from the
    built complex.  An unknown policy is refused at every depth.
    """
    check_policy(policy)
    if dim is not None and dim < 0:
        raise ValueError(f"Betti numbers need dim >= 0, got {dim}")
    if dim == 0:
        return betti0(g)
    top = None if dim is None else dim + 1
    if policy != CANONICAL:
        return betti(clique_multicomplex(g, policy, top))[:top]
    mult, cliques = clique_cells(g, policy, top)
    if not g.nodes:
        return ()
    pairs = list(mult)  # in g.pairs() order, which numbers S's 1-cells
    counts = [len(g.nodes)] + [len(pairs)] * bool(pairs)
    counts += [len(cliques[d]) for d in range(2, 2 + len(cliques))]

    def faces(d: int) -> tuple[Sequence[int], ...]:
        """S's d-cells' face rows: the rows of their d-vertex subcliques."""
        below = pairs if d == 2 else [tau for tau, _ in cliques[d - 1]]
        row = dict(zip(below, range(len(below))))
        at = (map(row.__getitem__, combinations(tau, d)) for tau, _ in cliques[d])
        return tuple(zip(*at))

    forest = _forest({v: v for v in g.nodes}, pairs)
    beta = list(_ranked(counts, forest, faces))
    triangles = cliques.get(2, ())
    tight = {p for tau, _ in triangles for p in combinations(tau, 2)}
    if len(beta) > 1:
        beta[1] += sum(m - 1 for p, m in mult.items() if p not in tight)
    if len(beta) > 2:
        beta[2] += sum(n - 1 for _, n in triangles) - sum(mult[p] - 1 for p in tight)
    return tuple(beta[:top])


def _ranked(
    counts: Sequence[int],
    forest: Sequence[int],
    faces: Callable[[int], Sequence[Sequence[int]]],
) -> BettiVector:
    """beta_0..beta_D of a complex with ``counts[d]`` cells of dimension
    d, the first boundary matrix's pivots ``forest`` and the d-cells'
    face rows ``faces(d)`` for d >= 2, read in ascending d."""
    pivots: Set[int] = set(forest)
    ranks = [0, len(pivots)] + [0] * len(counts)
    for d in range(2, len(counts)):
        pivots = _pivots(faces(d), counts[d - 1], pivots)
        ranks[d] = len(pivots)
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))


def betti0(g: Multigraph) -> BettiVector:
    """(beta_0,) of g's clique complex under either policy, or () if g has
    no nodes: the count of g's components, as parallel copies never join
    two trees.  No complex is built."""
    return betti0_of(g.nodes, g.pairs())


def betti0_of(nodes: Set[int], pairs: Iterable[tuple[int, int]]) -> BettiVector:
    """``betti0`` of a graph given by its node set and its linked pairs."""
    if not nodes:
        return ()
    return (len(nodes) - len(_forest({v: v for v in nodes}, pairs)),)


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


def _pivots(faces: Sequence[Sequence[int]], below: int, cleared: Set[int]) -> Set[int]:
    """Pivots of the row space of a boundary matrix of dimension d >= 2,
    given as its d-cells' face rows (one list per face position) over
    ``below`` (d-1)-cells, from its rows not in ``cleared``.  Rows are
    built only if two rows share a lowest coface."""
    low = _lowest_cofaces(faces, len(faces[0]))
    if low is None:  # a cell repeats a face: reduce every row
        basis = Gf2Basis()
        for i, row in enumerate(coboundary_rows(faces, below)):
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
            rows = coboundary_rows(faces, below)
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
