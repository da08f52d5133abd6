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
``betti0_of`` reads it there and builds no complex.

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

Under ``per-combination`` ``clique_betti`` builds no cell either.  It
ranks the complex itself, with the same forest, pivots and clearing, but
finds each (d-1)-cell's lowest coface by arithmetic on the cliques and
the pair multiplicities (``mcomplex._lowest_cofaces``), d >= 2.

Proof.  The d-cells are ordered by sorted clique, and within a clique
sigma by the rank of their copy assignment.  With sigma's pairs in
sorted order p_1..p_k of m_1..m_k copies, the cell taking copy b_j on
p_j is row first(sigma) + sum_j (b_j - 1) W_j, where the mixed-radix
weight W_j = m_{j+1} ... m_k is positive.  A d-cell (sigma, b) is glued
to the (d-1)-cell (tau, a) exactly when tau is a face of sigma and b
agrees with a on tau's pairs.  Every row of a clique comes before every
row of a later clique, so the lowest coface of (tau, a) lies on
sigma*, the first d-clique that contains tau.  There b is fixed on tau's
pairs and free on the pairs through the vertex sigma* adds, and the row
grows in every digit b_j, so the minimum takes copy 1 on each of those:
row first(sigma*) + sum over tau's pairs p of (a_p - 1) W_{sigma*}(p).
A (d-1)-cell in no d-clique has no coface, and its row is zero.  No
cell names one face twice, since its faces lie on distinct vertex sets.
A face's cells in copy order take these rows by the block repetition
the builder uses for face rows.  The face rows of a dimension, the
builder's own (``mcomplex._face_rows``), are made only where two
uncleared rows share a lowest coface.

The rank path stays beside both graph routes, and all three reduce
ranks with ``_forest`` and ``_pivots``: the closed form adds only the
multiplicity sums, and the ``per-combination`` route differs only in
where its lowest cofaces come from.  ``betti`` is the reference for
built complexes and the Betti path for hand-built ones, which are the
clique complex of no graph; no verb reads it, since every verb holds
the graph and reads ``clique_betti``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Set
from itertools import accumulate, combinations

from .mcomplex import (
    CANONICAL,
    PER_COMBINATION,
    Cliques,
    Multicomplex,
    _face_rows,
    _lowest_cofaces,
    check_policy,
    clique_cells,
)
from .mgraph import Multigraph
from .value import Value

__all__ = [
    "Gf2Basis",
    "BoundaryMatrix",
    "boundary_matrix",
    "coboundary_rows",
    "betti",
    "betti0_of",
    "clique_betti",
    "betti_sum",
    "euler_characteristic",
    "boundary_squares_to_zero",
]

BettiVector = tuple[int, ...]
# a boundary matrix's lowest coface of each row (None if a cell names one
# face twice), and a thunk that builds its rows: what ``_pivots`` reads
Cofaces = tuple[dict[int, int] | None, Callable[[], Sequence[int]]]


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
    return _ranked(counts, forest, lambda d: _by_faces(x.grade(d).faces, counts[d - 1]))


def clique_betti(g: Multigraph, policy: str = CANONICAL, dim: int | None = None) -> BettiVector:
    """Betti numbers of g's clique multicomplex, beta_0..beta_D, or with
    ``dim`` beta_0..beta_dim: what ``betti`` gives on the complex, or on
    its (dim+1)-skeleton cut to dim + 1 entries.

    beta_0 alone is ``betti0_of``'s forest, under either policy and with
    no cell counted.  Deeper vectors are counted against the cell budget as
    the complex or skeleton would be, and refused as it would be.  No
    complex is built: under ``canonical`` they come from S(g) in closed
    form, under ``per-combination`` from ranks whose lowest cofaces are
    found by arithmetic (see the module docstring).  An unknown policy is
    refused at every depth.
    """
    check_policy(policy)
    if dim is not None and dim < 0:
        raise ValueError(f"Betti numbers need dim >= 0, got {dim}")
    if dim == 0:
        return betti0_of(g.nodes, g.pairs())
    top = None if dim is None else dim + 1
    mult, cliques = clique_cells(g, policy, top)
    if not g.nodes:
        return ()
    pairs = list(mult)  # in g.pairs() order, which numbers S's 1-cells
    forest = _forest({v: v for v in g.nodes}, pairs)
    if policy != CANONICAL:
        return _per_combination_betti(g, mult, cliques, forest)[:top]
    counts = [len(g.nodes)] + [len(pairs)] * bool(pairs)
    counts += [len(cliques[d]) for d in range(2, 2 + len(cliques))]

    def faces(d: int) -> tuple[Sequence[int], ...]:
        """S's d-cells' face rows: the rows of their d-vertex subcliques."""
        below = pairs if d == 2 else [tau for tau, _ in cliques[d - 1]]
        row = dict(zip(below, range(len(below))))
        at = (map(row.__getitem__, combinations(tau, d)) for tau, _ in cliques[d])
        return tuple(zip(*at))

    beta = list(_ranked(counts, forest, lambda d: _by_faces(faces(d), counts[d - 1])))
    triangles = cliques.get(2, ())
    tight = {p for tau, _ in triangles for p in combinations(tau, 2)}
    if len(beta) > 1:
        beta[1] += sum(m - 1 for p, m in mult.items() if p not in tight)
    if len(beta) > 2:
        beta[2] += sum(n - 1 for _, n in triangles) - sum(mult[p] - 1 for p in tight)
    return tuple(beta[:top])


def _per_combination_betti(
    g: Multigraph, mult: dict[tuple[int, int], int], cliques: Cliques, forest: list[int]
) -> BettiVector:
    """The Betti numbers of g's ``per-combination`` clique complex, from
    its pair multiplicities ``mult`` and cliques ``cliques`` (as
    ``clique_cells`` counts them) and S(g)'s spanning forest ``forest``,
    positions in ``mult``: the first copy of each pair stands for it."""
    counts = [len(g.nodes)] + [sum(mult.values())] * bool(mult)
    counts += [sum(n for _, n in cliques[d]) for d in range(2, 2 + len(cliques))]
    first = list(accumulate(mult.values(), initial=0))

    def cofaces(d: int) -> Cofaces:
        def rows() -> list[int]:
            return coboundary_rows(_face_rows(g, PER_COMBINATION, mult, cliques, d), counts[d - 1])

        return _lowest_cofaces(mult, cliques, d), rows

    return _ranked(counts, [first[k] for k in forest], cofaces)


def _by_faces(faces: Sequence[Sequence[int]], below: int) -> Cofaces:
    """The lowest cofaces of a boundary matrix of dimension d >= 2 given
    as its d-cells' face rows over ``below`` (d-1)-cells, and a thunk for
    its rows."""
    return _lowest_cofaces_of_rows(faces, len(faces[0])), lambda: coboundary_rows(faces, below)


def _ranked(
    counts: Sequence[int],
    forest: Sequence[int],
    cofaces: Callable[[int], Cofaces],
) -> BettiVector:
    """beta_0..beta_D of a complex with ``counts[d]`` cells of dimension
    d, the first boundary matrix's pivots ``forest`` and, for d >= 2,
    ``cofaces(d)``: the d-th boundary's lowest cofaces and a thunk for
    its rows, as ``_pivots`` takes them, read in ascending d."""
    pivots: Set[int] = set(forest)
    ranks = [0, len(pivots)] + [0] * len(counts)
    for d in range(2, len(counts)):
        pivots = _pivots(*cofaces(d), pivots)
        ranks[d] = len(pivots)
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))


def betti0_of(nodes: Set[int], pairs: Iterable[tuple[int, int]]) -> BettiVector:
    """(beta_0,) of the clique complex, under either policy, of a graph
    given by its node set and its linked pairs, or () if it has no nodes:
    the count of its components, as parallel copies never join two trees.
    No complex is built."""
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


def _pivots(
    low: dict[int, int] | None, rows: Callable[[], Sequence[int]], cleared: Set[int]
) -> Set[int]:
    """Pivots of the row space of a boundary matrix of dimension d >= 2
    from its rows not in ``cleared``, given each row's lowest coface
    ``low`` (rows with none left out; None if a cell repeats a face) and
    ``rows``, which builds the rows.  Rows are built only if two rows
    share a lowest coface, or if ``low`` is None."""
    if low is None:  # a cell repeats a face: reduce every row
        basis = Gf2Basis()
        for i, row in enumerate(rows()):
            if i not in cleared:
                basis.add(row)
        return {p.bit_length() - 1 for p in basis.pivots}
    taken: dict[int, int] = {}  # pivot -> row, for the rows kept by index alone
    built: Sequence[int] | None = None
    for i, j in low.items():
        if i in cleared:
            continue
        if built is None:
            if j not in taken:
                taken[j] = i
                continue
            built = rows()
            basis = Gf2Basis()
            basis.pivots = {1 << p: built[r] for p, r in taken.items()}
        basis.add(built[i])
    return taken.keys() if built is None else {p.bit_length() - 1 for p in basis.pivots}


def _lowest_cofaces_of_rows(faces: Sequence[list[int]], n: int) -> dict[int, int] | None:
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
