"""GF(2) cellular homology of multicomplexes.

Incidence between (d-1)-cells and d-cells is stored as Python int
bitsets, indexed by the rows of the complex's store: bit i stands for
row i of a grade, and a cell's faces are already row indices into the
grade below, so no key is looked up.  A d-cell's column of the d-th
boundary matrix is the XOR of ``1 << i`` over its face rows i
(``boundary_matrix`` gives them all), with no ``Multicell`` made.  Over
GF(2) no orientation bookkeeping is needed, a cell glued twice to one
face cancels that incidence, and parallel copies contribute
independent vectors exactly when their glued boundaries differ.

The rank of the first boundary matrix is the size of a spanning forest
of the 1-skeleton, found by a union-find over the 1-cells' faces
(``_forest``).  Parallel copies never join two trees, so the same
forest over a graph's pairs gives beta_0 of its clique complex:
``betti0_of`` reads it there and builds no complex.

Every other rank comes from one column pass (``_ranked``), the
standard reduction of Edelsbrunner, Letscher & Zomorodian (2002): a
column whose highest set bit is no pivot yet is independent of the
columns stored and is stored as it is, and any other column is reduced
by the stored column with that pivot until it is zero or its highest
bit is new.  The rank is the number of pivots.

The dimensions go from the top down with clearing (the "twist" of Chen
& Kerber, 2011): the columns of the d-th boundary matrix whose index is
a pivot one dimension up are skipped, and not even built.  Skipping is
exact for any cell order.  A reduced column of the (d+1)-th matrix with
pivot i is a sum of its columns, the boundary of a (d+1)-chain, so it
is a d-chain c whose own boundary is zero (the boundary of a boundary
is zero, which ``boundary_squares_to_zero`` checks, and which a cell
that names a face twice keeps, as the two incidences cancel).  So the
columns of the d-th matrix indexed by the set bits of c sum to zero.
Every other set bit of c lies below i, so column i is the sum of
columns with lower indices.  By induction on the index, the columns
kept span the same space as all columns.  Betti numbers then come from
the usual rank formula.

``clique_betti`` gives the Betti numbers of a graph's clique complex.
Under ``canonical`` it builds no cell: it reduces the ranks of S, the
clique complex of g's simple graph, with the same forest and column
pass, and adds sums over the pair multiplicities m_e.  With T the
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

Under ``per-combination`` ``clique_betti`` builds no cell either, and
ranks none of the complex: each rank it takes is one of a flag complex,
by the same forest and column pass (``_flag_betti``).

Before it ranks, the ``per-combination`` route asks whether S(g) is
complete split: with U the nodes linked to every other node, no pair
joins two nodes outside U (complete and edgeless graphs are).  If so it
ranks nothing.  With r = |U|, or n - 1 when U is every node, and
chi = sum_d (-1)^d c_d from the cell counts ``clique_cells`` gives,

    beta_0 = 1,  beta_r = (-1)^r (chi - 1),  beta_d = 0 otherwise,

and beta_0 = chi = n when r = 0.  The largest cliques are U with one
node outside it, or all n nodes, so the complex has dimension r, and a
skeleton that stops below r has the homology of the complex below its
top: (1, 0, ..., 0).

Flattening identity.  Let K(h; n, m) be the ``per-combination`` complex
of a simple graph h whose node v has n_v copies and pair e has m_e
copies: a cell is a clique of h with a copy of each of its nodes and
pairs, glued to the faces on which it agrees.  Then K_g = K(S(g); 1, m).
Let node k of h have neighbours N, L = K(h - k; n, m), its subcomplex
K_N = K(h[N]; n, m), and K' = K(h[N]; n', m) with n'_t = n_t m_tk.  Let
K_1 be K with k flattened: n_k = 1, and m_tk = 1 for every t.  In
reduced homology, where the empty complex has beta~_{-1} = 1,

    beta~_d(K) = beta~_d(K_1) + n_k beta~_{d-1}(K') - beta~_{d-1}(K_N).

Proof.  A cell through copy c of k is a cell of K' or the empty cell,
one dimension up: the copy of each other node t and of the pair tk
together are a copy of t in K'.  Faces through k correspond to faces,
so H_d(K, L) is the sum over c <= n_k of H~_{d-1}(K').  The one face of
such a cell that misses k lies in K_N, so on each summand the connecting
map is induced by f: K' -> K_N, which forgets the copies of the pairs
tk, and then the inclusion into L.  Taking copy 1 of each such pair is
a chain map s with f s = id, so f is onto in homology, and the image of
the connecting map is that of H~(K_N) -> H~(L), of rank rho_d in degree
d.  The long exact sequence of (K, L) then gives

    beta~_d(K) = beta~_d(L) - rho_d + n_k beta~_{d-1}(K') - rho_{d-1}.

K_1 is L with a cone on K_N glued on, so H~_d(K_1) = H_d(L, K_N) by
excision, and the sequence of (L, K_N) gives beta~_d(K_1) =
beta~_d(L) - rho_d + beta~_{d-1}(K_N) - rho_{d-1}.  Subtract the two.

Lemma (the cone case).  If k is linked to every other node, K_N = L and
K_1 is a cone, so beta~_d(K) = n_k beta~_{d-1}(K') - beta~_{d-1}(L).

Theorem.  If S(g) is complete split, H~(K_g) lies in degree r alone, so
beta~_r = (-1)^r (chi - 1).  Proof for K(h; n, m), h complete split,
by induction on r.  At r = 0, h is edgeless and K is a set of points.
Otherwise let k be a node of U.  Deleting it leaves the other nodes of
U linked to all the rest, so h - k is complete split with r - 1, and
by induction H~(K') and H~(L) lie in degree r - 1; the lemma puts H~(K)
in degree r.  On a complete graph (r = n - 1) this says that a single
multi-clique has reduced homology in its top degree alone.

A graph that is not complete split is read node by node (``_peeled``),
and K(h; n, m) is read as:

- no node: beta~_{-1} = 1;
- h disconnected: the parts' beta~ add, and beta~_0 gains one for each
  part after the first;
- one node k: n_k points, beta~_0 = n_k - 1;
- h connected with no triangle: beta~_0 = 0, beta~_1 = E - V + 1, with
  V = sum of n_v and E = sum over pairs uv of n_u n_v m_uv;
- h connected with a node linked to all others: the lemma;
- anything else: the identity at each node in a triangle in turn, read
  with the nodes before it flat.  A node that is flat already (n_k = 1,
  and m = 1 on its pairs to nodes not flat) adds nothing.  What is
  left is S(h) with points and edges glued on: beta~_d is S(h)'s for
  d >= 2, and beta~_1 = E - V + 1 - rank d_2(S(h)), where rank d_2(S(h))
  = E_s - V_s + 1 - beta_1(S(h)) with S(h)'s pairs E_s and nodes V_s.

Proofs.  A cell lies in one part of h, so K of a disjoint union is the
disjoint union of the parts' complexes: H~_d adds for d >= 1, and
beta_0 counts components, so beta~_0 = sum of the parts' (beta~_0 + 1),
less one.  With no triangle the cells are points and edges: V node
copies, and an edge for each copy of u, of v and of the pair uv.  Each
copy of u is joined to each copy of v, so along the paths of a connected
h every point is joined to every other, and a connected graph has
beta~_1 = E - V + 1.  Once the nodes in a triangle are flat, a 2-cell
has one copy of each of its nodes and pairs, so the cells of dimension
2 and up are S(h)'s; the other cells are points and edges in no 2-cell.
They change no boundary of a 2-cell, and K stays connected, so rank d_2
and H_d for d >= 2 are S(h)'s, and beta~_1 follows from E and V.

Each step lowers the degree by one, so the recursion is at most top + 1
calls deep, reads beta~ only up to the top entry asked for (beta~_dim
with a depth, else the complex's top), and stops when that entry is
beta~_0, which is 0 on a connected part with two or more nodes.  A
flag complex read to beta~_top is ranked on its cliques of at most
top + 2 nodes, and a neighbourhood of k read one degree down on cliques
that make such cliques with k, so every clique met has at most top + 2
nodes: with a depth, a cell of the (dim+1)-skeleton, which
``clique_cells`` has counted.  On a graph the lemma peels, its calls on
a connected h number at most the nonempty cliques of h with at most
top + 1 nodes, by induction: a node k linked to all others costs one
call and two calls on h - k one degree down, and the cliques of h are
those of h - k, {k}, and k with each clique of h - k.  ``clique_cells``
has counted all of those cliques, with one cell or more each, so the
recursion makes no more calls than the complex or skeleton has cells.
A flattened node costs two calls on its neighbours, and no such bound
is proved for them yet.

So both graph routes rank flag complexes alone: the closed form ranks
S(g) and adds the multiplicity sums, and the ``per-combination`` route
ranks nothing on a complete split graph or one that peels, and
otherwise S of its pieces once their nodes are flat, and of the
neighbourhoods it reads.  ``betti`` ranks a built complex: it is the
reference for built complexes and the Betti path for hand-built ones,
which are the clique complex of no graph; no verb reads it, since every
verb holds the graph and reads ``clique_betti``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence, Set
from itertools import chain, combinations

from .mcomplex import (
    CANONICAL,
    Cliques,
    Multicomplex,
    _cell_counts,
    _higher_cliques,
    check_policy,
    clique_cells,
)
from .mgraph import Multigraph, Pair
from .value import Value

__all__ = [
    "Gf2Basis",
    "BoundaryMatrix",
    "boundary_matrix",
    "betti",
    "betti0_of",
    "clique_betti",
    "betti_sum",
    "euler_characteristic",
    "boundary_squares_to_zero",
]

BettiVector = tuple[int, ...]
Clique = tuple[int, ...]


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
    return BoundaryMatrix(tuple(map(_column, x.grade(d).face_rows())))


def _column(faces: Iterable[int]) -> int:
    """A cell's boundary column from its face rows: a face named twice cancels."""
    col = 0
    for i in faces:
        col ^= 1 << i
    return col


def betti(x: Multicomplex) -> BettiVector:
    """Betti numbers beta_0..beta_D via the GF(2) rank formula, each rank
    reduced from the boundary columns, top dimension down, with clearing
    (see the module docstring)."""
    counts = [x.cell_count(d) for d in range(x.dimension + 1)]
    # the rank of the first boundary matrix: the spanning forest's size
    forest = _forest(list(range(x.cell_count(0))), zip(*x.grade(1).faces))
    return _ranked(counts, forest, lambda d: x.grade(d).face_rows())


def clique_betti(g: Multigraph, policy: str = CANONICAL, dim: int | None = None) -> BettiVector:
    """Betti numbers of g's clique multicomplex, beta_0..beta_D, or with
    ``dim`` beta_0..beta_dim: what ``betti`` gives on the complex, or on
    its (dim+1)-skeleton cut to dim + 1 entries.

    beta_0 alone is ``betti0_of``'s forest, under either policy and with
    no cell counted.  Deeper vectors are counted against the cell budget as
    the complex or skeleton would be, and refused as it would be.  No
    complex is built: under ``canonical`` they come from S(g) in closed
    form.  Under ``per-combination`` they come from the cell counts alone
    when S(g) is complete split, else by peeling S(g) node by node, and
    where a connected piece with a triangle has no node linked to all
    others, by flattening its nodes and ranking flag complexes (see the
    module docstring).  An unknown policy is refused at every depth.
    """
    check_policy(policy)
    if dim is not None and dim < 0:
        raise ValueError(f"Betti numbers need dim >= 0, got {dim}")
    if dim == 0:
        return betti0_of(g.nodes, g.pairs())
    return _cells_betti(g, policy, *clique_cells(g, policy, None if dim is None else dim + 1), dim)


def _cells_betti(
    g: Multigraph, policy: str, mult: dict[Pair, int], cliques: Cliques, dim: int | None
) -> BettiVector:
    """``clique_betti(g, policy, dim)``, from g's pair multiplicities
    ``mult`` and cliques ``cliques`` as ``clique_cells`` counts them for
    the complex, or with ``dim`` for its (dim+1)-skeleton.  The peel
    stops at beta_dim, so that it meets no clique ``clique_cells`` did
    not count."""
    if not g.nodes:
        return ()
    pairs = list(mult)  # in g.pairs() order, which numbers S's 1-cells
    end = None if dim is None else dim + 1
    if policy != CANONICAL:
        counts = _cell_counts(g, mult, cliques)[:end]
        r = _split_top(len(g.nodes), pairs)
        if r is None:
            beta = _peeled(g.nodes, mult, len(counts) - 1)
            beta[1] += 1  # beta_0 of a complex with a node
            return tuple(beta[1:])
        # the reduced homology sits in degree r alone (see the module
        # docstring); a read that stops below r has none, and one that
        # reaches r counts the whole complex
        beta = [1] + [0] * (len(counts) - 1)
        if r < len(counts):
            beta[r] += (-1) ** r * (sum((-1) ** d * c for d, c in enumerate(counts)) - 1)
        return tuple(beta)
    flag = _flag_betti(g.nodes, pairs, {d: [tau for tau, _ in c] for d, c in cliques.items()})
    beta = list(flag[:end])
    triangles = cliques.get(2, ())
    tight = {p for tau, _ in triangles for p in combinations(tau, 2)}
    if len(beta) > 1:
        beta[1] += sum(m - 1 for p, m in mult.items() if p not in tight)
    if len(beta) > 2:
        beta[2] += sum(n - 1 for _, n in triangles) - sum(mult[p] - 1 for p in tight)
    return tuple(beta)


def _flag_betti(
    nodes: Collection[int], pairs: Sequence[Clique], cliques: Mapping[int, Sequence[Clique]]
) -> BettiVector:
    """beta_0..beta_D of the flag complex on ``nodes`` with the given
    pairs and, by dimension d >= 2, its cliques of d + 1 nodes, each a
    sorted tuple: the forest ranks the first boundary, and the column
    pass the rest."""
    simplices = [pairs, *(cliques[d] for d in range(2, 2 + len(cliques)))]
    counts = [len(nodes), *(len(s) for s in simplices if s)]
    forest = _forest({v: v for v in nodes}, pairs)
    return _ranked(counts, forest, lambda d: _clique_faces(simplices[d - 2], simplices[d - 1]))


def _clique_faces(below: Sequence[Clique], above: Iterable[Clique]) -> Iterator[Iterator[int]]:
    """The face rows of each clique of ``above``: the indices in
    ``below``, the cliques one node smaller, of its faces."""
    row = dict(zip(below, range(len(below))))
    return (map(row.__getitem__, combinations(tau, len(tau) - 1)) for tau in above)


def _split_top(n: int, pairs: Sequence[tuple[int, int]]) -> int | None:
    """r for a graph on n >= 1 nodes with the given pairs if it is
    complete split, else None: with U the nodes linked to every other
    node, no pair joins two nodes outside U, and r is |U|, or n - 1 when
    U is every node."""
    degree = Counter(chain.from_iterable(pairs))
    u = sum(k == n - 1 for k in degree.values())
    if len(pairs) != u * (u - 1) // 2 + u * (n - u):
        return None
    return min(u, n - 1)


def _peeled(nodes: Set[int], mult: dict[tuple[int, int], int], top: int) -> list[int]:
    """beta~_-1..beta~_top of K(h; 1, m), the ``per-combination`` complex
    of the simple graph h on ``nodes`` whose pair e has m_e = ``mult[e]``
    copies, by peeling and flattening nodes (see the module docstring)."""
    order = sorted(nodes)
    bit = {v: i for i, v in enumerate(order)}
    weight: list[dict[int, int]] = [{} for _ in order]  # m_uv, by node index
    for (u, v), m in mult.items():
        weight[bit[u]][bit[v]] = weight[bit[v]][bit[u]] = m
    adj = [sum(1 << j for j in w) for w in weight]  # neighbours, as a bitset of node indices

    def pieces(part: int) -> Iterable[tuple[int, list[int]]]:
        """The connected pieces of h on ``part``: each as its node set and
        the node indices in it."""
        while part:  # the nodes not yet reached
            piece = grown = part & -part
            part ^= piece
            members = []
            while grown:
                low = grown & -grown
                grown ^= low
                members.append(i := low.bit_length() - 1)
                new = adj[i] & part
                part ^= new
                piece |= new
                grown |= new
            yield piece, members

    def reduced(part: int, copies: dict[int, int], flat: int, top: int) -> list[int]:
        """beta~_-1..beta~_top of K(h on part; copies, m), with m_e read as 1
        on the pairs at the nodes of the bitset ``flat``: the pieces' add,
        and beta~_0 gains one for each piece after the first."""
        beta = [int(not part)] + [0] * (top + 1)
        for n, (piece, members) in enumerate(pieces(part)):
            beta = [a + b for a, b in zip(beta, connected(piece, members, copies, flat, top))]
            beta[1] += bool(n)
        return beta

    def flattened(
        k: int, piece: int, copies: dict[int, int], flat: int, top: int, beta: list[int]
    ) -> list[int]:
        """``beta`` plus the identity's n_k beta~_{d-1}(K') - beta~_{d-1}(K_N)
        for node k of a connected piece, or ``beta`` where flattening k
        changes nothing."""
        near = adj[k] & piece
        mk = {t: 1 if flat >> t & 1 else m for t, m in weight[k].items() if near >> t & 1}
        if not flat >> k & 1 and ((heavy := max(mk.values()) > 1) or copies[k] > 1):
            link = reduced(near, copies, flat, top - 1)
            # with m = 1 on every pair at k, K' is K_N, and one read serves both
            star = heavy and reduced(near, {t: copies[t] * m for t, m in mk.items()}, flat, top - 1)
            beta = [0] + [b + copies[k] * s - l for b, s, l in zip(beta[1:], star or link, link)]
        return beta

    def connected(
        piece: int, members: list[int], copies: dict[int, int], flat: int, top: int
    ) -> list[int]:
        """``reduced`` of a connected piece."""
        if len(members) == 1:  # the node's copies are points
            return [0, copies[members[0]] - 1] + [0] * top
        if top == 0:  # a connected complex
            return [0, 0]
        pairs = [(i, j) for i in members for j in weight[i] if j > i and piece >> j & 1]
        beta = [0] * (top + 2)
        tri = 0  # the nodes in a triangle, as a bitset; a tree has none
        if len(pairs) >= len(members):  # a cycle, so a triangle at a node linked to all others
            for k in members:
                if adj[k] & piece == piece ^ 1 << k:  # the lemma
                    return flattened(k, piece, copies, flat, top, beta)
            for i, j in pairs:
                if common := adj[i] & adj[j] & piece:
                    tri |= common | 1 << i | 1 << j
        if tri:  # the identity at each node in a triangle, in turn
            copies = {i: copies[i] for i in members}  # flattening writes to it
            for k in [k for k in members if tri >> k & 1]:
                beta = flattened(k, piece, copies, flat, top, beta)
                copies[k], flat = 1, flat | 1 << k
        # the nodes in a triangle are flat, so K is S(h on piece) with points
        # and edges glued on in no 2-cell: K's beta~_1 is E - V + 1 less the
        # rank of S's second boundary, which is E_s - V_s + 1 - beta_1(S)
        for i, j in pairs:
            beta[2] += copies[i] * copies[j] * (1 if (flat >> i | flat >> j) & 1 else weight[i][j])
        beta[2] += 1 - sum(copies[i] for i in members)
        if not tri:  # K is a connected graph
            return beta
        higher: dict[int, list[Clique]] = {}
        for tau in _higher_cliques(members, pairs, top + 2):
            higher.setdefault(len(tau) - 1, []).append(tau)
        flag = _flag_betti(members, pairs, higher)
        beta[2] += flag[1] - len(pairs) + len(members) - 1
        return [b + f for b, f in zip(beta, [0, 0, 0, *flag[2:], *[0] * top])]

    return reduced((1 << len(order)) - 1, dict.fromkeys(range(len(order)), 1), 0, top)


def _ranked(
    counts: Sequence[int], forest: int, faces: Callable[[int], Iterable[Iterable[int]]]
) -> BettiVector:
    """beta_0..beta_D of a complex with ``counts[d]`` cells of dimension
    d, first boundary rank ``forest`` and, for d >= 2, ``faces(d)``:
    each d-cell's face rows, in cell order.  Dimensions go from the top
    down, and a cell whose index is a pivot one dimension up makes no
    column (see the module docstring)."""
    ranks = [0, forest] + [0] * len(counts)
    cleared: Set[int] = set()
    for d in range(len(counts) - 1, 1, -1):
        kept = (rows for j, rows in enumerate(faces(d)) if j not in cleared)
        cleared = _reduce(map(_column, kept))
        ranks[d] = len(cleared)
    return tuple(c - ranks[d] - ranks[d + 1] for d, c in enumerate(counts))


def _reduce(columns: Iterable[int]) -> set[int]:
    """The pivots of a boundary matrix's columns: each column is reduced,
    left to right, by its highest set bit, and a nonzero residue keeps
    that bit as a pivot.  Their number is the rank."""
    reduced: dict[int, int] = {}  # highest set bit + 1 -> reduced column
    for col in columns:
        while col:
            top = col.bit_length()
            if top not in reduced:
                reduced[top] = col
                break
            col ^= reduced[top]
    return {top - 1 for top in reduced}


def betti0_of(nodes: Set[int], pairs: Iterable[tuple[int, int]]) -> BettiVector:
    """(beta_0,) of the clique complex, under either policy, of a graph
    given by its node set and its linked pairs, or () if it has no nodes:
    the count of its components, as parallel copies never join two trees.
    No complex is built."""
    if not nodes:
        return ()
    return (len(nodes) - _forest({v: v for v in nodes}, pairs),)


def _forest(parent: list[int] | dict[int, int], links: Iterable[tuple[int, int]]) -> int:
    """The number of links that join two trees when a forest grows link
    by link (Kruskal's choice), by union-find with path halving over
    ``parent``, which maps each item to itself at the start."""
    kept = 0
    for a, b in links:
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a != b:
            parent[a] = b
            kept += 1
    return kept


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
