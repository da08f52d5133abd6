"""Independent reference implementations used to pin expected values.

Each oracle recomputes a quantity by a method unrelated to the one the
package uses (exhaustive span closure, union-find, brute-force subset
scans), so agreement between the two is evidence rather than tautology.
The module ends with the seeded generator that acceptance criterion 4
draws its vertex-disjoint graphs from.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from multihom.chainlat import ChainEnv, ChainExpr, Connective, evaluate, merge_count
from multihom.homology import Gf2Basis, boundary_matrix
from multihom.mcomplex import Multicomplex, clique_multicomplex, complex_merge
from multihom.mgraph import Multigraph, merge


def rank_gf2_span(columns: Iterable[int]) -> int:
    """Rank of a set of GF(2) columns (int bitmasks) as log2 of the size
    of their linear span, computed by exhaustive closure.

    Only sensible for small column sets (span size is 2^rank).
    """
    span = {0}
    for c in columns:
        span |= {v ^ c for v in span}
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size, "span size must be a power of two"
    return rank


def components_union_find(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> int:
    """Connected-component count via hand-rolled union-find."""
    parent = {v: v for v in nodes}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in parent})


def cliques_bruteforce(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Every clique (sorted vertex tuple, size >= 1) by scanning all
    vertex subsets and checking all their pairs."""
    edges = {tuple(sorted(p)) for p in pairs}
    ordered = sorted(nodes)
    out: list[tuple[int, ...]] = []
    for r in range(1, len(ordered) + 1):
        for sub in itertools.combinations(ordered, r):
            if all(pq in edges for pq in itertools.combinations(sub, 2)):
                out.append(sub)
    return out


def clique_betti_bruteforce(g: Multigraph) -> tuple[int, ...]:
    """Betti vector of g's ``canonical`` clique multicomplex, from S(g),
    the clique complex of g's simple graph, plus the multiplicity sums.

    S(g)'s cliques come from the subset scan and each boundary rank from
    exhaustive span closure.  With m_e the multiplicity of pair e,
    beta_1 adds m_e - 1 for each pair in no triangle; beta_2 adds
    m_uv m_uw m_vw - 1 for each triangle uvw and takes m_e - 1 away for
    each pair in some triangle.  Only sensible for small graphs (span
    sizes are 2^rank).
    """
    mult = g.multiplicities()
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for clique in cliques_bruteforce(g.nodes, mult):
        by_dim.setdefault(len(clique) - 1, []).append(clique)
    top = max(by_dim, default=-1)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        row = {face: i for i, face in enumerate(by_dim[d - 1])}
        ranks[d] = rank_gf2_span(
            sum(1 << row[face] for face in itertools.combinations(clique, d))
            for clique in by_dim[d]
        )
    beta = [len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    triangles = by_dim.get(2, [])
    tight = {pair for t in triangles for pair in itertools.combinations(t, 2)}
    if top >= 1:
        beta[1] += sum(m - 1 for pair, m in mult.items() if pair not in tight)
    if top >= 2:
        beta[2] += sum(
            math.prod(mult[pair] for pair in itertools.combinations(t, 2)) - 1
            for t in triangles
        ) - sum(mult[pair] - 1 for pair in tight)
    return tuple(beta)


def ordered_set_partitions(
    items: Iterable[str],
) -> Iterator[tuple[tuple[str, ...], ...]]:
    """All ordered sequences of disjoint nonempty blocks covering the
    items, each block reported sorted.  Counts follow the ordered Bell
    numbers: 1, 3, 13, 75, 541 for 1..5 items."""
    pool = frozenset(items)
    if not pool:
        yield ()
        return
    elems = sorted(pool)
    for r in range(1, len(elems) + 1):
        for block in itertools.combinations(elems, r):
            rest = pool - set(block)
            for tail in ordered_set_partitions(rest):
                yield (tuple(block),) + tail


def chains_by_permutation(atoms: Sequence[str]) -> tuple[ChainExpr, ...]:
    """The permutation-identified chains over the atoms by brute force:
    all 2^(k-1) chains over each of the k! atom orders, each merge block
    sorted and each chain kept once, ordered by (merge count, text) as
    ``enumerate_chains`` orders them.  Atoms may repeat."""
    tensor, merge_ = Connective.TENSOR, Connective.MERGE
    seen: set[ChainExpr] = set()
    for perm in itertools.permutations(atoms):
        for conns in itertools.product((tensor, merge_), repeat=len(atoms) - 1):
            blocks = [sorted(b) for b in ChainExpr(perm, conns).blocks()]
            sorted_conns = [c for b in blocks for c in [tensor] + [merge_] * (len(b) - 1)]
            seen.add(ChainExpr(tuple(itertools.chain(*blocks)), tuple(sorted_conns[1:])))
    return tuple(sorted(seen, key=lambda c: (merge_count(c), c.text())))


def euler_from_counts(cell_counts: Sequence[int]) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(cell_counts))


def copies_by_pair_scan(edges: Sequence) -> dict[tuple[int, int], tuple]:
    """Edge copies grouped by endpoint pair, pairs sorted, by scanning the
    whole edge list once for every pair."""
    pairs = sorted({(e.u, e.v) for e in edges})
    return {p: tuple(e for e in edges if (e.u, e.v) == p) for p in pairs}


def colours_by_pair_grouping(rows: Sequence[tuple]) -> dict[tuple[int, int], tuple]:
    """Each endpoint pair of ``(u, v, colour)`` rows, endpoints and pairs
    sorted, with its rows' colours in row order, by scanning the whole
    row list once for every pair."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v, _ in rows})
    return {p: tuple(c for u, v, c in rows if {u, v} == set(p)) for p in pairs}


def complete_multigraph_betti(
    multiplicities: Mapping[tuple[int, int], int],
) -> tuple[int, ...]:
    """Betti vector of the per-combination clique multicomplex of a
    complete multigraph on n >= 2 nodes, given every pair's multiplicity.

    Homology sits in dimensions 0 and n - 1 only:
    beta = (1, 0, ..., 0, (-1)^(n-1) (chi - 1)), where
    chi = sum over nonempty node sets S of (-1)^(|S|-1) prod_{pairs e in S} m_e
    is the Euler characteristic counted clique by clique.  The law fails
    for graphs that are not complete.
    """
    nodes = sorted({v for pair in multiplicities for v in pair})
    n = len(nodes)
    chi = sum(
        (-1) ** (r - 1)
        * math.prod(multiplicities[pq] for pq in itertools.combinations(sub, 2))
        for r in range(1, n + 1)
        for sub in itertools.combinations(nodes, r)
    )
    return (1,) + (0,) * (n - 2) + ((-1) ** (n - 1) * (chi - 1),)


def set_partitions(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """Every partition of the items into nonempty unordered blocks, each
    block in item order.  Counts follow the Bell numbers: 1, 2, 5, 15, 52
    for 1..5 items."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for tail in set_partitions(rest):
        yield ((first,),) + tail
        for i, block in enumerate(tail):
            yield tail[:i] + ((first,) + block,) + tail[i + 1 :]


def coarsening_classes(
    m: int, judge: Callable[[tuple[tuple[int, ...], ...]], Hashable]
) -> tuple[dict, set]:
    """Brute-force Hasse diagram over the coarsenings of m start blocks.

    Every set partition of range(m), its groups sorted, is a coarsening,
    and ``judge`` maps it to its class.  Returns each class with the first
    coarsening judged into it, and the set of class pairs (finer, coarser)
    where the coarser comes from merging two groups of the finer.
    """
    parts = [tuple(sorted(p)) for p in set_partitions(tuple(range(m)))]
    judged = {p: judge(p) for p in parts}
    classes: dict = {}
    covers: set = set()
    for p in parts:
        classes.setdefault(judged[p], p)
        for i, j in itertools.combinations(range(len(p)), 2):
            rest = [g for t, g in enumerate(p) if t not in (i, j)]
            coarser = tuple(sorted(rest + [tuple(sorted(p[i] + p[j]))]))
            covers.add((judged[p], judged[coarser]))
    return classes, covers


def filtration_by_tuples(x: ChainExpr, env: ChainEnv) -> tuple[list, dict, dict, list, list]:
    """The filtration walk with blocks and nodes named by tuples, and
    layer classes by ``Multigraph`` equality over graphs merged as they
    are met: each node's blocks are read off its sorted atom tuples, and
    a successor's key is its parent's sorted class ids with two removed
    and one inserted.

    Returns the nodes as (blocks, key, level, text, merged, parent index)
    rows in (level, text) order, the class of each merged pair of classes
    and of each block met (both in the order met), each class's first
    graph by id, and the sorted covers (src, dst, "f<seam>").
    """
    ids: dict[Multigraph, int] = {}
    graphs: list[Multigraph] = []

    def class_id(g: Multigraph) -> int:
        c = ids.setdefault(g, len(graphs))
        if c == len(graphs):
            graphs.append(g)
        return c

    start = sorted(
        zip((tuple(sorted(b)) for b in x.blocks()), evaluate(x, env)), key=itemgetter(0)
    )
    block_ids = {}
    for b, g in start:
        block_ids[b] = class_id(g)
    merges: dict[tuple[int, int], int] = {}

    def successors(blocks, key):
        layer_ids = [block_ids[b] for b in blocks]
        for i, j in itertools.combinations(range(len(blocks)), 2):
            block = tuple(sorted(blocks[i] + blocks[j]))
            if block not in block_ids:
                pair = tuple(sorted((layer_ids[i], layer_ids[j])))
                if pair not in merges:
                    merged = merge(graphs[layer_ids[i]], graphs[layer_ids[j]])
                    merges[pair] = class_id(merged)
                block_ids[block] = merges[pair]
            succ = list(key)
            succ.remove(layer_ids[i])
            succ.remove(layer_ids[j])
            insort(succ, block_ids[block])
            yield i, j, block, blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :], tuple(succ)

    blocks = tuple(b for b, _ in start)
    key = tuple(sorted(block_ids[b] for b in blocks))
    found = [(blocks, key, None, (0, 0, 0))]  # (blocks, key, parent position, merged)
    seen = {key}
    for t, (blocks, key, _, _) in enumerate(found):  # breadth first: found grows
        for i, j, block, rest, succ in successors(blocks, key):
            if succ not in seen:
                seen.add(succ)
                at = bisect_right(rest, block)
                found.append((rest[:at] + (block,) + rest[at:], succ, t, (i, j, at)))

    def level(blocks):
        return sum(map(len, blocks)) - len(blocks)

    def text(blocks):
        return " | ".join(map(" . ".join, blocks))

    order = sorted(range(len(found)), key=lambda t: (level(found[t][0]), text(found[t][0])))
    position = {t: s for s, t in enumerate(order)}
    nodes = []
    for t in order:
        blocks, key, parent, merged = found[t]
        parent_index = None if parent is None else position[parent]
        nodes.append((blocks, key, level(blocks), text(blocks), merged, parent_index))
    index = {row[1]: s for s, row in enumerate(nodes)}
    covers = set()
    for s, (blocks, key, *_) in enumerate(nodes):
        for i, _, block, rest, succ in successors(blocks, key):
            seam = sum(map(len, rest[: bisect_left(rest, block)])) + len(blocks[i])
            covers.add((s, index[succ], f"f{seam}"))
    return nodes, merges, block_ids, graphs, sorted(covers)


def assignment_through_faces(x, cell) -> dict[tuple[int, int], int]:
    """The edge copy under each pair of a cell of dimension >= 1, reached
    by following its glued faces down to the 1-cells.  Fails if two
    routes reach different copies of one pair."""
    found: dict[tuple[int, int], int] = {}
    seen = set()
    stack = [cell.key]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        vertices, copy = key
        if len(vertices) == 2:
            assert found.setdefault(vertices, copy) == copy, f"{vertices} reached twice"
        else:
            stack.extend(x.find(key).faces)
    return found


def lexicographic_rank(
    assignment: Mapping[tuple[int, int], int], mult: Mapping[tuple[int, int], int]
) -> int:
    """1-based position of a pair -> copy assignment in the sorted list of
    every assignment over the same pairs (pairs in sorted order)."""
    pairs = sorted(assignment)
    every = sorted(itertools.product(*(range(1, mult[p] + 1) for p in pairs)))
    return every.index(tuple(assignment[p] for p in pairs)) + 1


def first_copy_by_colour(edges: Sequence, pair: tuple[int, int]) -> int:
    """The copy of ``pair`` that comes first in (colour, copy) order, by a
    scan of the whole edge list."""
    return min((e.color, e.copy) for e in edges if (e.u, e.v) == pair)[1]


def reference_grades(g, policy: str) -> list[tuple[list, list, tuple[list[int], ...]]]:
    """The (vertices, copies, faces) rows of each grade of a clique complex,
    built cell by cell: every clique's copy assignments by
    ``itertools.product`` (so in rank order), and each face's row looked up
    by its vertices and the restricted assignment.  Under the canonical
    policy a clique of four or more vertices has one cell, over each pair's
    first copy in (colour, copy) order."""
    mult = g.multiplicities()
    if not g.nodes:
        return []
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for clique in cliques_bruteforce(g.nodes, mult):
        by_size.setdefault(len(clique), []).append(clique)
    row_of: dict = {}  # (vertices, assignment) -> row in its grade
    grades = []
    for size in sorted(by_size):
        vertices, copies = [], []
        faces: tuple[list[int], ...] = tuple([] for _ in range(size)) if size > 1 else ()
        for clique in sorted(by_size[size]):
            pairs = list(itertools.combinations(clique, 2))
            if policy == "canonical" and size >= 4:
                first = {p: first_copy_by_colour(g.edges, p) for p in pairs}
                assignments = [tuple(first[p] for p in pairs)]
            else:
                assignments = list(itertools.product(*(range(1, mult[p] + 1) for p in pairs)))
            for copy, assignment in enumerate(assignments, start=1):
                row_of[clique, assignment] = len(vertices)
                vertices.append(clique)
                copies.append(copy)
                chosen = dict(zip(pairs, assignment))
                for rows, face in zip(faces, itertools.combinations(clique, size - 1)):
                    restricted = tuple(chosen[p] for p in itertools.combinations(face, 2))
                    rows.append(row_of[face, restricted])
        grades.append((vertices, copies, faces))
    return grades


def provenance(x: Multicomplex, g: Multigraph, h: Multigraph) -> list[list[str]]:
    """Each cell's tag in x = K_{g.h}, per dimension in row order: 'g' /
    'h' for cells made purely of one operand's material, 'shared' for
    nodes both own, 'new' for interaction-created mixed cells.  Above
    dimension 1 every pair of a cell lies in one of its faces, so the
    faces' tags decide."""
    tags = [
        [
            "shared" if v in g.nodes and v in h.nodes else "g" if v in g.nodes else "h"
            for (v,) in x.grade(0).vertices
        ],
        ["g" if copy <= g.multiplicity(p) else "h" for p, copy in x.grade(1).keys()],
    ]
    for grade in x.grades[2:]:
        below = tags[-1]
        tags.append(
            [
                sides.pop() if len(sides) == 1 else "new"
                for sides in ({below[r] for r in rows} for rows in grade.face_rows())
            ]
        )
    return tags


def tagged_ledger(g: Multigraph, h: Multigraph, d: int, policy: str) -> dict[str, int]:
    """The ledger of ``extract_params`` by its definition, on the built
    K_{g.h}: add the base columns silently, then classify the arriving
    ones one at a time (rank grew: p, it did not: n)."""
    km = clique_multicomplex(merge(g, h), policy)
    tags = provenance(km, g, h) + [[]] * (d + 2)

    def replay(e: int, base: set[str]) -> tuple[int, int]:
        basis = Gf2Basis()
        arriving = []
        for tag, col in zip(tags[e], boundary_matrix(km, e).columns):
            if tag in base:
                basis.add(col)
            else:
                arriving.append(col)
        grew = [basis.add(col) for col in arriving]
        return grew.count(False), grew.count(True)

    n_g, p_g = replay(d, {"h", "shared"})
    n_h, p_h = replay(d, {"g", "shared"})
    _, cl = replay(d + 1, {"g", "h", "shared"})
    return {"n_g": n_g, "p_g": p_g, "n_h": n_h, "p_h": p_h, "cl": cl}


def complex_law_witnesses(graphs: Sequence[Multigraph], policy: str) -> list[str]:
    """The merge-monoid and functoriality witnesses ``check-laws`` reports,
    found on built complexes: every pair and triple of the graphs' clique
    complexes merged by ``complex_merge`` and compared through
    ``canonical_form``, the unit being the empty complex."""
    out: list[str] = []
    complexes = [clique_multicomplex(g, policy) for g in graphs]
    palette = graphs[0].palette if graphs else frozenset()
    unit = Multicomplex.empty(palette, policy)
    for (i, a), (j, b) in itertools.product(enumerate(complexes), repeat=2):
        if complex_merge(a, b) != complex_merge(b, a):
            out.append(f"complex_merge commutativity: graphs #{i}, #{j}")
        expected = clique_multicomplex(merge(graphs[i], graphs[j]), policy)
        if complex_merge(a, b) != expected:
            out.append(f"functoriality: graphs #{i}, #{j}")
    for i, a in enumerate(complexes):
        if complex_merge(a, unit) != a or complex_merge(unit, a) != a:
            out.append(f"complex_merge unit: graph #{i}")
    for (i, a), (j, b), (l, c) in itertools.product(enumerate(complexes), repeat=3):
        if complex_merge(complex_merge(a, b), c) != complex_merge(a, complex_merge(b, c)):
            out.append(f"complex_merge associativity: graphs #{i}, #{j}, #{l}")
    return out


def random_disjoint_connected(
    rng: random.Random,
    count: int,
    size: int = 3,
    palette: Sequence[str] = ("black",),
) -> list[Multigraph]:
    """Vertex-disjoint connected multigraphs (a random spanning tree plus
    optional extra edges), for component-law sweeps."""
    out = []
    base = 0
    for _ in range(count):
        nodes = list(range(base + 1, base + size + 1))
        base += size
        rows = []
        for idx in range(1, len(nodes)):
            anchor = rng.choice(nodes[:idx])
            rows.append((anchor, nodes[idx], rng.choice(list(palette))))
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if rng.random() < 0.3:
                    rows.append((nodes[i], nodes[j], rng.choice(list(palette))))
        out.append(Multigraph.build(nodes, rows, palette))
    return out
