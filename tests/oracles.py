"""Independent reference implementations used to pin expected values.

Each oracle recomputes a quantity by a method unrelated to the one the
package uses (exhaustive span closure, union-find, brute-force subset
scans), so agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence


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


def euler_from_counts(cell_counts: Sequence[int]) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(cell_counts))


def copies_by_pair_scan(edges: Sequence) -> dict[tuple[int, int], tuple]:
    """Edge copies grouped by endpoint pair, pairs sorted, by scanning the
    whole edge list once for every pair."""
    pairs = sorted({(e.u, e.v) for e in edges})
    return {p: tuple(e for e in edges if (e.u, e.v) == p) for p in pairs}


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
