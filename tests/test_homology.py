"""GF(2) rank, boundary matrices, Betti numbers, beta_0 as a component
count, and the closed form that reads Betti numbers off a graph."""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from collections import Counter
from collections.abc import Iterator, Set
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multihom import (
    CANONICAL,
    PER_COMBINATION,
    POLICIES,
    CellBudgetExceeded,
    Gf2Basis,
    Multicell,
    Multicomplex,
    Multigraph,
    betti,
    betti_sum,
    boundary_matrix,
    boundary_squares_to_zero,
    cell_budget,
    clique_betti,
    clique_multicomplex,
    euler_characteristic,
    replay_betti,
    tensor,
)
from multihom import filtration, homology, mcomplex
from multihom.cli import EXIT_OK, main
from multihom.randgen import random_multigraph

from conftest import (
    PALETTE,
    REPO_ROOT,
    complete_split_multigraphs,
    multigraphs,
    peelable_multigraphs,
)
from test_mcomplex import simple_triangle_cells

from oracles import (
    clique_betti_bruteforce,
    complete_multigraph_betti,
    components_union_find,
    euler_from_counts,
    rank_gf2_span,
)


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


def basis_rank(columns) -> int:
    basis = Gf2Basis()
    for col in columns:
        basis.add(col)
    return basis.rank


def components(g: Multigraph) -> int:
    return components_union_find(g.nodes, g.pairs())


def filled_triangle():
    return clique_multicomplex(
        G([1, 2, 3], [(1, 2, "red"), (1, 3, "red"), (2, 3, "red")])
    )


def hollow_square():
    return clique_multicomplex(
        G([1, 2, 3, 4], [(1, 2, "red"), (2, 4, "red"), (3, 4, "red"), (1, 3, "red")])
    )


def pillow():
    cells, coloring = simple_triangle_cells(copies_of_top=2)
    return Multicomplex.from_cells(("black",), cells, coloring)


@st.composite
def clique_complexes(draw):
    """A clique multicomplex under either policy.  Per-combination draws
    stay within five nodes and multiplicity 2, so their cell counts stay
    small (six nodes at multiplicity 3 could reach 3^15 top cells)."""
    policy = draw(st.sampled_from(POLICIES))
    small = policy == PER_COMBINATION
    g = draw(multigraphs(max_nodes=5, max_mult=2) if small else multigraphs())
    return clique_multicomplex(g, policy)


@st.composite
def cell_prefixes(draw):
    """A face-closed prefix of a clique complex's cells in (dim, vertices,
    copy) order, assembled by hand: most prefixes are no clique complex."""
    x = draw(clique_complexes())
    cells = sorted(x.all_cells(), key=lambda c: (c.dim, c.vertices, c.copy))
    k = draw(st.integers(0, len(cells)))
    return Multicomplex.from_cells(
        x.palette, cells[:k], x.coloring, x.policy, validate=False
    )


@st.composite
def complete_multigraphs(draw, top_cells: int = 2048):
    """Complete multigraphs on 3-5 nodes, pair multiplicities 1-3 drawn in
    pair order, each capped so the product (the number of top cells under
    per-combination) stays within ``top_cells``."""
    n = draw(st.integers(3, 5))
    rows, product = [], 1
    for u, v in itertools.combinations(range(1, n + 1), 2):
        mult = draw(st.integers(1, min(3, top_cells // product)))
        product *= mult
        rows += [(u, v, draw(st.sampled_from(PALETTE))) for _ in range(mult)]
    return G(range(1, n + 1), rows)


# -- GF(2) rank ------------------------------------------------------------------


class TestRank:
    def test_identity_rank(self):
        columns = [1 << i for i in range(5)]
        assert basis_rank(columns) == rank_gf2_span(columns) == 5

    def test_dependent_columns(self):
        columns = [0b011, 0b101, 0b110]  # third = xor of first two
        assert basis_rank(columns) == rank_gf2_span(columns) == 2

    def test_zero_columns_ignored(self):
        columns = [0, 0, 0b1]
        assert basis_rank(columns) == rank_gf2_span(columns) == 1

    def test_empty(self):
        assert basis_rank([]) == rank_gf2_span([]) == 0

    def test_basis_reports_membership(self):
        basis = Gf2Basis()
        assert basis.add(0b011)
        assert basis.add(0b101)
        assert not basis.add(0b110)  # already in the span
        assert basis.rank == 2
        assert basis.reduce(0b110) == 0

    @given(st.lists(st.integers(0, (1 << 10) - 1), max_size=10))
    def test_matches_span_oracle(self, columns):
        assert basis_rank(columns) == rank_gf2_span(columns)


# -- boundary matrices ------------------------------------------------------------


class TestBoundaryMatrix:
    def test_triangle_d1(self):
        m = boundary_matrix(filled_triangle(), 1)
        assert len(m.columns) == 3
        assert all(col < 1 << 3 and col.bit_count() == 2 for col in m.columns)
        assert m.rank() == rank_gf2_span(m.columns) == 2

    def test_pillow_d2_columns_equal(self):
        m = boundary_matrix(pillow(), 2)
        assert len(m.columns) == 2
        assert m.columns[0] == m.columns[1] == 0b111
        assert m.rank() == 1

    def test_dimension_above_complex_is_empty(self):
        m = boundary_matrix(filled_triangle(), 3)
        assert m.columns == ()
        assert m.rank() == 0

    def test_rejects_dimension_zero(self):
        with pytest.raises(Exception):
            boundary_matrix(filled_triangle(), 0)


# -- Betti vectors -----------------------------------------------------------------


class TestBetti:
    def test_filled_triangle(self):
        assert betti(filled_triangle()) == (1, 0, 0)

    def test_hollow_triangle(self):
        # hollow = the three edges without the filling 2-cell; such a
        # complex is hand-assembled (a clique complex always fills it)
        cells, coloring = simple_triangle_cells(copies_of_top=0)
        x = Multicomplex.from_cells(("black",), cells, coloring)
        assert betti(x) == (1, 1)

    def test_hollow_square(self):
        assert betti(hollow_square()) == (1, 1)

    def test_two_disjoint_components(self):
        g = G([1, 2, 3, 4], [(1, 2, "red"), (3, 4, "red")])
        assert betti(clique_multicomplex(g))[0] == 2

    def test_two_independent_cycles_one_component(self):
        # two unfilled squares sharing the edge (2,5)
        rows = [
            (1, 2, "red"),
            (1, 4, "red"),
            (4, 5, "red"),
            (2, 5, "red"),
            (2, 3, "red"),
            (3, 6, "red"),
            (5, 6, "red"),
        ]
        x = clique_multicomplex(G([1, 2, 3, 4, 5, 6], rows))
        assert betti(x) == (1, 2)

    def test_pillow(self):
        assert betti(pillow()) == (1, 0, 1)

    def test_doubled_edge_is_a_one_hole(self):
        x = clique_multicomplex(G([1, 2], [(1, 2, "red", 2)]))
        assert betti(x) == (1, 1)

    def test_empty_complex(self):
        assert betti(Multicomplex.empty(PALETTE)) == ()

    def test_betti_of_cells_matches_complex(self):
        x = filled_triangle()
        rebuilt = Multicomplex.from_cells(
            x.palette, x.all_cells(), x.coloring, validate=False
        )
        assert betti(rebuilt) == betti(x)

    def test_betti_sum_pads(self):
        assert betti_sum([(1, 0, 0), (1, 1)]) == (2, 1, 0)
        assert betti_sum([]) == ()


# -- ranks from boundary columns with clearing --------------------------------------


class TestClearing:
    """``betti`` reduces boundary columns from the top dimension down and
    skips the columns cleared by the dimension above; ``replay_betti``
    adds every boundary column one by one.  The two must agree everywhere."""

    @given(clique_complexes())
    def test_matches_replay_on_clique_complexes(self, x):
        assert betti(x) == replay_betti(x)

    @given(cell_prefixes())
    def test_matches_replay_on_cell_prefixes(self, x):
        assert betti(x) == replay_betti(x)

    @given(complete_multigraphs())
    def test_complete_multigraph_closed_form(self, g):
        x = clique_multicomplex(g, PER_COMBINATION)
        expected = complete_multigraph_betti(
            {pair: g.multiplicity(pair) for pair in g.pairs()}
        )
        assert betti(x) == expected
        assert replay_betti(x) == expected
        assert clique_betti(g, PER_COMBINATION) == expected

    def test_doubled_k6_closed_form_in_seconds(self):
        # cells per dimension 6/30/160/960/6,144/32,768; reducing the
        # 32,768 columns of the top boundary one by one takes about 25 s
        nodes = range(1, 7)
        pairs = list(itertools.combinations(nodes, 2))
        g = G(nodes, [(u, v, "red", 2) for u, v in pairs])
        x = clique_multicomplex(g, PER_COMBINATION)
        assert [x.cell_count(d) for d in range(6)] == [6, 30, 160, 960, 6144, 32768]
        start = time.perf_counter()
        beta = betti(x)
        elapsed = time.perf_counter() - start
        assert beta == (1, 0, 0, 0, 0, 27449)
        assert beta == complete_multigraph_betti(dict.fromkeys(pairs, 2))
        assert elapsed < 5.0, f"betti took {elapsed:.1f} s"
        assert clique_betti(g, PER_COMBINATION) == beta


def sparse_graph(rng: random.Random) -> Multigraph:
    """20-40 nodes, each pair an edge with probability 0.1-0.2, one or two
    copies per edge: sparse enough that columns often share a highest
    set bit."""
    nodes = range(1, rng.randint(20, 40) + 1)
    p = rng.uniform(0.1, 0.2)
    rows = [
        (u, v, rng.choice(PALETTE))
        for u, v in itertools.combinations(nodes, 2)
        if rng.random() < p
        for _ in range(rng.randint(1, 2))
    ]
    return G(nodes, rows)


def band_graph(n: int, extra: int, seed: int) -> Multigraph:
    """Nodes 1..n, each joined to its next three, plus ``extra`` random
    pairs, each pair of one or two copies."""
    rng = random.Random(seed)
    pairs = {(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + 3, n) + 1)}
    while len(pairs) < 3 * n - 6 + extra:
        pairs.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    rows = [(u, v, rng.choice(PALETTE), rng.randint(1, 2)) for u, v in sorted(pairs)]
    return G(range(1, n + 1), rows)


def dense_graph(n: int, seed: int) -> Multigraph:
    """G(n, 1/2) on nodes 1..n, each pair of one or two copies."""
    rng = random.Random(seed)
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return G(range(1, n + 1), [(u, v, rng.choice(PALETTE), rng.randint(1, 2)) for u, v in pairs])


def face_named_twice() -> Multicomplex:
    """1-cells a0 and a join 1 and 2; b, on (1, 3), is glued to vertex 1
    at both ends, so it bounds nothing.  The 2-cell c0 is glued to b
    three times and c to a, a and b, so both bound b alone."""
    v = [((i,), 1) for i in (1, 2, 3)]
    a0, a, b = ((1, 2), 1), ((1, 2), 2), ((1, 3), 1)
    cells = [Multicell(*key) for key in v] + [
        Multicell(*a0, faces=(v[0], v[1])),
        Multicell(*a, faces=(v[0], v[1])),
        Multicell(*b, faces=(v[0], v[0])),
        Multicell((1, 2, 3), 1, faces=(b, b, b)),
        Multicell((1, 2, 3), 2, faces=(a, a, b)),
    ]
    return Multicomplex.from_cells(
        PALETTE, cells, dict.fromkeys((a0, a, b), PALETTE[0]), validate=False
    )


def repeated_face_below_a_3_cell() -> Multicomplex:
    """a0, a and a1 join 1 and 2, and b is glued to vertex 1 at both ends.
    c0 and c2 both bound b (c0 is glued to it three times), and c1 and c3
    bound the cycles a0 + a + b and a0 + a1 + b.  The 3-cell t is glued
    to c1 twice, so it bounds the cycle c0 + c2."""
    v = [((i,), 1) for i in (1, 2, 3)]
    a0, a, a1, b = ((1, 2), 1), ((1, 2), 2), ((1, 2), 3), ((1, 3), 1)
    c0, c1, c2, c3 = (((1, 2, 3), i) for i in (1, 2, 3, 4))
    cells = [Multicell(*key) for key in v] + [
        *(Multicell(*e, faces=(v[0], v[1])) for e in (a0, a, a1)),
        Multicell(*b, faces=(v[0], v[0])),
        Multicell(*c0, faces=(b, b, b)),
        Multicell(*c1, faces=(a0, a, b)),
        Multicell(*c2, faces=(a, a, b)),
        Multicell(*c3, faces=(a0, a1, b)),
        Multicell((1, 2, 3, 4), 1, faces=(c0, c2, c1, c1)),
    ]
    return Multicomplex.from_cells(
        PALETTE, cells, dict.fromkeys((a0, a, a1, b), PALETTE[0]), validate=False
    )


@contextmanager
def recorded_reductions() -> Iterator[list[tuple[list[int], Set[int]]]]:
    """Within the block, ``homology._reduce`` lists each call's columns
    and the pivots it found, in call order: the top dimension first."""
    calls = []
    reduce = homology._reduce

    def recorded(columns):
        columns = list(columns)
        pivots = reduce(columns)
        calls.append((columns, pivots))
        return pivots

    with mock.patch.object(homology, "_reduce", recorded):
        yield calls


@pytest.fixture
def reductions() -> Iterator[list[tuple[list[int], Set[int]]]]:
    with recorded_reductions() as calls:
        yield calls


def shares_a_pivot(columns: list[int]) -> bool:
    """Whether two nonzero columns share a highest set bit, so that one
    of them must be reduced."""
    tops = [col.bit_length() for col in columns if col]
    return len(set(tops)) < len(tops)


def column_pass(x: Multicomplex) -> list[tuple[int, int]]:
    """For each boundary matrix of dimension d >= 2, from the top down:
    the rank ``betti`` reduces, and how many of its columns it skips."""
    with recorded_reductions() as calls:
        betti(x)
    tops = range(x.dimension, 1, -1)
    return [(len(pv), x.cell_count(d) - len(columns)) for d, (columns, pv) in zip(tops, calls)]


def every_column(x: Multicomplex) -> list[tuple[int, int]]:
    """For each boundary matrix of dimension d >= 2, from the top down:
    the rank of all its columns, and the rank one dimension up, which is
    how many columns clearing can skip."""
    ranks = [basis_rank(boundary_matrix(x, d).columns) for d in range(x.dimension + 1, 1, -1)]
    return list(zip(ranks[1:], ranks))


class TestApparentPivots:
    """``betti`` keeps a column unreduced while its highest set bit is no
    pivot yet, reduces it against the stored columns when two share one,
    and skips the columns whose index is a pivot one dimension up."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_replay_where_rows_share_a_pivot(self, policy, reductions):
        rng = random.Random(policy)
        for _ in range(20):
            g = sparse_graph(rng)
            x = clique_multicomplex(g, policy)
            beta = betti(x)
            assert beta == replay_betti(x)
            assert beta[0] == components(g)
        assert any(
            shares_a_pivot(columns) for columns, _ in reductions
        ), "no dimension had two columns share a highest set bit"

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_doubled_complete_graphs_build_no_rows(self, n, policy, reductions):
        # only columns are built: each dimension reduces the columns whose
        # index is no pivot one up, and they reach the rank of all of them
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        x = clique_multicomplex(G(range(1, n + 1), [(u, v, "red", 2) for u, v in pairs]), policy)
        beta = betti(x)
        above: Set[int] = set()
        for d, (columns, pivots) in zip(range(x.dimension, 1, -1), reductions):
            every = boundary_matrix(x, d).columns
            assert columns == [col for j, col in enumerate(every) if j not in above]
            assert len(pivots) == basis_rank(every)
            above = pivots
        if policy == PER_COMBINATION:
            assert beta == complete_multigraph_betti(dict.fromkeys(pairs, 2))
        else:
            assert beta == replay_betti(x)

    def test_a_face_named_twice_cancels(self):
        # c is a's only coface, but the two incidences cancel
        x = face_named_twice()
        assert boundary_squares_to_zero(x)
        assert betti(x) == replay_betti(x) == (2, 1, 1)

    def test_repeated_face_pivots_clear_the_right_rows_above(self):
        # t's column is c0 + c2 once the two incidences of c1 cancel, so its
        # pivot clears c2, whose column equals c0's: beta_2 = beta_3 = 0
        x = repeated_face_below_a_3_cell()
        assert boundary_squares_to_zero(x)
        assert betti(x) == replay_betti(x) == (2, 0, 0, 0)


class TestColumnPass:
    """For d >= 2 ``betti`` skips as many columns of each boundary matrix
    as the rank one dimension up, and the columns it keeps have the rank
    of all of them; and on the shapes of the known rank cliffs, at a few
    hundred cells, the Betti numbers match ``replay_betti``."""

    @pytest.mark.parametrize("policy", POLICIES)
    @given(g=multigraphs(max_nodes=5, max_mult=2))
    def test_ranks_match_every_column(self, policy, g):
        x = clique_multicomplex(g, policy)
        assert column_pass(x) == every_column(x)

    @pytest.mark.parametrize(
        "make", [face_named_twice, repeated_face_below_a_3_cell, pillow],
        ids=["face-named-twice", "repeated-face-below-a-3-cell", "pillow"],
    )
    def test_ranks_match_every_column_on_hand_built_complexes(self, make):
        x = make()
        assert column_pass(x) == every_column(x)

    @pytest.mark.parametrize(
        "g, policy, expected",
        [
            (band_graph(20, 5, 0), CANONICAL, (1, 4, 99, 0, 0)),
            (band_graph(20, 5, 0), PER_COMBINATION, (1, 4, 0, 37, 59)),
            (dense_graph(15, 1), CANONICAL, (1, 0, 102, 0, 0)),
            (dense_graph(15, 1), PER_COMBINATION, (1, 0, 34, 17, 65)),
        ],
        ids=["band-canonical", "band-per-combination", "dense-canonical", "dense-per-combination"],
    )
    def test_pinned_band_and_dense_graphs(self, g, policy, expected):
        x = clique_multicomplex(g, policy)
        assert 250 <= len(x.all_cells()) <= 700
        assert clique_betti(g, policy) == betti(x) == replay_betti(x) == expected


# -- Betti numbers off the graph ------------------------------------------------------


def rank_path(g: Multigraph, policy: str, dim: int | None):
    """What ``clique_betti`` must give: ``betti`` on the complex, or on
    its (dim+1)-skeleton cut to dim + 1 entries."""
    top = None if dim is None else dim + 1
    return betti(clique_multicomplex(g, policy, top))[:top]


def doubled(n: int) -> Multigraph:
    """K_n with a red and a black copy on every pair."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return G(range(1, n + 1), [(u, v, c) for u, v in pairs for c in ("red", "black")])


K4_RED = [(u, v, "red") for u, v in itertools.combinations(range(1, 5), 2)]


class TestCliqueBetti:
    """``clique_betti`` under ``canonical`` reads S(g) and the pair
    multiplicities and builds no cell; the rank path is its oracle, vector
    length included."""

    @pytest.mark.parametrize("policy", POLICIES)
    @given(seed=st.integers(0, 2**32 - 1), colours=st.integers(2, 3))
    def test_matches_the_rank_path(self, policy, seed, colours):
        # per-combination draws stay within six nodes and multiplicity 2
        rng = random.Random(seed)
        small = policy == PER_COMBINATION
        g = random_multigraph(rng, 6 if small else 9, 2 if small else 3, PALETTE[:colours])
        for dim in (None, 0, 1, 2):
            assert clique_betti(g, policy, dim) == rank_path(g, policy, dim), dim

    @given(seed=st.integers(0, 2**32 - 1), colours=st.integers(2, 3))
    def test_matches_an_oracle_sharing_no_rank_code(self, seed, colours):
        # subset-scanned cliques and span-closure ranks of S(g)
        g = random_multigraph(random.Random(seed), 7, 3, PALETTE[:colours])
        assert clique_betti(g, CANONICAL) == clique_betti_bruteforce(g)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (Multigraph.empty(PALETTE), ()),
            (G([2, 5, 9], []), (3,)),
            (doubled(7), (1, 0, 224, 0, 0, 0, 0)),
            (G(range(1, 5), K4_RED + [(1, 2, "black")]), (1, 0, 1, 0)),
        ],
        ids=["nodeless", "edgeless", "doubled-K7", "K4-and-a-copy"],
    )
    @pytest.mark.parametrize("dim", [None, 0, 1, 2])
    def test_edge_cases(self, g, expected, dim):
        top = None if dim is None else dim + 1
        assert clique_betti(g, CANONICAL, dim) == expected[:top] == rank_path(g, CANONICAL, dim)

    @pytest.mark.parametrize("dim", [None, 1, 2])
    def test_refused_as_the_builder_refuses(self, dim):
        # a doubled K5 with a tail: cells at every depth, loops and voids
        k5 = [(u, v, "red", 2) for u, v in itertools.combinations(range(1, 6), 2)]
        g = G(range(1, 8), k5 + [(5, 6, "black"), (6, 7, "blue", 3)])
        top = None if dim is None else dim + 1
        for policy in POLICIES:
            total = len(clique_multicomplex(g, policy, top).all_cells())
            with cell_budget(total - 1):
                with pytest.raises(CellBudgetExceeded) as built:
                    clique_multicomplex(g, policy, top)
                with pytest.raises(CellBudgetExceeded) as read:
                    clique_betti(g, policy, dim)
            assert str(read.value) == str(built.value)
            with cell_budget(total):
                assert clique_betti(g, policy, dim) == rank_path(g, policy, dim)

    @pytest.mark.parametrize(
        "g", [Multigraph.empty(PALETTE), doubled(3)], ids=["nodeless", "doubled-K3"]
    )
    @pytest.mark.parametrize("dim", [None, 0, 1, 2])
    def test_an_unknown_policy_is_refused_at_every_depth(self, g, dim, monkeypatch):
        # refused as the builder refuses it, before a component is counted
        with pytest.raises(ValueError) as built:
            clique_multicomplex(g, "bogus")

        def spy(*args, **kwargs):
            raise AssertionError("the Betti numbers were computed")

        for name in ("betti0_of", "clique_cells", "_flag_betti", "_ranked", "_forest"):
            monkeypatch.setattr(homology, name, spy)
        monkeypatch.setattr(mcomplex, "_face_rows", spy)
        with pytest.raises(ValueError) as read:
            clique_betti(g, "bogus", dim)
        assert str(read.value) == str(built.value)

    def test_a_negative_depth_is_refused(self):
        with pytest.raises(ValueError):
            clique_betti(doubled(3), CANONICAL, -1)

    def test_betti_verb_builds_no_complex_under_canonical(self, monkeypatch, capsys):
        # nor under per-combination, whose ranks are those of flag complexes
        def spy(*args, **kwargs):
            raise AssertionError("a complex was built or reduced")

        for module in (mcomplex, filtration):
            monkeypatch.setattr(module, "clique_multicomplex", spy)
        monkeypatch.setattr(homology, "betti", spy)
        argv = ["--workspace", str(REPO_ROOT / "tests" / "data" / "sharing_k5.json")]
        for policy in POLICIES:
            assert main([*argv, "--policy", policy, "betti", "G . K | H . L . M"]) == EXIT_OK
            assert "betti (" in capsys.readouterr().out

    def test_no_verb_ranks_a_built_complex(self, monkeypatch, capsys):
        # every verb holds its graphs and reads Betti numbers off them;
        # ``betti`` is the reference for built complexes, not a verb's path
        real, called = homology.betti, []

        def spy(x):
            called.append(x)
            return real(x)

        for module in [m for k, m in sys.modules.items() if k.startswith("multihom")]:
            if getattr(module, "betti", None) is real:
                monkeypatch.setattr(module, "betti", spy)
        argv = ["--workspace", str(REPO_ROOT / "tests" / "data" / "sharing_k5.json")]
        verbs = [
            ["merge", "G", "H", "--emit-complex"],
            ["--json", "merge", "G", "H", "--emit-complex"],
            ["--json", "filtrate"],
            ["filtrate", "--dot"],
            ["filtrate", "--dim", "1"],
            ["betti"],
            ["incremental", "G", "H"],
            ["fuzz", "--count", "3"],
            ["check-laws", "--k", "2"],
        ]
        for policy in POLICIES:
            for verb in verbs:
                assert main([*argv, "--policy", policy, *verb]) == EXIT_OK, verb
                capsys.readouterr()
        assert called == []


class TestCofacesByArithmetic:
    """Under ``per-combination`` ``clique_betti`` ranks no cell of the
    complex: every rank it takes is one of a flag complex, and no face
    row is built."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dense=st.booleans(),
        dim=st.sampled_from([None, 1, 2, 3]),
    )
    def test_matches_replay_on_the_built_complex(self, seed, dense, dim):
        # replay_betti shares no rank code with the route; dense draws
        # reach pieces with a triangle and no node linked to all others
        rng = random.Random(seed)
        g = dense_multigraph(rng) if dense else random_multigraph(rng, 7, 3, PALETTE)
        top = None if dim is None else dim + 1
        with cell_budget(3_000):
            try:
                with no_cell_ranks():
                    beta = clique_betti(g, PER_COMBINATION, dim)
            except CellBudgetExceeded:
                with pytest.raises(CellBudgetExceeded):
                    clique_multicomplex(g, PER_COMBINATION, top)
                return
            assert beta == replay_betti(clique_multicomplex(g, PER_COMBINATION, top))[:top]


def dense_multigraph(rng: random.Random) -> Multigraph:
    """A graph on 1-7 nodes whose pairs are each linked with a drawn
    probability of 0.5-0.97, by 1-3 copies."""
    n, p = rng.randint(1, 7), rng.uniform(0.5, 0.97)
    pairs = [pair for pair in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return G(range(1, n + 1), [(u, v, rng.choice(PALETTE), rng.randint(1, 3)) for u, v in pairs])


def read_or_refusal(read, *args):
    """``read(*args)``, or the message of its ``CellBudgetExceeded``."""
    try:
        return read(*args)
    except CellBudgetExceeded as refused:
        return str(refused)


def replayed(g: Multigraph, top: int | None):
    return replay_betti(clique_multicomplex(g, PER_COMBINATION, top))[:top]


@st.composite
def near_misses(draw):
    """A complete split multigraph on 3-6 nodes with one pair added among
    three or more nodes outside U, or with two or more nodes outside U
    and one pair at a node of U dropped: complete split no more.  (With
    fewer nodes outside U, either can leave the graph complete split.)"""
    n = draw(st.integers(3, 6))
    nodes = draw(st.permutations(range(1, n + 1)))
    add = draw(st.booleans())
    linked = nodes[: draw(st.integers(0, n - 3) if add else st.integers(1, n - 2))]
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if set(p) & set(linked)]
    if add:
        pairs.append(tuple(sorted(nodes[-2:])))
    else:  # nodes[1] is in U, or one of two or more nodes outside it
        pairs.remove(tuple(sorted(nodes[:2])))
    return G(nodes, [(u, v, "red", draw(st.integers(1, 3))) for u, v in pairs])


def ranked_nothing(*args, **kwargs):
    raise AssertionError("a graph read without a rank was ranked")


def ranked_a_cell(*args, **kwargs):
    raise AssertionError("a face row was built, or a built complex ranked")


@contextmanager
def no_cell_ranks() -> Iterator[None]:
    """Within the block, building face rows or ranking a built complex
    raises, in every ``multihom`` module that binds them."""
    reals = {"_face_rows": mcomplex._face_rows, "betti": homology.betti}
    with ExitStack() as stack:
        for module in [m for k, m in sys.modules.items() if k.startswith("multihom")]:
            for name, real in reals.items():
                if getattr(module, name, None) is real:
                    stack.enter_context(mock.patch.object(module, name, ranked_a_cell))
        yield


@contextmanager
def no_ranks() -> Iterator[None]:
    """Within the block, any rank raises: of a flag complex, or of cells."""
    names = dict.fromkeys(("_flag_betti", "_ranked", "_forest"), ranked_nothing)
    with mock.patch.multiple(homology, **names), no_cell_ranks():
        yield


DOUBLED_K5_LESS_1_2 = [
    (u, v, "red", 2) for u, v in itertools.combinations(range(1, 6), 2) if (u, v) != (1, 2)
]


@contextmanager
def paths_taken() -> Iterator[set[str]]:
    """The ``per-combination`` paths ``clique_betti`` takes in the block
    besides the complete split one: "flattened" where a piece's nodes
    are flattened and its flag complex ranked, else "peeled"."""
    taken: set[str] = set()
    peel = homology._peeled

    def peeled(*args):
        with mock.patch.object(homology, "_flag_betti", wraps=homology._flag_betti) as flag:
            beta = peel(*args)
        taken.add("flattened" if flag.called else "peeled")
        return beta

    with mock.patch.object(homology, "_peeled", peeled):
        yield taken


class TestCompleteSplitGraphs:
    """Under ``per-combination`` the complex of a complete split graph has
    its reduced homology in one degree, so ``clique_betti`` reads it off
    the cell counts and ranks nothing; every other graph is peeled node by
    node, or flattened where it does not peel (``TestPeeledGraphs``)."""

    @given(complete_split_multigraphs())
    def test_match_replay_at_every_depth_and_rank_nothing(self, g):
        for dim in (None, *range(1, len(g.nodes) + 1)):
            top = None if dim is None else dim + 1
            with cell_budget(3_000):
                expected = read_or_refusal(replayed, g, top)
                with no_ranks():
                    assert read_or_refusal(clique_betti, g, PER_COMBINATION, dim) == expected, dim

    @given(near_misses())
    def test_near_misses_are_ranked_or_peeled(self, g):
        with cell_budget(3_000):
            expected = read_or_refusal(replayed, g, None)
            with paths_taken() as taken:
                assert read_or_refusal(clique_betti, g, PER_COMBINATION) == expected
        assert len(taken) == 1 or isinstance(expected, str)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (doubled(6), (1, 0, 0, 0, 0, 27449)),
            (G(range(1, 6), DOUBLED_K5_LESS_1_2), (1, 0, 0, 86)),
            (G([4], []), (1,)),
            (G([2, 5, 9], []), (3,)),
        ],
        ids=["doubled-K6", "doubled-K5-less-a-pair", "one-node", "three-nodes"],
    )
    def test_pinned_values(self, g, expected):
        with no_ranks():
            assert clique_betti(g, PER_COMBINATION) == expected
            if len(expected) > 2:  # the skeleton that stops just below degree r
                assert clique_betti(g, PER_COMBINATION, len(expected) - 2) == expected[:-1]


def every_graph(n: int, max_mult: int) -> Iterator[Multigraph]:
    """Every multigraph on nodes 1..n with 0..``max_mult`` copies per pair."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        yield G(range(1, n + 1), [(u, v, "red", m) for (u, v), m in zip(pairs, mults) if m])


def doubled_k6_less(*missing: tuple[int, int]) -> Multigraph:
    pairs = set(itertools.combinations(range(1, 7), 2)) - set(missing)
    return G(range(1, 7), [(u, v, "red", 2) for u, v in sorted(pairs)])


def less_a_matching(n: int, mult: int) -> Multigraph:
    """K_n less the pairs (1, 2), (3, 4), ..., with ``mult`` copies of
    each other pair: an octahedron at n = 6."""
    matching = {(u, u + 1) for u in range(1, n, 2)}
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in matching]
    return G(range(1, n + 1), [(u, v, "red", mult) for u, v in pairs])


class TestPeeledGraphs:
    """Under ``per-combination`` ``clique_betti`` peels a graph node by
    node: pieces add, a node linked to all others splits the complex into
    two smaller ones, and a connected triangle-free piece is a graph.  A
    connected piece with a triangle and no node linked to all others is
    flattened node by node, and then its flag complex is ranked."""

    @given(peelable_multigraphs())
    def test_match_replay_at_every_depth_and_rank_nothing(self, g):
        for dim in (None, *range(1, len(g.nodes) + 1)):
            top = None if dim is None else dim + 1
            with cell_budget(3_000):
                expected = read_or_refusal(replayed, g, top)
                with no_ranks():
                    assert read_or_refusal(clique_betti, g, PER_COMBINATION, dim) == expected, dim

    @pytest.mark.parametrize(
        "g, expected",
        [
            (doubled_k6_less((1, 2), (1, 3)), (1, 0, 0, 45, 768)),
            (doubled_k6_less((1, 2), (3, 4)), (1, 0, 0, 181)),
        ],
        ids=["doubled-K6-less-a-path", "doubled-K6-less-a-matching-pair"],
    )
    def test_pinned_values(self, g, expected):
        with no_ranks():
            assert clique_betti(g, PER_COMBINATION) == expected
            assert clique_betti(g, PER_COMBINATION, len(expected) - 2) == expected[:-1]

    def test_an_octahedron_is_ranked(self):
        # connected, with triangles, and no node linked to all others: its
        # nodes are flattened and its flag complex is ranked
        g = doubled_k6_less((1, 2), (3, 4), (5, 6))
        with no_cell_ranks(), paths_taken() as taken:
            assert clique_betti(g, PER_COMBINATION) == (1, 0, 45)
        assert taken == {"flattened"}

    @pytest.mark.parametrize(
        "g, expected",
        [
            (less_a_matching(6, 3), (1, 0, 185)),
            (less_a_matching(10, 3), (1, 0, 0, 0, 1833297)),
        ],
        ids=["tripled-octahedron", "tripled-K10-less-a-perfect-matching"],
    )
    def test_pinned_flattened_values(self, g, expected):
        # 1,950,178 cells for K10: read off flag complexes in milliseconds
        with cell_budget(3_000_000), no_cell_ranks(), paths_taken() as taken:
            assert clique_betti(g, PER_COMBINATION) == expected
        assert taken == {"flattened"}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_depth_read_meets_no_clique_it_did_not_count(self, dim):
        # K10 less a perfect matching, one copy a pair, is the boundary of a
        # 5-cross-polytope: k of its 5 antipodal pairs give C(5, k) 2^k cliques
        # of k nodes.  The (dim+1)-skeleton's cells fill the budget, and the
        # read ranks no clique of more than dim + 2 nodes.
        cells = sum(math.comb(5, k) * 2**k for k in range(1, dim + 3))
        sizes, real = [], homology._higher_cliques

        def spied(*args):
            for tau in real(*args):
                sizes.append(len(tau))
                yield tau

        with cell_budget(cells), mock.patch.object(homology, "_higher_cliques", spied):
            assert clique_betti(less_a_matching(10, 1), PER_COMBINATION, dim) == (1,) + (0,) * dim
        assert sizes and max(sizes) == dim + 2

    def test_every_small_graph_matches_replay(self):
        # on nodes {1..4} with 0-2 copies per pair, and on {1..5} with 0-1
        paths = Counter()
        for g in itertools.chain(every_graph(4, 2), every_graph(5, 1)):
            expected = replay_betti(clique_multicomplex(g, PER_COMBINATION))
            with no_cell_ranks():
                with paths_taken() as taken:
                    assert clique_betti(g, PER_COMBINATION) == expected
                for dim in range(len(g.nodes)):
                    assert clique_betti(g, PER_COMBINATION, dim) == expected[: dim + 1], (g, dim)
            paths[next(iter(taken), "complete split")] += 1
        assert sorted(paths) == ["complete split", "flattened", "peeled"]
        assert sum(paths.values()) == 3**6 + 2**10


# -- global invariants ---------------------------------------------------------------


class TestInvariants:
    @given(multigraphs())
    def test_boundary_squares_to_zero(self, g):
        assert boundary_squares_to_zero(clique_multicomplex(g))

    @given(multigraphs())
    def test_euler_poincare(self, g):
        x = clique_multicomplex(g)
        counts = [x.cell_count(d) for d in range(x.dimension + 1)]
        beta = betti(x)
        assert euler_characteristic(x) == euler_from_counts(counts)
        assert euler_from_counts(counts) == sum(
            (-1) ** d * b for d, b in enumerate(beta)
        )

    @given(multigraphs())
    def test_beta0_equals_components(self, g):
        x = clique_multicomplex(g)
        expected = components(g)
        if expected:
            assert betti(x)[0] == expected

    @pytest.mark.parametrize("policy", POLICIES)
    @given(seed=st.integers(0, 2**32 - 1), max_mult=st.integers(1, 3))
    def test_betti0_of_the_graph_is_the_1_skeletons(self, policy, seed, max_mult):
        # isolated vertices and pairs of multiplicity >= 2 are drawn often
        rng = random.Random(seed)
        g = random_multigraph(rng, 7, max_mult, PALETTE, node_universe=range(-3, 12))
        assert clique_betti(g, policy, 0) == betti(clique_multicomplex(g, policy, 1))[:1]
        assert sum(clique_betti(g, policy, 0)) == components(g)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "g, expected",
        [
            (Multigraph.empty(PALETTE), ()),
            (G([2, 5, 9], []), (3,)),
            (G([1, 2, 3, 7], [(1, 2, "red", 3), (2, 3, "black"), (2, 3, "red")]), (2,)),
            (G([1, 2, 3, 4], [(1, 2, "red", 2), (3, 4, "black", 2), (1, 2, "black")]), (2,)),
        ],
        ids=["nodeless", "isolated", "parallel-path", "parallel-pairs"],
    )
    def test_betti0_of_the_graph_edge_cases(self, g, expected, policy):
        assert clique_betti(g, policy, 0) == expected == betti(clique_multicomplex(g, policy, 1))[:1]
        assert sum(expected) == components(g)

    def test_components_of_multilayer_add(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([1, 2, 3], [(1, 2, "red")])
        beta = betti_sum(betti(clique_multicomplex(layer)) for layer in tensor(a, b))
        assert beta[0] == components(a) + components(b) == 1 + 2

    def test_components_of_empty(self):
        g = Multigraph.empty(PALETTE)
        assert components(g) == 0
        assert betti(clique_multicomplex(g)) == ()

    def test_adding_one_cell_moves_one_betti_entry(self):
        # replay a complex cell by cell; each step must either raise
        # beta_d by one or lower beta_{d-1} by one
        rng = random.Random(5)
        for _ in range(10):
            g = random_multigraph(rng, max_nodes=6, max_mult=2, palette=PALETTE)
            x = clique_multicomplex(g)
            cells = sorted(x.all_cells(), key=lambda c: (c.dim, c.vertices, c.copy))
            pad = x.dimension + 1
            prev = (0,) * pad
            for i in range(1, len(cells) + 1):
                prefix = Multicomplex.from_cells(
                    x.palette, cells[:i], x.coloring, validate=False
                )
                beta = betti(prefix)
                beta = tuple(beta) + (0,) * (pad - len(beta))
                d = cells[i - 1].dim
                diff = [beta[j] - prev[j] for j in range(pad)]
                expected_up = [0] * pad
                expected_up[d] = 1
                expected_down = [0] * pad
                if d > 0:
                    expected_down[d - 1] = -1
                assert diff in (expected_up, expected_down)
                prev = beta
