"""GF(2) rank, boundary matrices, Betti numbers, beta_0 as a component
count, and the closed form that reads Betti numbers off a graph."""

from __future__ import annotations

import itertools
import random
import sys
import time

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
    clique_cells,
    clique_multicomplex,
    coboundary_rows,
    euler_characteristic,
    replay_betti,
    tensor,
)
from multihom import filtration, homology, mcomplex
from multihom.cli import EXIT_OK, main
from multihom.randgen import random_multigraph

from conftest import PALETTE, REPO_ROOT, multigraphs
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

    @given(clique_complexes())
    def test_coboundary_rows_transpose_the_columns(self, x):
        for d in range(1, x.dimension + 2):
            columns = boundary_matrix(x, d).columns
            assert all(col < 1 << x.cell_count(d - 1) for col in columns)
            assert coboundary_rows(x.grade(d).faces, x.cell_count(d - 1)) == [
                sum(((col >> i) & 1) << j for j, col in enumerate(columns))
                for i in range(x.cell_count(d - 1))
            ]


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


# -- ranks from coboundary rows with clearing ---------------------------------------


class TestClearing:
    """``betti`` reduces coboundary rows and skips the rows cleared by the
    dimension below; ``replay_betti`` adds every boundary column one by
    one.  The two must agree everywhere."""

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
    copies per edge: sparse enough that rows often share a lowest coface."""
    nodes = range(1, rng.randint(20, 40) + 1)
    p = rng.uniform(0.1, 0.2)
    rows = [
        (u, v, rng.choice(PALETTE))
        for u, v in itertools.combinations(nodes, 2)
        if rng.random() < p
        for _ in range(rng.randint(1, 2))
    ]
    return G(nodes, rows)


@pytest.fixture
def row_builds(monkeypatch) -> list[int]:
    """Wraps ``homology.coboundary_rows``; lists the dimension of each call."""
    calls: list[int] = []
    build = homology.coboundary_rows

    def counted(faces, below):
        calls.append(len(faces) - 1)  # a d-cell has d + 1 face positions
        return build(faces, below)

    monkeypatch.setattr(homology, "coboundary_rows", counted)
    return calls


class TestApparentPivots:
    """``betti`` keeps a row by its index while its lowest coface is no
    pivot yet, and builds a dimension's rows only when two rows share one."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_replay_where_rows_share_a_pivot(self, policy, row_builds):
        rng = random.Random(policy)
        for _ in range(20):
            g = sparse_graph(rng)
            x = clique_multicomplex(g, policy)
            beta = betti(x)
            assert beta == replay_betti(x)
            assert beta[0] == components(g)
        assert row_builds, "no dimension had two rows share a lowest coface"

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_doubled_complete_graphs_build_no_rows(self, n, policy, row_builds):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        x = clique_multicomplex(G(range(1, n + 1), [(u, v, "red", 2) for u, v in pairs]), policy)
        beta = betti(x)
        assert row_builds == []
        if policy == PER_COMBINATION:
            assert beta == complete_multigraph_betti(dict.fromkeys(pairs, 2))
        else:
            assert beta == replay_betti(x)

    def test_a_face_named_twice_cancels(self):
        # 1-cells a0 and a join 1 and 2; b, on (1, 3), is glued to vertex 1
        # at both ends, so it bounds nothing.  The 2-cell c0 is glued to b
        # three times and c to a, a and b, so both bound b alone: c is a's
        # lowest coface by index, but the two incidences cancel.
        v = [((i,), 1) for i in (1, 2, 3)]
        a0, a, b = ((1, 2), 1), ((1, 2), 2), ((1, 3), 1)
        cells = [Multicell(*key) for key in v] + [
            Multicell(*a0, faces=(v[0], v[1])),
            Multicell(*a, faces=(v[0], v[1])),
            Multicell(*b, faces=(v[0], v[0])),
            Multicell((1, 2, 3), 1, faces=(b, b, b)),
            Multicell((1, 2, 3), 2, faces=(a, a, b)),
        ]
        x = Multicomplex.from_cells(
            PALETTE, cells, dict.fromkeys((a0, a, b), PALETTE[0]), validate=False
        )
        assert boundary_squares_to_zero(x)
        assert betti(x) == replay_betti(x) == (2, 1, 1)

    def test_repeated_face_pivots_clear_the_right_rows_above(self):
        # a0, a and a1 join 1 and 2, and b is glued to vertex 1 at both
        # ends.  c0 and c2 both bound b (c0 is glued to it three times, so
        # the rows are reduced in full), and c1 and c3 bound the cycles
        # a0 + a + b and a0 + a1 + b.  The reduced rows have lowest bits
        # {0, 1, 3}, so the 3-cell t, bounding the cycle c0 + c2, keeps c2's
        # row uncleared and beta_2 = 0.  Pivots read one bit low
        # (``p.bit_length() - 2``) clear c0 and c2 instead, leave only rows
        # t does not meet, and read beta_2 = beta_3 = 1.
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
        x = Multicomplex.from_cells(
            PALETTE, cells, dict.fromkeys((a0, a, a1, b), PALETTE[0]), validate=False
        )
        assert boundary_squares_to_zero(x)
        assert betti(x) == replay_betti(x) == (2, 0, 0, 0)


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

        for name in ("betti0_of", "clique_cells", "_lowest_cofaces", "_face_rows"):
            monkeypatch.setattr(homology, name, spy)
        with pytest.raises(ValueError) as read:
            clique_betti(g, "bogus", dim)
        assert str(read.value) == str(built.value)

    def test_a_negative_depth_is_refused(self):
        with pytest.raises(ValueError):
            clique_betti(doubled(3), CANONICAL, -1)

    def test_betti_verb_builds_no_complex_under_canonical(self, monkeypatch, capsys):
        # nor under per-combination, whose ranks find lowest cofaces by arithmetic
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


FOUR_CYCLE_INTO_A_TRIANGLE = [
    (1, 2, "red"), (1, 2, "black"), (1, 3, "red"), (2, 4, "red"),
    (3, 4, "red"), (3, 5, "red"), (4, 5, "red"),
]
DOUBLED_K4_AT_5 = [(u, v, "blue", 2) for u, v in itertools.combinations(range(5, 9), 2)]


class TestCofacesByArithmetic:
    """Under ``per-combination`` ``clique_betti`` finds each row's lowest
    coface by arithmetic and builds a dimension's face rows only where two
    uncleared rows share one; no complex is built."""

    @given(multigraphs(max_nodes=5))
    def test_match_the_lowest_cofaces_of_the_built_face_rows(self, g):
        with cell_budget(20_000):
            try:
                x = clique_multicomplex(g, PER_COMBINATION)
            except CellBudgetExceeded:
                return
        mult, cliques = clique_cells(g, PER_COMBINATION)
        for d in range(2, x.dimension + 1):
            faces = x.grade(d).faces
            expected = homology._lowest_cofaces_of_rows(faces, x.cell_count(d))
            assert mcomplex._lowest_cofaces(mult, cliques, d) == expected, d

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([None, 1, 2, 3]))
    def test_matches_replay_on_the_built_complex(self, seed, dim):
        # replay_betti shares no rank code with the route
        g = random_multigraph(random.Random(seed), 7, 3, PALETTE)
        top = None if dim is None else dim + 1
        with cell_budget(3_000):
            try:
                beta = clique_betti(g, PER_COMBINATION, dim)
            except CellBudgetExceeded:
                with pytest.raises(CellBudgetExceeded):
                    clique_multicomplex(g, PER_COMBINATION, top)
                return
            assert beta == replay_betti(clique_multicomplex(g, PER_COMBINATION, top))[:top]

    @pytest.mark.parametrize(
        "g, expected, shared",
        [
            # 3-4 and 4-5 close cycles and both first meet triangle 345
            (G(range(1, 9), FOUR_CYCLE_INTO_A_TRIANGLE + DOUBLED_K4_AT_5), (1, 2, 0, 41), 2),
            (
                G(
                    [1, 4, 5, 7, 8],
                    [(1, 5, "red"), (1, 8, "red"), (4, 5, "red"), (4, 7, "red")]
                    + [(4, 8, "red"), (5, 7, "red", 2), (5, 8, "red", 2), (7, 8, "red", 3)],
                ),
                (1, 0, 1, 0),
                3,
            ),
        ],
        ids=["shared-at-2", "shared-at-3"],
    )
    def test_face_rows_only_where_two_rows_share_a_lowest_coface(
        self, g, expected, shared, monkeypatch
    ):
        dims = []
        build = homology._face_rows

        def recording(g, policy, mult, cliques, d):
            dims.append(d)
            return build(g, policy, mult, cliques, d)

        def spy(*args, **kwargs):
            raise AssertionError("a complex was built or reduced")

        monkeypatch.setattr(homology, "_face_rows", recording)
        monkeypatch.setattr(mcomplex, "clique_multicomplex", spy)
        monkeypatch.setattr(homology, "betti", spy)
        assert clique_betti(g, PER_COMBINATION) == expected
        assert dims == [shared]
        monkeypatch.undo()
        assert replay_betti(clique_multicomplex(g, PER_COMBINATION)) == expected


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
