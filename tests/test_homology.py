"""GF(2) rank, boundary matrices, Betti numbers, component counts."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multihom import (
    PER_COMBINATION,
    POLICIES,
    Gf2Basis,
    Multicell,
    Multicomplex,
    Multigraph,
    betti,
    betti_sum,
    boundary_matrix,
    boundary_squares_to_zero,
    clique_multicomplex,
    coboundary_rows,
    connected_components,
    euler_characteristic,
    gf2_rank,
    replay_betti,
    tensor,
)
from multihom import homology
from multihom.randgen import random_multigraph

from conftest import PALETTE, multigraphs
from test_mcomplex import simple_triangle_cells

from oracles import (
    complete_multigraph_betti,
    components_union_find,
    euler_from_counts,
    rank_gf2_span,
)


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


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
        assert gf2_rank([1 << i for i in range(5)]) == 5

    def test_dependent_columns(self):
        assert gf2_rank([0b011, 0b101, 0b110]) == 2  # third = xor of first two

    def test_zero_columns_ignored(self):
        assert gf2_rank([0, 0, 0b1]) == 1

    def test_empty(self):
        assert gf2_rank([]) == 0

    def test_basis_reports_membership(self):
        basis = Gf2Basis()
        assert basis.add(0b011)
        assert basis.add(0b101)
        assert not basis.add(0b110)  # already in the span
        assert basis.rank == 2
        assert basis.reduce(0b110) == 0

    @given(st.lists(st.integers(0, (1 << 10) - 1), max_size=10))
    def test_matches_span_oracle(self, columns):
        assert gf2_rank(columns) == rank_gf2_span(columns)


# -- boundary matrices ------------------------------------------------------------


class TestBoundaryMatrix:
    def test_triangle_d1(self):
        m = boundary_matrix(filled_triangle(), 1)
        assert m.shape == (3, 3)
        assert m.rank() == 2
        dense = m.dense()
        assert all(sum(row[j] for row in dense) == 2 for j in range(3))

    def test_pillow_d2_columns_equal(self):
        m = boundary_matrix(pillow(), 2)
        assert m.shape == (3, 2)
        assert m.columns[0] == m.columns[1]
        assert m.rank() == 1

    def test_dimension_above_complex_is_empty(self):
        m = boundary_matrix(filled_triangle(), 3)
        assert m.shape[1] == 0
        assert m.rank() == 0

    def test_rejects_dimension_zero(self):
        with pytest.raises(Exception):
            boundary_matrix(filled_triangle(), 0)
        with pytest.raises(Exception):
            coboundary_rows(filled_triangle(), 0)

    @given(clique_complexes())
    def test_coboundary_rows_transpose_the_columns(self, x):
        for d in range(1, x.dimension + 2):
            m = boundary_matrix(x, d)
            assert coboundary_rows(x, d) == [
                sum(bit << j for j, bit in enumerate(row)) for row in m.dense()
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

    def counted(x, d):
        calls.append(d)
        return build(x, d)

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
            assert beta[0] == connected_components(g)
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
        expected = components_union_find(g.nodes, g.pairs())
        assert connected_components(g) == expected
        if expected:
            assert betti(x)[0] == expected

    def test_components_of_multilayer_add(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([1, 2, 3], [(1, 2, "red")])
        assert connected_components(tensor(a, b)) == 1 + 2

    def test_components_of_empty(self):
        assert connected_components(Multigraph.empty(PALETTE)) == 0

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
