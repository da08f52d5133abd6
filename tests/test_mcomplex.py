"""Clique multicomplexes: cell creation, gluing, policies, merges."""

from __future__ import annotations

import gzip
import itertools
import json
import random
import time
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from multihom import (
    CANONICAL,
    PER_COMBINATION,
    POLICIES,
    CellBudgetExceeded,
    ComplexStructureError,
    EdgeCopy,
    Multicell,
    Multicomplex,
    Multigraph,
    betti,
    cell_budget,
    cell_coloring,
    clique_multicomplex,
    complex_merge,
    duplications,
    load_workspace,
    merge,
)

from multihom.cli import EXIT_OK, main
from multihom.mcomplex import _cliques

from conftest import PALETTE, REPO_ROOT, multigraphs
from oracles import (
    assignment_through_faces,
    cliques_bruteforce,
    first_copy_by_colour,
    lexicographic_rank,
)

DATA = REPO_ROOT / "tests" / "data"
# G and H merge into a K5 on 1..5 (plus a triangle through node 6) with
# three doubled pairs; on (1, 2) the black copy that H adds sorts first in
# colour order, so the canonical policy glues its 3- and 4-cells to copy 2
DOUBLED_K5 = DATA / "doubled_k5.json"


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


def doubled_edge_triangle() -> Multigraph:
    """Triangle on {1,2,3} with the (1,3) edge doubled."""
    return G(
        [1, 2, 3],
        [(1, 2, "red"), (1, 3, "black"), (1, 3, "black"), (2, 3, "black")],
    )


# -- golden: the doubled-edge triangle ------------------------------------------


class TestDoubledEdgeTriangle:
    def test_cell_counts(self):
        x = clique_multicomplex(doubled_edge_triangle())
        assert [x.cell_count(d) for d in range(x.dimension + 1)] == [3, 4, 2]

    def test_two_cells_glued_to_distinct_edge_copies(self):
        x = clique_multicomplex(doubled_edge_triangle())
        boundaries = {c.key: c.faces for c in x.cells(2)}
        assert boundaries == {
            ((1, 2, 3), 1): (((1, 2), 1), ((1, 3), 1), ((2, 3), 1)),
            ((1, 2, 3), 2): (((1, 2), 1), ((1, 3), 2), ((2, 3), 1)),
        }

    def test_multiboundary_is_face_set(self):
        x = clique_multicomplex(doubled_edge_triangle())
        cell = x.find(((1, 2, 3), 2))
        assert frozenset(cell.faces) == frozenset(
            {((1, 2), 1), ((1, 3), 2), ((2, 3), 1)}
        )

    def test_cell_coloring_is_ordered(self):
        x = clique_multicomplex(doubled_edge_triangle())
        cell = x.find(((1, 2, 3), 1))
        assert cell_coloring(x, cell) == ("red", "black", "black")

    def test_duplications(self):
        x = clique_multicomplex(doubled_edge_triangle())
        assert duplications(x, 1) == 1  # the doubled edge
        assert duplications(x, 2) == 1  # the two parallel 2-cells
        assert duplications(x, 0) == 0

    def test_multiplicity_view(self):
        x = clique_multicomplex(doubled_edge_triangle())
        assert x.multiplicity((1, 3)) == 2
        assert x.multiplicity((1, 2, 3)) == 2
        assert x.multiplicity((1, 2)) == 1

    def test_validate_passes(self):
        clique_multicomplex(doubled_edge_triangle()).validate()


# -- golden: K4 with one doubled edge --------------------------------------------


def k4_with_doubled_edge() -> Multigraph:
    rows = [
        (1, 2, "black"),
        (1, 3, "black"),
        (1, 4, "black"),
        (2, 3, "black", 2),
        (2, 4, "black"),
        (3, 4, "black"),
    ]
    return G([1, 2, 3, 4], rows, ("black",))


class TestK4DoubledEdge:
    def test_listed_triangle_cells_per_combination(self):
        x = clique_multicomplex(k4_with_doubled_edge(), PER_COMBINATION)
        tau1 = x.find(((1, 2, 3), 1))
        tau2 = x.find(((1, 2, 3), 2))
        sigma = x.find(((1, 3, 4), 1))
        rho = x.find(((2, 3, 4), 1))
        assert tau1.faces == (((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
        assert tau2.faces == (((1, 2), 1), ((1, 3), 1), ((2, 3), 2))
        assert sigma.faces == (((1, 3), 1), ((1, 4), 1), ((3, 4), 1))
        assert rho.faces == (((2, 3), 1), ((2, 4), 1), ((3, 4), 1))

    def test_canonical_policy_keeps_one_solid_cell(self):
        x = clique_multicomplex(k4_with_doubled_edge(), CANONICAL)
        assert x.cell_count(3) == 1
        (solid,) = x.cells(3)
        assert solid.key == ((1, 2, 3, 4), 1)
        # its triangle faces are the copy-1 assignments
        assert all(copy >= 1 for _, copy in solid.faces)

    def test_per_combination_policy_lifts_the_doubled_edge(self):
        x = clique_multicomplex(k4_with_doubled_edge(), PER_COMBINATION)
        assert x.cell_count(3) == 2  # one per copy of the doubled edge
        # triangles touching the doubled edge double as well
        assert x.multiplicity((1, 2, 3)) == 2
        assert x.multiplicity((2, 3, 4)) == 2
        assert x.multiplicity((1, 3, 4)) == 1

    def test_policies_agree_below_dimension_three(self):
        a = clique_multicomplex(k4_with_doubled_edge(), CANONICAL)
        b = clique_multicomplex(k4_with_doubled_edge(), PER_COMBINATION)
        for d in (0, 1, 2):
            assert a.shapes(d) == b.shapes(d)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            clique_multicomplex(k4_with_doubled_edge(), "bogus")


# -- golden: merged K5 with doubled pairs ------------------------------------------


@pytest.mark.parametrize("policy", (CANONICAL, PER_COMBINATION))
def test_merge_emit_complex_matches_golden(policy, capsys):
    golden = gzip.decompress(
        (DATA / f"doubled_k5.merge-complex.{policy}.json.gz").read_bytes()
    ).decode()
    argv = ["--workspace", str(DOUBLED_K5), "--policy", policy, "--json"]
    assert main(argv + ["merge", "G", "H", "--emit-complex"]) == EXIT_OK
    # compared as lines, so a failure names the first line that differs
    assert capsys.readouterr().out.splitlines() == golden.splitlines()


# -- golden: colouring example ------------------------------------------------------


class TestColouringExample:
    def test_triple_edge_triangle_colour_lists(self):
        g = G(
            [1, 2, 3],
            [
                (1, 2, "red"),
                (1, 2, "black"),
                (1, 2, "black"),
                (1, 3, "black"),
                (2, 3, "black"),
            ],
        )
        x = clique_multicomplex(g)
        assert x.cell_count(1) == 5
        assert x.cell_count(2) == 3  # one per copy of the tripled edge
        colour_multisets = {
            c.copy: tuple(sorted(cell_coloring(x, c))) for c in x.cells(2)
        }
        assert colour_multisets == {
            1: ("black", "black", "red"),
            2: ("black", "black", "black"),
            3: ("black", "black", "black"),
        }
        assert x.coloring[((1, 2), 1)] == "red"

    def test_colours_follow_the_glued_copy(self):
        # (1, 3) has a red copy 1 and a blue copy 2; the triangle is glued
        # to the blue one, so its colours must say blue
        cells = [Multicell((v,), 1) for v in (1, 2, 3)]
        coloring = {}
        for (a, b), copy, colour in (
            ((1, 2), 1, "red"),
            ((1, 3), 1, "red"),
            ((1, 3), 2, "blue"),
            ((2, 3), 1, "red"),
        ):
            cells.append(Multicell((a, b), copy, faces=(((a,), 1), ((b,), 1))))
            coloring[((a, b), copy)] = colour
        top = Multicell((1, 2, 3), 1, faces=(((1, 2), 1), ((1, 3), 2), ((2, 3), 1)))
        x = Multicomplex.from_cells(PALETTE, cells + [top], coloring)
        assert cell_coloring(x, top) == ("red", "blue", "red")
        assert cell_coloring(x, x.find(((1, 3), 2))) == ("blue",)
        assert cell_coloring(x, x.find(((1,), 1))) == ()


# -- copy numbering ----------------------------------------------------------------------


class TestCopyNumbering:
    """A cell records only its gluing; its copy and its faces' copies are
    the lexicographic ranks of the edge-copy assignments that gluing
    reaches, checked against a brute-force rank."""

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_copies_rank_the_assignment_reached_through_faces(self, g, policy):
        self.check(g, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_doubled_k5(self, policy):
        # random graphs rarely hold a K5 whose first colour copy is not copy 1
        ws = load_workspace(DOUBLED_K5)
        self.check(merge(ws.graphs["G"], ws.graphs["H"]), policy)

    @staticmethod
    def check(g, policy):
        x = clique_multicomplex(g, policy)
        mult = g.multiplicities()
        single = {}  # clique -> its one cell, under the canonical policy at d >= 3
        for d in range(2, x.dimension + 1):
            for c in x.cells(d):
                got = assignment_through_faces(x, c)
                pairs = sorted(itertools.combinations(c.vertices, 2))
                assert sorted(got) == pairs
                assert cell_coloring(x, c) == tuple(x.coloring[(p, got[p])] for p in pairs)
                if policy == CANONICAL and d >= 3:
                    assert c.vertices not in single
                    single[c.vertices] = c
                    assert c.copy == 1
                    assert got == {p: first_copy_by_colour(g.edges, p) for p in pairs}
                else:
                    assert c.copy == lexicographic_rank(got, mult)
                for face_vertices, face_copy in c.faces:
                    if policy == CANONICAL and len(face_vertices) >= 4:
                        assert face_copy == 1
                        continue
                    restricted = {
                        p: got[p] for p in itertools.combinations(face_vertices, 2)
                    }
                    assert face_copy == lexicographic_rank(restricted, mult)
        if policy == CANONICAL:
            cliques = cliques_bruteforce(g.nodes, mult)
            assert sorted(single) == sorted(t for t in cliques if len(t) >= 4)


# -- structure validation -------------------------------------------------------------


def simple_triangle_cells(copies_of_top: int = 1):
    vertices = [Multicell((v,), 1) for v in (1, 2, 3)]
    edges = [
        Multicell((1, 2), 1, faces=(((1,), 1), ((2,), 1))),
        Multicell((1, 3), 1, faces=(((1,), 1), ((3,), 1))),
        Multicell((2, 3), 1, faces=(((2,), 1), ((3,), 1))),
    ]
    tops = [
        Multicell((1, 2, 3), c, faces=(((1, 2), 1), ((1, 3), 1), ((2, 3), 1)))
        for c in range(1, copies_of_top + 1)
    ]
    coloring = {
        ((1, 2), 1): "black",
        ((1, 3), 1): "black",
        ((2, 3), 1): "black",
    }
    return vertices + edges + tops, coloring


class TestFromCells:
    def test_pillow_assembles(self):
        cells, coloring = simple_triangle_cells(copies_of_top=2)
        x = Multicomplex.from_cells(("black",), cells, coloring)
        assert x.cell_count(2) == 2
        a, b = x.cells(2)
        assert frozenset(a.faces) == frozenset(b.faces)

    def test_missing_face_rejected(self):
        cells, coloring = simple_triangle_cells()
        cells = [c for c in cells if c.key != ((1, 3), 1)]
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells, coloring)

    def test_noncontiguous_copies_rejected(self):
        cells, coloring = simple_triangle_cells(copies_of_top=2)
        cells = [c for c in cells if c.key != ((1, 2, 3), 1)]
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells, coloring)

    def test_uncoloured_edge_rejected(self):
        cells, coloring = simple_triangle_cells()
        coloring = dict(coloring)
        del coloring[((2, 3), 1)]
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells, coloring)

    def test_inconsistent_gluing_rejected(self):
        # a triangle glued to an edge copy that does not exist
        cells, coloring = simple_triangle_cells()
        bad = Multicell((1, 2, 3), 2, faces=(((1, 2), 1), ((1, 3), 2), ((2, 3), 1)))
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells + [bad], coloring)

    def test_validate_is_linear_in_cells(self):
        # a 600-node random graph (p = 0.05): 14,332 cells.  Checking copy
        # contiguity by rescanning a dimension's cells for every shape took
        # about 7 s here
        rng = random.Random(0)
        nodes = range(1, 601)
        rows = [(u, v, "black") for u in nodes for v in nodes if u < v and rng.random() < 0.05]
        x = clique_multicomplex(G(nodes, rows))
        assert len(x.all_cells()) == 14332
        start = time.perf_counter()
        x.validate()
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"validate took {elapsed:.1f} s"

    def test_cell_shape_validation(self):
        with pytest.raises(ComplexStructureError):
            Multicell((2, 1), 1)  # unsorted vertices
        with pytest.raises(ComplexStructureError):
            Multicell((1, 2), 0, faces=(((1,), 1), ((2,), 1)))
        with pytest.raises(ComplexStructureError):
            Multicell((1, 2), 1, faces=(((1,), 1),))


# -- the row store ----------------------------------------------------------------------


class TestStore:
    """The builder writes integer face rows; ``from_cells`` converts hand-built
    cells into the same rows, and Betti numbers read them without a view."""

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_built_complex_validates(self, g, policy):
        clique_multicomplex(g, policy).validate()

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_from_cells_round_trip_is_byte_identical(self, g, policy):
        x = clique_multicomplex(g, policy)
        y = Multicomplex.from_cells(x.palette, x.all_cells(), x.coloring, x.policy)
        assert json.dumps(y.to_json_dict()) == json.dumps(x.to_json_dict())

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_betti_makes_no_cell_objects(self, g, policy):
        made = []
        check = Multicell.__post_init__

        def counted(cell):
            made.append(cell)
            check(cell)

        with mock.patch.object(Multicell, "__post_init__", counted):
            x = clique_multicomplex(g, policy)
            betti(x)
            assert made == []
            x.cells(0)  # a view is a Multicell, so the count is live
        assert len(made) == len(g.nodes)

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_budget_is_the_cell_count(self, g, policy):
        # the count summed from the cliques before any cell is made
        total = len(clique_multicomplex(g, policy).all_cells())
        with cell_budget(total):
            clique_multicomplex(g, policy)
        with cell_budget(total - 1), pytest.raises(CellBudgetExceeded):
            clique_multicomplex(g, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_large_clique_is_refused_before_cliques_fill_memory(self, policy):
        # K_30 has 2^30 - 1 cliques; a clique of 14 vertices already has more
        # subcliques than the budget, so the refusal comes before the store
        k30 = G(range(30), [(u, v, "red") for u, v in itertools.combinations(range(30), 2)])
        tracemalloc.start()
        try:
            with cell_budget(10_000), pytest.raises(CellBudgetExceeded, match="10000 cells"):
                clique_multicomplex(k30, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB before the refusal"

    def test_budget_is_restored(self):
        with cell_budget(1):
            with pytest.raises(CellBudgetExceeded):
                clique_multicomplex(doubled_edge_triangle())
        assert clique_multicomplex(doubled_edge_triangle()).cell_count(2) == 2


# -- equality and canonical form --------------------------------------------------------


class TestCanonicalForm:
    def test_copy_relabelling_is_invisible(self):
        a = G([1, 2], [(1, 2, "red"), (1, 2, "black")])
        b = G([1, 2], [(1, 2, "black"), (1, 2, "red")])
        assert clique_multicomplex(a) == clique_multicomplex(b)
        assert hash(clique_multicomplex(a)) == hash(clique_multicomplex(b))

    # holds for clique complexes only: from_cells may glue parallel cells of
    # equal content differently, and their tie is broken by copy index
    @pytest.mark.parametrize("policy", (CANONICAL, PER_COMBINATION))
    @given(g=multigraphs(max_nodes=5, max_mult=2), data=st.data())
    def test_copy_shuffle_within_pairs_is_invisible(self, policy, g, data):
        edges = []
        for pair in g.pairs():
            copies = g.copies(pair)
            order = data.draw(st.permutations(range(1, len(copies) + 1)))
            edges += [EdgeCopy(e.u, e.v, i, e.color) for e, i in zip(copies, order)]
        shuffled = Multigraph(g.nodes, tuple(edges), g.palette)
        a, b = clique_multicomplex(g, policy), clique_multicomplex(shuffled, policy)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_colours_distinguish(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([1, 2], [(1, 2, "black")])
        assert clique_multicomplex(a) != clique_multicomplex(b)

    def test_underlying_multigraph_round_trip(self):
        g = G([1, 2, 3, 7], [(1, 2, "red", 2), (2, 3, "black"), (1, 3, "blue")])
        x = clique_multicomplex(g)
        assert x.underlying_multigraph() == g

    @given(multigraphs(max_nodes=5))
    def test_round_trip_random(self, g):
        assert clique_multicomplex(g).underlying_multigraph() == g


# -- clique enumeration against brute force ----------------------------------------------


class TestCliqueEnumeration:
    # sparse (and negative) labels exercise the label -> bit map of the
    # clique enumerator, which contiguous 1..n labels would not
    @given(
        st.one_of(
            multigraphs(max_nodes=6, max_mult=1),
            multigraphs(max_nodes=9, max_mult=1, sparse_labels=True),
        )
    )
    @settings(max_examples=80)
    def test_simple_graph_cells_match_bruteforce(self, g):
        x = clique_multicomplex(g)
        expected = cliques_bruteforce(g.nodes, g.pairs())
        got = [c.vertices for c in x.all_cells()]
        assert sorted(got) == sorted(expected)

    def test_deep_cliques_need_no_recursion(self):
        # depth-first growth of K_1050 nests 1050 cliques, past Python's
        # default recursion limit of 1000
        n = 1050
        everything = _cliques(range(n), itertools.combinations(range(n), 2))
        cliques = list(itertools.islice(everything, 2000))
        assert len(cliques) == 2000
        assert cliques[:n] == [tuple(range(k)) for k in range(1, n + 1)]


# -- merge of complexes ---------------------------------------------------------------


class TestComplexMerge:
    def test_merge_closes_a_clique(self):
        a = clique_multicomplex(G([1, 2, 3], [(1, 2, "red"), (2, 3, "red")]))
        b = clique_multicomplex(G([1, 3], [(1, 3, "black")]))
        m = complex_merge(a, b)
        assert m.cell_count(2) == 1

    def test_functoriality_example(self):
        g = G([1, 2, 3], [(1, 2, "red"), (2, 3, "red")])
        h = G([1, 3], [(1, 3, "black")])
        assert complex_merge(
            clique_multicomplex(g), clique_multicomplex(h)
        ) == clique_multicomplex(merge(g, h))

    def test_unit(self):
        x = clique_multicomplex(G([1, 2], [(1, 2, "red")]))
        unit = Multicomplex.empty(PALETTE)
        assert complex_merge(x, unit) == x
        assert complex_merge(unit, x) == x

    @given(multigraphs(max_nodes=4), multigraphs(max_nodes=4))
    @settings(max_examples=40)
    def test_commutative_and_functorial(self, g, h):
        a, b = clique_multicomplex(g), clique_multicomplex(h)
        assert complex_merge(a, b) == complex_merge(b, a)
        assert complex_merge(a, b) == clique_multicomplex(merge(g, h))

    @given(multigraphs(max_nodes=3), multigraphs(max_nodes=3), multigraphs(max_nodes=3))
    @settings(max_examples=25)
    def test_associative(self, g, h, k):
        a, b, c = (clique_multicomplex(v) for v in (g, h, k))
        assert complex_merge(complex_merge(a, b), c) == complex_merge(
            a, complex_merge(b, c)
        )


# -- serialization ------------------------------------------------------------------------


class TestSerialization:
    def test_json_dict_shape(self):
        x = clique_multicomplex(doubled_edge_triangle())
        payload = x.to_json_dict()
        assert payload["policy"] == CANONICAL
        assert sorted(payload["palette"]) == sorted(PALETTE)
        assert len(payload["cells"]) == 3
        assert len(payload["cells"][2]) == 2
        two_cell = payload["cells"][2][0]
        assert two_cell["vertices"] == [1, 2, 3]
        assert "faces" in two_cell

    def test_empty_complex(self):
        x = Multicomplex.empty(PALETTE)
        assert x.dimension == -1
        assert x.all_cells() == ()
