"""Clique multicomplexes: cell creation, gluing, policies, merges."""

from __future__ import annotations

import gzip
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from multihom import (
    CANONICAL,
    PER_COMBINATION,
    POLICIES,
    CellBudgetExceeded,
    ComplexStructureError,
    Multicell,
    Multicomplex,
    Multigraph,
    PaletteMismatch,
    betti,
    boundary_squares_to_zero,
    cell_budget,
    cell_coloring,
    clique_multicomplex,
    complex_merge,
    load_workspace,
    merge,
)

from multihom.cli import EXIT_OK, main
from multihom.incremental import _ranks
from multihom.mcomplex import _higher_cliques, clique_cells

from conftest import PALETTE, REPO_ROOT, multigraphs
from oracles import (
    assignment_through_faces,
    cliques_bruteforce,
    first_copy_by_colour,
    lexicographic_rank,
    reference_grades,
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
        # c_e - s_e, the cells beyond one per vertex set: none at 0, the
        # doubled edge at 1, the two parallel 2-cells at 2
        _, cells, simplices, _, _ = _ranks(doubled_edge_triangle(), CANONICAL, 2)
        assert [c - s for c, s in zip(cells, simplices)][:3] == [0, 1, 1]

    def test_multiplicity_view(self):
        x = clique_multicomplex(doubled_edge_triangle())
        assert Counter(x.grade(1).vertices)[(1, 3)] == 2
        assert Counter(x.grade(2).vertices)[(1, 2, 3)] == 2
        assert Counter(x.grade(1).vertices)[(1, 2)] == 1

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
        shapes = Counter(x.grade(2).vertices)
        assert shapes[(1, 2, 3)] == 2
        assert shapes[(2, 3, 4)] == 2
        assert shapes[(1, 3, 4)] == 1

    def test_policies_agree_below_dimension_three(self):
        a = clique_multicomplex(k4_with_doubled_edge(), CANONICAL)
        b = clique_multicomplex(k4_with_doubled_edge(), PER_COMBINATION)
        for d in (0, 1, 2):
            assert Counter(a.grade(d).vertices) == Counter(b.grade(d).vertices)

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


def mixed_k6() -> Multigraph:
    """K6 with multiplicities 1 to 3 (two pairs tripled, four doubled).  Each
    pair lists its copies in falling colour order, so the copy first in
    colour order is the last one, never copy 1 where there are several."""
    mults = (3, 1, 2, 1, 1, 2, 1, 1, 2, 1, 3, 1, 1, 2, 1)  # pairs in sorted order
    colours = ("red", "blue", "black")
    pairs = itertools.combinations(range(1, 7), 2)
    return G(range(1, 7), [(u, v, c) for (u, v), m in zip(pairs, mults) for c in colours[3 - m :]])


class TestFaceRows:
    """Every grade's rows equal those of a cell-by-cell build that finds
    each face by its vertices and restricted copy assignment, in the whole
    complex and in every skeleton, and each edge copy has its colour."""

    @staticmethod
    def check(g, policy):
        reference = reference_grades(g, policy)
        colours = [
            ((p, copy), colour)
            for p in sorted(g.multiplicities())
            for copy, colour in enumerate(g.colors(p), 1)
        ]
        for dim in (None, *range(len(reference) + 1)):
            x = clique_multicomplex(g, policy, dim)
            got = [(grade.vertices, grade.copies, grade.faces) for grade in x.grades]
            assert got == reference[: None if dim is None else dim + 1]
            if len(x.grades) > 1:
                edges = x.grade(1)
                assert list(zip(edges.keys(), edges.colors)) == colours

    @given(g=multigraphs(max_nodes=6, max_mult=3), policy=st.sampled_from(POLICIES))
    @settings(max_examples=150)
    def test_rows_match_the_reference(self, g, policy):
        # K6 at multiplicity 3 has 3^15 top cells; keep the examples small
        try:
            with cell_budget(20_000):
                clique_multicomplex(g, policy)
        except CellBudgetExceeded:
            assume(False)
        self.check(g, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mixed_k6(self, policy):
        # radix-3 steps, 5-cells and colour-first copies other than copy 1
        g = mixed_k6()
        assert g.multiplicity((1, 2)) == 3 and g.colors((1, 2))[2] == "black"
        self.check(g, policy)


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

    def test_faces_reaching_two_copies_of_one_edge_rejected(self):
        # each face of the 3-cell is a cell, one per face subset, but (1,2,3)
        # is glued to copy 1 of (1,2) and (1,2,4) to copy 2
        cells = [Multicell((v,), 1) for v in (1, 2, 3, 4)]
        edges = [(p, 1) for p in itertools.combinations(range(1, 5), 2)] + [((1, 2), 2)]
        cells += [Multicell((u, v), copy, faces=(((u,), 1), ((v,), 1))) for (u, v), copy in edges]
        triangles = {(1, 2, 3): 1, (1, 2, 4): 2, (1, 3, 4): 1, (2, 3, 4): 1}  # copy of (1, 2)
        for t, copy in triangles.items():
            faces = tuple((p, copy if p == (1, 2) else 1) for p in itertools.combinations(t, 2))
            cells.append(Multicell(t, 1, faces=faces))
        cells.append(Multicell((1, 2, 3, 4), 1, faces=tuple((t, 1) for t in triangles)))
        coloring = {c.key: "black" for c in cells if c.dim == 1}
        x = Multicomplex.from_cells(("black",), cells, coloring, validate=False)
        assert assignment_through_faces(x, x.find(((1, 2, 3), 1)))[(1, 2)] == 1
        assert assignment_through_faces(x, x.find(((1, 2, 4), 1)))[(1, 2)] == 2
        with pytest.raises(ComplexStructureError) as refused:
            x.validate()
        assert str(refused.value) == (
            "gluing of ((1, 2, 3, 4), 1) inconsistent over (1, 2): "
            "((1, 2, 3), 1) -> ((1, 2), 1) vs ((1, 2, 4), 1) -> ((1, 2), 2)"
        )

    def test_colour_outside_the_palette_rejected(self):
        cells, coloring = simple_triangle_cells()
        coloring = {**coloring, ((1, 3), 1): "red"}
        with pytest.raises(PaletteMismatch, match=r"^1-cell \(\(1, 3\), 1\) coloured outside"):
            Multicomplex.from_cells(("black",), cells, coloring)
        Multicomplex.from_cells(("black", "red"), cells, coloring)

    def test_vertex_with_faces_rejected(self):
        cells, coloring = simple_triangle_cells()
        cells[0] = Multicell((1,), 1, faces=(((2,), 1),))
        with pytest.raises(ComplexStructureError, match=r"^0-cell \(\(1,\), 1\) has faces$"):
            Multicomplex.from_cells(("black",), cells, coloring, validate=False)

    def test_cell_glued_twice_to_one_face_rejected(self):
        # its boundary is (2,3) alone, so the boundary of that is not zero
        cells, coloring = simple_triangle_cells()
        cells[-1] = Multicell((1, 2, 3), 1, faces=(((1, 2), 1), ((1, 2), 1), ((2, 3), 1)))
        x = Multicomplex.from_cells(("black",), cells, coloring, validate=False)
        assert not boundary_squares_to_zero(x)
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells, coloring)

    def test_face_off_the_cell_rejected(self):
        # (3,4) is a cell, but not a face of the triangle on (1,2,3)
        cells, coloring = simple_triangle_cells()
        cells[-1] = Multicell((1, 2, 3), 1, faces=(((1, 2), 1), ((1, 3), 1), ((3, 4), 1)))
        cells += [
            Multicell((4,), 1),
            Multicell((3, 4), 1, faces=(((3,), 1), ((4,), 1))),
        ]
        coloring = {**coloring, ((3, 4), 1): "black"}
        with pytest.raises(ComplexStructureError):
            Multicomplex.from_cells(("black",), cells, coloring)

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

    def test_row_of_an_absent_key_is_refused(self):
        # kills the mutant ``i == hi and self.copies[i] != copy`` in
        # ``Grade.row``, which gives row 0 for the absent copy 0 of (1, 2),
        # row 2 for the absent vertices (1, 3), and an IndexError past the
        # last row for the absent copy 2 of (2, 3)
        edges = clique_multicomplex(G([1, 2, 3], [(1, 2, "red", 2), (2, 3, "black")])).grade(1)
        assert [edges.row(key) for key in edges.keys()] == [0, 1, 2]
        for key in [((1, 2), 0), ((1, 3), 1), ((2, 3), 2)]:
            with pytest.raises(KeyError):
                edges.row(key)

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_from_cells_round_trip_is_byte_identical(self, g, policy):
        x = clique_multicomplex(g, policy)
        y = Multicomplex.from_cells(x.palette, x.all_cells(), x.coloring, x.policy)
        assert json.dumps(y.to_json_dict()) == json.dumps(x.to_json_dict())

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    def test_betti_makes_no_cell_objects(self, g, policy):
        made = []
        init = Multicell.__init__

        def counted(cell, *args, **kwargs):
            made.append(cell)
            init(cell, *args, **kwargs)

        with mock.patch.object(Multicell, "__init__", counted):
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


# -- skeletons ---------------------------------------------------------------------------


class TestSkeleton:
    """The ``dim``-skeleton holds the whole complex's grades 0..dim, so the
    (d+1)-skeleton gives beta_0..beta_d."""

    @given(
        g=multigraphs(max_nodes=5, max_mult=2),
        policy=st.sampled_from(POLICIES),
        dim=st.integers(0, 3),
    )
    def test_grades_and_betti_match_the_whole_complex(self, g, policy, dim):
        full = clique_multicomplex(g, policy)
        skeleton = clique_multicomplex(g, policy, dim)
        assert skeleton.dimension == min(dim, full.dimension)
        for a, b in zip(skeleton.grades, full.grades):
            assert (a.vertices, a.copies, a.faces, a.colors) == (
                b.vertices,
                b.copies,
                b.faces,
                b.colors,
            )
        above = clique_multicomplex(g, policy, dim + 1)
        assert betti(above)[: dim + 1] == betti(full)[: dim + 1]

    @given(
        g=multigraphs(max_nodes=5, max_mult=2),
        policy=st.sampled_from(POLICIES),
        dim=st.integers(0, 3),
    )
    def test_budget_counts_only_the_cells_built(self, g, policy, dim):
        total = len(clique_multicomplex(g, policy, dim).all_cells())
        with cell_budget(total):
            clique_multicomplex(g, policy, dim)
        with cell_budget(total - 1), pytest.raises(CellBudgetExceeded):
            clique_multicomplex(g, policy, dim)

    @pytest.mark.parametrize("dim", (0, 1))
    def test_low_skeletons_enumerate_no_cliques(self, dim):
        k4 = k4_with_doubled_edge()
        with mock.patch("multihom.mcomplex._higher_cliques", side_effect=AssertionError):
            x = clique_multicomplex(k4, PER_COMBINATION, dim)
        assert [len(grade) for grade in x.grades] == [4, 7][: dim + 1]

    def test_k30_one_skeleton_builds(self):
        # the whole complex would be refused; its 1-skeleton has 465 cells
        k30 = G(range(30), [(u, v, "red") for u, v in itertools.combinations(range(30), 2)])
        with cell_budget(465):
            assert betti(clique_multicomplex(k30, CANONICAL, 1)) == (1, 406)

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            clique_multicomplex(doubled_edge_triangle(), CANONICAL, -1)


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
        rows = []
        for pair in g.pairs():
            rows += [(*pair, c) for c in data.draw(st.permutations(g.colors(pair)))]
        shuffled = Multigraph.build(g.nodes, rows, g.palette)
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

    @given(
        g=st.one_of(
            multigraphs(max_nodes=7, max_mult=1),
            multigraphs(max_nodes=8, max_mult=1, sparse_labels=True),
        ),
        size=st.one_of(st.none(), st.integers(3, 7)),
    )
    @settings(max_examples=80)
    def test_higher_cliques_match_bruteforce(self, g, size):
        got = list(_higher_cliques(g.nodes, g.pairs(), size))
        expected = [
            t for t in cliques_bruteforce(g.nodes, g.pairs()) if 3 <= len(t) <= (size or len(t))
        ]
        # each clique once, in lexicographic order
        assert got == sorted(expected)

    @pytest.mark.parametrize("policy", POLICIES)
    @given(
        g=st.one_of(
            multigraphs(max_nodes=6, max_mult=2),
            multigraphs(max_nodes=7, max_mult=1, sparse_labels=True),
        ),
        dim=st.one_of(st.none(), st.integers(0, 4)),
    )
    @settings(max_examples=60)
    def test_clique_cells_is_the_built_shape(self, policy, g, dim):
        # grade d maps the (d+1)-cliques, in lexicographic order, to their
        # cells in the built complex or skeleton, and no grade is empty
        shape = clique_cells(g, policy, dim)
        x = clique_multicomplex(g, policy, dim)
        cliques = cliques_bruteforce(g.nodes, g.pairs())
        top = max(map(len, cliques)) - 1
        assert all(shape)
        assert len(shape) == len(x.grades) == 1 + (top if dim is None else min(dim, top))
        for d, grade in enumerate(shape):
            assert list(grade.items()) == list(Counter(x.grade(d).vertices).items())
            assert list(grade) == [tau for tau in cliques if len(tau) == d + 1]

    def test_deep_cliques_need_no_recursion(self):
        # depth-first growth of K_1050 nests 1050 cliques, past Python's
        # default recursion limit of 1000
        n = 1050
        everything = _higher_cliques(range(n), itertools.combinations(range(n), 2))
        cliques = list(itertools.islice(everything, 2000))
        assert len(cliques) == 2000
        assert cliques[: n - 2] == [tuple(range(k)) for k in range(3, n + 1)]


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

    def test_palette_and_policy_must_agree(self):
        g = G([1, 2], [(1, 2, "red")])
        a = clique_multicomplex(g)
        with pytest.raises(PaletteMismatch, match="^complexes disagree on the palette$"):
            complex_merge(a, clique_multicomplex(G([1, 2], [(1, 2, "red")], ("red",))))
        with pytest.raises(ValueError, match="^policy mismatch: canonical vs per-combination$"):
            complex_merge(a, clique_multicomplex(g, PER_COMBINATION))

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
