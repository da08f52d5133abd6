"""Multigraph values, the merge/tensor operations, and their laws."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import time
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

from multihom import (
    POLICIES,
    EdgeCopy,
    GraphStructureError,
    Multigraph,
    Multilayer,
    PaletteMismatch,
    SelfLoopPresent,
    betti,
    clique_multicomplex,
    merge,
    merged_key,
    tensor,
)
from multihom.randgen import random_multigraph

from conftest import PALETTE, multigraphs
from oracles import colours_by_pair_grouping, copies_by_pair_scan


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


def in_colour_order(g: Multigraph) -> Multigraph:
    """An equal graph built with each pair's copies in colour order."""
    rows = [(u, v, c) for u, v in g.pairs() for c in g.color_multiset((u, v))]
    return Multigraph.build(g.nodes, rows, g.palette)


# -- construction and validation -----------------------------------------------


class TestConstruction:
    def test_build_assigns_contiguous_copy_indices(self):
        g = G([1, 2], [(1, 2, "red"), (1, 2, "black"), (1, 2, "red")])
        assert g.multiplicity((1, 2)) == 3
        assert [e.copy for e in g.edges if e.pair == (1, 2)] == [1, 2, 3]
        assert g.colors((1, 2)) == ("red", "black", "red")

    def test_build_normalizes_endpoint_order(self):
        g = G([1, 2], [(2, 1, "red")])
        assert g.pairs() == ((1, 2),)

    def test_mult_shorthand_expands(self):
        g = G([1, 2], [(1, 2, "red", 3)])
        assert g.multiplicity((1, 2)) == 3
        assert g.color_multiset((1, 2)) == ("red", "red", "red")

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopPresent):
            G([1], [(1, 1, "red")])

    def test_endpoint_outside_nodes_rejected(self):
        with pytest.raises(GraphStructureError, match=r"edge \(1, 3\) has endpoints outside"):
            G([1, 2], [(3, 1, "red")])

    def test_colour_outside_palette_rejected(self):
        with pytest.raises(PaletteMismatch):
            G([1, 2], [(1, 2, "violet")])

    def test_build_is_the_only_door(self):
        # copies are numbered by build alone, so no caller can hand in
        # non-contiguous ones: the constructor over EdgeCopy values is gone
        with pytest.raises(TypeError):
            Multigraph(frozenset({1, 2}), (EdgeCopy(1, 2, 2, "red"),), frozenset(PALETTE))
        # nor with no arguments, which would make a graph with no fields
        with pytest.raises(TypeError, match="Multigraph.build"):
            Multigraph()
        # copies and pickles still make graphs, though they never call the constructor
        g = G([1, 2, 3], [(1, 2, "red"), (1, 2, "black"), (2, 3, "blue")])
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
            assert twin.pairs() == g.pairs() and twin.colors((1, 2)) == g.colors((1, 2))

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(GraphStructureError):
            G([1, 2], [(1, 2, "red", 0)])

    def test_empty_graph(self):
        g = Multigraph.empty(PALETTE)
        assert g.nodes == frozenset()
        assert g.pairs() == ()
        assert g.colors_used() == frozenset()


# -- semantic equality -----------------------------------------------------------


class TestEquality:
    def test_copy_labels_do_not_matter(self):
        a = G([1, 2], [(1, 2, "red"), (1, 2, "black")])
        b = G([1, 2], [(1, 2, "black"), (1, 2, "red")])
        assert a == b
        assert hash(a) == hash(b)

    def test_colour_multiset_matters(self):
        a = G([1, 2], [(1, 2, "red"), (1, 2, "red")])
        b = G([1, 2], [(1, 2, "red"), (1, 2, "black")])
        assert a != b

    def test_isolated_nodes_matter(self):
        a = G([1, 2, 3], [(1, 2, "red")])
        b = G([1, 2], [(1, 2, "red")])
        assert a != b

    def test_identity_is_computed_once(self, monkeypatch):
        calls = Counter()
        colour_multiset = Multigraph.color_multiset

        def counted(g, pair):
            calls[id(g), pair] += 1
            return colour_multiset(g, pair)

        monkeypatch.setattr(Multigraph, "color_multiset", counted)
        a = G([1, 2, 3], [(1, 2, "red"), (1, 2, "black"), (2, 3, "blue")])
        b = G([1, 2, 3], [(1, 2, "black"), (1, 2, "red"), (2, 3, "blue")])
        for _ in range(5):
            assert a == b and hash(a) == hash(b)
            assert {a: 1}[b] == 1
        assert set(calls) == {(id(g), p) for g in (a, b) for p in g.pairs()}
        assert set(calls.values()) == {1}

    def test_canonical_is_equal_representative(self):
        g = G([1, 2], [(1, 2, "blue"), (1, 2, "black"), (1, 2, "red")])
        c = in_colour_order(g)
        assert c == g
        assert c.colors((1, 2)) == ("black", "blue", "red")


# -- merge -----------------------------------------------------------------------


class TestMerge:
    def test_multiplicities_add(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([1, 2], [(1, 2, "black", 2)])
        m = merge(a, b)
        assert m.multiplicity((1, 2)) == 3
        assert sorted(m.color_multiset((1, 2))) == ["black", "black", "red"]

    def test_left_copies_stable_right_appended(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([1, 2], [(1, 2, "black", 2)])
        m = merge(a, b)
        assert m.colors((1, 2)) == ("red", "black", "black")

    def test_node_count_formula(self):
        # n + m - p with p shared labels
        a = G([1, 2, 3], [(1, 2, "red")])
        b = G([2, 3, 4, 5], [(4, 5, "black")])
        m = merge(a, b)
        assert len(m.nodes) == 3 + 4 - 2

    def test_colour_count_formula(self):
        a = G([1, 2], [(1, 2, "red")], palette=PALETTE)
        b = G([1, 2], [(1, 2, "black")], palette=PALETTE)
        assert len(merge(a, b).colors_used()) == 1 + 1 - 0
        assert len(merge(a, a).colors_used()) == 1

    def test_disjoint_colour_merge_counts(self):
        # two colours on each side, no overlap: k + j - s = 4
        palette = ("c1", "c2", "c3", "c4")
        a = G([1, 2, 3], [(1, 2, "c1"), (2, 3, "c2")], palette)
        b = G([1, 2, 3], [(1, 3, "c3"), (2, 3, "c4")], palette)
        assert len(merge(a, b).colors_used()) == 4

    def test_palette_mismatch_rejected(self):
        a = G([1, 2], [(1, 2, "red")], palette=("red",))
        b = G([1, 2], [(1, 2, "black")], palette=("black",))
        with pytest.raises(PaletteMismatch):
            merge(a, b)

    def test_identity_element(self):
        g = G([1, 2, 3], [(1, 2, "red"), (2, 3, "black", 2)])
        unit = Multigraph.empty(PALETTE)
        assert merge(g, unit) == g
        assert merge(unit, g) == g

    @given(multigraphs(), multigraphs())
    def test_commutative(self, a, b):
        assert merge(a, b) == merge(b, a)

    @given(multigraphs(max_nodes=4), multigraphs(max_nodes=4), multigraphs(max_nodes=4))
    def test_associative(self, a, b, c):
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    @given(multigraphs())
    def test_merge_with_empty_is_identity(self, g):
        assert merge(g, Multigraph.empty(PALETTE)) == g

    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5))
    def test_merge_is_the_checked_build_over_both_row_lists(self, a, b):
        # merge checks only the palettes, so its graph must be the one the
        # checked build makes from a's rows, then b's, copy for copy
        rows = [(u, v, c) for g in (a, b) for u, v in g.pairs() for c in g.colors((u, v))]
        built = Multigraph.build(a.nodes | b.nodes, rows, a.palette)
        m = merge(a, b)
        assert (m.nodes, m.palette, m.pairs()) == (built.nodes, built.palette, built.pairs())
        assert [m.colors(p) for p in m.pairs()] == [built.colors(p) for p in built.pairs()]
        assert m == built

    @given(st.randoms(use_true_random=False))
    def test_merged_key_is_the_key_of_the_merge(self, rng):
        # over four nodes most pairs of graphs share a pair
        a, b = (
            random_multigraph(rng, max_nodes=4, max_mult=2, palette=PALETTE, node_universe=range(1, 5))
            for _ in range(2)
        )
        assert merged_key(a.key, b.key) == merge(a, b).key == merge(b, a).key
        assert merged_key(b.key, a.key) == merge(a, b).key

    def test_merged_key_of_shared_pairs_sorts_their_colours(self):
        a = G([1, 2, 3], [(1, 2, "red"), (2, 3, "blue")])
        b = G([2, 3, 4], [(2, 3, "black"), (2, 3, "red"), (3, 4, "red")])
        assert merged_key(a.key, b.key) == (
            frozenset({1, 2, 3, 4}),
            frozenset(PALETTE),
            (((1, 2), ("red",)), ((2, 3), ("black", "blue", "red")), ((3, 4), ("red",))),
        )

    def test_merged_key_refuses_a_palette_mismatch_as_merge_does(self):
        a = G([1, 2], [(1, 2, "red")], palette=("red",))
        b = G([1, 2], [(1, 2, "black")], palette=("black",))
        with pytest.raises(PaletteMismatch) as by_graph:
            merge(a, b)
        with pytest.raises(PaletteMismatch) as by_key:
            merged_key(a.key, b.key)
        assert str(by_key.value) == str(by_graph.value) == (
            "operands disagree on palette: ['red'] vs ['black']"
        )

    @given(multigraphs(), multigraphs())
    def test_multiplicity_additivity(self, a, b):
        m = merge(a, b)
        pairs = set(a.pairs()) | set(b.pairs())
        assert set(m.pairs()) == pairs
        for p in pairs:
            assert m.multiplicity(p) == a.multiplicity(p) + b.multiplicity(p)
            assert sorted(m.color_multiset(p)) == sorted(
                a.color_multiset(p) + b.color_multiset(p)
            )


# -- the per-pair index ---------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, p: float) -> Multigraph:
    rows = [
        (u, v, rng.choice(PALETTE))
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return G(range(1, n + 1), rows)


class TestPairIndex:
    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5))
    def test_views_match_a_scan_of_the_edges(self, a, b):
        m = merge(a, b)
        for g in (a, b, m, in_colour_order(a), in_colour_order(b), in_colour_order(m)):
            groups = copies_by_pair_scan(g.edges)
            assert g.pairs() == tuple(groups)
            assert g.multiplicities() == {p: len(c) for p, c in groups.items()}
            for p, copies in groups.items():
                assert [e.copy for e in copies] == list(range(1, len(copies) + 1))
                assert g.colors(p) == tuple(e.color for e in copies)
                assert g.multiplicity(p) == len(copies)
                assert g.color_multiset(p) == tuple(sorted(e.color for e in copies))
            assert g.multiplicity((0, 1)) == 0
            assert g.color_multiset((0, 1)) == () and g.colors((0, 1)) == ()

    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5), st.randoms(use_true_random=False))
    def test_merge_and_build_equal_a_plain_grouping_of_rows(self, a, b, rng):
        # merge and build write per-pair colour tuples; a plain grouping of
        # the rows each is given (pairs sorted, colours in row order) must
        # agree with them on the pair index, and so on the edge order
        a_rows, b_rows = ([(e.u, e.v, e.color) for e in g.edges] for g in (a, b))
        # endpoints swapped at random and pairs interleaved, each pair's copies in order
        mixed = [
            (e.v, e.u, e.color) if rng.random() < 0.5 else (e.u, e.v, e.color)
            for e in sorted(a.edges, key=lambda e: (e.copy, e.pair))
        ]
        both = a.nodes | b.nodes
        for made, nodes, rows in [
            (merge(a, b), both, a_rows + b_rows),
            (Multigraph.build(both, a_rows + b_rows, a.palette), both, a_rows + b_rows),
            (Multigraph.build(both, mixed + b_rows, a.palette), both, a_rows + b_rows),
            (Multigraph.build(a.nodes, mixed, a.palette), a.nodes, a_rows),
            (in_colour_order(a), a.nodes, sorted(a_rows)),
        ]:
            expected = colours_by_pair_grouping(rows)
            assert (made.nodes, made.palette) == (nodes, a.palette)
            assert list(made._by_pair.items()) == list(expected.items())
            assert made.edges == tuple(
                EdgeCopy(u, v, i, c) for (u, v), cs in expected.items() for i, c in enumerate(cs, 1)
            )

    def test_complex_path_makes_no_edge_copies(self):
        # K4 with doubled pairs: the canonical policy reads each pair's
        # first copy in colour order, per-combination every copy
        rows = [(u, v, c) for u, v in itertools.combinations(range(4), 2) for c in ("red", "blue")]
        made = []
        init = EdgeCopy.__init__

        def counted(e, *args, **kwargs):
            made.append(e)
            init(e, *args, **kwargs)

        with mock.patch.object(EdgeCopy, "__init__", counted):
            # blue copies first, so each pair's copies are in colour order
            g = merge(G(range(4), rows[1::2]), G(range(4), rows[::2]))
            for policy in POLICIES:
                betti(clique_multicomplex(g, policy))
            assert made == []
            g.edges  # a view makes EdgeCopy values, so the count is live
        assert len(made) == 12

    def test_merge_and_hash_scale_with_the_edge_count(self):
        # two 600-node graphs of about 4,500 copies each; a per-pair scan
        # of every edge makes this quadratic (about 20 s)
        rng = random.Random(600)
        a, b = _random_graph(rng, 600, 0.025), _random_graph(rng, 600, 0.025)
        start = time.perf_counter()
        m = merge(a, b)
        hash(m)
        elapsed = time.perf_counter() - start
        assert len(m.edges) == len(a.edges) + len(b.edges) == 8982
        assert elapsed < 2.0, f"merge + hash of {len(m.edges)} copies took {elapsed:.2f} s"


# -- tensor ------------------------------------------------------------------------


class TestTensor:
    def test_orders_layers(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([3, 4], [(3, 4, "black")])
        t = tensor(a, b)
        assert isinstance(t, Multilayer)
        assert t.layers == (a, b)

    def test_noncommutative_for_distinct_layers(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([3, 4], [(3, 4, "black")])
        assert tensor(a, b) != tensor(b, a)

    def test_swap_of_equal_layers_is_equal(self):
        a = G([1, 2], [(1, 2, "red")])
        assert tensor(a, a) == tensor(a, a)

    def test_flattens_nested_layers(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([3, 4], [(3, 4, "black")])
        c = G([5, 6], [(5, 6, "blue")])
        assert tensor(tensor(a, b), c).layers == (a, b, c)
        assert tensor(a, tensor(b, c)).layers == (a, b, c)

    def test_layer_count_and_iter(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([3, 4], [(3, 4, "black")])
        t = tensor(a, b)
        assert len(t) == 2
        assert list(t) == [a, b]


# -- helpers -------------------------------------------------------------------------


class TestHelpers:
    def test_to_json_dict_groups_copies(self):
        g = G([1, 2, 3], [(1, 2, "red", 2), (2, 3, "black")])
        payload = g.to_json_dict()
        assert payload["nodes"] == [1, 2, 3]
        assert {"u": 1, "v": 2, "color": "red", "mult": 2} in payload["edges"]
        assert {"u": 2, "v": 3, "color": "black", "mult": 1} in payload["edges"]
