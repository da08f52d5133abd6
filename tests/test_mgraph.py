"""Multigraph values, the merge/tensor operations, and their laws."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from unittest import mock

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
    canonical,
    clique_multicomplex,
    color_count,
    merge,
    tensor,
    vertex_disjoint,
)

from conftest import PALETTE, multigraphs
from oracles import copies_by_pair_scan


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


# -- construction and validation -----------------------------------------------


class TestConstruction:
    def test_build_assigns_contiguous_copy_indices(self):
        g = G([1, 2], [(1, 2, "red"), (1, 2, "black"), (1, 2, "red")])
        assert g.multiplicity((1, 2)) == 3
        assert [e.copy for e in g.copies((1, 2))] == [1, 2, 3]

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

    def test_edge_copy_self_loop_rejected(self):
        with pytest.raises(SelfLoopPresent):
            EdgeCopy(2, 2, 1, "red")

    def test_endpoint_outside_nodes_rejected(self):
        with pytest.raises(GraphStructureError):
            Multigraph(frozenset({1, 2}), (EdgeCopy(1, 3, 1, "red"),), frozenset(PALETTE))

    def test_colour_outside_palette_rejected(self):
        with pytest.raises(PaletteMismatch):
            G([1, 2], [(1, 2, "violet")])

    def test_noncontiguous_copies_rejected(self):
        with pytest.raises(GraphStructureError):
            Multigraph(frozenset({1, 2}), (EdgeCopy(1, 2, 2, "red"),), frozenset(PALETTE))

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(GraphStructureError):
            G([1, 2], [(1, 2, "red", 0)])

    def test_empty_graph(self):
        g = Multigraph.empty(PALETTE)
        assert g.nodes == frozenset()
        assert g.pairs() == ()
        assert color_count(g) == 0


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
        c = canonical(g)
        assert c == g
        assert [e.color for e in c.copies((1, 2))] == ["black", "blue", "red"]


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
        copies = m.copies((1, 2))
        assert copies[0].color == "red" and copies[0].copy == 1
        assert [e.color for e in copies[1:]] == ["black", "black"]

    def test_node_count_formula(self):
        # n + m - p with p shared labels
        a = G([1, 2, 3], [(1, 2, "red")])
        b = G([2, 3, 4, 5], [(4, 5, "black")])
        m = merge(a, b)
        assert len(m.nodes) == 3 + 4 - 2

    def test_colour_count_formula(self):
        a = G([1, 2], [(1, 2, "red")], palette=PALETTE)
        b = G([1, 2], [(1, 2, "black")], palette=PALETTE)
        assert color_count(merge(a, b)) == 1 + 1 - 0
        assert color_count(merge(a, a)) == 1

    def test_disjoint_colour_merge_counts(self):
        # two colours on each side, no overlap: k + j - s = 4
        palette = ("c1", "c2", "c3", "c4")
        a = G([1, 2, 3], [(1, 2, "c1"), (2, 3, "c2")], palette)
        b = G([1, 2, 3], [(1, 3, "c3"), (2, 3, "c4")], palette)
        assert color_count(merge(a, b)) == 4

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
        for g in (a, b, m, canonical(a), canonical(b), canonical(m)):
            groups = copies_by_pair_scan(g.edges)
            assert g.pairs() == tuple(groups)
            assert g.multiplicities() == {p: len(c) for p, c in groups.items()}
            for p, copies in groups.items():
                assert g.copies(p) == copies
                assert g.colors(p) == tuple(e.color for e in copies)
                assert g.multiplicity(p) == len(copies)
                assert g.color_multiset(p) == tuple(sorted(e.color for e in copies))
            assert g.copies((0, 1)) == () and g.multiplicity((0, 1)) == 0
            assert g.color_multiset((0, 1)) == () and g.colors((0, 1)) == ()

    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5))
    def test_merge_equals_the_validating_constructor(self, a, b):
        # merge, canonical and build write per-pair colour tuples; the
        # EdgeCopy constructor, given the copies each should make, must
        # agree with them on the edge order and on the pair index
        shifted = [
            EdgeCopy(e.u, e.v, a.multiplicity(e.pair) + e.copy, e.color) for e in b.edges
        ]
        by_colour = [
            EdgeCopy(e.u, e.v, i, e.color)
            for p in a.pairs()
            for i, e in enumerate(sorted(a.copies(p), key=lambda e: (e.color, e.copy)), 1)
        ]
        # rows with swapped endpoints and pairs interleaved, each pair's copies in order
        rows = [(e.v, e.u, e.color) for e in sorted(a.edges, key=lambda e: (e.copy, e.pair))]
        for made, checked in [
            (merge(a, b), Multigraph(a.nodes | b.nodes, a.edges + tuple(shifted), a.palette)),
            (canonical(a), Multigraph(a.nodes, by_colour, a.palette)),
            (Multigraph.build(a.nodes, rows, a.palette), Multigraph(a.nodes, a.edges, a.palette)),
        ]:
            assert (made.nodes, made.palette) == (checked.nodes, checked.palette)
            assert made.edges == checked.edges
            assert list(made._by_pair.items()) == list(checked._by_pair.items())

    def test_complex_path_makes_no_edge_copies(self):
        # K4 with doubled pairs: the canonical policy reads each pair's
        # first copy in colour order, per-combination every copy
        rows = [(u, v, c) for u, v in itertools.combinations(range(4), 2) for c in ("red", "blue")]
        made = []
        check = EdgeCopy.__post_init__

        def counted(e):
            made.append(e)
            check(e)

        with mock.patch.object(EdgeCopy, "__post_init__", counted):
            g = canonical(merge(G(range(4), rows[::2]), G(range(4), rows[1::2])))
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
    def test_vertex_disjoint(self):
        a = G([1, 2], [(1, 2, "red")])
        b = G([3, 4], [(3, 4, "black")])
        c = G([2, 3], [(2, 3, "blue")])
        assert vertex_disjoint(a, b)
        assert not vertex_disjoint(a, b, c)

    def test_to_json_dict_groups_copies(self):
        g = G([1, 2, 3], [(1, 2, "red", 2), (2, 3, "black")])
        payload = g.to_json_dict()
        assert payload["nodes"] == [1, 2, 3]
        assert {"u": 1, "v": 2, "color": "red", "mult": 2} in payload["edges"]
        assert {"u": 2, "v": 3, "color": "black", "mult": 1} in payload["edges"]
