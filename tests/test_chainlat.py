"""Chain expressions: order, lattice operations, flow maps, partial sum."""

from __future__ import annotations

import pytest
from hypothesis import given

from multihom import (
    UNDEFINED,
    ChainEnv,
    ChainExpr,
    Connective,
    IncomparableAtoms,
    IndexOutOfRange,
    Multigraph,
    UnknownAtom,
    all_chains,
    apply_f,
    bottom_chain,
    check_laws,
    complement,
    evaluate,
    join,
    leq,
    meet,
    merge,
    merge_count,
    minimal_chains,
    parse_chain,
    plus,
    top_chain,
)
from multihom.chainlat import MAX_WITNESSES

from conftest import PALETTE, chain_pairs_same_atoms, chain_triples_same_atoms


def C(text: str) -> ChainExpr:
    return parse_chain(text)


# -- structure -------------------------------------------------------------------


class TestChainExpr:
    def test_k_and_grade(self):
        x = C("G | H . K")
        assert x.k == 3
        assert merge_count(x) == 1

    def test_blocks(self):
        assert C("G | H . K").blocks() == (("G",), ("H", "K"))
        assert C("G . H . K").blocks() == (("G", "H", "K"),)

    def test_text_round_trip(self):
        for s in ("G", "G | H", "G . H | K . L"):
            assert C(s).text() == s

    def test_pretty_uses_operator_glyphs(self):
        assert C("G | H . K").pretty() == "G ⊗ H ⊙ K"

    def test_single_atom(self):
        x = C("G")
        assert x.k == 1
        assert x.connectives == ()
        assert x.blocks() == (("G",),)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(Exception):
            ChainExpr(("G", "H"), ())

    def test_no_atoms_rejected(self):
        with pytest.raises(ValueError, match="^a chain needs at least one atom$"):
            ChainExpr(())


# -- order -----------------------------------------------------------------------


class TestOrder:
    def test_tensor_below_merge(self):
        assert leq(C("G | H | K"), C("G . H | K"))

    def test_reflexive(self):
        x = C("G . H | K")
        assert leq(x, x)

    def test_incomparable_mixed_positions(self):
        assert not leq(C("G . H | K"), C("G | H . K"))
        assert not leq(C("G | H . K"), C("G . H | K"))

    def test_false_across_atom_orders(self):
        assert not leq(C("G | H"), C("H | G"))
        assert not leq(C("H | G"), C("G | H"))

    @given(chain_pairs_same_atoms())
    def test_antisymmetry(self, pair):
        x, y = pair
        if leq(x, y) and leq(y, x):
            assert x == y

    @given(chain_triples_same_atoms())
    def test_transitivity(self, triple):
        x, y, z = triple
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


# -- lattice operations ------------------------------------------------------------


class TestLattice:
    def test_meet_join_examples(self):
        x, y = C("G . H | K"), C("G | H . K")
        assert meet(x, y) == C("G | H | K")
        assert join(x, y) == C("G . H . K")

    def test_meet_requires_same_atoms(self):
        with pytest.raises(IncomparableAtoms):
            meet(C("G | H"), C("H | G"))
        with pytest.raises(IncomparableAtoms):
            join(C("G | H"), C("H | G"))

    def test_top_and_bottom(self):
        atoms = ("G", "H", "K")
        assert top_chain(atoms) == C("G . H . K")
        assert bottom_chain(atoms) == C("G | H | K")

    def test_minimal_chains_are_all_tensor_permutations(self):
        mins = minimal_chains(("G", "H", "K"))
        assert len(mins) == 6
        assert C("H | G | K") in mins
        assert all(merge_count(m) == 0 for m in mins)
        # mutually incomparable
        assert all(
            not leq(a, b) for a in mins for b in mins if a != b
        )

    def test_all_chains_count(self):
        assert len(all_chains(("G", "H", "K", "L"))) == 8

    def test_complement(self):
        assert complement(C("G . H | K")) == C("G | H . K")
        x = C("G | H . K | L")
        assert join(x, complement(x)) == top_chain(x.atoms)
        assert meet(x, complement(x)) == bottom_chain(x.atoms)

    @given(chain_pairs_same_atoms())
    def test_meet_is_greatest_lower_bound(self, pair):
        x, y = pair
        m = meet(x, y)
        assert leq(m, x) and leq(m, y)
        for z in all_chains(x.atoms):
            if leq(z, x) and leq(z, y):
                assert leq(z, m)

    @given(chain_pairs_same_atoms())
    def test_join_is_least_upper_bound(self, pair):
        x, y = pair
        j = join(x, y)
        assert leq(x, j) and leq(y, j)
        for z in all_chains(x.atoms):
            if leq(x, z) and leq(y, z):
                assert leq(j, z)


# -- flow maps -----------------------------------------------------------------------


class TestFlowMaps:
    def test_f1_merges_first_position(self):
        assert apply_f(1, C("G | H | K")) == C("G . H | K")

    def test_f0_is_identity(self):
        x = C("G | H . K")
        assert apply_f(0, x) == x

    def test_fixed_point_at_top(self):
        top = C("G . H . K")
        assert apply_f(2, top) == top

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_f(3, C("G | H | K"))
        with pytest.raises(IndexOutOfRange):
            apply_f(-1, C("G | H | K"))

    def test_flow_maps_commute_and_reach_top(self):
        x = C("G | H | K | L")
        y = apply_f(1, apply_f(3, x))
        z = apply_f(3, apply_f(1, x))
        assert y == z
        w = x
        for j in range(1, x.k):
            w = apply_f(j, w)
        assert w == top_chain(x.atoms)

    @given(chain_pairs_same_atoms(max_k=4))
    def test_monotone(self, pair):
        x, y = pair
        if leq(x, y):
            for j in range(x.k):
                assert leq(apply_f(j, x), apply_f(j, y))

    @given(chain_pairs_same_atoms(max_k=4))
    def test_preserves_meet_and_join(self, pair):
        x, y = pair
        for j in range(x.k):
            assert apply_f(j, meet(x, y)) == meet(apply_f(j, x), apply_f(j, y))
            assert apply_f(j, join(x, y)) == join(apply_f(j, x), apply_f(j, y))


# -- partial sum -----------------------------------------------------------------------


class TestPlus:
    def test_plus_is_minimum_of_comparable(self):
        lo, hi = C("G | H | K"), C("G . H | K")
        assert plus(lo, hi) == lo
        assert plus(hi, lo) == lo

    def test_plus_undefined_on_incomparable(self):
        assert plus(C("G . H | K"), C("G | H . K")) is UNDEFINED

    def test_top_is_identity(self):
        top = top_chain(("G", "H", "K"))
        for x in all_chains(("G", "H", "K")):
            assert plus(top, x) == x
            assert plus(x, top) == x

    @given(chain_pairs_same_atoms())
    def test_commutative(self, pair):
        x, y = pair
        assert plus(x, y) == plus(y, x)

    @given(chain_pairs_same_atoms())
    def test_idempotent(self, pair):
        x, _ = pair
        assert plus(x, x) == x


# -- law harness ------------------------------------------------------------------------


class TestCheckLaws:
    def test_all_laws_hold_small(self):
        assert check_laws(("G", "H")) == []
        assert check_laws(("G", "H", "K")) == []

    def test_corrupted_meet_is_detected(self):
        # a "meet" that always returns its left operand breaks the laws
        violations = check_laws(("G", "H", "K"), meet_fn=lambda x, y: x)
        assert violations

    def test_corrupted_join_is_detected(self):
        violations = check_laws(("G", "H", "K"), join_fn=lambda x, y: meet(x, y))
        assert violations

    def test_witness_cap_respected(self):
        # over four atoms the corrupted meet breaks 63 laws, past the cap
        violations = check_laws(("G", "H", "K", "L"), meet_fn=lambda x, y: x)
        witnesses = [v for v in violations if "truncated" not in v]
        assert len(witnesses) == MAX_WITNESSES == 25
        assert violations[MAX_WITNESSES:] == ["... witness list truncated"]


# -- evaluation ------------------------------------------------------------------------


class TestEvaluate:
    def setup_method(self):
        self.g = Multigraph.build([1, 2], [(1, 2, "red")], PALETTE)
        self.h = Multigraph.build([2, 3], [(2, 3, "black")], PALETTE)
        self.k = Multigraph.build([1, 3], [(1, 3, "blue")], PALETTE)
        self.env = ChainEnv({"G": self.g, "H": self.h, "K": self.k})

    def test_blocks_merge_layers_tensor(self):
        result = evaluate(parse_chain("G | H . K"), self.env)
        assert result.layers == (self.g, merge(self.h, self.k))

    def test_all_merge_single_layer(self):
        result = evaluate(parse_chain("G . H . K"), self.env)
        assert len(result) == 1
        assert result.layers[0] == merge(merge(self.g, self.h), self.k)

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            evaluate(parse_chain("G | Z"), self.env)

    def test_env_rejects_mixed_palettes(self):
        other = Multigraph.build([1, 2], [(1, 2, "x")], ("x",))
        with pytest.raises(Exception):
            ChainEnv({"G": self.g, "X": other})
