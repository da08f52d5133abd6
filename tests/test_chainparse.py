"""Chain-expression grammar: precedence, parentheses, error reporting."""

from __future__ import annotations

import pytest
from hypothesis import given

from multihom import (
    ChainSyntaxError,
    Connective,
    UnsupportedShape,
    merge_count,
    parse_chain,
)
from multihom.chainparse import MAX_DEPTH

from conftest import chain_exprs


class TestGrammar:
    def test_merge_binds_tighter_than_tensor(self):
        x = parse_chain("G | H . K")
        assert x.blocks() == (("G",), ("H", "K"))
        assert x.connectives == (Connective.TENSOR, Connective.MERGE)

    def test_flat_tensor_chain(self):
        x = parse_chain("G | H | K | L")
        assert x.atoms == ("G", "H", "K", "L")
        assert merge_count(x) == 0

    def test_single_atom(self):
        assert parse_chain("G").atoms == ("G",)

    def test_whitespace_insignificant(self):
        assert parse_chain(" G|H .  K ") == parse_chain("G | H . K")

    def test_identifier_atoms(self):
        x = parse_chain("layer_1 . Layer2 | _x")
        assert x.atoms == ("layer_1", "Layer2", "_x")

    def test_parentheses_regroup_tensor(self):
        assert parse_chain("(G | H) | K") == parse_chain("G | H | K")
        assert parse_chain("G | (H . K) | L") == parse_chain("G | H . K | L")

    def test_nested_parentheses(self):
        assert parse_chain("((G . H)) | K") == parse_chain("G . H | K")

    def test_merge_of_merge_flattens(self):
        assert parse_chain("(G . H) . K") == parse_chain("G . H . K")


class TestRejections:
    def test_tensor_under_merge_rejected(self):
        with pytest.raises(UnsupportedShape):
            parse_chain("(G | H) . K")
        with pytest.raises(UnsupportedShape):
            parse_chain("G . (H | K)")

    def test_empty_input(self):
        with pytest.raises(ChainSyntaxError):
            parse_chain("")
        with pytest.raises(ChainSyntaxError):
            parse_chain("   ")

    def test_trailing_operator(self):
        with pytest.raises(ChainSyntaxError):
            parse_chain("G |")

    def test_leading_operator(self):
        with pytest.raises(ChainSyntaxError):
            parse_chain("| G")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ChainSyntaxError):
            parse_chain("(G | H")
        with pytest.raises(ChainSyntaxError):
            parse_chain("G )")

    def test_unexpected_character(self):
        with pytest.raises(ChainSyntaxError):
            parse_chain("G + H")

    def test_deep_nesting_is_a_syntax_error(self):
        # a recursive descent this deep would overflow Python's stack
        with pytest.raises(ChainSyntaxError) as exc_info:
            parse_chain("(" * 3000 + "G" + ")" * 3000)
        assert exc_info.value.position == MAX_DEPTH
        assert parse_chain("(" * MAX_DEPTH + "G" + ")" * MAX_DEPTH).atoms == ("G",)

    def test_error_carries_position(self):
        with pytest.raises(ChainSyntaxError) as exc_info:
            parse_chain("G | | H")
        assert exc_info.value.position == 4
        assert "position 4" in str(exc_info.value)


class TestRoundTrip:
    @given(chain_exprs())
    def test_parse_of_text_is_identity(self, x):
        assert parse_chain(x.text()) == x
