"""Text grammar for chain expressions.

    chain  := term ('|' term)*          tensor, lowest precedence
    term   := factor ('.' factor)*      merge binds tighter
    factor := ATOM | '(' chain ')'

Atoms are identifiers.  Parentheses are accepted only where the result
still flattens to a chain: a tensor nested under a merge has no chain
form and is rejected with UnsupportedShape.  They may nest at most
MAX_DEPTH deep, so the recursive descent stays well inside Python's
recursion limit.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .chainlat import ChainExpr, Connective
from .errors import ChainSyntaxError, UnsupportedShape

__all__ = ["parse_chain"]

MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(?:(?P<atom>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[|.()]))")


class _Token(NamedTuple):
    kind: str  # "atom" | "|" | "." | "(" | ")" | "end"
    value: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m:
            if src[i:].strip() == "":
                break
            raise ChainSyntaxError(f"unexpected character {src[i:].lstrip()[0]!r}", i)
        if m.group("atom"):
            out.append(_Token("atom", m.group("atom"), m.start("atom")))
        else:
            op = m.group("op")
            out.append(_Token(op, op, m.start("op")))
        i = m.end()
    out.append(_Token("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> ChainExpr:
        expr = self.chain()
        tok = self.peek()
        if tok.kind != "end":
            raise ChainSyntaxError(f"unexpected {tok.value!r} after expression", tok.pos)
        return expr

    def chain(self) -> ChainExpr:
        parts = [self.term()]
        while self.peek().kind == "|":
            self.take()
            parts.append(self.term())
        return _combine(parts, Connective.TENSOR)

    def term(self) -> ChainExpr:
        parts = [self.factor()]
        while self.peek().kind == ".":
            self.take()
            parts.append(self.factor())
        return _combine(parts, Connective.MERGE)

    def factor(self) -> ChainExpr:
        tok = self.take()
        if tok.kind == "atom":
            return ChainExpr((tok.value,), ())
        if tok.kind == "(":
            if self.depth == MAX_DEPTH:
                raise ChainSyntaxError(
                    f"parentheses nested deeper than {MAX_DEPTH}", tok.pos
                )
            self.depth += 1
            inner = self.chain()
            self.depth -= 1
            closing = self.take()
            if closing.kind != ")":
                raise ChainSyntaxError("expected ')'", closing.pos)
            return inner
        raise ChainSyntaxError(
            f"expected an atom or '(', got {tok.value!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
        )


def _combine(parts: list[ChainExpr], conn: Connective) -> ChainExpr:
    # Tensor flattens freely; merge may not absorb a part that already
    # contains a tensor (no flat chain expresses that grouping).
    if len(parts) == 1:
        return parts[0]
    if conn is Connective.MERGE:
        for p in parts:
            if Connective.TENSOR in p.connectives:
                raise UnsupportedShape(
                    f"cannot merge the tensor expression ({p.text()}): result is not a flat chain"
                )
    atoms: list[str] = []
    conns: list[Connective] = []
    for idx, p in enumerate(parts):
        if idx:
            conns.append(conn)
        atoms.extend(p.atoms)
        conns.extend(p.connectives)
    return ChainExpr(tuple(atoms), tuple(conns))


def parse_chain(src: str) -> ChainExpr:
    """Parse grammar text into a chain; raises ChainSyntaxError /
    UnsupportedShape on bad input."""
    tokens = _tokenize(src)
    if len(tokens) == 1:
        raise ChainSyntaxError("empty chain expression", 0)
    return _Parser(tokens).parse()
