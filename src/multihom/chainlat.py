"""Chain expressions and their lattice-ordered partial monoid.

A chain is k atoms joined by k-1 connectives drawn from {tensor, merge}.
Chains over the *same* atom sequence are ordered positionwise: x <= y
iff no position has a merge in x against a tensor in y (so the all-tensor
chain is the bottom of its atom order and the all-merge chain is top).
Under this order meet/join act positionwise, complement flips every
connective, and the partial sum ``plus`` picks the smaller of two
comparable chains (Undefined otherwise) with top as the identity.

Flow maps f_j convert the j-th tensor into a merge (f_0 is the identity);
they are inflationary, monotone, preserve meet/join, and commute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Callable, Mapping, Sequence

from .errors import IncomparableAtoms, IndexOutOfRange, UnknownAtom
from .mgraph import Multigraph, Multilayer, merge

__all__ = [
    "Connective",
    "ChainExpr",
    "ChainEnv",
    "UNDEFINED",
    "UndefinedType",
    "leq",
    "apply_f",
    "meet",
    "join",
    "complement",
    "plus",
    "top_chain",
    "bottom_chain",
    "minimal_chains",
    "all_chains",
    "merge_count",
    "evaluate",
    "check_laws",
]


class Connective(Enum):
    TENSOR = "|"
    MERGE = "."

    def __repr__(self):
        return f"Connective.{self.name}"


class UndefinedType:
    """Singleton value returned by ``plus`` on incomparable operands."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = UndefinedType()


@dataclass(frozen=True, order=True)
class ChainExpr:
    """k atoms and k-1 connectives; the syntactic object the lattice orders."""

    atoms: tuple[str, ...]
    connectives: tuple[Connective, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ValueError("a chain needs at least one atom")
        if len(self.connectives) != len(self.atoms) - 1:
            raise ValueError(
                f"{len(self.atoms)} atoms need {len(self.atoms) - 1} connectives, "
                f"got {len(self.connectives)}"
            )

    @property
    def k(self) -> int:
        return len(self.atoms)

    def text(self) -> str:
        """Round-trippable grammar form, e.g. ``G | H . K``."""
        out = [self.atoms[0]]
        for conn, atom in zip(self.connectives, self.atoms[1:]):
            out.append(f" {conn.value} {atom}")
        return "".join(out)

    def pretty(self) -> str:
        """Display form with the usual operator glyphs."""
        sym = {Connective.TENSOR: "⊗", Connective.MERGE: "⊙"}
        out = [self.atoms[0]]
        for conn, atom in zip(self.connectives, self.atoms[1:]):
            out.append(f" {sym[conn]} {atom}")
        return "".join(out)

    def __str__(self):
        return self.text()

    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Maximal merge-runs of atoms, in tensor order."""
        out: list[list[str]] = [[self.atoms[0]]]
        for conn, atom in zip(self.connectives, self.atoms[1:]):
            if conn is Connective.MERGE:
                out[-1].append(atom)
            else:
                out.append([atom])
        return tuple(tuple(b) for b in out)


def _require_same_atoms(x: ChainExpr, y: ChainExpr) -> None:
    if x.atoms != y.atoms:
        raise IncomparableAtoms(
            f"chains range over different atom sequences: {x.atoms} vs {y.atoms}"
        )


def leq(x: ChainExpr, y: ChainExpr) -> bool:
    """Positionwise order; False (not an error) across atom sequences."""
    if x.atoms != y.atoms:
        return False
    return not any(
        a is Connective.MERGE and b is Connective.TENSOR
        for a, b in zip(x.connectives, y.connectives)
    )


def apply_f(j: int, x: ChainExpr) -> ChainExpr:
    """Flow map: turn the connective at 1-based position j into a merge.

    j = 0 is the identity; positions outside 0..k-1 are rejected.
    """
    if j == 0:
        return x
    if not (1 <= j <= x.k - 1):
        raise IndexOutOfRange(f"flow index {j} outside 0..{x.k - 1}")
    conns = list(x.connectives)
    conns[j - 1] = Connective.MERGE
    return ChainExpr(x.atoms, tuple(conns))


def meet(x: ChainExpr, y: ChainExpr) -> ChainExpr:
    """Positionwise: tensor wherever either operand has a tensor."""
    _require_same_atoms(x, y)
    conns = tuple(
        Connective.MERGE
        if a is Connective.MERGE and b is Connective.MERGE
        else Connective.TENSOR
        for a, b in zip(x.connectives, y.connectives)
    )
    return ChainExpr(x.atoms, conns)


def join(x: ChainExpr, y: ChainExpr) -> ChainExpr:
    """Positionwise: merge wherever either operand has a merge."""
    _require_same_atoms(x, y)
    conns = tuple(
        Connective.MERGE
        if a is Connective.MERGE or b is Connective.MERGE
        else Connective.TENSOR
        for a, b in zip(x.connectives, y.connectives)
    )
    return ChainExpr(x.atoms, conns)


def complement(x: ChainExpr) -> ChainExpr:
    """Flip every connective (semi-orthocomplement)."""
    flip = {
        Connective.TENSOR: Connective.MERGE,
        Connective.MERGE: Connective.TENSOR,
    }
    return ChainExpr(x.atoms, tuple(flip[c] for c in x.connectives))


def plus(x: ChainExpr, y: ChainExpr) -> ChainExpr | UndefinedType:
    """Partial sum: the smaller of two comparable chains, else Undefined.

    The all-merge chain is the identity; Undefined is a value, not an error.
    """
    if leq(x, y):
        return x
    if leq(y, x):
        return y
    return UNDEFINED


def top_chain(atoms: Sequence[str]) -> ChainExpr:
    """All-merge chain over the given atoms (identity of ``plus``)."""
    atoms = tuple(atoms)
    return ChainExpr(atoms, (Connective.MERGE,) * (len(atoms) - 1))


def bottom_chain(atoms: Sequence[str]) -> ChainExpr:
    """All-tensor chain over the given atom order (minimal in that order)."""
    atoms = tuple(atoms)
    return ChainExpr(atoms, (Connective.TENSOR,) * (len(atoms) - 1))


def minimal_chains(atoms: Sequence[str]) -> tuple[ChainExpr, ...]:
    """The all-tensor chains over every atom permutation: k! minimal
    elements (mutually incomparable, since leq never crosses atom orders)."""
    return tuple(
        bottom_chain(perm) for perm in sorted(set(itertools.permutations(atoms)))
    )


def all_chains(atoms: Sequence[str]) -> tuple[ChainExpr, ...]:
    """All 2^(k-1) chains over a fixed atom order."""
    atoms = tuple(atoms)
    out = []
    for conns in itertools.product(
        (Connective.TENSOR, Connective.MERGE), repeat=len(atoms) - 1
    ):
        out.append(ChainExpr(atoms, conns))
    return tuple(out)


def merge_count(x: ChainExpr) -> int:
    """Interaction grade: number of merge connectives."""
    return sum(1 for c in x.connectives if c is Connective.MERGE)


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class ChainEnv:
    """Binds atom names to multigraphs over a shared palette."""

    graphs: Mapping[str, Multigraph]

    def __post_init__(self):
        palettes = {g.palette for g in self.graphs.values()}
        if len(palettes) > 1:
            raise IncomparableAtoms("environment graphs disagree on the palette")

    def resolve(self, name: str) -> Multigraph:
        try:
            return self.graphs[name]
        except KeyError:
            raise UnknownAtom(f"atom {name!r} not bound in environment") from None


def evaluate(x: ChainExpr, env: ChainEnv) -> Multilayer:
    """Evaluate a chain: merge within blocks, layer across tensors.

    Merge binds tighter, so ``G | H . K`` becomes the two layers
    ``[G, H merged with K]``.
    """
    layers = [
        reduce(merge, [env.resolve(name) for name in block]) for block in x.blocks()
    ]
    return Multilayer(tuple(layers))


# -- law suite -----------------------------------------------------------------


def check_laws(
    atoms: Sequence[str],
    *,
    meet_fn: Callable[[ChainExpr, ChainExpr], ChainExpr] | None = None,
    join_fn: Callable[[ChainExpr, ChainExpr], ChainExpr] | None = None,
    max_witnesses: int = 25,
) -> list[str]:
    """Exhaustively check every lattice/monoid law over the fixed-order
    chain set; returns witness strings (empty means all laws hold).

    ``meet_fn``/``join_fn`` exist so tests can inject corrupted operations
    and observe the violations they cause.
    """
    mt = meet_fn or meet
    jn = join_fn or join
    chains = all_chains(atoms)
    k = len(tuple(atoms))
    top = top_chain(atoms)
    bottom = bottom_chain(atoms)
    bad: list[str] = []

    def report(law: str, witness: str) -> None:
        if len(bad) < max_witnesses:
            bad.append(f"{law}: {witness}")
        elif len(bad) == max_witnesses:
            bad.append("... witness list truncated")

    for x in chains:
        if not leq(x, x):
            report("reflexivity", f"{x}")
        if complement(complement(x)) != x:
            report("complement involution", f"{x}")
        if jn(x, complement(x)) != top:
            report("complement join", f"{x}")
        if mt(x, complement(x)) != bottom:
            report("complement meet", f"{x}")
        if plus(x, top) != x or plus(top, x) != x:
            report("plus identity", f"{x}")
        got = x
        for j in range(1, k):
            got = apply_f(j, got)
        if got != top:
            report("flow composition reaches top", f"{x}")
        for j in range(1, k):
            if not leq(x, apply_f(j, x)):
                report("flow inflationary", f"f_{j}, {x}")
        if apply_f(0, x) != x:
            report("flow identity at 0", f"{x}")

    for x, y in itertools.product(chains, repeat=2):
        if leq(x, y) and leq(y, x) and x != y:
            report("antisymmetry", f"{x} ~ {y}")
        if mt(x, y) != mt(y, x):
            report("meet commutativity", f"{x}, {y}")
        if jn(x, y) != jn(y, x):
            report("join commutativity", f"{x}, {y}")
        if jn(x, mt(x, y)) != x:
            report("absorption join-meet", f"{x}, {y}")
        if mt(x, jn(x, y)) != x:
            report("absorption meet-join", f"{x}, {y}")
        px, py = plus(x, y), plus(y, x)
        if px != py:
            report("plus commutativity", f"{x}, {y}")
        if px is not UNDEFINED and px not in (x, y):
            report("plus is a minimum", f"{x}, {y}")
        for j in range(1, k):
            if leq(x, y) and not leq(apply_f(j, x), apply_f(j, y)):
                report("flow monotone", f"f_{j}, {x} <= {y}")
            if apply_f(j, mt(x, y)) != mt(apply_f(j, x), apply_f(j, y)):
                report("flow preserves meet", f"f_{j}, {x}, {y}")
            if apply_f(j, jn(x, y)) != jn(apply_f(j, x), apply_f(j, y)):
                report("flow preserves join", f"f_{j}, {x}, {y}")
            if px is not UNDEFINED:
                lhs = apply_f(j, px)
                rhs = plus(apply_f(j, x), apply_f(j, y))
                if rhs is UNDEFINED or lhs != rhs:
                    report("flow partial homomorphism", f"f_{j}, {x}, {y}")

    for x, y, z in itertools.product(chains, repeat=3):
        if leq(x, y) and leq(y, z) and not leq(x, z):
            report("transitivity", f"{x} <= {y} <= {z}")
        if mt(x, jn(y, z)) != jn(mt(x, y), mt(x, z)):
            report("distributivity meet-over-join", f"{x}, {y}, {z}")
        if jn(x, mt(y, z)) != mt(jn(x, y), jn(x, z)):
            report("distributivity join-over-meet", f"{x}, {y}, {z}")
        comparable = (
            plus(x, y) is not UNDEFINED
            and plus(y, z) is not UNDEFINED
            and plus(x, z) is not UNDEFINED
        )
        if comparable:
            if plus(plus(x, y), z) != plus(x, plus(y, z)):
                report("plus associativity", f"{x}, {y}, {z}")
            if plus(x, jn(y, z)) != jn(plus(x, y), plus(x, z)):
                report("plus distributes over join", f"{x}, {y}, {z}")
            if plus(x, mt(y, z)) != mt(plus(x, y), plus(x, z)):
                report("plus distributes over meet", f"{x}, {y}, {z}")

    return bad
