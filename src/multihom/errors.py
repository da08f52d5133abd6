"""Exception types shared across the package.

Everything domain-level derives from MultihomError so the CLI can map
domain failures to a single exit code.
"""

from __future__ import annotations

__all__ = [
    "MultihomError",
    "PaletteMismatch",
    "SelfLoopPresent",
    "GraphStructureError",
    "IncomparableAtoms",
    "IndexOutOfRange",
    "ChainSyntaxError",
    "UnknownAtom",
    "UnsupportedShape",
    "ComplexStructureError",
    "CellBudgetExceeded",
    "ChainBudgetExceeded",
    "NegativeBetti",
    "LawViolation",
    "WorkspaceError",
]


class MultihomError(Exception):
    """Base class for every domain error raised by this package."""


class PaletteMismatch(MultihomError):
    """An edge colour falls outside the declared palette, or two operands
    disagree about the shared palette."""


class SelfLoopPresent(MultihomError):
    """Self-loops are rejected at ingestion; cells need distinct vertices."""


class GraphStructureError(MultihomError):
    """Malformed multigraph data: dangling endpoints, bad multiplicities."""


class IncomparableAtoms(MultihomError):
    """Lattice operation applied to chains over different atom sequences."""


class IndexOutOfRange(MultihomError, IndexError):
    """Flow-map or level index outside the valid range."""


class ChainSyntaxError(MultihomError):
    """Chain expression text failed to parse; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtom(MultihomError):
    """A chain atom does not resolve to a graph in the environment."""


class UnsupportedShape(MultihomError):
    """Parenthesized expression does not flatten to a chain (a tensor
    nested under a merge)."""


class ComplexStructureError(MultihomError):
    """Hand-assembled multicomplex violates face closure, copy
    contiguity, gluing consistency, or colouring totality."""


class CellBudgetExceeded(MultihomError):
    """A clique complex would have more cells than the cell budget allows;
    refused before any cell is made."""


class ChainBudgetExceeded(MultihomError):
    """A chain listing or law check would walk more chains than its limit
    allows; refused before any chain is made."""


class NegativeBetti(MultihomError):
    """An incremental step tried to push a Betti number below zero."""


class LawViolation(MultihomError):
    """One or more algebraic laws failed; carries witness descriptions."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        head = self.violations[0] if self.violations else "no witness"
        more = f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        super().__init__(f"{len(self.violations)} law violation(s): {head}{more}")


class WorkspaceError(MultihomError):
    """Workspace JSON is malformed or internally inconsistent."""
