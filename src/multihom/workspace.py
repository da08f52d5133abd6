"""Workspace files: a palette, named graphs, and an optional default chain.

Schema::

    {
      "colors": ["red", "black"],
      "graphs": {
        "G": {"nodes": [1, 2], "edges": [{"u": 1, "v": 2, "color": "red", "mult": 2}]},
        ...
      },
      "chain": "G | H . K"        # optional
    }

``mult`` defaults to 1.  Validation errors raise WorkspaceError with a
path-ish message; colour and self-loop violations surface as their own
domain errors from the graph layer.  A graph with more edge copies than
the cell budget in force is refused with CellBudgetExceeded before any
copy is made.
"""

from __future__ import annotations

import json
from pathlib import Path

from .chainlat import ChainEnv
from .errors import CellBudgetExceeded, WorkspaceError
from .mcomplex import current_cell_budget
from .mgraph import Multigraph
from .value import Value

__all__ = ["Workspace", "load_workspace", "parse_workspace"]


class Workspace(Value):
    _fields = ("palette", "graphs", "chain_text")
    palette: frozenset[str]
    graphs: dict[str, Multigraph]
    chain_text: str | None

    def __init__(
        self, palette: frozenset[str], graphs: dict[str, Multigraph], chain_text: str | None
    ):
        self._set(palette=palette, graphs=graphs, chain_text=chain_text)

    def env(self) -> ChainEnv:
        return ChainEnv(self.graphs)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WorkspaceError(msg)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _edge_error(name: str, i: int, problem: str) -> WorkspaceError:
    return WorkspaceError(f"graph {name!r}: edge #{i} {problem}")


def _checked_edge(name: str, i: int, edge) -> tuple[int, int, str, int]:
    """Edge #i of graph ``name`` as a ``(u, v, color, mult)`` row, each
    field checked once, in the order it is read; the first problem is
    raised.  Integer subclasses other than bool pass."""
    if not isinstance(edge, dict):
        raise _edge_error(name, i, "must be an object")
    try:
        u, v, color = edge["u"], edge["v"], edge["color"]
    except KeyError as exc:
        raise _edge_error(name, i, f"missing {exc.args[0]!r}") from None
    if not _is_int(u):
        raise _edge_error(name, i, "endpoint 'u' must be an integer")
    if not _is_int(v):
        raise _edge_error(name, i, "endpoint 'v' must be an integer")
    if not isinstance(color, str):
        raise _edge_error(name, i, "colour must be a string")
    mult = edge.get("mult", 1)
    if not (_is_int(mult) and mult >= 1):
        raise _edge_error(name, i, "multiplicity must be an integer >= 1")
    return u, v, color, mult


def parse_workspace(data: dict) -> Workspace:
    """Check and build a workspace; error messages are formatted only
    for a check that fails."""
    _expect(isinstance(data, dict), "workspace must be a JSON object")
    _expect("colors" in data, "workspace needs a 'colors' list")
    _expect("graphs" in data, "workspace needs a 'graphs' object")
    colors = data["colors"]
    _expect(
        isinstance(colors, list) and all(isinstance(c, str) for c in colors),
        "'colors' must be a list of strings",
    )
    palette = frozenset(colors)
    graphs_obj = data["graphs"]
    _expect(isinstance(graphs_obj, dict), "'graphs' must be an object")
    budget = current_cell_budget()
    graphs: dict[str, Multigraph] = {}
    for name, entry in graphs_obj.items():
        if not isinstance(entry, dict):
            raise WorkspaceError(f"graph {name!r} must be an object")
        if "nodes" not in entry or "edges" not in entry:
            raise WorkspaceError(f"graph {name!r} needs 'nodes' and 'edges'")
        nodes, edges = entry["nodes"], entry["edges"]
        if not (isinstance(nodes, list) and all(_is_int(v) for v in nodes)):
            raise WorkspaceError(f"graph {name!r}: 'nodes' must be a list of integers")
        if not isinstance(edges, list):
            raise WorkspaceError(f"graph {name!r}: 'edges' must be a list")
        rows = []
        copies = 0
        for i, edge in enumerate(edges):
            # an edge as JSON loads it passes one inline test; any other
            # goes through the checks that name its first problem
            if type(edge) is dict:
                u, v, color = edge.get("u"), edge.get("v"), edge.get("color")
                mult = edge.get("mult", 1)
                if (
                    type(u) is int and type(v) is int and type(color) is str
                    and type(mult) is int and mult >= 1
                ):
                    rows.append((u, v, color, mult))
                    copies += mult
                    continue
            row = _checked_edge(name, i, edge)
            rows.append(row)
            copies += row[3]
        # every edge copy is a 1-cell of any complex built from the graph
        if copies > budget:
            raise CellBudgetExceeded(
                f"graph {name!r} has {copies} edge copies, so its complexes "
                f"have more than {budget} cells"
            )
        graphs[name] = Multigraph.build(nodes, rows, palette)
    chain_text = data.get("chain")
    _expect(
        chain_text is None or isinstance(chain_text, str),
        "'chain' must be a string when present",
    )
    return Workspace(palette=palette, graphs=graphs, chain_text=chain_text)


def load_workspace(path: str | Path) -> Workspace:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.loads(f.read())
    except FileNotFoundError:
        raise WorkspaceError(f"workspace file not found: {path}") from None
    except OSError as exc:  # a directory, no permission, ...
        raise WorkspaceError(f"cannot read workspace {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"workspace {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"workspace is not valid JSON: {exc}") from None
    except RecursionError:
        raise WorkspaceError(f"workspace {path} nests too deeply to read") from None
    return parse_workspace(data)
