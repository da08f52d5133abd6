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


def _edge_error(where: str, edge) -> WorkspaceError:
    """The first problem of an edge entry that failed the check in
    ``parse_workspace``, named in the order the fields are read."""
    if not isinstance(edge, dict):
        return WorkspaceError(f"{where} must be an object")
    for field in ("u", "v", "color"):
        if field not in edge:
            return WorkspaceError(f"{where} missing {field!r}")
    for field in ("u", "v"):
        if not _is_int(edge[field]):
            return WorkspaceError(f"{where} endpoint {field!r} must be an integer")
    if not isinstance(edge["color"], str):
        return WorkspaceError(f"{where} colour must be a string")
    return WorkspaceError(f"{where} multiplicity must be an integer >= 1")


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
            if not (isinstance(edge, dict) and "u" in edge and "v" in edge and "color" in edge):
                raise _edge_error(f"graph {name!r}: edge #{i}", edge)
            u, v, color, mult = edge["u"], edge["v"], edge["color"], edge.get("mult", 1)
            ok = _is_int(u) and _is_int(v) and isinstance(color, str)
            if not (ok and _is_int(mult) and mult >= 1):
                raise _edge_error(f"graph {name!r}: edge #{i}", edge)
            rows.append((u, v, color, mult))
            copies += mult
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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
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
