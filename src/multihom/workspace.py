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
domain errors from the graph layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .chainlat import ChainEnv
from .errors import WorkspaceError
from .mgraph import Multigraph

__all__ = ["Workspace", "load_workspace", "parse_workspace"]


@dataclass(frozen=True)
class Workspace:
    palette: frozenset[str]
    graphs: dict[str, Multigraph]
    chain_text: str | None

    def env(self) -> ChainEnv:
        return ChainEnv(self.graphs)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise WorkspaceError(msg)


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_workspace(data: dict) -> Workspace:
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
    graphs: dict[str, Multigraph] = {}
    for name, entry in graphs_obj.items():
        _expect(isinstance(entry, dict), f"graph {name!r} must be an object")
        _expect("nodes" in entry and "edges" in entry, f"graph {name!r} needs 'nodes' and 'edges'")
        nodes = entry["nodes"]
        _expect(
            isinstance(nodes, list) and all(_is_int(v) for v in nodes),
            f"graph {name!r}: 'nodes' must be a list of integers",
        )
        _expect(isinstance(entry["edges"], list), f"graph {name!r}: 'edges' must be a list")
        rows = []
        for i, edge in enumerate(entry["edges"]):
            _expect(isinstance(edge, dict), f"graph {name!r}: edge #{i} must be an object")
            for field in ("u", "v", "color"):
                _expect(field in edge, f"graph {name!r}: edge #{i} missing {field!r}")
            for field in ("u", "v"):
                _expect(
                    _is_int(edge[field]),
                    f"graph {name!r}: edge #{i} endpoint {field!r} must be an integer",
                )
            _expect(
                isinstance(edge["color"], str),
                f"graph {name!r}: edge #{i} colour must be a string",
            )
            mult = edge.get("mult", 1)
            _expect(
                _is_int(mult) and mult >= 1,
                f"graph {name!r}: edge #{i} multiplicity must be an integer >= 1",
            )
            rows.append((edge["u"], edge["v"], edge["color"], mult))
        graphs[name] = Multigraph.build(nodes, rows, palette)
    chain_text = data.get("chain")
    _expect(
        chain_text is None or isinstance(chain_text, str),
        "'chain' must be a string when present",
    )
    return Workspace(palette=palette, graphs=graphs, chain_text=chain_text)


def load_workspace(path: str | Path) -> Workspace:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise WorkspaceError(f"workspace file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"workspace is not valid JSON: {exc}") from None
    return parse_workspace(data)
