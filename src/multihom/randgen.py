"""Seeded random multigraph generation for fuzzing and sweeps."""

from __future__ import annotations

import random
from typing import Sequence

from .mgraph import Multigraph

__all__ = ["random_multigraph"]


def random_multigraph(
    rng: random.Random,
    max_nodes: int = 8,
    max_mult: int = 3,
    palette: Sequence[str] = ("red", "black", "blue"),
    node_universe: Sequence[int] | None = None,
) -> Multigraph:
    """Random edge-coloured multigraph on a shared node universe; density
    is itself randomized."""
    universe = list(node_universe) if node_universe is not None else list(range(1, max_nodes + 1))
    n = rng.randint(1, min(max_nodes, len(universe)))
    nodes = sorted(rng.sample(universe, n))
    p = rng.uniform(0.15, 0.6)
    rows = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < p:
                mult = rng.randint(1, max_mult)
                for _ in range(mult):
                    rows.append((nodes[i], nodes[j], rng.choice(list(palette))))
    return Multigraph.build(nodes, rows, palette)
