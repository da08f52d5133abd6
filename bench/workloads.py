"""Benchmark workloads: seeded input generators and output checks.

Inputs are drawn with the standard library alone, so they stay fixed
whatever the program under test does.  The structure of job i (node
sets, which pairs are edges, multiplicities) is drawn from the workload
and i alone; the run seed then relabels the nodes and draws every
colour.  Every job gets a workspace of its own and every seed other
inputs, but each run of a workload meets the same mix of sizes, so the
spread between runs is the host's and not the luck of one seed drawing
the largest inputs twice and the next not at all.

Each check runs outside the timed span and recomputes the answer along a
path other than the one timed: a union-find component count for beta_0,
``replay_betti`` (cell-by-cell incremental rank) for whole Betti
vectors, and the Euler identity chi = sum (-1)^d beta_d against the cell
counts.  A check returns the failure reasons (none when the output is
right) and adds the job's complex to the run's input-size descriptors.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

PALETTE = ("red", "black", "blue")


@dataclass
class Job:
    """One CLI invocation: its workspace, its argv and what checks need."""

    workspace: dict
    argv: list[str]  # CLI arguments after ``--workspace PATH``
    policy: str = "canonical"

    def graph(self, name: str) -> dict:
        return self.workspace["graphs"][name]


@dataclass
class Descriptors:
    """Input size of one run, summed or maximised over its jobs."""

    jobs: int = 0
    graphs: int = 0
    nodes: int = 0
    edge_copies: int = 0
    max_nodes: int = 0
    max_edge_copies: int = 0
    cells_per_dim: list[int] = field(default_factory=list)
    max_boundary_shape: tuple[int, int] = (0, 0)

    def add_graph(self, g: dict) -> None:
        self.graphs += 1
        self.nodes += len(g["nodes"])
        self.edge_copies += len(g["edges"])
        self.max_nodes = max(self.max_nodes, len(g["nodes"]))
        self.max_edge_copies = max(self.max_edge_copies, len(g["edges"]))

    def add_complex(self, counts: list[int]) -> None:
        for d, n in enumerate(counts):
            if d == len(self.cells_per_dim):
                self.cells_per_dim.append(0)
            self.cells_per_dim[d] += n
        for d in range(1, len(counts)):
            shape = (counts[d - 1], counts[d])
            if shape[0] * shape[1] > self.max_boundary_shape[0] * self.max_boundary_shape[1]:
                self.max_boundary_shape = shape

    def to_json_dict(self) -> dict:
        graphs = max(self.graphs, 1)
        return {
            "jobs": self.jobs,
            "nodes_per_graph": round(self.nodes / graphs, 2),
            "edge_copies_per_graph": round(self.edge_copies / graphs, 2),
            "max_nodes_per_graph": self.max_nodes,
            "max_edge_copies_per_graph": self.max_edge_copies,
            "cells_per_dim_summed": self.cells_per_dim,
            "max_boundary_shape": list(self.max_boundary_shape),
        }


# -- generation ------------------------------------------------------------------


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def shape_rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}/shape/{index}")


def _disguise(graphs: dict, universe, rng: random.Random) -> dict:
    """Relabel the nodes by a permutation of the universe and draw every
    edge copy's colour anew."""
    universe = list(universe)
    label = dict(zip(universe, rng.sample(universe, len(universe))))
    out = {}
    for name, g in graphs.items():
        edges = []
        for e in g["edges"]:
            u, v = sorted((label[e["u"]], label[e["v"]]))
            edges.append({"u": u, "v": v, "color": rng.choice(PALETTE)})
        edges.sort(key=lambda e: (e["u"], e["v"]))
        out[name] = {"nodes": sorted(label[v] for v in g["nodes"]), "edges": edges}
    return out


def _random_graph(rng: random.Random, nodes, p: float, max_mult: int = 1) -> dict:
    """Each pair is an edge with probability p; each edge has 1..max_mult
    copies, each copy a colour of its own."""
    nodes = sorted(nodes)
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if rng.random() < p:
                for _ in range(rng.randint(1, max_mult)):
                    edges.append({"u": u, "v": v, "color": rng.choice(PALETTE)})
    return {"nodes": nodes, "edges": edges}


def _fuzz_graph(rng: random.Random, max_nodes: int = 7, max_mult: int = 3) -> dict:
    """The draw of ``randgen.random_multigraph`` with its fuzz defaults,
    restated here so the inputs do not move when the program does."""
    n = rng.randint(1, max_nodes)
    nodes = sorted(rng.sample(range(1, max_nodes + 1), n))
    p = rng.uniform(0.15, 0.6)
    edges = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < p:
                for _ in range(rng.randint(1, max_mult)):
                    edges.append({"u": nodes[i], "v": nodes[j], "color": rng.choice(PALETTE)})
    return {"nodes": nodes, "edges": edges}


def _workspace(graphs: dict) -> dict:
    return {"colors": list(PALETTE), "graphs": graphs}


FILTRATE_ATOMS = 5
FILTRATE_CHAIN = " | ".join(f"A{i}" for i in range(FILTRATE_ATOMS))


def make_filtrate(seed: int, index: int) -> Job:
    """Every fifth job has atoms on 4 nodes rather than 3, and larger
    complexes.  The 90th percentile then falls among these jobs and
    follows their cost, where with jobs all alike it would follow the
    host's slowest spells."""
    shape = shape_rng("filtrate", index)
    universe = range(1, 9)
    atom_nodes = 4 if index % 5 == 0 else 3
    graphs = {
        f"A{i}": _random_graph(shape, shape.sample(universe, atom_nodes), 0.5)
        for i in range(FILTRATE_ATOMS)
    }
    graphs = _disguise(graphs, universe, job_rng("filtrate", seed, index))
    return Job(_workspace(graphs), ["filtrate", FILTRATE_CHAIN])


def make_merge_large(seed: int, index: int) -> Job:
    """Every fifth job has 1.5 times the pair probability, for the
    reason given at ``make_filtrate``."""
    shape = shape_rng("merge-large", index)
    universe = range(1, 121)
    p = 0.045 if index % 5 == 0 else 0.03
    graphs = {name: _random_graph(shape, universe, p, max_mult=2) for name in ("G", "H")}
    graphs = _disguise(graphs, universe, job_rng("merge-large", seed, index))
    return Job(_workspace(graphs), ["betti", "G . H"])


def make_percomb_betti(seed: int, index: int) -> Job:
    """Pairs in both graphs merge to multiplicity 2, and the
    per-combination cell count of a clique is 2 to the number of its
    doubled pairs, so job times are heavy-tailed.  The cell counts fall
    into levels; at edge probability 0.75 the 90th percentile sat at a
    1.5x gap between two of them and jumped between runs, at 0.73 it
    falls among levels a few percent apart."""
    shape = shape_rng("percomb-betti", index)
    universe = range(1, 7)
    graphs = {name: _random_graph(shape, universe, 0.73) for name in ("G", "H")}
    graphs = _disguise(graphs, universe, job_rng("percomb-betti", seed, index))
    argv = ["--policy", "per-combination", "betti", "G . H"]
    return Job(_workspace(graphs), argv, policy="per-combination")


def make_incremental_small(seed: int, index: int) -> Job:
    shape = shape_rng("incremental-small", index)
    graphs = {"G": _fuzz_graph(shape), "H": _fuzz_graph(shape)}
    graphs = _disguise(graphs, range(1, 8), job_rng("incremental-small", seed, index))
    return Job(_workspace(graphs), ["--json", "incremental", "G", "H"])


# -- independent answers ------------------------------------------------------------


def components(graphs: list[dict]) -> int:
    """Connected components of the union of the graphs (union-find)."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g in graphs:
        for v in g["nodes"]:
            parent.setdefault(v, v)
    count = len(parent)
    for g in graphs:
        for e in g["edges"]:
            a, b = find(e["u"]), find(e["v"])
            if a != b:
                parent[a] = b
                count -= 1
    return count


def merged_complex(job: Job, names: list[str]):
    """The clique multicomplex of the merge of the named graphs.

    The merge is built straight from the edge rows, graph after graph,
    which numbers copies as ``mgraph.merge`` does without calling it."""
    from multihom.mcomplex import clique_multicomplex
    from multihom.mgraph import Multigraph

    graphs = [job.graph(name) for name in names]
    nodes = {v for g in graphs for v in g["nodes"]}
    rows = [(e["u"], e["v"], e["color"]) for g in graphs for e in g["edges"]]
    merged = Multigraph.build(nodes, rows, job.workspace["colors"])
    return clique_multicomplex(merged, job.policy)


def _cell_counts(x) -> list[int]:
    return [x.cell_count(d) for d in range(x.dimension + 1)]


def _euler(counts) -> int:
    return sum((-1) ** d * n for d, n in enumerate(counts))


# -- checks ---------------------------------------------------------------------------

_BETTI_LINE = re.compile(r"->\s+betti \(([0-9, ]*)\)\s*$")
_TRACE_ROW = re.compile(r"^\s+delta=(\d+)\s+level=(\d+)\s+beta_0=(\d+)\s+(.+?)\s*$")
_TRACE_HEAD = re.compile(r"^interaction filtration of .+ \((\d+) nodes\)$")


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def check_betti(job: Job, out: str, desc: Descriptors) -> list[str]:
    """``betti "G . H"``: the vector against replay, Euler and union-find."""
    errors: list[str] = []
    m = _BETTI_LINE.search(out.strip())
    if not m:
        return [f"no betti line in output: {out[:80]!r}"]
    reported = _parse_tuple(m.group(1))
    x = merged_complex(job, ["G", "H"])
    counts = _cell_counts(x)
    desc.add_complex(counts)
    from multihom.incremental import replay_betti

    replayed = replay_betti(x)
    if reported != replayed:
        errors.append(f"betti {reported} != replay {replayed}")
    if _euler(reported) != _euler(counts):
        errors.append(f"Euler: sum of (-1)^d beta_d = {_euler(reported)}, cells give {_euler(counts)}")
    beta0 = components([job.graph("G"), job.graph("H")])
    if not reported or reported[0] != beta0:
        errors.append(f"beta_0 {reported[:1]} != union-find {beta0}")
    return errors


def check_filtrate(job: Job, out: str, desc: Descriptors) -> list[str]:
    """Text trace: every beta_0 row against union-find over its blocks."""
    lines = out.splitlines()
    head = _TRACE_HEAD.match(lines[0]) if lines else None
    if not head:
        return [f"no filtration header in output: {out[:80]!r}"]
    errors: list[str] = []
    rows = [m for m in map(_TRACE_ROW.match, lines[1:]) if m]
    if len(rows) != int(head.group(1)):
        errors.append(f"{len(rows)} trace rows for {head.group(1)} nodes")
    for delta, m in enumerate(rows):
        level, beta0, chain = int(m.group(2)), int(m.group(3)), m.group(4)
        blocks = [b.split(" . ") for b in chain.split(" | ")]
        if int(m.group(1)) != delta:
            errors.append(f"row {delta}: delta {m.group(1)}")
        if level != FILTRATE_ATOMS - len(blocks):
            errors.append(f"row {delta}: level {level} for {len(blocks)} blocks")
        expected = sum(components([job.graph(a) for a in block]) for block in blocks)
        if beta0 != expected:
            errors.append(f"row {delta} {chain}: beta_0 {beta0} != union-find {expected}")
    desc.add_complex(_cell_counts(merged_complex(job, sorted(job.workspace["graphs"]))))
    return errors


def check_incremental(job: Job, out: str, desc: Descriptors) -> list[str]:
    """``--json incremental``: oracle beta_1/beta_2 against replay."""
    try:
        report = json.loads(out)
        oracle = report["oracle"]
        formula = report["formula"]
        agrees = report["agrees"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable incremental report: {exc}"]
    from multihom.incremental import replay_betti

    x = merged_complex(job, ["G", "H"])
    desc.add_complex(_cell_counts(x))
    replayed = replay_betti(x) + (0, 0, 0)
    errors = []
    for d in (1, 2):
        key = f"beta{d}"
        if oracle.get(key) != replayed[d]:
            errors.append(f"oracle {key} {oracle.get(key)} != replay {replayed[d]}")
        if agrees.get(key) != (formula.get(key) == oracle.get(key)):
            errors.append(f"agrees.{key} inconsistent with formula and oracle")
    return errors


MIN_JOBS = 100  # at least ten samples beyond the 90th percentile
REFERENCE_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: Callable[[int, int], Job]  # (seed, job index) -> Job
    check: Callable[[Job, str, Descriptors], list[str]]  # failure reasons
    jobs: int  # jobs in a run of REFERENCE_SECONDS

    def jobs_per_run(self, seconds: float) -> int:
        """The job list of a run depends on the seed and ``--seconds``
        only, never on how fast the host is."""
        return max(MIN_JOBS, round(self.jobs * seconds / REFERENCE_SECONDS))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("filtrate", make_filtrate, check_filtrate, jobs=120),
        Workload("merge-large", make_merge_large, check_betti, jobs=100),
        Workload("percomb-betti", make_percomb_betti, check_betti, jobs=100),
        Workload("incremental-small", make_incremental_small, check_incremental, jobs=300),
    )
}
