"""End-to-end acceptance checks, one verdict line per criterion.

Every test prints a single ``[ACCEPTANCE n] PASS|FAIL: ...`` line before
asserting, so the run log carries an explicit verdict for each release
criterion.  One sub-assertion is failing on purpose and is left red:

* criterion 6 asserts that every self-consistent recorded substitution
  reproduces its recorded value, but case A's dimension-1 parameters
  substitute to 0 while 1 is recorded.  The finding is reported as a
  flagged discrepancy, not corrected.

Criterion 4's second clause asserts ``beta_0 = k`` at every filtration
node for *vertex-disjoint* connected atoms, cross-checked against a
union-find count over each node's merged blocks.  It once asserted
``beta_0 = k - j`` there, which is false: merging vertex-disjoint graphs
is a disjoint union and never joins components, so a block of m atoms
has m components.  The ``k - j`` law holds when atoms pairwise share
vertices, and ``test_component_law_holds_for_vertex_sharing_atoms``
checks it in that regime.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

from multihom import (
    CANONICAL,
    PER_COMBINATION,
    ChainEnv,
    Multicell,
    Multicomplex,
    Multigraph,
    betti,
    boundary_squares_to_zero,
    build_filtration,
    check_laws,
    clique_multicomplex,
    complex_merge,
    enumerate_chains,
    euler_characteristic,
    known_case_findings,
    level_profile,
    load_workspace,
    merge,
    minimal_chains,
    parse_chain,
    replay_betti,
    trace_for_chains,
)
from multihom.cli import main
from multihom.randgen import random_multigraph

from oracles import components_union_find, random_disjoint_connected

WORKSPACES = Path(__file__).resolve().parent.parent / "workspaces"


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# -- builders used by several criteria ------------------------------------------------


def _graph(nodes, rows):
    return Multigraph.build(nodes, rows, ("black",))


def _triangle_cells(copies_of_top: int) -> tuple[list[Multicell], dict]:
    cells = [Multicell((v,), 1) for v in (1, 2, 3)]
    coloring = {}
    edges = ((1, 2), (1, 3), (2, 3))
    for a, b in edges:
        cell = Multicell((a, b), 1, faces=(((a,), 1), ((b,), 1)))
        cells.append(cell)
        coloring[cell.key] = "black"
    for copy in range(1, copies_of_top + 1):
        cells.append(Multicell((1, 2, 3), copy, faces=tuple((e, 1) for e in edges)))
    return cells, coloring


# -- criteria -------------------------------------------------------------------------


def test_acceptance_1_lattice_law_suite():
    started = time.perf_counter()
    violations: list[str] = []
    for k in range(2, 6):
        violations.extend(check_laws(tuple(f"A{i}" for i in range(1, k + 1))))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 5.0
    _verdict(1, ok, f"{len(violations)} violations over k=2..5 in {elapsed:.2f}s (< 5s)")
    assert violations == []
    assert elapsed < 5.0


def test_acceptance_2_enumeration_goldens():
    chains = enumerate_chains(("G", "H", "K"), include_permutations=True)
    texts = sorted(c.text() for c in chains)
    expected = sorted(
        [
            "G | H | K", "G | K | H", "H | G | K",
            "H | K | G", "K | G | H", "K | H | G",
            "G . H | K", "K | G . H", "G . K | H",
            "H | G . K", "H . K | G", "G | H . K",
            "G . H . K",
        ]
    )
    thirteen = texts == expected
    extrema_ok = True
    for k in range(2, 6):
        atoms = tuple(f"A{i}" for i in range(1, k + 1))
        minimals = minimal_chains(atoms)
        tops = [
            c
            for c in enumerate_chains(atoms, include_permutations=True)
            if len(c.blocks()) == 1
        ]
        if len(set(minimals)) != math.factorial(k) or len(tops) != 1:
            extrema_ok = False
    ok = thirteen and extrema_ok
    _verdict(
        2,
        ok,
        f"k=3 permutation-identified set has {len(texts)} members "
        f"(golden match: {thirteen}); k! minimals + unique top for k<=5: {extrema_ok}",
    )
    assert texts == expected
    assert extrema_ok


def test_acceptance_3_homology_oracles():
    goldens = []
    filled = clique_multicomplex(
        _graph([1, 2, 3], [(1, 2, "black"), (1, 3, "black"), (2, 3, "black")])
    )
    goldens.append(("filled triangle", betti(filled), (1, 0, 0)))

    cells, coloring = _triangle_cells(copies_of_top=0)
    hollow = Multicomplex.from_cells(("black",), cells, coloring)
    goldens.append(("hollow triangle", betti(hollow), (1, 1)))

    two = clique_multicomplex(_graph([1, 2, 3, 4], [(1, 2, "black"), (3, 4, "black")]))
    goldens.append(("two components, beta_0", (betti(two)[0],), (2,)))

    squares = clique_multicomplex(
        _graph(
            [1, 2, 3, 4, 5, 6],
            [
                (1, 2, "black"), (2, 3, "black"), (1, 4, "black"),
                (2, 5, "black"), (3, 6, "black"), (4, 5, "black"), (5, 6, "black"),
            ],
        )
    )
    goldens.append(("two squares sharing an edge", betti(squares), (1, 2)))

    cells, coloring = _triangle_cells(copies_of_top=2)
    pillow = Multicomplex.from_cells(("black",), cells, coloring)
    goldens.append(("pillow", betti(pillow), (1, 0, 1)))

    golden_ok = all(got == want for _, got, want in goldens)

    started = time.perf_counter()
    rng = random.Random(303)
    sweep_failures = 0
    for _ in range(1000):
        x = clique_multicomplex(random_multigraph(rng, max_nodes=10, max_mult=3))
        b = betti(x)
        if not boundary_squares_to_zero(x):
            sweep_failures += 1
        elif euler_characteristic(x) != sum((-1) ** d * v for d, v in enumerate(b)):
            sweep_failures += 1
    elapsed = time.perf_counter() - started

    ok = golden_ok and sweep_failures == 0 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"goldens {'all match' if golden_ok else [g for g in goldens if g[1] != g[2]]}; "
        f"dd=0 + Euler-Poincare on 1000 random multigraphs, "
        f"{sweep_failures} failures in {elapsed:.1f}s (< 60s)",
    )
    for name, got, want in goldens:
        assert got == want, f"{name}: {got} != {want}"
    assert sweep_failures == 0
    assert elapsed < 60.0


def test_acceptance_4_component_trace_and_disjoint_law():
    ws = load_workspace(WORKSPACES / "three_paths.json")
    poset = build_filtration(parse_chain(ws.chain_text), ws.env())
    displayed = [
        parse_chain(t) for t in ("G | H | K", "G . H | K", "G | H . K", "G . H . K")
    ]
    path = [row["beta"] for row in trace_for_chains(poset, displayed, dim=0)]
    trace_ok = path == [3, 2, 2, 1]

    # Vertex-disjoint atoms: merging them is a disjoint union, so a block of
    # m atoms has m components and every node keeps beta_0 = k.
    law_failures: list[tuple[int, int, int, int, int]] = []
    nodes_checked = 0
    rng = random.Random(404)
    for k in range(2, 6):
        graphs = random_disjoint_connected(rng, k)
        env = ChainEnv({f"A{i}": g for i, g in enumerate(graphs, start=1)})
        start = parse_chain(" | ".join(sorted(env.graphs)))
        for node in build_filtration(start, env).nodes:
            nodes_checked += 1
            oracle = sum(
                components_union_find(
                    [v for atom in block for v in env.graphs[atom].nodes],
                    [p for atom in block for p in env.graphs[atom].pairs()],
                )
                for block in node.chain.blocks()
            )
            if (node.betti[0], oracle) != (k, k):
                law_failures.append((k, node.level, node.betti[0], oracle, k))
    law_ok = not law_failures

    ok = trace_ok and law_ok
    _verdict(
        4,
        ok,
        f"displayed beta_0 path {path} (want [3, 2, 2, 1]); "
        f"beta_0 == k (= union-find count) for vertex-disjoint connected atoms "
        f"at all {nodes_checked} filtration nodes, k=2..5: "
        + (
            "holds"
            if law_ok
            else f"violated at {len(law_failures)} nodes, e.g. "
            f"(k, level, got, union-find, want) = {law_failures[0]}"
        ),
    )
    assert trace_ok, f"displayed path {path}"
    assert law_ok, (
        "beta_0 = k must hold for vertex-disjoint connected atoms: merge is a "
        "disjoint union there, so a block of m atoms has m components.  Failures "
        f"(k, level, got, union-find, want): {law_failures[:4]}"
    )


def test_component_law_holds_for_vertex_sharing_atoms():
    """Vertex-sharing counterpart of criterion 4's second clause: when every
    atom contains a common hub vertex, every merged block is connected, and
    beta_0 = k - j holds at every level-j node for k = 2..5."""
    rng = random.Random(11)
    for k in range(2, 6):
        graphs = {}
        for idx in range(1, k + 1):
            nodes = [0] + [idx * 10 + i for i in range(1, 4)]
            rows = []
            for j in range(1, len(nodes)):
                rows.append((rng.choice(nodes[:j]), nodes[j], "black"))
            graphs[f"A{idx}"] = Multigraph.build(nodes, rows, ("black",))
        env = ChainEnv(graphs)
        start = parse_chain(" | ".join(sorted(graphs)))
        for node in build_filtration(start, env).nodes:
            assert node.betti[0] == k - node.level


def test_acceptance_5_incremental_replay_equivalence():
    rng = random.Random(505)
    started = time.perf_counter()
    mismatches = 0
    for i in range(500):
        if i % 2 == 0:
            x = clique_multicomplex(
                random_multigraph(rng, max_nodes=7, max_mult=3), CANONICAL
            )
        else:
            x = clique_multicomplex(
                random_multigraph(rng, max_nodes=5, max_mult=2), PER_COMBINATION
            )
        if replay_betti(x) != betti(x):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0
    _verdict(
        5,
        ok,
        f"replay equals direct Betti on 500 random complexes "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert mismatches == 0


def test_acceptance_6_reference_substitutions():
    findings = {(f["case"], f["dim"]): f for f in known_case_findings()}
    listed = {("A", 1): 1, ("A", 2): 0, ("B", 2): 1, ("C", 1): 1, ("C", 2): 1}
    mismatches = {
        key: (findings[key]["formula"], want)
        for key, want in listed.items()
        if findings[key]["formula"] != want
    }
    b1_flagged = findings[("B", 1)]["flagged"]
    ok = not mismatches and b1_flagged
    _verdict(
        6,
        ok,
        f"{len(listed) - len(mismatches)}/{len(listed)} listed substitutions "
        f"reproduce their recorded values"
        + (
            f"; mismatches (formula, recorded): "
            f"{ {f'{c} beta_{d}': v for (c, d), v in mismatches.items()} }"
            if mismatches
            else ""
        )
        + f"; case B beta_1 flagged discrepancy present: {b1_flagged}",
    )
    assert b1_flagged
    assert not mismatches, (
        "case A's dimension-1 parameters substitute to 0, not the recorded 1; "
        "the finding is reported as flagged rather than corrected: "
        f"{findings[('A', 1)]}"
    )


def test_acceptance_7_complex_merge_laws():
    rng = random.Random(707)
    started = time.perf_counter()
    violations: list[tuple[int, str]] = []
    for i in range(200):
        policy = CANONICAL if i % 2 == 0 else PER_COMBINATION
        limits = (
            {"max_nodes": 6, "max_mult": 3}
            if policy == CANONICAL
            else {"max_nodes": 5, "max_mult": 2}
        )
        g, h, w = (random_multigraph(rng, **limits) for _ in range(3))
        a, b, c = (clique_multicomplex(q, policy) for q in (g, h, w))
        unit = Multicomplex.empty(g.palette, policy)
        if complex_merge(a, b) != complex_merge(b, a):
            violations.append((i, "commutativity"))
        if complex_merge(a, b) != clique_multicomplex(merge(g, h), policy):
            violations.append((i, "functoriality"))
        if complex_merge(complex_merge(a, b), c) != complex_merge(
            a, complex_merge(b, c)
        ):
            violations.append((i, "associativity"))
        if complex_merge(a, unit) != a or complex_merge(unit, a) != a:
            violations.append((i, "unit"))
    elapsed = time.perf_counter() - started
    ok = not violations
    _verdict(
        7,
        ok,
        f"commutativity/functoriality/associativity/unit on 200 random pairs: "
        f"{len(violations)} violations ({elapsed:.1f}s)",
    )
    assert violations == []


def test_acceptance_8_report_prints_both_channels(tmp_path, capsys):
    outputs = {}
    assert main(["--workspace", str(WORKSPACES / "three_paths.json"), "filtrate"]) == 0
    outputs[3] = capsys.readouterr().out

    four = {
        "colors": ["black"],
        "graphs": {
            "G": {"nodes": [1, 2, 4], "edges": [{"u": 1, "v": 2, "color": "black"}, {"u": 2, "v": 4, "color": "black"}]},
            "H": {"nodes": [2, 3, 5], "edges": [{"u": 2, "v": 3, "color": "black"}, {"u": 3, "v": 5, "color": "black"}]},
            "K": {"nodes": [1, 3, 6], "edges": [{"u": 1, "v": 3, "color": "black"}, {"u": 3, "v": 6, "color": "black"}]},
            "L": {"nodes": [4, 6, 7], "edges": [{"u": 4, "v": 6, "color": "black"}, {"u": 6, "v": 7, "color": "black"}]},
        },
        "chain": "G | H | K | L",
    }
    path = tmp_path / "four.json"
    path.write_text(json.dumps(four))
    assert main(["--workspace", str(path), "filtrate"]) == 0
    outputs[4] = capsys.readouterr().out

    problems = []
    for k, out in outputs.items():
        if "formula" not in out or "measured" not in out:
            problems.append(f"k={k}: missing a channel")
        for j in range(k):
            if f"level {j}: formula {math.comb(k, j + 1)}," not in out:
                problems.append(f"k={k}: formula level size C({k},{j + 1}) absent")
        if f"folds: formula {2 ** k - k}," not in out:
            problems.append(f"k={k}: formula fold count absent")
    ok = not problems
    _verdict(
        8,
        ok,
        "reports for k=3 and k=4 print formula and measured channels"
        + ("" if ok else f"; problems: {problems}"),
    )
    assert not problems

    profile = level_profile(build_filtration(parse_chain(four["chain"]), load_workspace(path).env()))
    assert [lv["formula_size"] for lv in profile["levels"]] == [4, 6, 4, 1]
    assert profile["folds"]["formula"] == 12
