"""Command-line interface.

Verbs: parse | merge | betti | filtrate | lattice | check-laws |
incremental | fuzz.  Exit codes: 0 success, 1 usage, 2 domain error,
3 law violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable
from pathlib import Path

from . import chainlat, filtration, homology, incremental, mcomplex
from .chainlat import ChainExpr
from .chainparse import parse_chain
from .errors import ChainBudgetExceeded, LawViolation, MultihomError
from .mgraph import Multigraph, merge
from .workspace import Workspace, load_workspace

__all__ = [
    "main",
    "parse_chain",
    "cmd_parse",
    "cmd_merge",
    "cmd_betti",
    "cmd_filtrate",
    "cmd_lattice",
    "cmd_check_laws",
    "cmd_incremental",
    "cmd_fuzz",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_LAW = 3

# Work limits, counted before any chain is made.  Each admits every size
# that finished within a few seconds when measured (lattice: 9 atoms, or
# 7 with --permutations; check-laws: --k 6) and refuses the next.
MAX_LATTICE_CHAINS = 1_000_000  # chains `lattice` enumerates
MAX_LAW_TRIPLES = 100_000  # chain triples `check-laws` walks at its largest k


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI reserves 2 for domain errors
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def _need_workspace(args) -> Workspace:
    if not args.workspace:
        raise UsageError("this command needs --workspace PATH")
    return load_workspace(args.workspace)


def _resolve_chain(args, ws: Workspace | None) -> ChainExpr:
    if getattr(args, "chain", None):
        return parse_chain(args.chain)
    if ws is not None and ws.chain_text:
        return parse_chain(ws.chain_text)
    raise UsageError("no chain given and the workspace declares no default 'chain'")


# -- verbs -------------------------------------------------------------------


def cmd_parse(args) -> int:
    x = parse_chain(args.chain)
    if args.json:
        print(
            json.dumps(
                {
                    "text": x.text(),
                    "pretty": x.pretty(),
                    "atoms": list(x.atoms),
                    "connectives": [c.value for c in x.connectives],
                    "blocks": [list(b) for b in x.blocks()],
                    "grade": chainlat.merge_count(x),
                },
                indent=2,
            )
        )
    else:
        print(x.text())
        print(f"pretty: {x.pretty()}")
        print(f"blocks: {[list(b) for b in x.blocks()]}  grade: {chainlat.merge_count(x)}")
    return EXIT_OK


def cmd_merge(args) -> int:
    ws = _need_workspace(args)
    env = ws.env()
    g = env.resolve(args.left)
    h = env.resolve(args.right)
    merged = merge(g, h)
    if args.emit_complex:
        x = mcomplex.clique_multicomplex(merged, args.policy)
        payload = x.to_json_dict()
        payload["betti"] = list(homology.betti(x))
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            counts = [len(grade) for grade in payload["cells"]]
            print(f"cells per dimension: {counts}")
            print(f"betti: {tuple(payload['betti'])}")
        return EXIT_OK
    payload = merged.to_json_dict()
    payload["colors_used"] = sorted(merged.colors_used())
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"nodes: {payload['nodes']}\n"
            f"edges: {sum(e['mult'] for e in payload['edges'])} copies over "
            f"{len(payload['edges'])} coloured pairs\n"
            f"colours used: {payload['colors_used']}"
        )
    return EXIT_OK


def cmd_betti(args) -> int:
    ws = _need_workspace(args)
    x = _resolve_chain(args, ws)
    beta = filtration.chain_betti(x, ws.env(), args.policy)
    if args.json:
        print(json.dumps({"chain": x.text(), "betti": list(beta)}, indent=2))
    else:
        print(f"{x.text()}  ->  betti {tuple(beta)}")
    return EXIT_OK


def cmd_filtrate(args) -> int:
    ws = _need_workspace(args)
    x = _resolve_chain(args, ws)
    poset = filtration.build_filtration(x, ws.env(), args.policy)
    if args.dot:
        print(poset.to_dot())
        return EXIT_OK
    if args.json:
        print(json.dumps(poset.to_json_dict(), indent=2))
        return EXIT_OK
    print(f"interaction filtration of {x.text()} ({len(poset.nodes)} nodes)")
    for row in filtration.betti_trace(poset, dim=args.dim):
        print(
            f"  delta={row['delta']}  level={row['level']}  "
            f"beta_{args.dim}={row['beta']}  {row['chain']}"
        )
    profile = filtration.level_profile(poset)
    print("level sizes (formula vs measured):")
    for lv in profile["levels"]:
        print(
            f"  level {lv['level']}: formula {lv['formula_size']}, "
            f"measured {lv['measured_size']}"
        )
    folds = profile["folds"]
    print(f"folds: formula {folds['formula']}, measured {folds['measured']}")
    return EXIT_OK


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of the factors, or cap + 1 as soon as it passes cap."""
    product = 1
    for f in factors:
        product *= f
        if product > cap:
            return cap + 1
    return product


def cmd_lattice(args) -> int:
    atoms = tuple(args.atoms)
    k, cap = len(atoms), MAX_LATTICE_CHAINS
    # one minimal chain per atom order, and the 2^(k-1) chains of one
    # order, or with --permutations of every order
    orders = _capped_product(range(2, k + 1), cap)
    per_order = _capped_product(itertools.repeat(2, k - 1), cap)
    if orders + per_order * (orders if args.permutations else 1) > cap:
        raise ChainBudgetExceeded(
            f"lattice over {k} atoms would enumerate more than {cap:,} chains"
        )
    chains = filtration.enumerate_chains(atoms, include_permutations=args.permutations)
    payload = {
        "atoms": list(atoms),
        "count": len(chains),
        "top": chainlat.top_chain(atoms).text(),
        "minimals": [c.text() for c in chainlat.minimal_chains(atoms)],
        "chains": [
            {"chain": c.text(), "grade": chainlat.merge_count(c)} for c in chains
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{len(chains)} chains over {atoms}" + (" (permutation-identified)" if args.permutations else " (fixed order)"))
        for grade in range(len(atoms)):
            at_grade = [c["chain"] for c in payload["chains"] if c["grade"] == grade]
            if at_grade:
                print(f"  grade {grade}: {', '.join(at_grade)}")
        print(f"top: {payload['top']}")
        print(f"minimals ({len(payload['minimals'])}): {', '.join(payload['minimals'])}")
    return EXIT_OK


def cmd_check_laws(args) -> int:
    # the largest k walks every triple of its 2^(k-1) chains
    if _capped_product(itertools.repeat(8, args.k - 1), MAX_LAW_TRIPLES) > MAX_LAW_TRIPLES:
        raise ChainBudgetExceeded(
            f"check-laws --k {args.k} would walk more than {MAX_LAW_TRIPLES:,} chain triples"
        )
    violations: list[str] = []
    for k in range(2, args.k + 1):
        atoms = tuple(f"A{i}" for i in range(1, k + 1))
        violations.extend(chainlat.check_laws(atoms))
    graphs: list[Multigraph] = []
    if args.workspace:
        ws = load_workspace(args.workspace)
        graphs = list(ws.graphs.values())
    if len(graphs) < 3:
        palette = ("red", "black")
        graphs = [
            Multigraph.build([1, 2, 3], [(1, 2, "red"), (2, 3, "black")], palette),
            Multigraph.build([2, 3, 4], [(2, 3, "black"), (3, 4, "red"), (2, 4, "red")], palette),
            Multigraph.build([1, 4], [(1, 4, "black", 2)], palette),
        ]
    violations.extend(_monoid_law_witnesses(graphs, args.policy))
    payload = {"k_max": args.k, "violations": violations, "ok": not violations}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"laws over fixed-order chains (k=2..{args.k}) and complex merges: "
            + ("all hold" if not violations else f"{len(violations)} violation(s)")
        )
        for v in violations:
            print(f"  {v}")
    if violations:
        raise LawViolation(violations)
    return EXIT_OK


def _monoid_law_witnesses(graphs: list[Multigraph], policy: str) -> list[str]:
    """Merge-monoid and functoriality checks over every pair/triple."""
    out: list[str] = []
    complexes = [mcomplex.clique_multicomplex(g, policy) for g in graphs]
    palette = graphs[0].palette if graphs else frozenset()
    unit = mcomplex.Multicomplex.empty(palette, policy)
    for (i, a), (j, b) in itertools.product(enumerate(complexes), repeat=2):
        if mcomplex.complex_merge(a, b) != mcomplex.complex_merge(b, a):
            out.append(f"complex_merge commutativity: graphs #{i}, #{j}")
        expected = mcomplex.clique_multicomplex(merge(graphs[i], graphs[j]), policy)
        if mcomplex.complex_merge(a, b) != expected:
            out.append(f"functoriality: graphs #{i}, #{j}")
    for i, a in enumerate(complexes):
        if mcomplex.complex_merge(a, unit) != a or mcomplex.complex_merge(unit, a) != a:
            out.append(f"complex_merge unit: graph #{i}")
    for (i, a), (j, b), (l, c) in itertools.product(enumerate(complexes), repeat=3):
        lhs = mcomplex.complex_merge(mcomplex.complex_merge(a, b), c)
        rhs = mcomplex.complex_merge(a, mcomplex.complex_merge(b, c))
        if lhs != rhs:
            out.append(f"complex_merge associativity: graphs #{i}, #{j}, #{l}")
    return out


def cmd_incremental(args) -> int:
    if args.known_cases:
        findings = incremental.known_case_findings()
        if args.json:
            print(json.dumps(findings, indent=2))
        else:
            for f in findings:
                status = "ok" if f["agrees"] else "FLAGGED DISCREPANCY"
                print(
                    f"case {f['case']} d={f['dim']}: formula {f['formula']} "
                    f"vs recorded {f['recorded']} [{status}]"
                )
        return EXIT_OK
    if not (args.left and args.right):
        raise UsageError("incremental needs two graph names (or --known-cases)")
    ws = _need_workspace(args)
    env = ws.env()
    report = incremental.validate(env.resolve(args.left), env.resolve(args.right), args.policy)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for d, formula, oracle, ok in (
            (1, report.formula_beta1, report.oracle_beta1, report.agrees_beta1),
            (2, report.formula_beta2, report.oracle_beta2, report.agrees_beta2),
        ):
            status = "agrees" if ok else "DISAGREES"
            print(f"beta_{d}: formula {formula}, oracle {oracle}  [{status}]")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    records = list(
        incremental.fuzz_records(args.count, args.seed, policy=args.policy)
    )
    if args.jsonl:
        Path(args.jsonl).write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
    rows = incremental.summarize_records(records)
    if args.summary:
        Path(args.summary).write_text(incremental.summary_csv(rows))
    if args.json:
        print(json.dumps({"count": len(records), "summary": rows}, indent=2))
    else:
        for row in rows:
            print(
                f"{row['dimension']}: formula agrees with oracle on "
                f"{row['agree']}/{row['total']} ({row['rate']:.2%})"
            )
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="multihom", description=__doc__)
    parser.add_argument("--workspace", help="path to a workspace JSON file")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed where applicable")
    parser.add_argument(
        "--policy",
        choices=list(mcomplex.POLICIES),
        default=mcomplex.CANONICAL,
        help="how cells above dimension 2 are created",
    )
    parser.add_argument(
        "--max-cells",
        type=_int_at_least(1),
        default=mcomplex.MAX_CELLS,
        help="refuse (exit 2) a clique complex with more cells than this, "
        f"before building it (default {mcomplex.MAX_CELLS:,})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse a chain expression")
    p.add_argument("chain")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("merge", help="merge two workspace graphs")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emit-complex", action="store_true")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("betti", help="Betti vector of a chain")
    p.add_argument("chain", nargs="?")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("filtrate", help="build the interaction filtration")
    p.add_argument("chain", nargs="?")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--dim", type=_int_at_least(0), default=0, help="Betti dimension for the trace")
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("lattice", help="enumerate chains over atoms")
    p.add_argument("atoms", nargs="+")
    p.add_argument("--permutations", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("check-laws", help="run the algebraic law suite")
    p.add_argument("--k", type=_int_at_least(2), default=4, help="check chain lengths 2..k")
    p.set_defaults(func=cmd_check_laws)

    p = sub.add_parser("incremental", help="formula vs oracle for one merge")
    p.add_argument("left", nargs="?")
    p.add_argument("right", nargs="?")
    p.add_argument(
        "--known-cases",
        action="store_true",
        help="print the recorded reference substitutions (with flags)",
    )
    p.set_defaults(func=cmd_incremental)

    p = sub.add_parser("fuzz", help="random merges: formula vs oracle rates")
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--jsonl", help="write one JSON record per merge")
    p.add_argument("--summary", help="write an agreement-rate CSV")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with mcomplex.cell_budget(args.max_cells):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LawViolation as exc:
        print(f"law violation: {exc}", file=sys.stderr)
        return EXIT_LAW
    except MultihomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
