"""Command-line interface.

Verbs: parse | merge | betti | filtrate | lattice | check-laws |
incremental | fuzz.  Exit codes: 0 success (also when the reader of
stdout closes it early), 1 usage, 2 domain error (also when memory runs
out), 3 law violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import chainlat, filtration, homology, incremental, mcomplex
from .chainlat import ChainExpr
from .chainparse import ATOM, parse_chain
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
# 7 with --permutations; check-laws: --k 6, and 17 workspace graphs, kept
# as documented though they take about 0.3 s) and refuses the next.
MAX_LATTICE_CHAINS = 1_000_000  # chains `lattice` enumerates
MAX_LAW_TRIPLES = 100_000  # chain triples `check-laws` walks at its largest k
MAX_GRAPH_TRIPLES = 5_000  # workspace graph triples `check-laws` merges


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
    if args.chain is not None:  # an explicit '' is an empty chain, not no chain
        return parse_chain(args.chain)
    if ws is not None and ws.chain_text:
        return parse_chain(ws.chain_text)
    raise UsageError("no chain given and the workspace declares no default 'chain'")


def _print_json(payload) -> None:
    """Print ``payload`` as JSON indented by 2, streamed in batches: a
    joined string would hold it all, and a write per chunk is slow."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    for batch in iter(lambda: "".join(itertools.islice(chunks, 8192)), ""):
        sys.stdout.write(batch)
    print()


# -- verbs -------------------------------------------------------------------


def cmd_parse(args) -> int:
    x = parse_chain(args.chain)
    if args.json:
        _print_json(
            {
                "text": x.text(),
                "pretty": x.pretty(),
                "atoms": list(x.atoms),
                "connectives": [c.value for c in x.connectives],
                "blocks": [list(b) for b in x.blocks()],
                "grade": chainlat.merge_count(x),
            }
        )
    else:
        print(x.text())
        print(f"pretty: {x.pretty()}")
        print(f"blocks: {[list(b) for b in x.blocks()]}  grade: {chainlat.merge_count(x)}")
    return EXIT_OK


def cmd_merge(args) -> int:
    env = _need_workspace(args).env()
    merged = merge(env.resolve(args.left), env.resolve(args.right))
    if args.emit_complex:
        if args.json:
            payload = mcomplex.clique_multicomplex(merged, args.policy).to_json_dict()
            payload["betti"] = list(homology.clique_betti(merged, args.policy))
            _print_json(payload)
        else:
            counts = mcomplex._cell_counts(merged, *mcomplex.clique_cells(merged, args.policy))
            print(f"cells per dimension: {counts}")
            print(f"betti: {homology.clique_betti(merged, args.policy)}")
        return EXIT_OK
    payload = merged.to_json_dict()
    payload["colors_used"] = sorted(merged.colors_used())
    if args.json:
        _print_json(payload)
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
        _print_json({"chain": x.text(), "betti": list(beta)})
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
        _print_json(poset.to_json_dict())
        return EXIT_OK
    lines = [f"interaction filtration of {x.text()} ({len(poset.nodes)} nodes)"]
    lines += [
        f"  delta={row['delta']}  level={row['level']}  "
        f"beta_{args.dim}={row['beta']}  {row['chain']}"
        for row in filtration.betti_trace(poset, dim=args.dim)
    ]
    profile = filtration.level_profile(poset)
    lines.append("level sizes (formula vs measured):")
    lines += [
        f"  level {lv['level']}: formula {lv['formula_size']}, measured {lv['measured_size']}"
        for lv in profile["levels"]
    ]
    folds = profile["folds"]
    lines.append(f"folds: formula {folds['formula']}, measured {folds['measured']}")
    print("\n".join(lines))
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
    for atom in atoms:  # an atom of the chain grammar, so that chains print back as parsed
        if not ATOM.fullmatch(atom):
            raise MultihomError(f"lattice atom {atom!r} is not an identifier")
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
        _print_json(payload)
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
    graphs: list[Multigraph] = []
    if args.workspace:
        graphs = list(load_workspace(args.workspace).graphs.values())
    if len(graphs) ** 3 > MAX_GRAPH_TRIPLES:
        raise ChainBudgetExceeded(
            f"check-laws over {len(graphs)} workspace graphs would merge more than "
            f"{MAX_GRAPH_TRIPLES:,} graph triples"
        )
    violations: list[str] = []
    for k in range(2, args.k + 1):
        atoms = tuple(f"A{i}" for i in range(1, k + 1))
        violations.extend(chainlat.check_laws(atoms))
    if not graphs:
        palette = ("red", "black")
        graphs = [
            Multigraph.build([1, 2, 3], [(1, 2, "red"), (2, 3, "black")], palette),
            Multigraph.build([2, 3, 4], [(2, 3, "black"), (3, 4, "red"), (2, 4, "red")], palette),
            Multigraph.build([1, 4], [(1, 4, "black", 2)], palette),
        ]
    violations.extend(_monoid_law_witnesses(graphs, args.policy))
    payload = {"k_max": args.k, "violations": violations, "ok": not violations}
    if args.json:
        _print_json(payload)
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
    """Merge-monoid checks over every pair/triple, read off the graphs:
    clique complexes are equal exactly when their graphs are, and
    ``complex_merge`` merges their graphs.  Each graph's cells are
    counted first, so a graph whose complex is over the cell budget is
    refused as building it would be; no complex is built."""
    for g in graphs:
        mcomplex.clique_cells(g, policy)
    out: list[str] = []
    unit = Multigraph.empty(graphs[0].palette if graphs else ())
    for (i, a), (j, b) in itertools.product(enumerate(graphs), repeat=2):
        if merge(a, b) != merge(b, a):
            out.append(f"complex_merge commutativity: graphs #{i}, #{j}")
    for i, a in enumerate(graphs):
        if merge(a, unit) != a or merge(unit, a) != a:
            out.append(f"complex_merge unit: graph #{i}")
    for (i, a), (j, b), (l, c) in itertools.product(enumerate(graphs), repeat=3):
        if merge(merge(a, b), c) != merge(a, merge(b, c)):
            out.append(f"complex_merge associativity: graphs #{i}, #{j}, #{l}")
    return out


def cmd_incremental(args) -> int:
    if args.known_cases:
        findings = incremental.known_case_findings()
        if args.json:
            _print_json(findings)
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
        _print_json(report.to_json_dict())
    else:
        for d, formula, oracle, ok in (
            (1, report.formula_beta1, report.oracle_beta1, report.agrees_beta1),
            (2, report.formula_beta2, report.oracle_beta2, report.agrees_beta2),
        ):
            status = "agrees" if ok else "DISAGREES"
            print(f"beta_{d}: formula {formula}, oracle {oracle}  [{status}]")
    return EXIT_OK


def _file_identity(path: str) -> tuple[int, int] | str:
    """The device and inode of a file that exists, so that hard links
    and symbolic links to one file match; else the resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino)


def _check_outputs(*paths: str | None) -> None:
    """Refuse, before any work starts, one file named twice and a path
    that cannot be opened for writing (None is skipped).  No file is
    truncated, and one the check makes is removed again, so a run that
    fails leaves what was there as it was."""
    given = [path for path in paths if path]
    if len(set(map(_file_identity, given))) < len(given):
        raise MultihomError(f"one file is named for two outputs: {' and '.join(given)}")
    for path in given:
        existed = os.path.exists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise MultihomError(f"cannot write {path}: {exc.strerror or exc}") from None
        if not existed:
            os.unlink(path)


def cmd_fuzz(args) -> int:
    _check_outputs(args.jsonl, args.summary)
    records = list(
        incremental.fuzz_records(args.count, args.seed, policy=args.policy)
    )
    rows = incremental.summarize_records(records)
    if args.jsonl:
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        Path(args.jsonl).write_text(text, encoding="utf-8")
    if args.summary:
        Path(args.summary).write_text(incremental.summary_csv(rows), encoding="utf-8")
    if args.json:
        _print_json({"count": len(records), "summary": rows})
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
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LawViolation as exc:
        print(f"law violation: {exc}", file=sys.stderr)
        return EXIT_LAW
    except MultihomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        # a complex inside the cell budget can still outgrow the memory
        print(
            "error: out of memory; a lower --max-cells refuses inputs this large up front",
            file=sys.stderr,
        )
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
