"""Workspace schema validation and the command-line interface."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, reject, settings

import multihom

from multihom import (
    Multigraph,
    PaletteMismatch,
    SelfLoopPresent,
    WorkspaceError,
    load_workspace,
    merge,
    parse_workspace,
)
from multihom.cli import EXIT_DOMAIN, EXIT_LAW, EXIT_OK, EXIT_USAGE, _print_json, build_parser, main
from multihom.errors import CellBudgetExceeded
from multihom.incremental import replay_betti
from multihom.mcomplex import POLICIES, cell_budget, clique_multicomplex
from multihom.randgen import random_multigraph

import oracles
from conftest import REPO_ROOT


MINIMAL = {
    "colors": ["red"],
    "graphs": {"G": {"nodes": [1, 2], "edges": [{"u": 1, "v": 2, "color": "red"}]}},
}


def ws_variant(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


# -- workspace schema ---------------------------------------------------------------


class TestWorkspaceSchema:
    def test_minimal_parses(self):
        ws = parse_workspace(MINIMAL)
        assert set(ws.graphs) == {"G"}
        assert ws.chain_text is None
        assert ws.graphs["G"].multiplicity((1, 2)) == 1

    def test_mult_expands(self):
        data = ws_variant()
        data["graphs"]["G"]["edges"][0]["mult"] = 3
        assert parse_workspace(data).graphs["G"].multiplicity((1, 2)) == 3

    def test_chain_is_kept(self):
        assert parse_workspace(ws_variant(chain="G")).chain_text == "G"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("colors"),
            lambda d: d.pop("graphs"),
            lambda d: d.update(colors="red"),
            lambda d: d.update(colors=[1]),
            lambda d: d.update(graphs=[]),
            lambda d: d["graphs"].update(H=[]),
            lambda d: d["graphs"]["G"].pop("nodes"),
            lambda d: d["graphs"]["G"].update(nodes=["a"]),
            lambda d: d["graphs"]["G"]["edges"][0].pop("color"),
            lambda d: d["graphs"]["G"]["edges"][0].update(mult=0),
            lambda d: d.update(chain=7),
            # JSON true loads as a bool, which Python counts as an int
            lambda d: d["graphs"]["G"].update(nodes=[True, 2]),
            lambda d: d["graphs"]["G"]["edges"][0].update(mult=True),
            lambda d: d["graphs"]["G"]["edges"][0].update(u=True),
            lambda d: d["graphs"]["G"]["edges"][0].update(u="1"),
            lambda d: d["graphs"]["G"]["edges"][0].update(v="2"),
            lambda d: d["graphs"]["G"]["edges"][0].update(color=["red"]),
            lambda d: d["graphs"]["G"].update(edges=5),
        ],
    )
    def test_malformed_rejected(self, mutate):
        data = ws_variant()
        mutate(data)
        with pytest.raises(WorkspaceError):
            parse_workspace(data)

    @pytest.mark.parametrize(
        "edge, problem",
        [
            ([1, 2, "red"], "must be an object"),
            ({"v": 2}, "missing 'u'"),
            ({"u": "1", "color": "red"}, "missing 'v'"),
            ({"u": 1, "v": 2, "mult": 0}, "missing 'color'"),
            ({"u": "1", "v": "2", "color": 3}, "endpoint 'u' must be an integer"),
            ({"u": 1, "v": True, "color": 3}, "endpoint 'v' must be an integer"),
            ({"u": 1, "v": 2, "color": ["red"], "mult": 0}, "colour must be a string"),
            ({"u": 1, "v": 2, "color": "red", "mult": 0}, "multiplicity must be an integer >= 1"),
            ({"u": 1, "v": 2, "color": "red", "mult": True}, "multiplicity must be an integer >= 1"),
        ],
    )
    def test_edge_problem_is_the_first_in_field_order(self, edge, problem):
        data = ws_variant()
        data["graphs"]["G"]["edges"].append(edge)
        with pytest.raises(WorkspaceError) as info:
            parse_workspace(data)
        assert str(info.value) == f"graph 'G': edge #1 {problem}"

    def test_subclasses_of_the_field_types_still_load(self):
        # the inline test takes exact types; the checks behind it keep
        # accepting subclasses, bool aside
        class Count(int):
            pass

        class Name(str):
            pass

        class Edge(dict):
            pass

        data = ws_variant()
        data["graphs"]["G"]["edges"] = [
            {"u": Count(1), "v": 2, "color": "red", "mult": Count(2)},
            Edge(u=1, v=Count(3), color=Name("red")),
        ]
        data["graphs"]["G"]["nodes"] = [1, 2, 3]
        g = parse_workspace(data).graphs["G"]
        assert g.multiplicities() == {(1, 2): 2, (1, 3): 1}

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_a_bool_endpoint_is_refused_by_name(self, field):
        data = ws_variant()
        data["graphs"]["G"]["edges"][0][field] = True
        with pytest.raises(WorkspaceError) as info:
            parse_workspace(data)
        assert str(info.value) == f"graph 'G': edge #0 endpoint {field!r} must be an integer"

    def test_graph_layer_errors_surface_as_domain_errors(self):
        bad_colour = ws_variant()
        bad_colour["graphs"]["G"]["edges"][0]["color"] = "violet"
        with pytest.raises(PaletteMismatch):
            parse_workspace(bad_colour)
        loop = ws_variant()
        loop["graphs"]["G"]["edges"][0]["v"] = 1
        with pytest.raises(SelfLoopPresent):
            parse_workspace(loop)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(WorkspaceError):
            load_workspace(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WorkspaceError):
            load_workspace(path)

    @pytest.mark.parametrize(
        "kind, message",
        [
            pytest.param(kind, message, id=kind)
            for kind, message in [
                ("missing", "workspace file not found: {path}"),
                ("directory", "cannot read workspace {path}: Is a directory"),
                ("not-utf8", "workspace {path} is not UTF-8 text: invalid start byte"),
                (
                    "invalid-json",
                    "workspace is not valid JSON: Expecting property name enclosed in "
                    "double quotes: line 1 column 2 (char 1)",
                ),
                ("deeply-nested", "workspace {path} nests too deeply to read"),
            ]
        ],
    )
    def test_unreadable_workspace_messages(self, tmp_path, kind, message):
        path = tmp_path / "ws.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        elif kind == "invalid-json":
            path.write_text("{not json")
        elif kind == "deeply-nested":  # deeper than the JSON decoder's recursion limit
            path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(WorkspaceError) as caught:
            load_workspace(path)
        assert str(caught.value) == message.format(path=path)

    def test_load_real_workspaces(self, three_paths_path, disjoint_triangles_path):
        for path in (three_paths_path, disjoint_triangles_path):
            ws = load_workspace(path)
            assert set(ws.graphs) == {"G", "H", "K"}
            assert ws.chain_text == "G | H | K"


# -- CLI ------------------------------------------------------------------------------


class TestCliParse:
    def test_parse_text(self, capsys):
        assert main(["parse", "G | H . K"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "G | H . K" in out
        assert "blocks" in out

    def test_parse_json(self, capsys):
        assert main(["--json", "parse", "G | H . K"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == [["G"], ["H", "K"]]
        assert payload["grade"] == 1

    def test_syntax_error_is_domain_exit(self, capsys):
        assert main(["parse", "G |"]) == EXIT_DOMAIN
        assert "error" in capsys.readouterr().err
        assert main(["parse", "(" * 3000 + "G" + ")" * 3000]) == EXIT_DOMAIN
        assert "nested deeper" in capsys.readouterr().err

    def test_unsupported_shape_is_domain_exit(self, capsys):
        assert main(["parse", "(G | H) . K"]) == EXIT_DOMAIN


class TestCliMergeBetti:
    def test_merge(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "--json", "merge", "G", "H"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "path, text",
        [
            (
                REPO_ROOT / "workspaces" / "three_paths.json",
                "nodes: [1, 2, 3, 4, 5]\n"
                "edges: 4 copies over 4 coloured pairs\n"
                "colours used: ['black']\n",
            ),
            (
                REPO_ROOT / "tests" / "data" / "doubled_k5.json",
                "nodes: [1, 2, 3, 4, 5, 6]\n"
                "edges: 15 copies over 14 coloured pairs\n"
                "colours used: ['black', 'red']\n",
            ),
        ],
        ids=["three_paths", "doubled_k5"],
    )
    def test_merge_text(self, capsys, path, text):
        assert main(["--workspace", str(path), "merge", "G", "H"]) == EXIT_OK
        assert capsys.readouterr().out == text

    def test_merge_emit_complex(self, three_paths_path, capsys):
        code = main(
            ["--workspace", str(three_paths_path), "merge", "G", "K", "--emit-complex"]
        )
        assert code == EXIT_OK
        assert "betti" in capsys.readouterr().out

    @staticmethod
    def emit_complex_texts(policy: str) -> dict[tuple[Path, str, str], str]:
        """The text ``merge --emit-complex`` should print for every pair of
        graphs of four workspaces, read off the built complex."""
        workspaces, data = REPO_ROOT / "workspaces", REPO_ROOT / "tests" / "data"
        paths = [workspaces / "three_paths.json", workspaces / "disjoint_triangles.json"]
        paths += [data / "doubled_k5.json", data / "sharing_k5.json"]
        expected = {}
        for path in paths:
            graphs = load_workspace(str(path)).graphs
            for left, right in itertools.product(graphs, repeat=2):
                x = clique_multicomplex(merge(graphs[left], graphs[right]), policy)
                counts = [x.cell_count(d) for d in range(x.dimension + 1)]
                expected[path, left, right] = (
                    f"cells per dimension: {counts}\nbetti: {replay_betti(x)}\n"
                )
        return expected

    @pytest.mark.parametrize("policy", POLICIES)
    def test_merge_emit_complex_text_matches_the_built_complex(self, capsys, monkeypatch, policy):
        # the cells per dimension and Betti numbers printed are the built
        # complex's, and the text form builds none
        from multihom import mcomplex

        expected = self.emit_complex_texts(policy)

        def refuse(*args, **kwargs):
            raise AssertionError("a complex was built")

        monkeypatch.setattr(mcomplex, "clique_multicomplex", refuse)
        for (path, left, right), out in expected.items():
            argv = ["--workspace", str(path), "--policy", policy]
            assert main([*argv, "merge", left, right, "--emit-complex"]) == EXIT_OK
            assert capsys.readouterr().out == out

    @pytest.mark.parametrize("policy", POLICIES)
    def test_merge_emit_complex_text_enumerates_the_cliques_once(
        self, capsys, monkeypatch, policy
    ):
        # the cell counts and the Betti vector are read off one shape
        from multihom import mcomplex

        expected = self.emit_complex_texts(policy)
        calls, real = [], mcomplex._higher_cliques

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcomplex, "_higher_cliques", spy)
        for (path, left, right), out in expected.items():
            calls.clear()
            argv = ["--workspace", str(path), "--policy", policy]
            assert main([*argv, "merge", left, right, "--emit-complex"]) == EXIT_OK
            assert capsys.readouterr().out == out
            assert len(calls) == 1

    def test_merge_emit_complex_text_keeps_the_budget_refusal(self, capsys):
        # doubled K5 merged with itself: 5 + 20 + 80 + 256 = 361 cells
        argv = ["--workspace", str(REPO_ROOT / "tests" / "data" / "doubled_k5.json")]
        argv += ["--policy", "per-combination", "--max-cells"]
        assert main([*argv, "361", "merge", "G", "G", "--emit-complex"]) == EXIT_OK
        assert "cells per dimension: [5, 20, 80, 256]" in capsys.readouterr().out
        assert main([*argv, "360", "merge", "G", "G", "--emit-complex"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the per-combination clique complex of a graph on 5 nodes "
            "has more than 360 cells\n"
        )

    def test_merge_needs_workspace(self, capsys):
        assert main(["merge", "G", "H"]) == EXIT_USAGE

    def test_merge_unknown_graph(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "merge", "G", "ZZ"])
        assert code == EXIT_DOMAIN

    def test_missing_workspace_file(self, tmp_path, capsys):
        code = main(["--workspace", str(tmp_path / "x.json"), "merge", "G", "H"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "deeply-nested"])
    def test_unreadable_workspace_is_domain_exit(self, tmp_path, capsys, kind):
        path = tmp_path / "ws.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        else:  # deeper than the JSON decoder's recursion limit
            path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["--workspace", str(path), "betti", "G"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_betti_default_chain(self, three_paths_path, capsys):
        assert main(["--workspace", str(three_paths_path), "--json", "betti"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain"] == "G | H | K"
        assert payload["betti"][0] == 3

    def test_betti_explicit_chain(self, three_paths_path, capsys):
        code = main(
            ["--workspace", str(three_paths_path), "--json", "betti", "G . H . K"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["betti"] == [1, 0, 0]

    @pytest.mark.parametrize(
        "edge",
        [
            {"u": 1, "v": 2, "color": "red", "mult": True},
            {"u": "1", "v": 2, "color": "red"},
        ],
        ids=["bool-mult", "string-endpoint"],
    )
    def test_bad_edge_is_domain_exit(self, tmp_path, capsys, edge):
        data = ws_variant()
        data["graphs"]["G"]["edges"] = [edge]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        assert main(["--workspace", str(path), "betti", "G"]) == EXIT_DOMAIN
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["betti", "filtrate"])
    def test_explicit_empty_chain_is_not_the_default(self, disjoint_triangles_path, capsys, verb):
        # the workspace declares a default chain, which '' must not fall back to
        assert main(["--workspace", str(disjoint_triangles_path), verb, ""]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert "empty chain expression" in captured.err
        assert captured.out == ""

    def test_betti_without_any_chain(self, tmp_path, capsys):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(MINIMAL))
        assert main(["--workspace", str(path), "betti"]) == EXIT_USAGE


class TestCliCellBudget:
    """Doubled K7 has 393 cells under ``canonical`` and 2,350,601 under
    ``per-combination``; the second is refused from the clique count,
    before any cell is made."""

    @staticmethod
    def doubled_k7(tmp_path) -> str:
        edges = [
            {"u": u, "v": v, "color": color}
            for u in range(1, 8)
            for v in range(u + 1, 8)
            for color in ("red", "black")
        ]
        data = {"colors": ["red", "black"], "graphs": {"G": {"nodes": list(range(1, 8)), "edges": edges}}}
        path = tmp_path / "k7.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_per_combination_explosion_is_refused_quickly(self, tmp_path, capsys):
        path = self.doubled_k7(tmp_path)
        start = time.perf_counter()
        code = main(["--workspace", path, "--policy", "per-combination", "betti", "G"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1000000 cells" in err
        assert "Traceback" not in err
        assert elapsed < 1.0, f"refusal took {elapsed:.2f} s"

    @pytest.mark.parametrize("budget", ([], ["--max-cells", "393"]), ids=["default", "exact"])
    def test_canonical_fits_the_budget(self, tmp_path, capsys, budget):
        path = self.doubled_k7(tmp_path)
        assert main(["--workspace", path, *budget, "--json", "betti", "G"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["betti"] == [1, 0, 224, 0, 0, 0, 0]

    def test_flag_sets_the_budget(self, tmp_path, capsys):
        path = self.doubled_k7(tmp_path)
        assert main(["--workspace", path, "--max-cells", "392", "betti", "G"]) == EXIT_DOMAIN
        assert "more than 392 cells" in capsys.readouterr().err
        assert main(["--workspace", path, "--max-cells", "0", "betti", "G"]) == EXIT_USAGE

    def test_large_clique_is_refused_without_filling_memory(self, tmp_path, capsys):
        # K_30 has about 10^9 cliques; the refusal comes from its first
        # clique of 20 vertices, which alone has 2^20 - 1 subcliques
        edges = [{"u": u, "v": v, "color": "red"} for u in range(30) for v in range(u + 1, 30)]
        data = {
            "colors": ["red"],
            "graphs": {
                "G": {"nodes": list(range(30)), "edges": edges},
                "H": {"nodes": [0, 1], "edges": [{"u": 0, "v": 1, "color": "red"}]},
            },
        }
        path = tmp_path / "k30.json"
        path.write_text(json.dumps(data))
        assert main(["--workspace", str(path), "betti", "G . H"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1000000 cells" in err
        assert "Traceback" not in err

    def test_text_trace_counts_only_its_skeletons(self, tmp_path, capsys):
        # beta_0 needs no cell, so only the 42 edge copies meet the budget;
        # beta_1 needs the 2-skeleton: 7 + 42 + 35 * 8 = 329 cells
        path = self.doubled_k7(tmp_path)
        argv = ["--workspace", path, "--policy", "per-combination"]
        assert main([*argv, "--max-cells", "42", "filtrate", "G", "--dim", "0"]) == EXIT_OK
        assert "beta_0=1  G" in capsys.readouterr().out
        assert main([*argv, "--max-cells", "329", "filtrate", "G", "--dim", "1"]) == EXIT_OK
        assert "beta_1=0  G" in capsys.readouterr().out
        assert main([*argv, "--max-cells", "328", "filtrate", "G", "--dim", "1"]) == EXIT_DOMAIN
        assert main([*argv, "--json", "filtrate", "G"]) == EXIT_DOMAIN
        assert main([*argv, "filtrate", "G", "--dot"]) == EXIT_DOMAIN
        assert "1000000 cells" in capsys.readouterr().err

    def test_running_out_of_memory_is_a_domain_exit(self, three_paths_path, capsys, monkeypatch):
        # a complex inside the cell budget can still outgrow the memory
        from multihom import filtration

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(filtration, "chain_betti", exhausted)
        assert main(["--workspace", str(three_paths_path), "betti"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--max-cells" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "mult, budget", [(100_000_000, []), (4, ["--max-cells", "3"])], ids=["default", "flag"]
    )
    def test_edge_copies_over_the_budget_are_refused_before_they_are_made(
        self, tmp_path, capsys, mult, budget
    ):
        data = ws_variant()
        data["graphs"]["G"]["edges"][0]["mult"] = mult
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        assert main(["--workspace", str(path), *budget, "betti", "G"]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"graph 'G' has {mult} edge copies" in err
        assert "Traceback" not in err


class TestCliFiltrate:
    def test_report_has_both_channels(self, three_paths_path, capsys):
        assert main(["--workspace", str(three_paths_path), "filtrate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "formula" in out and "measured" in out
        assert "delta=0" in out

    def test_dot_output(self, three_paths_path, capsys):
        assert main(["--workspace", str(three_paths_path), "filtrate", "--dot"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.count("β =") == 5

    def test_json_output(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "--json", "filtrate"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 5
        assert payload["level_profile"]["folds"]["formula"] == 5

    def test_trace_dimension_flag(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "filtrate", "--dim", "1"])
        assert code == EXIT_OK
        assert "beta_1=" in capsys.readouterr().out


class TestCliLattice:
    def test_fixed_order(self, capsys):
        assert main(["--json", "lattice", "G", "H", "K"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 4
        assert payload["top"] == "G . H . K"

    def test_permutation_identified(self, capsys):
        code = main(["--json", "lattice", "G", "H", "K", "--permutations"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 13
        assert len(payload["minimals"]) == 6

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                [],
                "4 chains over ('G', 'H', 'K') (fixed order)\n"
                "  grade 0: G | H | K\n"
                "  grade 1: G | H . K, G . H | K\n"
                "  grade 2: G . H . K\n",
            ),
            (
                ["--permutations"],
                "13 chains over ('G', 'H', 'K') (permutation-identified)\n"
                "  grade 0: G | H | K, G | K | H, H | G | K, H | K | G, K | G | H, K | H | G\n"
                "  grade 1: G . H | K, G . K | H, G | H . K, H . K | G, H | G . K, K | G . H\n"
                "  grade 2: G . H . K\n",
            ),
        ],
        ids=["fixed", "permutations"],
    )
    def test_text(self, capsys, argv, text):
        assert main(["lattice", "G", "H", "K", *argv]) == EXIT_OK
        minimals = "G | H | K, G | K | H, H | G | K, H | K | G, K | G | H, K | H | G"
        assert capsys.readouterr().out == text + f"top: G . H . K\nminimals (6): {minimals}\n"

    @pytest.mark.parametrize("atom", ["G | H", "", "G.H", "(G)", "1G", "G H", " G"])
    def test_atoms_outside_the_grammar_refused(self, capsys, atom):
        # each printed chain must parse back to itself, so atoms are identifiers
        assert main(["lattice", atom, "K"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and repr(atom) in captured.err


def rebind_merge(patch: pytest.MonkeyPatch, fake) -> None:
    """Bind ``fake`` in place of ``merge`` in every module that binds it."""
    modules = [m for name, m in sys.modules.items() if name.startswith("multihom")]
    for module in [*modules, oracles]:
        if getattr(module, "merge", None) is merge:
            patch.setattr(module, "merge", fake)


def left_wins(g: Multigraph, h: Multigraph) -> Multigraph:
    """``merge``, but a pair of both operands keeps only g's copies:
    associative and unital, not commutative."""
    colors = {p: h.colors(p) for p in h.pairs()} | {p: g.colors(p) for p in g.pairs()}
    rows = [(*p, c) for p, cs in colors.items() for c in cs]
    return Multigraph.build(g.nodes | h.nodes, rows, g.palette)


def max_plus_one(g: Multigraph, h: Multigraph) -> Multigraph:
    """``merge``, but a pair of both operands keeps only the first
    max(m_g, m_h) + 1 of its colours in sorted order: commutative and
    unital, not associative."""
    rows = []
    for p in sorted(set(g.pairs()) | set(h.pairs())):
        colors = sorted(g.colors(p) + h.colors(p))
        if g.multiplicity(p) and h.multiplicity(p):
            colors = colors[: max(g.multiplicity(p), h.multiplicity(p)) + 1]
        rows += [(*p, c) for c in colors]
    return Multigraph.build(g.nodes | h.nodes, rows, g.palette)


class TestCliLaws:
    def test_laws_hold(self, capsys):
        assert main(["check-laws", "--k", "3"]) == EXIT_OK
        assert "all hold" in capsys.readouterr().out

    def test_violations_exit_three(self, capsys, monkeypatch):
        from multihom import chainlat

        monkeypatch.setattr(
            chainlat, "check_laws", lambda atoms, **kw: ["fabricated witness"]
        )
        assert main(["check-laws", "--k", "2"]) == EXIT_LAW
        assert "law violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, k", [([], 3), (["--workspace", "three_paths"], 2)], ids=["built-in", "workspace"]
    )
    def test_json(self, capsys, three_paths_path, argv, k):
        argv = [str(three_paths_path) if a == "three_paths" else a for a in argv]
        assert main([*argv, "--json", "check-laws", "--k", str(k)]) == EXIT_OK
        text = f'{{\n  "k_max": {k},\n  "violations": [],\n  "ok": true\n}}\n'
        assert capsys.readouterr().out == text

    def test_workspace_graphs_are_used(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "check-laws", "--k", "2"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_witnesses_see_the_workspace_graphs(self, tmp_path, capsys, monkeypatch, count):
        # any graphs of the workspace are checked; none falls back to a built-in triple
        from multihom import cli

        graphs = {
            f"P{i}": {"nodes": [i, i + 1], "edges": [{"u": i, "v": i + 1, "color": "red"}]}
            for i in range(1, count + 1)
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"colors": ["red"], "graphs": graphs}))
        seen = []
        witnesses = cli._monoid_law_witnesses

        def spy(graphs, policy):
            seen.append(list(graphs))
            return witnesses(graphs, policy)

        monkeypatch.setattr(cli, "_monoid_law_witnesses", spy)
        assert main(["--workspace", str(path), "check-laws", "--k", "2"]) == EXIT_OK
        (checked,) = seen
        if count:
            assert checked == list(load_workspace(str(path)).graphs.values())
        else:
            assert len(checked) == 3 and all(g.palette == {"red", "black"} for g in checked)


    def test_laws_count_each_graph_once_and_build_no_complex(
        self, three_paths_path, capsys, monkeypatch
    ):
        from multihom import mcomplex

        counted, real = [], mcomplex.clique_cells

        def spy(g, *args, **kwargs):
            counted.append(g)
            return real(g, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a complex was built, merged or compared")

        monkeypatch.setattr(mcomplex, "clique_cells", spy)
        monkeypatch.setattr(mcomplex, "clique_multicomplex", refuse)
        monkeypatch.setattr(mcomplex, "complex_merge", refuse)
        monkeypatch.setattr(mcomplex.Multicomplex, "canonical_form", refuse)
        workspace = list(load_workspace(str(three_paths_path)).graphs.values())
        for policy in POLICIES:
            for argv, count in (([], 3), (["--workspace", str(three_paths_path)], len(workspace))):
                counted.clear()
                assert main([*argv, "--policy", policy, "check-laws", "--k", "2"]) == EXIT_OK
                assert "all hold" in capsys.readouterr().out
                assert len(counted) == count
            assert counted == workspace

    def test_only_each_graph_meets_the_budget(self, tmp_path, capsys):
        # each doubled triangle has 3 + 6 + 8 = 17 per-combination cells and
        # their merge 3 + 12 + 64 = 79; the laws are read off the graphs, so
        # a merge is never built and only each graph's own complex is counted
        graphs = {
            name: {
                "nodes": [1, 2, 3],
                "edges": [
                    {"u": u, "v": v, "color": color}
                    for u, v in itertools.combinations([1, 2, 3], 2)
                    for color in colors
                ],
            }
            for name, colors in (("G", ("red", "black")), ("H", ("red", "red")))
        }
        path = tmp_path / "doubled_triangles.json"
        path.write_text(json.dumps({"colors": ["red", "black"], "graphs": graphs}))
        argv = ["--workspace", str(path), "--policy", "per-combination", "--max-cells"]
        assert main([*argv, "17", "check-laws", "--k", "2"]) == EXIT_OK
        assert "all hold" in capsys.readouterr().out
        assert main([*argv, "16", "check-laws", "--k", "2"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the per-combination clique complex of a graph on 3 nodes "
            "has more than 16 cells\n"
        )

    @pytest.mark.parametrize(
        "fault", [None, left_wins, max_plus_one], ids=["merge", "left_wins", "max_plus_one"]
    )
    @given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(POLICIES))
    @settings(max_examples=25)
    def test_laws_off_the_graphs_match_the_complexes(self, fault, seed, policy):
        # 1-4 graphs of the fuzz draw; with a faulty merge bound in every
        # module, both sides must still report the same witnesses
        from multihom import cli

        rng = random.Random(seed)
        graphs = [random_multigraph(rng, max_nodes=7, max_mult=3) for _ in range(rng.randint(1, 4))]
        with pytest.MonkeyPatch.context() as patch, cell_budget(20_000):
            if fault:
                rebind_merge(patch, fault)
            try:
                expected = oracles.complex_law_witnesses(graphs, policy)
            except CellBudgetExceeded:
                reject()  # a merged complex is over the budget
            assert cli._monoid_law_witnesses(graphs, policy) == expected

    @pytest.mark.parametrize(
        "fault, law", [(left_wins, "commutativity"), (max_plus_one, "associativity")]
    )
    def test_faulty_merges_are_witnessed(self, fault, law):
        from multihom import cli

        graphs = [
            Multigraph.build([1, 2], [(1, 2, "red")] * mult, ["red", "black"]) for mult in (1, 2)
        ]
        graphs.append(Multigraph.build([1, 2], [(1, 2, "black")], ["red", "black"]))
        with pytest.MonkeyPatch.context() as patch:
            rebind_merge(patch, fault)
            expected = oracles.complex_law_witnesses(graphs, "canonical")
            assert cli._monoid_law_witnesses(graphs, "canonical") == expected
        assert any(law in witness for witness in expected)


def atoms(k: int) -> list[str]:
    return [f"A{i}" for i in range(1, k + 1)]


class TestCliWorkLimits:
    """``lattice`` and ``check-laws`` count their chains before making
    any and refuse (exit 2) what they could not finish."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", *atoms(10)],  # 10! minimal chains
            ["lattice", *atoms(20)],
            ["lattice", "--permutations", *atoms(8)],  # 8! orders of 2^7 chains
            ["check-laws", "--k", "7"],  # (2^6)^3 chain triples
            ["check-laws", "--k", "1000000000"],
        ],
        ids=["lattice-10", "lattice-20", "permutations-8", "laws-7", "laws-huge"],
    )
    def test_refused_within_a_second(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "would" in err
        assert "Traceback" not in err
        assert elapsed < 1.0, f"refusal took {elapsed:.2f} s"

    @pytest.mark.parametrize(
        "argv",
        [["lattice", *atoms(9)], ["lattice", "--permutations", *atoms(7)], ["check-laws", "--k", "6"]],
        ids=["lattice-9", "permutations-7", "laws-6"],
    )
    def test_largest_sizes_still_run(self, capsys, monkeypatch, argv):
        # these take seconds; the enumerations are stubbed, since only
        # the limits are under test here
        from multihom import chainlat, filtration

        monkeypatch.setattr(filtration, "enumerate_chains", lambda atoms, include_permutations: ())
        monkeypatch.setattr(chainlat, "minimal_chains", lambda atoms: ())
        monkeypatch.setattr(chainlat, "check_laws", lambda atoms, **kw: [])
        assert main(argv) == EXIT_OK


    @staticmethod
    def triangles(tmp_path, n: int) -> str:
        graphs = {
            f"T{i}": {
                "nodes": [3 * i + 1, 3 * i + 2, 3 * i + 3],
                "edges": [
                    {"u": 3 * i + u, "v": 3 * i + v, "color": "red"}
                    for u, v in ((1, 2), (1, 3), (2, 3))
                ],
            }
            for i in range(n)
        }
        path = tmp_path / f"triangles{n}.json"
        path.write_text(json.dumps({"colors": ["red"], "graphs": graphs}))
        return str(path)

    def test_workspace_triples_refused_within_a_second(self, tmp_path, capsys):
        # 40 graphs give 64,000 triples, which ran past 30 s
        path = self.triangles(tmp_path, 40)
        start = time.perf_counter()
        code = main(["--workspace", path, "check-laws", "--k", "2"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "40 workspace graphs would" in err
        assert elapsed < 1.0, f"refusal took {elapsed:.2f} s"

    def test_largest_workspace_still_runs(self, tmp_path, capsys, monkeypatch):
        # 17 graphs (4,913 triples) take seconds; the witnesses are stubbed
        from multihom import cli

        monkeypatch.setattr(cli, "_monoid_law_witnesses", lambda graphs, policy: [])
        path = self.triangles(tmp_path, 17)
        assert main(["--workspace", path, "check-laws", "--k", "2"]) == EXIT_OK
        assert main(["--workspace", self.triangles(tmp_path, 18), "check-laws"]) == EXIT_DOMAIN


class TestCliIncremental:
    def test_known_cases_text_flags_discrepancies(self, capsys):
        assert main(["incremental", "--known-cases"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("FLAGGED DISCREPANCY") == 2

    def test_known_cases_json(self, capsys):
        assert main(["--json", "incremental", "--known-cases"]) == EXIT_OK
        findings = json.loads(capsys.readouterr().out)
        assert len(findings) == 6
        assert sum(1 for f in findings if f["flagged"]) == 2

    def test_pair_report(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "incremental", "G", "H"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "beta_1" in out and "beta_2" in out

    def test_single_name_is_usage_error(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "incremental", "G"])
        assert code == EXIT_USAGE


class TestCliFuzz:
    def test_fuzz_writes_artifacts(self, tmp_path, capsys):
        jsonl = tmp_path / "records.jsonl"
        summary = tmp_path / "summary.csv"
        code = main(
            [
                "--seed",
                "11",
                "fuzz",
                "--count",
                "3",
                "--jsonl",
                str(jsonl),
                "--summary",
                str(summary),
            ]
        )
        assert code == EXIT_OK
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line) for line in lines)
        assert summary.read_text().startswith("dimension,agree,total,rate")
        out = capsys.readouterr().out
        assert "beta1" in out

    @pytest.mark.parametrize(
        "policy, count, rows",
        [
            ("canonical", 3, ((1, 0.3333), (1, 0.3333))),
            ("per-combination", 5, ((3, 0.6), (3, 0.6))),
        ],
    )
    def test_json_summary(self, capsys, policy, count, rows):
        argv = ["--seed", "11", "--policy", policy, "--json", "fuzz", "--count", str(count)]
        assert main(argv) == EXIT_OK
        (agree1, rate1), (agree2, rate2) = rows
        assert capsys.readouterr().out == (
            "{\n"
            f'  "count": {count},\n'
            '  "summary": [\n'
            "    {\n"
            '      "dimension": "beta1",\n'
            f'      "agree": {agree1},\n'
            f'      "total": {count},\n'
            f'      "rate": {rate1}\n'
            "    },\n"
            "    {\n"
            '      "dimension": "beta2",\n'
            f'      "agree": {agree2},\n'
            f'      "total": {count},\n'
            f'      "rate": {rate2}\n'
            "    }\n"
            "  ]\n"
            "}\n"
        )

    @pytest.mark.parametrize("bad", ["jsonl", "summary"])
    def test_unwritable_output_is_refused_before_the_fuzz(
        self, tmp_path, capsys, monkeypatch, bad
    ):
        def no_fuzz(*args, **kwargs):
            raise AssertionError("the fuzz ran before its outputs were opened")

        monkeypatch.setattr(multihom.incremental, "fuzz_records", no_fuzz)
        paths = {"jsonl": tmp_path / "records.jsonl", "summary": tmp_path / "summary.csv"}
        paths[bad] = tmp_path / "missing" / f"{bad}.out"
        argv = ["fuzz", "--count", "1", "--jsonl", str(paths["jsonl"])]
        argv += ["--summary", str(paths["summary"])]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(paths[bad]) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []  # no partial file

    @pytest.mark.parametrize("spelling", ["{d}/out", "{d}/./out", "{d}/sub/../out", "link"])
    def test_one_file_named_twice_is_refused_before_the_fuzz(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        def no_fuzz(*args, **kwargs):
            raise AssertionError("the fuzz ran with one file named twice")

        monkeypatch.setattr(multihom.incremental, "fuzz_records", no_fuzz)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "out"
        out.write_bytes(b"kept\n")
        (tmp_path / "link").symlink_to(out)
        other = str(tmp_path / "link") if spelling == "link" else spelling.format(d=tmp_path)
        argv = ["fuzz", "--count", "1", "--jsonl", str(out), "--summary", other]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert out.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "out", "sub"]

    def test_hard_links_to_one_file_are_refused_before_the_fuzz(
        self, tmp_path, capsys, monkeypatch
    ):
        # two names, one inode: writing the summary would overwrite the records
        def no_fuzz(*args, **kwargs):
            raise AssertionError("the fuzz ran with one file named twice")

        monkeypatch.setattr(multihom.incremental, "fuzz_records", no_fuzz)
        out, twin = tmp_path / "out", tmp_path / "twin"
        out.write_bytes(b"kept\n")
        os.link(out, twin)
        for first, second in ((out, twin), (twin, out)):
            argv = ["fuzz", "--count", "2", "--jsonl", str(first), "--summary", str(second)]
            assert main(argv) == EXIT_DOMAIN
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "Traceback" not in captured.err
            assert out.read_bytes() == twin.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "twin"]

    def test_distinct_files_still_pass_the_check(self, tmp_path, capsys):
        # equal contents are no identity: two existing files both get written
        jsonl, summary = tmp_path / "a.jsonl", tmp_path / "b.csv"
        jsonl.write_bytes(b"old\n")
        summary.write_bytes(b"old\n")
        argv = ["fuzz", "--count", "2", "--jsonl", str(jsonl), "--summary", str(summary)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert len(jsonl.read_text().splitlines()) == 2
        assert summary.read_text().startswith("dimension")

    def test_failed_fuzz_leaves_outputs_as_they_were(self, tmp_path, capsys):
        keep = tmp_path / "keep.jsonl"
        keep.write_bytes(b'{"kept": true}\n')
        argv = ["--max-cells", "5", "fuzz", "--count", "50", "--jsonl", str(keep)]
        argv += ["--summary", str(tmp_path / "new.csv")]
        assert main(argv) == EXIT_DOMAIN
        assert "error:" in capsys.readouterr().err
        assert keep.read_bytes() == b'{"kept": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["keep.jsonl"]  # no new file


class TestCliRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ["filtrate", "--dim", "-1"],
            ["fuzz", "--count", "-3"],
            ["check-laws", "--k", "-1"],
            ["check-laws", "--k", "1"],
        ],
        ids=["dim", "count", "k", "k-below-two"],
    )
    def test_out_of_range_is_usage(self, three_paths_path, capsys, argv):
        assert main(["--workspace", str(three_paths_path), *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >=" in captured.err

    def test_non_integer_is_usage(self, capsys):
        assert main(["fuzz", "--count", "many"]) == EXIT_USAGE
        assert "invalid int value" in capsys.readouterr().err

    def test_dim_above_top_reads_zero(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "filtrate", "--dim", "9"])
        assert code == EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines() if "delta=" in line]
        assert rows and all("beta_9=0 " in line for line in rows)


class TestCliWiring:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [1, [2, {"d": None}]], "e": True, "f": 0.5},
            ["ä → ∂", "\x00", 'a "quoted" \\ line\n'],
            {str(i): list(range(i % 7)) for i in range(3000)},  # more than one batch
        ],
        ids=["empty-object", "empty-list", "nested", "escapes", "batched"],
    )
    def test_json_output_is_what_dumps_writes(self, capsys, payload):
        _print_json(payload)
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_unknown_verb_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_verb_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_bad_policy_value_is_usage(self, capsys):
        assert main(["--policy", "nope", "parse", "G"]) == EXIT_USAGE

    def test_parser_built_once_per_process(self, three_paths_path, capsys):
        argvs = [
            ["parse", "G | H"],
            ["--workspace", str(three_paths_path), "--json", "betti"],
            ["fuzz", "--count", "many"],
            ["--workspace", str(three_paths_path), "--policy", "per-combination", "filtrate"],
            ["parse", "G . H"],
        ]

        def run(argv):
            code = main(argv)
            return code, *capsys.readouterr()

        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(argv))
        build_parser.cache_clear()
        shared = [run(argv) for argv in argvs]
        assert build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]

    def test_package_runs_as_a_module(self):
        src = str(Path(multihom.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "multihom", "parse", "G | H"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[0] == "G | H"

    def test_a_reader_closing_stdout_early_is_no_error(self):
        # the read end is closed before the child starts, so its first write fails
        src = str(Path(multihom.__file__).resolve().parents[1])
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "multihom", "lattice", *"ABCDEFGH"],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
