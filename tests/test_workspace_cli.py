"""Workspace schema validation and the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multihom

from multihom import (
    PaletteMismatch,
    SelfLoopPresent,
    WorkspaceError,
    load_workspace,
    parse_workspace,
)
from multihom.cli import EXIT_DOMAIN, EXIT_LAW, EXIT_OK, EXIT_USAGE, build_parser, main


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

    def test_merge_emit_complex(self, three_paths_path, capsys):
        code = main(
            ["--workspace", str(three_paths_path), "merge", "G", "K", "--emit-complex"]
        )
        assert code == EXIT_OK
        assert "betti" in capsys.readouterr().out

    def test_merge_needs_workspace(self, capsys):
        assert main(["merge", "G", "H"]) == EXIT_USAGE

    def test_merge_unknown_graph(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "merge", "G", "ZZ"])
        assert code == EXIT_DOMAIN

    def test_missing_workspace_file(self, tmp_path, capsys):
        code = main(["--workspace", str(tmp_path / "x.json"), "merge", "G", "H"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_workspace_is_domain_exit(self, tmp_path, capsys, kind):
        path = tmp_path / "ws.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
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

    def test_workspace_graphs_are_used(self, three_paths_path, capsys):
        code = main(["--workspace", str(three_paths_path), "check-laws", "--k", "2"])
        assert code == EXIT_OK


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
    def test_unknown_verb_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_verb_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_bad_policy_value_is_usage(self, capsys):
        assert main(["--policy", "nope", "parse", "G"]) == EXIT_USAGE

    def test_cli_import_needs_no_networkx(self):
        # the package has no runtime dependency; a fresh interpreter
        # shows what importing the CLI really pulls in
        src = str(Path(multihom.__file__).resolve().parents[1])
        probe = "import sys, multihom.cli; print('networkx' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"

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
            env={"PYTHONPATH": src},
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[0] == "G | H"
