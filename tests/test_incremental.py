"""Incremental Betti updates, parameter extraction, formula findings."""

from __future__ import annotations

import gzip
from unittest import mock

import pytest
from hypothesis import given, settings

import multihom.incremental
from multihom import (
    KNOWN_CASES,
    CANONICAL,
    PER_COMBINATION,
    IncrementalParams,
    Multigraph,
    NegativeBetti,
    betti,
    clique_multicomplex,
    extract_params,
    formula_beta1,
    formula_beta2,
    fuzz_records,
    incremental_step,
    known_case_findings,
    merge,
    replay_betti,
    summarize_records,
    validate,
)

from multihom.cli import EXIT_OK, main

from conftest import PALETTE, REPO_ROOT, multigraphs, path_graph


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


# -- single steps ------------------------------------------------------------------


class TestIncrementalStep:
    def test_closing_cell_raises_its_dimension(self):
        assert incremental_step((1, 0), 1, closes_cycle=True) == (1, 1)

    def test_nonclosing_cell_lowers_below(self):
        assert incremental_step((2, 0), 1, closes_cycle=False) == (1, 0)

    def test_vector_pads_to_reached_dimension(self):
        assert incremental_step((1,), 2, closes_cycle=True) == (1, 0, 1)

    def test_dimension_zero_always_closes(self):
        assert incremental_step((), 0, closes_cycle=True) == (1,)

    def test_underflow_rejected(self):
        with pytest.raises(NegativeBetti):
            incremental_step((0, 0), 1, closes_cycle=False)


# -- replay vs direct ranks -----------------------------------------------------------


class TestReplay:
    def test_filled_triangle(self):
        x = clique_multicomplex(
            G([1, 2, 3], [(1, 2, "red"), (1, 3, "red"), (2, 3, "red")])
        )
        assert replay_betti(x) == betti(x) == (1, 0, 0)

    @given(multigraphs())
    def test_matches_direct_on_random_complexes(self, g):
        x = clique_multicomplex(g)
        assert replay_betti(x) == betti(x)

    @given(multigraphs(max_nodes=5, max_mult=2))
    @settings(max_examples=30)
    def test_matches_direct_per_combination(self, g):
        x = clique_multicomplex(g, PER_COMBINATION)
        assert replay_betti(x) == betti(x)


# -- parameter extraction --------------------------------------------------------------


class TestExtractParams:
    def test_disjoint_trees_have_only_p(self):
        g = path_graph([1, 2, 3], palette=PALETTE)
        h = path_graph([4, 5, 6], palette=PALETTE)
        p = extract_params(g, h, 1)
        assert (p.n_g, p.n_h) == (0, 0)
        assert p.p_g > 0 and p.p_h > 0
        assert p.cl == 0 and p.dup == 0

    def test_triangle_closure_counts_cl(self):
        g = G([1, 2, 3], [(1, 2, "red"), (2, 3, "red")])
        h = G([1, 3], [(1, 3, "red")])
        p = extract_params(g, h, 1)
        assert p.cl == 1  # the new 2-cell caps the cycle the merge closed
        assert p.n_h == 1  # h's edge closes the cycle over g's path
        report = validate(g, h)
        assert report.oracle_beta1 == 0
        assert report.agrees_beta1

    def test_parallel_copy_counts_dup_one_dimension_up(self):
        g = G([1, 2], [(1, 2, "red")])
        h = G([1, 2], [(1, 2, "black")])
        p1 = extract_params(g, h, 1)
        p2 = extract_params(g, h, 2)
        assert p1.dup == 0  # no duplicated 0-cells
        assert p2.dup == 1  # the merge doubled the 1-cell
        assert (p1.n_g, p1.n_h) == (1, 1)  # each copy closes over the other

    def test_betas_are_per_operand_at_target_dimension(self):
        g = G([1, 2], [(1, 2, "red", 2)])  # a doubled edge: beta_1 = 1
        h = G([3, 4], [(3, 4, "red")])
        p = extract_params(g, h, 1)
        assert p.beta_g == 1
        assert p.beta_h == 0

    def test_dimension_zero_rejected(self):
        g = G([1, 2], [(1, 2, "red")])
        with pytest.raises(ValueError):
            extract_params(g, g, 0)


# -- reports ------------------------------------------------------------------------------


class TestValidate:
    def test_report_fields_and_flags(self):
        g = G([1, 2], [(1, 2, "red")])
        h = G([1, 2], [(1, 2, "black")])
        report = validate(g, h)
        assert report.oracle_beta1 == 1  # two parallel copies bound a hole
        assert report.formula_beta1 == 1
        assert report.agrees_beta1
        payload = report.to_json_dict()
        assert set(payload) == {"params", "formula", "oracle", "agrees"}
        assert payload["agrees"]["beta1"] is True

    def test_oracle_channel_is_direct_rank(self):
        g = G([1, 2, 3], [(1, 2, "red"), (2, 3, "red")])
        h = G([1, 3], [(1, 3, "red")])
        report = validate(g, h)
        merged_betti = betti(clique_multicomplex(Multigraph.build(
            [1, 2, 3],
            [(1, 2, "red"), (2, 3, "red"), (1, 3, "red")],
            PALETTE,
        )))
        assert report.oracle_beta1 == (merged_betti[1] if len(merged_betti) > 1 else 0)

    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5))
    @settings(max_examples=30)
    def test_builds_each_complex_once(self, g, h):
        built = []

        def recording(x, policy=CANONICAL):
            built.append(x)
            return clique_multicomplex(x, policy)

        with mock.patch.object(multihom.incremental, "clique_multicomplex", recording):
            report = validate(g, h)
        assert built == [g, h, merge(g, h)]
        assert report.params_d1 == extract_params(g, h, 1)
        assert report.params_d2 == extract_params(g, h, 2)


# -- recorded cases --------------------------------------------------------------------


class TestKnownCases:
    def test_six_cases_recorded(self):
        assert len(KNOWN_CASES) == 6
        assert {(kc.case, kc.dim) for kc in KNOWN_CASES} == {
            ("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2),
        }

    def test_findings_substitution_values(self):
        values = {
            (f["case"], f["dim"]): f["formula"] for f in known_case_findings()
        }
        assert values == {
            ("A", 1): 0,
            ("A", 2): 0,
            ("B", 1): 2,
            ("B", 2): 1,
            ("C", 1): 1,
            ("C", 2): 1,
        }

    def test_discrepancies_are_flagged_not_repaired(self):
        findings = {(f["case"], f["dim"]): f for f in known_case_findings()}
        flagged = {key for key, f in findings.items() if f["flagged"]}
        assert flagged == {("A", 1), ("B", 1)}
        for key, f in findings.items():
            assert f["agrees"] == (f["formula"] == f["recorded"])

    def test_formulas_are_verbatim_arithmetic(self):
        p = IncrementalParams(1, 3, 1, 2, 4, 5, 2, 1, 0)
        assert formula_beta1(p) == max(3, 1) + max(2, 4) - min(5, 2) - 1
        q = IncrementalParams(2, 3, 1, 2, 4, 5, 2, 1, 7)
        assert formula_beta2(q) == formula_beta1(q) + 7


# -- fuzzing ---------------------------------------------------------------------------


class TestFuzz:
    def test_deterministic_for_a_seed(self):
        a = list(fuzz_records(4, seed=42))
        b = list(fuzz_records(4, seed=42))
        assert [r["digest"] for r in a] == [r["digest"] for r in b]

    def test_different_seeds_differ(self):
        a = list(fuzz_records(4, seed=1))
        b = list(fuzz_records(4, seed=2))
        assert [r["digest"] for r in a] != [r["digest"] for r in b]

    def test_records_carry_both_channels(self):
        (rec,) = list(fuzz_records(1, seed=3))
        assert {"digest", "g", "h", "params", "formula", "oracle", "agrees"} <= set(rec)

    def test_summary_rows(self):
        records = list(fuzz_records(6, seed=9))
        rows = summarize_records(records)
        assert [r["dimension"] for r in rows] == ["beta1", "beta2"]
        for row in rows:
            assert row["total"] == 6
            assert 0 <= row["agree"] <= 6
            assert row["rate"] == round(row["agree"] / 6, 4)

    @pytest.mark.parametrize("policy", (CANONICAL, PER_COMBINATION))
    def test_records_match_golden(self, policy, tmp_path):
        # recorded before provenance tags were read through cell faces;
        # the params of every record pin the g/h/shared/new tagging
        out = tmp_path / "fuzz.jsonl"
        argv = ["--seed", "7", "--policy", policy, "fuzz", "--count", "150"]
        assert main(argv + ["--jsonl", str(out)]) == EXIT_OK
        golden = REPO_ROOT / "tests" / "data" / f"fuzz.seed7.{policy}.jsonl.gz"
        want = gzip.decompress(golden.read_bytes()).decode()
        assert out.read_text().splitlines() == want.splitlines()

    def test_summary_csv_header(self):
        from multihom.incremental import summary_csv

        text = summary_csv(summarize_records(fuzz_records(2, seed=5)))
        assert text.splitlines()[0] == "dimension,agree,total,rate"
