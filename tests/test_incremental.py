"""Incremental Betti updates, parameter extraction, formula findings."""

from __future__ import annotations

import contextlib
import gzip
import sys
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multihom.homology
import multihom.mcomplex
from multihom import (
    KNOWN_CASES,
    CANONICAL,
    CellBudgetExceeded,
    PER_COMBINATION,
    IncrementalParams,
    Multigraph,
    NegativeBetti,
    POLICIES,
    Gf2Basis,
    betti,
    boundary_matrix,
    cell_budget,
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
from multihom.incremental import _ranks

from conftest import PALETTE, REPO_ROOT, multigraphs, path_graph
from oracles import tagged_ledger


def G(nodes, rows, palette=PALETTE):
    return Multigraph.build(nodes, rows, palette)


def complete(nodes):
    return G(nodes, [(u, v, "red") for u, v in combinations(nodes, 2)])


K4 = complete((1, 2, 3, 4))
# K5 with three copies per pair: merged with itself, per-combination
# passes the default cell budget
K5_TRIPLED = G(range(1, 6), [(u, v, "red", 3) for u, v in combinations(range(1, 6), 2)])
EMPTY = Multigraph.empty(PALETTE)


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

    @pytest.mark.parametrize("closes_cycle", [True, False])
    def test_negative_dimension_rejected(self, closes_cycle):
        with pytest.raises(ValueError, match="^cell dimension must be >= 0, got -1$"):
            incremental_step((1,), -1, closes_cycle)


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

    @given(
        g=multigraphs(max_nodes=5, max_mult=2),
        h=multigraphs(max_nodes=5, max_mult=2),
        policy=st.sampled_from(POLICIES),
    )
    @example(g=EMPTY, h=K4, policy=PER_COMBINATION)
    @example(g=K4, h=EMPTY, policy=CANONICAL)
    @settings(max_examples=40)
    def test_ledger_matches_the_replay_definition(self, g, h, policy):
        # the three-graph reading is the tagged replay wherever g's and h's
        # cells of K_{g.h} are copies of K_g and K_h: at every dimension
        # under per-combination, and on the 2-skeleton under canonical,
        # whose cells above dimension 2 re-glue (cl at d = 2 reads them)
        fields = ("n_g", "p_g", "n_h", "p_h", "cl")
        exact = {1: fields, 2: fields, 3: fields}
        if policy == CANONICAL:
            exact = {1: fields, 2: fields[:-1]}
        for d in (1, 2, 3):
            p = extract_params(g, h, d, policy)
            assert min(p) >= 0, p
            want = tagged_ledger(g, h, d, policy)
            assert {f: getattr(p, f) for f in exact.get(d, ())} == {
                f: want[f] for f in exact.get(d, ())
            }, d

    @given(g=multigraphs(max_nodes=6, max_mult=2), h=multigraphs(max_nodes=6, max_mult=2))
    @example(g=K4, h=K4)  # one 3-cell: r_3(g.h) - r_3(g) - r_3(h) would read -1
    @settings(max_examples=40)
    def test_canonical_cl_ranks_both_sides_together(self, g, h):
        # above dimension 2 a canonical cell is g's or h's when its clique
        # lies in g's or h's simple graph, and g's and h's cells can share
        # faces or be one cell: cl ranks their columns together
        km = clique_multicomplex(merge(g, h), CANONICAL)
        for d in (2, 3):
            boundary = boundary_matrix(km, d + 1)
            sides = Gf2Basis()
            for tau, col in zip(km.grade(d + 1).vertices, boundary.columns):
                pairs = list(combinations(tau, 2))
                if all(map(g.multiplicity, pairs)) or all(map(h.multiplicity, pairs)):
                    sides.add(col)
            cl = boundary.rank() - sides.rank
            assert extract_params(g, h, d, CANONICAL).cl == cl, d

    @given(g=multigraphs(max_nodes=5, max_mult=2), policy=st.sampled_from(POLICIES))
    @settings(max_examples=40)
    def test_surplus_off_the_cliques_is_the_built_complexs(self, g, policy):
        # dup's c_e - s_e: the e-cells beyond one per vertex set
        x = clique_multicomplex(g, policy)
        _, cells, simplices, _, _ = _ranks(g, policy, 4)
        for d in range(5):
            shapes = Counter(x.grade(d).vertices)
            assert cells[d] - simplices[d] == sum(n - 1 for n in shapes.values()), d

    def test_dimension_zero_rejected(self):
        g = G([1, 2], [(1, 2, "red")])
        with pytest.raises(ValueError):
            extract_params(g, g, 0)


# -- reports ------------------------------------------------------------------------------


class TestValidate:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_refuses_g_then_h_then_the_merge(self, policy):
        # K5 has 31 cells, K6 63 and K7 127, and the merge of two K5 on 7
        # nodes more than 60
        k5, k6, k7 = (complete(range(n)) for n in (5, 6, 7))
        for g, h, nodes in [(k6, k7, 6), (k5, k7, 7), (k5, complete(range(2, 7)), 7)]:
            with cell_budget(60), pytest.raises(CellBudgetExceeded, match=f"on {nodes} nodes"):
                validate(g, h, policy)

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

    @given(multigraphs(max_nodes=5), multigraphs(max_nodes=5), st.sampled_from(POLICIES))
    @example(EMPTY, EMPTY, CANONICAL)
    @example(EMPTY, K4, PER_COMBINATION)
    @example(K5_TRIPLED, K5_TRIPLED, PER_COMBINATION)
    @settings(max_examples=30)
    def test_builds_no_complex(self, g, h, policy):
        # every field is read off the graphs of g, h and g.h: no complex is
        # built, no boundary matrix made and no built complex ranked, nor
        # when a merge past the cell budget is refused
        called = []

        def spy(name, real):
            def recording(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)

            return recording

        with contextlib.ExitStack() as stack:
            for name, real in [
                ("clique_multicomplex", multihom.mcomplex.clique_multicomplex),
                ("boundary_matrix", multihom.homology.boundary_matrix),
                ("betti", multihom.homology.betti),
            ]:
                for module in [m for k, m in sys.modules.items() if k.startswith("multihom")]:
                    if getattr(module, name, None) is real:
                        stack.enter_context(mock.patch.object(module, name, spy(name, real)))
            try:
                report = validate(g, h, policy)
                params = [extract_params(g, h, d, policy) for d in (1, 2)]
            except CellBudgetExceeded:
                report = None
        assert called == []
        if report is not None:
            assert [report.params_d1, report.params_d2] == params


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
        # the params of every record pin the ledger read off g's, h's and
        # g.h's ranks and cell counts
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
