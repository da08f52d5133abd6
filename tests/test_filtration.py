"""Interaction filtration: enumeration, poset structure, Betti traces."""

from __future__ import annotations

import gzip
import itertools
import json
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given

import multihom.chainlat
import multihom.filtration
import multihom.mcomplex
from multihom import (
    CANONICAL,
    PER_COMBINATION,
    ChainEnv,
    ChainExpr,
    IndexOutOfRange,
    Multigraph,
    betti,
    betti_sum,
    betti_trace,
    build_filtration,
    chain_betti,
    clique_multicomplex,
    enumerate_chains,
    evaluate,
    level_profile,
    load_workspace,
    merge,
    merge_count,
    merged_key,
    parse_chain,
    trace_for_chains,
)
from multihom.cli import EXIT_OK, main
from multihom.randgen import random_multigraph

from conftest import (
    ATOM_NAMES,
    PALETTE,
    REPO_ROOT,
    connectives,
    multigraphs,
    path_graph,
    triangle,
)
from oracles import (
    chains_by_permutation,
    coarsening_classes,
    filtration_by_tuples,
    ordered_set_partitions,
)

DATA = REPO_ROOT / "tests" / "data"
# k = 5 atoms that share vertices and carry same-colour parallel copies;
# L is bound to the same graph as G, so some nodes fold and the merge
# path that first reaches a node decides its layers' copy numbering
SHARING_K5 = DATA / "sharing_k5.json"
# filtrate text and --json for chains that repeat an atom, on three_paths
REPEATED_ATOMS = DATA / "three_paths.repeated_atoms.json.gz"
# text-mode filtrate --dim 0..3 on sharing_k5 and three_paths, both policies
TEXT_TRACES = DATA / "filtrate_text.json.gz"
POLICIES = (CANONICAL, PER_COMBINATION)


@pytest.fixture(scope="module")
def three_paths_env(three_paths_path):
    ws = load_workspace(three_paths_path)
    return ws.env(), parse_chain(ws.chain_text)


@pytest.fixture(scope="module")
def disjoint_env():
    graphs = {
        "G": triangle(1, 2, 3),
        "H": triangle(4, 5, 6),
        "K": triangle(7, 8, 9),
    }
    return ChainEnv(graphs), parse_chain("G | H | K")


# -- enumeration -----------------------------------------------------------------


class TestEnumeration:
    def test_fixed_order_counts(self):
        for k in (1, 2, 3, 4, 5):
            atoms = tuple(f"A{i}" for i in range(k))
            assert len(enumerate_chains(atoms)) == 2 ** (k - 1)

    def test_permutation_identified_counts(self):
        expected = {1: 1, 2: 3, 3: 13, 4: 75}  # ordered Bell numbers
        for k, count in expected.items():
            atoms = tuple(f"A{i}" for i in range(k))
            assert len(enumerate_chains(atoms, include_permutations=True)) == count

    def test_k2_set(self):
        chains = enumerate_chains(("G", "H"), include_permutations=True)
        assert {c.text() for c in chains} == {"G | H", "H | G", "G . H"}

    def test_k3_matches_ordered_partition_oracle(self):
        atoms = ("G", "H", "K")
        chains = enumerate_chains(atoms, include_permutations=True)
        got = {c.blocks() for c in chains}
        expected = set(ordered_set_partitions(atoms))
        assert got == expected
        assert len(chains) == 13

    @pytest.mark.parametrize("atoms", ["ABCDE", "AAB", "ABAB", "AABCC", "ABABAB", "AAAA"])
    def test_matches_every_chain_over_every_order(self, atoms):
        # each chain made once, from a partition of the atoms' positions
        chains = enumerate_chains(tuple(atoms), include_permutations=True)
        assert chains == chains_by_permutation(tuple(atoms))

    def test_k3_contains_the_displayed_chains(self):
        texts = {
            c.text() for c in enumerate_chains(("G", "H", "K"), include_permutations=True)
        }
        for s in ("G | H | K", "K | G | H", "G . H | K", "K | G . H", "G . H . K"):
            assert s in texts


# -- poset construction ------------------------------------------------------------


class TestBuildFiltration:
    def test_an_unknown_policy_is_refused_before_any_work(self, disjoint_env, monkeypatch):
        env, start = disjoint_env
        with pytest.raises(ValueError) as built:
            clique_multicomplex(triangle(1, 2, 3), "bogus")

        def spy(*args, **kwargs):
            raise AssertionError("the start chain was evaluated")

        monkeypatch.setattr(multihom.filtration, "evaluate", spy)
        with pytest.raises(ValueError) as refused:
            build_filtration(start, env, "bogus")
        assert str(refused.value) == str(built.value)

    def test_k3_level_sizes(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        assert len(p.nodes) == 5
        assert [len(p.level(j)) for j in range(3)] == [1, 3, 1]

    def test_k3_mid_level_chains(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        mid = {n.chain.text() for n in p.level(1)}
        assert mid == {"G . H | K", "G . K | H", "G | H . K"}

    def test_k4_level_sizes(self):
        graphs = {
            "G": triangle(1, 2, 3),
            "H": triangle(4, 5, 6),
            "K": triangle(7, 8, 9),
            "L": triangle(10, 11, 12),
        }
        p = build_filtration(parse_chain("G | H | K | L"), ChainEnv(graphs))
        assert [len(p.level(j)) for j in range(4)] == [1, 6, 7, 1]

    def test_top_is_all_merge(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        (top,) = p.level(2)
        assert top.chain.text() == "G . H . K"
        assert merge_count(top.chain) == 2

    def test_start_at_top_single_node(self, disjoint_env):
        env, _ = disjoint_env
        p = build_filtration(parse_chain("G . H . K"), env)
        assert len(p.nodes) == 1
        assert p.nodes[0].level == 2

    def test_cover_grading(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        assert p.covers
        for src, dst, label in p.covers:
            assert p.nodes[dst].level == p.nodes[src].level + 1
            assert label.startswith("f")
            assert 1 <= int(label[1:]) <= p.k - 1

    def test_equal_atoms_fold_nodes(self):
        # two atoms evaluate to the same graph: merging either with K is
        # the same configuration, so the middle level folds to 2 nodes
        graphs = {
            "G": triangle(1, 2, 3),
            "H": triangle(1, 2, 3),
            "K": triangle(7, 8, 9),
        }
        p = build_filtration(parse_chain("G | H | K"), ChainEnv(graphs))
        assert [len(p.level(j)) for j in range(3)] == [1, 2, 1]

    def test_level_index_checked(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        with pytest.raises(IndexOutOfRange):
            p.level(3)
        with pytest.raises(IndexOutOfRange):
            p.level(-1)

    def test_start_takes_the_canonical_block_order(self, disjoint_env):
        env, _ = disjoint_env
        p = build_filtration(parse_chain("K | H . G"), env)
        assert [n.chain.text() for n in p.nodes] == ["G . H | K", "G . H . K"]
        assert [n.layers for n in p.nodes] == [
            (merge(env.resolve("G"), env.resolve("H")), env.resolve("K")),
            (merge(merge(env.resolve("G"), env.resolve("H")), env.resolve("K")),),
        ]

    def test_a_merge_equal_to_another_block_keeps_both_conventions(self):
        # merging G with H makes a second G . H block: the cover's seam
        # counts the merged block first among equal blocks, while its layer
        # is replayed after the equal layer already there
        g = path_graph([1, 2], "red", PALETTE)
        h = path_graph([1, 2], "black", PALETTE)
        p = build_filtration(parse_chain("H . G | G | H"), ChainEnv({"G": g, "H": h}))
        start = p.node_for_chain(parse_chain("G | G . H | H"))
        both = p.node_for_chain(parse_chain("G . H | G . H"))
        s, t = p.nodes.index(start), p.nodes.index(both)
        assert [c for c in p.covers if c[:2] == (s, t)] == [(s, t, "f1")]
        assert [x.edges for x in both.layers] == [merge(h, g).edges, merge(g, h).edges]
        assert merge(h, g).edges != merge(g, h).edges

    def test_node_for_chain_ignores_layer_order(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        a = p.node_for_chain(parse_chain("K | G . H"))
        b = p.node_for_chain(parse_chain("G . H | K"))
        assert a is b

    def test_node_for_chain_rejects_foreign_chain(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        with pytest.raises(KeyError):
            p.node_for_chain(parse_chain("G | H"))


# -- layer memo ----------------------------------------------------------------------


# merges in build_filtration, and complexes built by a fresh --json, per workspace
MERGES = {"sharing_k5": 23, "three_paths": 4}
JSON_BUILDS = {"sharing_k5": 25, "three_paths": 7}


def _workspace_cases():
    for path in (SHARING_K5, REPO_ROOT / "workspaces" / "three_paths.json"):
        for policy in POLICIES:
            yield pytest.param(path, policy, id=f"{path.stem}-{policy}")


@pytest.fixture
def built(monkeypatch) -> list[tuple[Multigraph, str, int | None]]:
    """Records (graph, policy, dim) of each complex built where the
    filtration builds them, or through ``mcomplex``."""
    calls = []

    def recording(g, policy=CANONICAL, dim=None):
        calls.append((g, policy, dim))
        return clique_multicomplex(g, policy, dim)

    monkeypatch.setattr(multihom.filtration, "clique_multicomplex", recording)
    monkeypatch.setattr(multihom.mcomplex, "clique_multicomplex", recording)
    return calls


class TestLayerMemo:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_filtrate_json_matches_golden(self, policy, capsys):
        # recorded before layer complexes were shared between nodes
        golden = gzip.decompress(
            (DATA / f"sharing_k5.filtrate.{policy}.json.gz").read_bytes()
        ).decode()
        argv = ["--workspace", str(SHARING_K5), "--policy", policy, "--json", "filtrate"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        if out != golden:
            got, want = out.splitlines(), golden.splitlines()
            line = next(
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            pytest.fail(f"filtrate --json differs from the golden at line {line + 1}")

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_each_layer_graph_built_once(self, path, policy, built):
        # build_filtration builds nothing, and under either policy the class
        # table reads each node's Betti vector off its class graphs
        ws = load_workspace(path)
        p = build_filtration(parse_chain(ws.chain_text), ws.env(), policy)
        assert built == []
        for n in p.nodes:
            assert n.betti
        assert built == []

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_one_build_per_graph_class(self, path, policy, built):
        # none at any depth under either policy: every trace and whole
        # vector, each read twice, is read off the class graphs
        ws = load_workspace(path)
        p = build_filtration(parse_chain(ws.chain_text), ws.env(), policy)
        for _ in range(2):
            for dim in range(3):
                betti_trace(p, dim)
            for n in p.nodes:
                assert n.betti
        assert built == []

    @pytest.mark.parametrize("dim", (0, 1, 2))
    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_text_trace_builds_only_the_skeletons_it_reads(
        self, path, policy, dim, built, monkeypatch, capsys
    ):
        # every beta_d is read off the class graphs, so no --dim builds a
        # complex under either policy.  The text trace reads no cover, so
        # none is built.
        posets = []

        def keeping(*args):
            posets.append(build_filtration(*args))
            return posets[-1]

        monkeypatch.setattr(multihom.filtration, "build_filtration", keeping)
        argv = ["--workspace", str(path), "--policy", policy, "filtrate", "--dim", str(dim)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out
        (p,) = posets
        assert "covers" not in vars(p)
        assert built == []

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_text_beta0_trace_merges_and_makes_no_graph(self, path, policy, monkeypatch, capsys):
        # classes are merged by key and beta_0 read off the keys, so past
        # the start's graphs (here the workspace's own: the chains are all
        # tensor) building and tracing make no Multigraph at all
        made, merged, inside = [], [], []
        store = Multigraph._set

        def recording(g, **fields):
            if inside:
                made.append(fields)
            store(g, **fields)

        def spying(fn):
            def spy(*args, **kwargs):
                inside.append(fn.__name__)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()

            return spy

        monkeypatch.setattr(Multigraph, "_set", recording)
        monkeypatch.setattr(multihom.filtration, "merge", lambda g, h: merged.append((g, h)))
        monkeypatch.setattr(multihom.filtration, "build_filtration", spying(build_filtration))
        monkeypatch.setattr(multihom.filtration, "betti_trace", spying(betti_trace))
        argv = ["--workspace", str(path), "--policy", policy, "filtrate", "--dim", "0"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("interaction filtration of ")
        assert made == [] and merged == []
        # the spy sees graphs made inside its spans
        g, h = triangle(1, 2, 3), triangle(3, 4, 5)
        inside.append("probe")
        merge(g, h)
        assert len(made) == 1

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_json_builds_each_exact_layer_once(self, path, policy, built):
        # copy numbering shows in the cells, so JSON tells layers apart by
        # their exact edges, not by ``Multigraph`` equality; the layers'
        # complexes also give the classes' whole vectors, so none other is built
        ws = load_workspace(path)
        p = build_filtration(parse_chain(ws.chain_text), ws.env(), policy)
        p.to_json_dict()
        inputs = [(g.nodes, g.edges, used, dim) for g, used, dim in built]
        assert len(set(inputs)) == len(inputs) == JSON_BUILDS[path.stem]
        assert set(inputs) == {
            (g.nodes, g.edges, policy, None) for n in p.nodes for g in n.layers
        }

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_node_for_chain_merges_only_its_argument(self, path, policy, monkeypatch):
        ws = load_workspace(path)
        p = build_filtration(parse_chain(ws.chain_text), ws.env(), policy)
        calls = []

        def counting(g, h):
            calls.append((g, h))
            return merge(g, h)

        monkeypatch.setattr(multihom.chainlat, "merge", counting)
        # and replays no node's layers
        monkeypatch.setattr(multihom.filtration, "merge", None)
        for n in p.nodes:
            calls.clear()
            assert p.node_for_chain(n.chain) is n
            assert len(calls) <= p.k - 1, n.chain.text()

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_merges_follow_nodes_and_blocks_not_covers(self, path, policy, monkeypatch):
        # classes merge by key: one key merge per pair of classes met, and
        # no graph merged at all while building or reading covers
        ws = load_workspace(path)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return merged_key(a, b)

        monkeypatch.setattr(multihom.filtration, "merged_key", counting)
        monkeypatch.setattr(multihom.filtration, "merge", None)
        start = parse_chain(ws.chain_text)
        p = build_filtration(start, ws.env(), policy)
        # the blocks met: each node's, and the merge of any two of them (a
        # successor reached again keeps the blocks of its first chain)
        met = {b for n in p.nodes for b in n.chain.blocks()}
        met |= {
            tuple(sorted(a + b))
            for n in p.nodes
            for a, b in itertools.combinations(n.chain.blocks(), 2)
        }
        assert len(calls) <= len(met - {tuple(sorted(b)) for b in start.blocks()})
        built = len(calls)
        assert built < len(p.covers)
        assert len(calls) == built  # covers merge nothing: the table has every pair
        # one merge per pair of classes: on sharing_k5, where L is bound to
        # G's graph, blocks with L meet the pairs of G's blocks again
        pairs = [tuple(sorted((p.classes.ids[a], p.classes.ids[b]))) for a, b in calls]
        assert len(set(pairs)) == len(pairs)
        assert len(calls) == len(p.classes.merges) == MERGES[path.stem]

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_node_betti_matches_fresh_builds(self, path, policy):
        ws = load_workspace(path)
        env = ws.env()
        p = build_filtration(parse_chain(ws.chain_text), env, policy)
        for n in p.nodes:
            fresh = [clique_multicomplex(g, policy) for g in evaluate(n.chain, env)]
            held = [clique_multicomplex(g, policy) for g in n.layers]
            assert n.betti == betti_sum(betti(c) for c in fresh), n.chain.text()
            assert sorted(c.canonical_form() for c in held) == sorted(
                c.canonical_form() for c in fresh
            )

    def test_calls_on_different_envs_stay_apart(self):
        # the same atom names bound to other graphs: a 4-cycle split into
        # paths, then three disjoint triangles, then the paths again
        start = parse_chain("G | H | K")
        cycle = ChainEnv(
            {"G": path_graph([1, 2, 3]), "H": path_graph([3, 4]), "K": path_graph([4, 1])}
        )
        disjoint = ChainEnv(
            {"G": triangle(1, 2, 3), "H": triangle(4, 5, 6), "K": triangle(7, 8, 9)}
        )
        first = build_filtration(start, cycle)
        second = build_filtration(start, disjoint)
        again = build_filtration(start, cycle)
        for p, env in ((first, cycle), (second, disjoint), (again, cycle)):
            assert [n.betti for n in p.nodes] == [
                chain_betti(n.chain, env) for n in p.nodes
            ]
        assert first.nodes[-1].betti == (1, 1)
        assert [n.betti for n in second.nodes] == [(3, 0, 0)] * 5
        assert again.to_json_dict() == first.to_json_dict()


# -- node identity ---------------------------------------------------------------------


class TestNodeIdentity:
    @pytest.mark.parametrize("mode", ("text", "json"))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("chain", ("G | G | H", "G . G | H"))
    def test_repeated_atoms_match_golden(self, chain, policy, mode, three_paths_path, capsys):
        # recorded before nodes were told apart by their layer graphs; the
        # two G blocks of G | G | H are equal and must both stay
        golden = json.loads(gzip.decompress(REPEATED_ATOMS.read_bytes()))
        flags = ["--json"] if mode == "json" else []
        argv = ["--workspace", str(three_paths_path), "--policy", policy, *flags]
        assert main(argv + ["filtrate", chain]) == EXIT_OK
        assert capsys.readouterr().out == golden[f"{chain} / {policy} / {mode}"]

    @pytest.mark.parametrize("policy", POLICIES)
    @given(data=st.data())
    def test_nodes_are_the_classes_of_coarsenings(self, policy, data):
        # atoms may share a graph; per-combination keeps single copies so
        # that four merged atoms stay small
        k = data.draw(st.integers(2, 4), label="k")
        graphs: dict[str, Multigraph] = {}
        for name in ATOM_NAMES[:k]:
            if graphs and data.draw(st.booleans(), label=f"{name} shares"):
                graphs[name] = graphs[data.draw(st.sampled_from(sorted(graphs)), label=name)]
            else:
                max_mult = 2 if policy == CANONICAL else 1
                graphs[name] = data.draw(multigraphs(max_nodes=4, max_mult=max_mult), label=name)
        start = ChainExpr(ATOM_NAMES[:k], data.draw(connectives(k), label="connectives"))
        blocks = start.blocks()

        def fresh(part):
            return [
                clique_multicomplex(
                    reduce(merge, [graphs[a] for i in group for a in blocks[i]]), policy
                )
                for group in part
            ]

        def judge(part):
            return tuple(sorted(c.canonical_form() for c in fresh(part)))

        classes, covers = coarsening_classes(len(blocks), judge)
        p = build_filtration(start, ChainEnv(graphs), policy)
        keys = [
            tuple(sorted(clique_multicomplex(g, policy).canonical_form() for g in n.layers))
            for n in p.nodes
        ]
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(classes)
        assert [len(p.level(j)) for j in range(k)] == [
            sum(1 for part in classes.values() if k - len(part) == j) for j in range(k)
        ]
        for n, key in zip(p.nodes, keys):
            assert n.betti == betti_sum(betti(c) for c in fresh(classes[key])), n.chain.text()
        assert {(keys[s], keys[t]) for s, t, _ in p.covers} == covers

    @given(data=st.data())
    def test_walk_matches_the_tuple_keyed_oracle(self, data):
        # 3-6 atoms over up to 5 names, so atoms repeat; some names are
        # bound to a graph equal to another name's (rebuilt with its
        # copies reversed), and graphs share a small node universe
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        names = ATOM_NAMES[: data.draw(st.integers(1, 5), label="names")]
        graphs: dict[str, Multigraph] = {}
        for name in names:
            if graphs and data.draw(st.booleans(), label=f"{name} equals another"):
                g = graphs[data.draw(st.sampled_from(sorted(graphs)), label=name)]
                rows = [(u, v, c) for u, v in reversed(g.pairs()) for c in reversed(g.colors((u, v)))]
                graphs[name] = Multigraph.build(g.nodes, rows, g.palette)
            else:
                graphs[name] = random_multigraph(
                    rng, max_nodes=4, max_mult=2, palette=PALETTE, node_universe=range(1, 6)
                )
        k = data.draw(st.integers(3, 6), label="k")
        atoms = tuple(data.draw(st.lists(st.sampled_from(names), min_size=k, max_size=k)))
        start = ChainExpr(atoms, data.draw(connectives(k), label="connectives"))
        env = ChainEnv(graphs)
        nodes, merges, block_ids, class_graphs, covers = filtration_by_tuples(start, env)
        p = build_filtration(start, env)
        index = {id(n): t for t, n in enumerate(p.nodes)}
        assert [
            (n.blocks, n.key, n.level, n.text, n.merged, n.parent and index[id(n.parent)])
            for n in p.nodes
        ] == nodes
        assert list(p.classes.merges.items()) == list(merges.items())
        codes = p.classes.codes.items()
        assert [(b, p.classes.code_ids[code]) for b, code in codes] == list(block_ids.items())
        assert list(p.covers) == covers
        # a class's graph, made when read, is the oracle's, copy for copy
        made = map(p.classes.graph, range(len(p.classes.keys)))
        assert [(g.nodes, g.edges) for g in made] == [(g.nodes, g.edges) for g in class_graphs]

    @pytest.mark.parametrize("path, policy", _workspace_cases())
    def test_covers_are_the_coarsening_oracles(self, path, policy):
        # covers are found again from the nodes' blocks when first read
        ws = load_workspace(path)
        env, start = ws.env(), parse_chain(ws.chain_text)
        blocks = start.blocks()

        def judge(part):
            graphs = (reduce(merge, [env.graphs[a] for i in g for a in blocks[i]]) for g in part)
            return tuple(sorted(clique_multicomplex(g, policy).canonical_form() for g in graphs))

        classes, covers = coarsening_classes(len(blocks), judge)
        p = build_filtration(start, env, policy)
        assert "covers" not in vars(p)
        keys = [
            tuple(sorted(clique_multicomplex(g, policy).canonical_form() for g in n.layers))
            for n in p.nodes
        ]
        assert sorted(keys) == sorted(classes)
        assert {(keys[s], keys[t]) for s, t, _ in p.covers} == covers


# -- Betti traces --------------------------------------------------------------------


class TestTraces:
    def test_displayed_path_is_3_2_2_1(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        displayed = [
            parse_chain(s)
            for s in ("G | H | K", "G . H | K", "G | H . K", "G . H . K")
        ]
        rows = trace_for_chains(p, displayed, dim=0)
        assert [r["beta"] for r in rows] == [3, 2, 2, 1]
        assert [r["delta"] for r in rows] == [0, 1, 2, 3]

    def test_full_poset_beta0_column(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        assert [n.betti[0] for n in p.nodes] == [3, 2, 2, 2, 1]

    def test_vertex_disjoint_atoms_never_connect(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        assert [n.betti[0] for n in p.nodes] == [3, 3, 3, 3, 3]

    def test_beta0_nonincreasing_along_covers(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        for src, dst, _ in p.covers:
            assert p.nodes[dst].betti[0] <= p.nodes[src].betti[0]

    def test_trace_rows_are_level_ordered(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        rows = betti_trace(p, dim=0)
        assert [r["level"] for r in rows] == sorted(r["level"] for r in rows)
        assert len(rows) == len(p.nodes)

    @pytest.mark.parametrize("dim", range(4))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "path",
        (SHARING_K5, REPO_ROOT / "workspaces" / "three_paths.json"),
        ids=("sharing_k5", "three_paths"),
    )
    def test_text_trace_matches_golden(self, path, policy, dim, capsys):
        # recorded while the trace still read whole Betti vectors
        golden = json.loads(gzip.decompress(TEXT_TRACES.read_bytes()))
        argv = ["--workspace", str(path), "--policy", policy, "filtrate", "--dim", str(dim)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == golden[f"{path.name} / {policy} / dim {dim}"]

    def test_chain_betti_adds_layers(self, three_paths_env):
        env, _ = three_paths_env
        x = parse_chain("G | H | K")
        beta = chain_betti(x, env)
        assert beta[0] == 3
        layers = evaluate(x, env)
        assert len(layers) == 3
        assert beta == betti_sum(betti(clique_multicomplex(g)) for g in layers)


# -- reporting -------------------------------------------------------------------------


class TestLevelProfile:
    def test_both_channels_present_k3(self, disjoint_env):
        env, start = disjoint_env
        p = build_filtration(start, env)
        profile = level_profile(p)
        assert [lv["formula_size"] for lv in profile["levels"]] == [3, 3, 1]
        assert [lv["measured_size"] for lv in profile["levels"]] == [1, 3, 1]
        assert profile["folds"]["formula"] == 2**3 - 3
        assert profile["folds"]["measured"] == 5

    def test_channels_are_independent_k4(self):
        graphs = {
            "G": triangle(1, 2, 3),
            "H": triangle(4, 5, 6),
            "K": triangle(7, 8, 9),
            "L": triangle(10, 11, 12),
        }
        p = build_filtration(parse_chain("G | H | K | L"), ChainEnv(graphs))
        profile = level_profile(p)
        assert [lv["formula_size"] for lv in profile["levels"]] == [4, 6, 4, 1]
        assert [lv["measured_size"] for lv in profile["levels"]] == [1, 6, 7, 1]
        assert profile["folds"]["formula"] == 2**4 - 4
        assert profile["folds"]["measured"] == 15

    def test_dot_output_mentions_every_node(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        dot = p.to_dot()
        assert dot.count("β =") == len(p.nodes)
        assert dot.count("->") == len(p.covers)

    def test_json_round_trip_fields(self, three_paths_env):
        env, start = three_paths_env
        p = build_filtration(start, env)
        payload = p.to_json_dict()
        assert payload["k"] == 3
        assert len(payload["nodes"]) == 5
        assert {c["map"] for c in payload["covers"]} <= {"f1", "f2"}
        assert "level_profile" in payload
