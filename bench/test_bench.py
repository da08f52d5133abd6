"""Tests of the benchmark itself: tracer transparency, repeatable counts,
and output checks that catch a wrong answer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import multihom.cli  # noqa: E402
import multihom.filtration  # noqa: E402
import multihom.homology  # noqa: E402
import multihom.mgraph  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, bindings  # noqa: E402

COUNTS = (
    "mgraph.merge.calls",
    "mgraph.merge.copies_out",
    "mcomplex.build.calls",
    "mcomplex.build.cells",
    "mcomplex.build.distinct_frac",
    "mcomplex.canon.calls",
    "homology.betti.calls",
    "homology.rank.cols",
    "filtration.nodes",
    "filtration.successors",
    "filtration.node_yield",
    "incremental.validate.calls",
)


def traced_pass(name: str, jobs: int, tmp_path: Path, seed: int = 7) -> tuple[dict, worker.Pass]:
    untraced = worker.Pass(workloads.WORKLOADS[name], seed, tmp_path)
    traced = worker.Pass(workloads.WORKLOADS[name], seed, tmp_path, "traced")
    tracer = Tracer()
    worker.loop(untraced, jobs, traced, tracer)
    untraced.check()
    traced.check(untraced)
    return worker.layer_metrics(tracer, untraced, traced), traced


def test_wrapper_returns_the_wrapped_result_object():
    sentinel = object()
    tracer = Tracer()
    wrapped = tracer.wrap("stub", lambda *a, **k: sentinel)
    assert wrapped(1, x=2) is sentinel
    assert tracer.run_job(0, lambda: wrapped(1, x=2)) is sentinel
    assert [s[0] for s in tracer.spans] == ["cli", "stub"]  # outside a job: no span


def test_installed_wrappers_are_transparent_and_removable():
    job = workloads.make_percomb_betti(3, 5)
    x = workloads.merged_complex(job, ["G", "H"])
    original_merge = multihom.mgraph.merge
    merge_bindings = bindings(original_merge)
    expected = (multihom.homology.betti(x), x.canonical_form())

    tracer = Tracer()
    tracer.install()
    try:
        # every binding of merge, including imports into other modules
        assert multihom.cli.merge is multihom.filtration.merge is multihom.mgraph.merge
        assert multihom.mgraph.merge is not original_merge
        got = tracer.run_job(0, lambda: (multihom.homology.betti(x), x.canonical_form()))
        assert got == expected
        assert got[1] is expected[1]  # the memoised form itself, not a copy
    finally:
        tracer.uninstall()
    assert multihom.cli.merge is original_merge is multihom.mgraph.merge
    assert bindings(original_merge) == merge_bindings
    names = {s[0] for s in tracer.spans}
    assert {"homology.betti", "homology.boundary", "homology.rank", "mcomplex.canon", "cli"} <= names


def test_filtrate_counts_repeat_and_show_the_rebuild_ratio(tmp_path):
    first, traced = traced_pass("filtrate", 2, tmp_path)
    second, _ = traced_pass("filtrate", 2, tmp_path)
    assert not traced.failures
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["mcomplex.build.calls"] == 390
    assert first["filtration.successors"] == 160
    assert first["filtration.nodes"] == 52


def test_incremental_counts_repeat(tmp_path):
    first, traced = traced_pass("incremental-small", 5, tmp_path)
    second, _ = traced_pass("incremental-small", 5, tmp_path)
    assert not traced.failures
    assert first["incremental.validate.calls"] == 1
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


@pytest.fixture
def corrupt_betti():
    """Rebind every ``betti`` in the package to one that adds 1 to every
    Betti number and claims one more dimension."""
    real = multihom.homology.betti

    def wrong(x):
        return tuple(b + 1 for b in real(x)) + (1,)

    places = bindings(real)
    for owner, attr in places:
        setattr(owner, attr, wrong)
    yield
    for owner, attr in places:
        setattr(owner, attr, real)


@pytest.mark.parametrize("name", ["percomb-betti", "incremental-small", "filtrate"])
def test_corrupted_betti_vector_counts_as_failed_job(name, tmp_path, corrupt_betti):
    p = worker.Pass(workloads.WORKLOADS[name], 1, tmp_path)
    worker.loop(p, 2)
    p.check()
    assert p.summary()["failed"] == 2


def test_a_traced_output_that_differs_from_the_checked_one_fails(tmp_path):
    untraced = worker.Pass(workloads.WORKLOADS["percomb-betti"], 2, tmp_path)
    worker.loop(untraced, 1)
    untraced.check()
    traced = worker.Pass(workloads.WORKLOADS["percomb-betti"], 2, tmp_path, "traced")
    traced.outputs.write_text(json.dumps([0, 0, "G . H  ->  betti (9)", ""]) + "\n")
    traced.check(untraced)
    assert untraced.failures == [] and len(traced.failures) == 1


def test_a_run_cut_short_reports_no_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "MAX_WALL_S", 0.0)
    p = worker.Pass(workloads.WORKLOADS["incremental-small"], 1, tmp_path)
    with pytest.raises(worker.CutShort, match="ran 0 of 3 jobs"):
        worker.loop(p, 3)


def test_betti_check_rejects_a_wrong_vector():
    job = workloads.make_percomb_betti(0, 0)
    desc = workloads.Descriptors()
    x = workloads.merged_complex(job, ["G", "H"])
    right = multihom.homology.betti(x)
    assert workloads.check_betti(job, f"G . H  ->  betti {right}", desc) == []
    wrong = (right[0],) + (right[1] + 1,) + right[2:]
    assert workloads.check_betti(job, f"G . H  ->  betti {wrong}", desc)


def test_inputs_depend_on_seed_and_index_only():
    for make in (workloads.make_filtrate, workloads.make_percomb_betti, workloads.make_incremental_small):
        assert make(4, 9).workspace == make(4, 9).workspace
        assert make(4, 9).workspace != make(5, 9).workspace
        assert make(4, 9).workspace != make(4, 10).workspace


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "filtrate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
