"""One benchmark run of one workload, in a fresh interpreter.

A single client calls ``multihom.cli.main(argv)`` in-process, with its
output captured, once per job; the next job starts when the previous one
returns (a closed loop, one thread).  Each job gets its own generated
workspace file.  Generating the input and writing the output to a file
happen outside the timed span.  The outputs are checked only after the
last job, once the peak memory of the jobs has been read, so the checks
neither add to that figure nor run between timed jobs.

Prints one JSON object with the raw measurements; ``run.py`` turns it
into the benchmark's metrics.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import multihom.cli
import workloads
from spans import JOB_SPAN, Tracer
from workloads import MIN_JOBS

MAX_WALL_S = 120.0  # a slower run fails rather than overrun its time limit
OUT_DIR = Path(".bench_out")


class CutShort(Exception):
    """The job list did not finish within MAX_WALL_S."""


def host_probe() -> float:
    """Time of a fixed pure-Python loop: a diagnostic of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


class Pass:
    """One pass over the job list: the times of its calls, and their
    outputs in a file until ``check`` reads them back."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path, tag: str = "untraced"):
        self.workload = workload
        self.seed = seed
        self.path = workdir / "workspace.json"
        self.outputs = workdir / f"outputs-{tag}.jsonl"
        self.outputs.write_text("")
        self.times: list[float] = []
        self.failures: list[str] = []
        self.answers: dict[int, str | None] = {}  # job -> output, None if wrong
        self.digest = hashlib.sha256()
        self.desc = workloads.Descriptors()

    def run(self, index: int, tracer: Tracer | None = None) -> None:
        job = self.workload.make_job(self.seed, index)
        self.path.write_text(json.dumps(job.workspace))
        argv = ["--workspace", str(self.path), *job.argv]
        out, err = io.StringIO(), io.StringIO()
        # start every job from an empty collector, as a fresh CLI process
        # does, so no job pays for the garbage of the one before
        gc.collect()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = multihom.cli.main(argv)
                except Exception as exc:  # a traceback is a failed job, not a crash
                    code = f"{type(exc).__name__}: {exc}"
                return code, time.perf_counter() - start

        code, elapsed = call() if tracer is None else tracer.run_job(index, call)
        self.times.append(elapsed)
        record = [index, code, out.getvalue(), err.getvalue().strip()[:200]]
        with self.outputs.open("a") as f:
            f.write(json.dumps(record) + "\n")

    def check(self, reference: Pass | None = None) -> None:
        """Check every output and digest them.  Without a reference pass
        each job is regenerated and checked on its own; with one (the
        untraced pass of a traced run, which ran the same inputs), each
        output must equal the reference's checked answer."""
        with self.outputs.open() as f:
            for line in f:
                index, code, text, err = json.loads(line)
                self.digest.update(f"{index}:{code}:{text}\n".encode())
                errors = [f"exit {code}: {err}"] if code != 0 else []
                if code == 0 and reference is None:
                    job = self.workload.make_job(self.seed, index)
                    self.desc.jobs += 1
                    for g in job.workspace["graphs"].values():
                        self.desc.add_graph(g)
                    errors += self.workload.check(job, text, self.desc)
                elif code == 0 and reference.answers.get(index) is None:
                    errors.append("the reference run of this job failed")
                elif code == 0 and text != reference.answers[index]:
                    errors.append("output differs from the checked output of the same job")
                self.answers[index] = None if errors else text
                if errors:
                    self.failures.append(f"job {index}: " + "; ".join(errors))

    def summary(self) -> dict:
        times = self.times
        return {
            "jobs": len(times),
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "job_p50_s": statistics.median(times),
            "job_p90_s": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
            "job_sum_s": sum(times),
            "digest": self.digest.hexdigest()[:16],
            "descriptors": self.desc.to_json_dict(),
        }


def loop(untraced: Pass, jobs: int, traced: Pass | None = None, tracer: Tracer | None = None) -> None:
    """Run jobs 0..jobs-1; raise CutShort past MAX_WALL_S, so that no
    metric is ever taken over part of the job list.

    With a traced pass, every job runs in both passes, each pass first on
    alternate jobs, so both see the same host speed and the difference
    between them is the tracing overhead."""
    start = time.perf_counter()
    for index in range(jobs):
        if time.perf_counter() - start >= MAX_WALL_S:
            raise CutShort(f"ran {index} of {jobs} jobs in {MAX_WALL_S:.0f} s")
        if traced is None:
            untraced.run(index)
            continue
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if not with_trace:
                untraced.run(index)
                continue
            tracer.install()
            try:
                traced.run(index, tracer)
            finally:
                tracer.uninstall()


def layer_metrics(tracer: Tracer, untraced: Pass, traced: Pass) -> dict:
    """Per-layer metrics per job.  Times are over every traced job;
    counts over the first MIN_JOBS jobs, so they repeat exactly."""
    jobs = len(traced.times)
    selfs = tracer.self_times()
    counted = min(jobs, MIN_JOBS)
    c = tracer.summed_counts(range(counted))
    per_job = lambda v: v / jobs  # noqa: E731
    per_counted = lambda v: v / counted  # noqa: E731
    builds = c["mcomplex.build.calls"]
    all_counts = tracer.summed_counts(range(jobs))
    return {
        "cli.self_s": per_job(selfs[JOB_SPAN]),
        "workspace.load_s": per_job(selfs["workspace.load"]),
        "mgraph.merge.calls": per_counted(c["mgraph.merge.calls"]),
        "mgraph.merge.self_s": per_job(selfs["mgraph.merge"]),
        "mgraph.merge.copies_out": per_counted(c["mgraph.merge.copies_out"]),
        "mcomplex.build.calls": per_counted(builds),
        "mcomplex.build.self_s": per_job(selfs["mcomplex.build"]),
        "mcomplex.build.cells": per_counted(c["mcomplex.build.cells"]),
        "mcomplex.build.distinct_frac": c["mcomplex.build.distinct"] / builds if builds else 1.0,
        "mcomplex.canon.calls": per_counted(c["mcomplex.canon.calls"]),
        "mcomplex.canon.self_s": per_job(selfs["mcomplex.canon"]),
        "homology.betti.calls": per_counted(c["homology.betti.calls"]),
        "homology.betti.self_s": per_job(selfs["homology.betti"]),
        "homology.boundary.self_s": per_job(selfs["homology.boundary"]),
        "homology.rank.self_s": per_job(selfs["homology.rank"]),
        "homology.rank.cols": per_counted(c["homology.rank.cols"]),
        "homology.rank.wide_s": per_job(all_counts["homology.rank.wide_s"]),
        "filtration.build.self_s": per_job(selfs["filtration.build"]),
        "filtration.nodes": per_counted(c["filtration.nodes"]),
        "filtration.successors": per_counted(c["filtration.successors"]),
        "filtration.node_yield": c["filtration.nodes"] / (c["filtration.successors"] + counted),
        "incremental.validate.calls": per_counted(c["incremental.validate.calls"]),
        "incremental.validate.self_s": per_job(selfs["incremental.validate"]),
        "incremental.extract.self_s": per_job(selfs["incremental.extract"]),
        "trace.overhead_frac": sum(traced.times) / sum(untraced.times) - 1,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe_start = host_probe()
        jobs = workload.jobs_per_run(args.seconds)
        result: dict = {}
        untraced = Pass(workload, args.seed, workdir)
        if args.trace:
            traced = Pass(workload, args.seed, workdir, "traced")
            tracer = Tracer()
            loop(untraced, jobs, traced, tracer)
        else:
            loop(untraced, jobs)
        # the jobs' high-water mark, before any check allocates
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["host_probe_s"] = [probe_start, host_probe()]
        untraced.check()
        if args.trace:
            traced.check(untraced)
            result["layers"] = layer_metrics(tracer, untraced, traced)
            result["traced"] = traced.summary()
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans)
        result["untraced"] = untraced.summary()
    except CutShort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
