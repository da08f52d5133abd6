"""Run one workload of the multihom benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package under test is the one in
``src/`` there.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see ``bench/README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time is the median of several fresh interpreters each timing
``import multihom.cli``.  The jobs then run in one more fresh interpreter
(``worker.py``).  Every child runs with a fixed ``PYTHONHASHSEED`` so
that the work done, and every per-layer count, repeats exactly for a
given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPS = 5
CHILD_TIMEOUT_S = 30
DEADLINE_S = 170  # the whole run, from its start; the worker gets what is left
START = time.monotonic()
HASH_SEED = "0"

SETUP_CODE = (
    "import time; t = time.perf_counter(); import multihom.cli; "
    "d = time.perf_counter() - t; import multihom; print(d, multihom.__file__)"
)


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout:.0f} s: {argv[:4]}") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[:4]} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds() -> float:
    """Median time of ``import multihom.cli`` over fresh interpreters.
    One unmeasured import first writes the bytecode caches."""
    samples = []
    for rep in range(SETUP_REPS + 1):
        out = run_child([sys.executable, "-c", SETUP_CODE], CHILD_TIMEOUT_S).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported multihom from {out[1]}, not from {SRC}")
        if rep:
            samples.append(float(out[0]))
    return statistics.median(samples)


def import_times() -> dict[str, float]:
    """Cumulative import time of networkx and of multihom, from
    ``python -X importtime`` (median over fresh interpreters)."""
    samples: dict[str, list[float]] = {"networkx": [], "multihom": []}
    for _ in range(SETUP_REPS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import multihom.cli"], CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {
        f"setup.import.{name}_s": statistics.median(values) if values else 0.0
        for name, values in samples.items()
    }


def run_worker(args) -> dict:
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = run_child(argv, max(1.0, DEADLINE_S - (time.monotonic() - START)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(passes: list[dict], metrics: dict[str, tuple[float, str]], raw: dict) -> dict:
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    first = passes[0]
    print(f"descriptors: {json.dumps(first['descriptors'])}")
    print(f"output digest of the {first['jobs']} jobs: {first['digest']}")
    start, end = raw["host_probe_s"]
    print(f"host probe (diagnostic only): {start:.4f} s at start, {end:.4f} s at end")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "multihom" / "cli.py").is_file():
        print(f"error: no package to benchmark at {SRC / 'multihom'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        if args.trace:
            setup = import_times()
            raw = run_worker(args)
            layers = {**setup, **raw["layers"]}
            metrics = {name: (layers[name], unit) for name, unit in declared("per_layer").items()}
            result = report([raw["untraced"], raw["traced"]], metrics, raw)
            print(f"spans: {raw['spans_file']}")
        else:
            setup = setup_seconds()
            raw = run_worker(args)
            u = raw["untraced"]
            values = {
                "setup_s": setup,
                "job_p50_s": u["job_p50_s"],
                "job_p90_s": u["job_p90_s"],
                "jobs_per_s": u["jobs"] / u["job_sum_s"],
                "peak_rss_mb": raw["peak_rss_mb"],
            }
            metrics = {name: (values[name], unit) for name, unit in declared("end_to_end").items()}
            result = report([u], metrics, raw)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
