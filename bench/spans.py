"""Span tracer for the traced benchmark pass.

It wraps the public functions named in ``TARGETS`` without editing the
package: every binding of each function object across the ``multihom.*``
modules and their classes is found by identity and replaced by a
wrapper, so a function imported under another module's name is still
traced.  A wrapper records a span (name, start, end, parent, job) and
returns exactly what the wrapped function returned.  Spans stay in
memory until ``write_spans``.

Outside a job (``Tracer.job`` is None) the wrappers only forward the
call, so calls the benchmark itself makes leave no spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, qualified name) of the wrapped function
TARGETS = {
    "workspace.load": ("multihom.workspace", "load_workspace"),
    "mgraph.merge": ("multihom.mgraph", "merge"),
    "mcomplex.build": ("multihom.mcomplex", "clique_multicomplex"),
    "mcomplex.canon": ("multihom.mcomplex", "Multicomplex.canonical_form"),
    "homology.betti": ("multihom.homology", "betti"),
    "homology.boundary": ("multihom.homology", "boundary_matrix"),
    "homology.rank": ("multihom.homology", "BoundaryMatrix.rank"),
    "filtration.build": ("multihom.filtration", "build_filtration"),
    "incremental.validate": ("multihom.incremental", "validate"),
    "incremental.extract": ("multihom.incremental", "extract_params"),
}
JOB_SPAN = "cli"


def resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def bindings(fn) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in the package bound to ``fn``."""
    found = []
    classes = {}
    for name, mod in list(sys.modules.items()):
        if name != "multihom" and not name.startswith("multihom."):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
            if isinstance(value, type) and value.__module__.startswith("multihom"):
                classes[id(value)] = value
    for cls in classes.values():
        for attr, value in vars(cls).items():
            if value is fn:
                found.append((cls, attr))
    return found


def _edge_multiset(g) -> tuple:
    return tuple(sorted((e.u, e.v, e.color) for e in g.edges))


class Tracer:
    """Spans and per-job counts for the functions in ``TARGETS``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job: int | None = None
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # span name -> open spans
        self._build_inputs: list[tuple] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, (module, qualname) in TARGETS.items():
            fn = resolve(module, qualname)
            places = bindings(fn)
            if not places:
                raise LookupError(f"{module}.{qualname} has no binding to trace")
            wrapper = self.wrap(name, fn)
            for owner, attr in places:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        record = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._open[name] -= 1
                spans[idx] = (name, start, end, parent, self.job)
            counts = self.counts[self.job]
            counts[name + ".calls"] += 1
            if record is not None:
                record(counts, args, kwargs, result, end - start)
            return result

        return wrapper

    # -- per-call counts ----------------------------------------------------------------

    def _on_mgraph_merge(self, counts, args, kwargs, result, dur):
        counts["mgraph.merge.copies_out"] += len(result.edges)
        # each successor the filtration evaluates merges one pair of layers
        if self._open["filtration.build"]:
            counts["filtration.successors"] += 1

    def _on_mcomplex_build(self, counts, args, kwargs, result, dur):
        counts["mcomplex.build.cells"] += sum(len(grade) for grade in result.grades)
        policy = args[1] if len(args) > 1 else kwargs.get("policy")
        self._build_inputs.append((args[0], policy))

    def _on_homology_rank(self, counts, args, kwargs, result, dur):
        matrix = args[0]
        rows, cols = matrix.shape
        counts["homology.rank.cols"] += cols
        if cols > rows:
            counts["homology.rank.wide_s"] += dur

    def _on_filtration_build(self, counts, args, kwargs, result, dur):
        counts["filtration.nodes"] += len(result.nodes)

    # -- jobs -----------------------------------------------------------------------------

    def run_job(self, job: int, call):
        """Run ``call()`` as job ``job`` under a top-level span."""
        self.job = job
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (JOB_SPAN, start, end, -1, job)
            self.job = None
            # distinct complex inputs, keyed by node set and coloured edge
            # multiset, so copy numbering does not make inputs differ
            keys = {(frozenset(g.nodes), _edge_multiset(g), p) for g, p in self._build_inputs}
            self.counts[job]["mcomplex.build.distinct"] += len(keys)
            self._build_inputs.clear()

    # -- results ----------------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def summed_counts(self, jobs) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for job in jobs:
            for key, value in self.counts[job].items():
                out[key] += value
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
