"""Incremental Betti accounting for merges, and closed-form hypotheses.

``incremental_step`` is the one-cell update rule: a new d-cell either
closes a d-cycle (beta_d += 1) or caps one below (beta_{d-1} -= 1).
Replaying every cell of a complex through it, with the closes-cycle
question answered by a GF(2) rank oracle, lands exactly on the direct
Betti vector.

The merge parameters classify the cells of K_{g.h} the same way, per
dimension and side, as rank differences, so no cell order enters.  With
c_e(x) the e-cells of K_x and r_e(x) the rank of its e-th boundary,
r_0 = 0 and r_{e+1} = c_e - beta_e - r_e, so ranks come off cell counts
(``clique_cells``) and Betti vectors (``clique_betti``), and no cell is
built here.  A cell of K_{g.h} is g's, h's or new by where its copies
come from.  Under ``per-combination`` a cell is a clique with one copy
per pair, and ``merge`` keeps g's copy indices and shifts h's by g's
multiplicities, so g's cells are a copy of K_g and h's of K_h, sharing
no cell above dimension 0.  So for d >= 1 h's d-cells have rank r_d(h)
in K_{g.h}, and g's and h's (d+1)-cells, on disjoint faces, have rank
r_{d+1}(g) + r_{d+1}(h): each tagged count of ``extract_params`` is a
difference of the three graphs' ranks and cell counts.  The policies'
2-skeletons are equal (the ``homology`` docstring), so this holds under
``canonical`` at d = 1, and for n, p and dup at d = 2.  Above dimension
2 ``canonical`` cells are glued along first copies in colour order as
the simplices of S(x), the clique complex of x's simple graph.  One is
g's or h's when its clique lies in S(g) or S(h), so n and p are the same
differences, but g's and h's cells can share faces or be one cell, so
cl ranks them together.  dup, the parallel copies a merge makes, is a
difference too: with s_e(x) the e-simplices of S(x) (x's nodes, its
pairs, its cliques of e + 1 vertices), c_e - s_e counts K_x's e-cells
beyond one per vertex set, and dup at d is that of g.h at e = d - 1,
less g's and h's.  No reading depends on colours or operand order.

Up to d = top, the ledger needs c_e and beta_e for e <= top (so r_0..
r_{top+1}), s_{top-1}, and under ``canonical`` the (top+1)-cliques: all
of it lies in the (top+1)-skeleton.  So each of g, h and g.h is counted
and read to that skeleton alone, as ``clique_betti(x, policy, top)``
reads it, and a cell budget refuses only where such a skeleton passes it.
One shape of that skeleton (``mcomplex.clique_cells``) gives all of it:
grade e's cell counts sum to c_e, its cliques number s_e, and its keys
are the cliques that ``_sides_rank`` ranks; the Betti numbers are read
off the same shape.

``formula_beta1``/``formula_beta2`` are transcriptions of a closed-form
conjecture for the Betti numbers of a merge.  They are implemented
exactly as stated and treated as hypotheses: ``validate`` reports formula
vs oracle without asserting agreement, and the bundled reference cases
(including the ones whose printed arithmetic does not reproduce the
recorded result) are emitted as flagged findings, never adjusted.
"""

from __future__ import annotations

import io
import json
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NegativeBetti
from .homology import BettiVector, Gf2Basis, boundary_matrix
from .homology import _cells_betti, _clique_faces, _column, _reduce
from .mcomplex import CANONICAL, Multicomplex, Shape, _cell_counts, clique_cells
from .mgraph import Multigraph, merge

__all__ = [
    "incremental_step",
    "replay_betti",
    "IncrementalParams",
    "extract_params",
    "formula_beta1",
    "formula_beta2",
    "IncrementalReport",
    "validate",
    "KnownCase",
    "KNOWN_CASES",
    "known_case_findings",
    "fuzz_records",
    "summarize_records",
]


def incremental_step(beta: BettiVector, d: int, closes_cycle: bool) -> BettiVector:
    """Update a Betti vector for one new d-cell.

    Never clamps: an impossible decrement raises NegativeBetti, because a
    silent floor would hide a broken cycle classification.
    """
    if d < 0:
        raise ValueError(f"cell dimension must be >= 0, got {d}")
    out = list(beta) + [0] * max(0, d + 1 - len(beta))
    if closes_cycle:
        out[d] += 1
    else:
        if d == 0 or out[d - 1] == 0:
            raise NegativeBetti(
                f"a {d}-cell cannot cap a {d - 1}-cycle here (beta would go negative)"
            )
        out[d - 1] -= 1
    return tuple(out)


def replay_betti(x: Multicomplex) -> BettiVector:
    """Add every cell in canonical order through incremental_step, with
    cycle classification by incremental GF(2) rank (a 0-cell's boundary
    column is zero)."""
    beta: BettiVector = ()
    for d in range(x.dimension + 1):
        basis = Gf2Basis()
        for col in boundary_matrix(x, d).columns if d else (0,) * x.cell_count(0):
            grew = basis.add(col)
            beta = incremental_step(beta, d, closes_cycle=not grew)
    return beta + (0,) * (x.dimension + 1 - len(beta))


# -- merge parameter extraction ---------------------------------------------------


class IncrementalParams(NamedTuple):
    """Counted inputs of the closed-form conjecture at one dimension."""

    dim: int
    beta_g: int
    beta_h: int
    n_g: int  # cells arriving from g's side that close a dim-cycle
    n_h: int
    p_g: int  # cells arriving from g's side that do not
    p_h: int
    cl: int  # interaction-created (dim+1)-cells that cap a dim-cycle
    dup: int  # parallel copies created one dimension below


def formula_beta1(p: IncrementalParams) -> int:
    """max(beta_g, beta_h) + max(n_g, n_h) - min(p_g, p_h) - cl, verbatim."""
    return max(p.beta_g, p.beta_h) + max(p.n_g, p.n_h) - min(p.p_g, p.p_h) - p.cl


def formula_beta2(p: IncrementalParams) -> int:
    """Same shape as formula_beta1 plus the duplication term, verbatim."""
    return (
        max(p.beta_g, p.beta_h)
        + max(p.n_g, p.n_h)
        - min(p.p_g, p.p_h)
        - p.cl
        + p.dup
    )


def extract_params(
    g: Multigraph, h: Multigraph, d: int, policy: str = CANONICAL
) -> IncrementalParams:
    """Derive the conjecture's inputs as a rank ledger of K_{g.h}.

    The source never defines how to count these from data, so the rules
    here are a deterministic reading: n/p classify the d-cells arriving
    from g's side (g's and the interaction-created ones) over a base of
    h's d-cells, and h's symmetrically; cl counts the interaction-created
    (d+1)-cells that cap a d-cycle over a base of every other (d+1)-cell;
    dup counts the parallel copies the merge creates one dimension below
    d, floored at 0.

    An arriving d-cell caps a (d-1)-cycle exactly when it raises the rank,
    and closes a d-cycle otherwise, so the counts do not depend on the
    order of the cells: this is the per-cell classification of Delfinado
    & Edelsbrunner's incremental algorithm (CAGD 1995).  With m = g.h and
    r, c as in the module docstring, each is read off three graphs:

        p_g = r_d(m) - r_d(h),   n_g = c_d(m) - c_d(h) - p_g   (h's alike)
        cl = r_{d+1}(m) - r_{d+1}(g) - r_{d+1}(h)
        dup = (c_e - s_e)(m) - (c_e - s_e)(g) - (c_e - s_e)(h),  e = d - 1

    except that under ``canonical`` at d >= 2 cl is r_{d+1}(m) less the
    rank of g's and h's (d+1)-cells taken together.  Each graph is read to
    its (d+1)-skeleton, which holds every cell these need, so a cell budget
    refuses g, h or g.h only where that skeleton passes it.
    """
    if d < 1:
        raise ValueError(f"extraction is defined for d >= 1, got {d}")
    (params,), _ = _extract(g, h, policy, dims=(d,))
    return params


def _ranks(
    x: Multigraph, policy: str, top: int
) -> tuple[list[int], list[int], list[int], list[int], Shape]:
    """x's Betti numbers, cell counts c_e and simplex counts s_e to
    dimension ``top``, its boundary ranks r_0..r_{top+1}, zero above its
    dimension, and its shape to dimension top + 1, padded with empty
    grades: one ``clique_cells`` read of its (top+1)-skeleton, from which
    the Betti numbers come as ``clique_betti(x, policy, top)`` gives them."""
    shape = clique_cells(x, policy, top + 1)
    beta = [*_cells_betti(shape, policy, top), *[0] * (top + 1)]
    shape += [{}] * (top + 2 - len(shape))
    cells = _cell_counts(shape)
    simplices = [len(cliques) for cliques in shape]
    ranks = [0]
    for e in range(top + 1):
        ranks.append(cells[e] - beta[e] - ranks[e])
    return beta, cells, simplices, ranks, shape


def _sides_rank(g: Multigraph, h: Multigraph, shape: Shape, e: int) -> int:
    """The rank of the ``canonical`` e-cells of K_{g.h}, e >= 3, whose
    clique lies in g's or in h's simple graph, as S(g.h)'s e-simplices
    over its (e-1)-cliques, with g.h's shape ``shape``."""
    sides = [
        tau for tau in shape[e]
        if any(all(map(x.multiplicity, combinations(tau, 2))) for x in (g, h))
    ]
    return len(_reduce(map(_column, _clique_faces(shape[e - 1], sides))))


def _extract(
    g: Multigraph, h: Multigraph, policy: str, dims: Sequence[int]
) -> tuple[tuple[IncrementalParams, ...], list[int]]:
    """``extract_params`` at each of ``dims``, and the Betti numbers of
    K_{g.h} to the highest of them.  g, h and g.h are read in that order,
    so a refusal comes for g, then h, then the merge."""
    top = max(dims)
    (bg, cg, sg, rg, _), (bh, ch, sh, rh, _) = _ranks(g, policy, top), _ranks(h, policy, top)
    m = merge(g, h)
    bm, cm, sm, rm, shape = _ranks(m, policy, top)
    out = []
    for d in dims:
        p_g, p_h = rm[d] - rh[d], rm[d] - rg[d]
        # g's and h's (d+1)-cells share no face but canonical ones above dimension 2
        sides = rg[d + 1] + rh[d + 1]
        if policy == CANONICAL and d >= 2:
            sides = _sides_rank(g, h, shape, d + 1)
        # the merge's parallel copies one dimension down, beyond g's and h's
        e = d - 1
        dup = cm[e] - sm[e] - (cg[e] - sg[e]) - (ch[e] - sh[e])
        n_g, n_h, cl = cm[d] - ch[d] - p_g, cm[d] - cg[d] - p_h, rm[d + 1] - sides
        out.append(IncrementalParams(d, bg[d], bh[d], n_g, n_h, p_g, p_h, cl, max(0, dup)))
    return tuple(out), bm


class IncrementalReport(NamedTuple):
    """Formula vs direct-rank oracle for one merge; agreement is reported,
    never assumed."""

    params_d1: IncrementalParams
    params_d2: IncrementalParams
    formula_beta1: int
    formula_beta2: int
    oracle_beta1: int
    oracle_beta2: int

    @property
    def agrees_beta1(self) -> bool:
        return self.formula_beta1 == self.oracle_beta1

    @property
    def agrees_beta2(self) -> bool:
        return self.formula_beta2 == self.oracle_beta2

    def to_json_dict(self) -> dict:
        return {
            "params": {"d1": self.params_d1._asdict(), "d2": self.params_d2._asdict()},
            "formula": {"beta1": self.formula_beta1, "beta2": self.formula_beta2},
            "oracle": {"beta1": self.oracle_beta1, "beta2": self.oracle_beta2},
            "agrees": {"beta1": self.agrees_beta1, "beta2": self.agrees_beta2},
        }


def validate(g: Multigraph, h: Multigraph, policy: str = CANONICAL) -> IncrementalReport:
    """Extract parameters, apply the formulas, and compare against the
    direct Betti numbers of the merged complex, read off its 3-skeleton."""
    (p1, p2), oracle = _extract(g, h, policy, dims=(1, 2))
    return IncrementalReport(
        params_d1=p1,
        params_d2=p2,
        formula_beta1=formula_beta1(p1),
        formula_beta2=formula_beta2(p2),
        oracle_beta1=oracle[1],
        oracle_beta2=oracle[2],
    )


# -- recorded reference cases --------------------------------------------------------


class KnownCase(NamedTuple):
    """A documented merge with published parameter values and the result
    recorded alongside them."""

    case: str
    dim: int
    params: IncrementalParams
    recorded: int


KNOWN_CASES: tuple[KnownCase, ...] = (
    KnownCase("A", 1, IncrementalParams(1, 1, 0, 0, 0, 1, 1, 0, 0), 1),
    KnownCase("A", 2, IncrementalParams(2, 0, 0, 0, 0, 2, 1, 0, 1), 0),
    KnownCase("B", 1, IncrementalParams(1, 1, 0, 2, 1, 0, 1, 1, 0), 1),
    KnownCase("B", 2, IncrementalParams(2, 0, 0, 0, 0, 0, 0, 0, 1), 1),
    KnownCase("C", 1, IncrementalParams(1, 1, 0, 2, 0, 0, 0, 2, 0), 1),
    KnownCase("C", 2, IncrementalParams(2, 0, 0, 0, 2, 0, 0, 2, 1), 1),
)


def known_case_findings() -> list[dict]:
    """Substitute every recorded case into the verbatim formulas.

    Where the printed arithmetic does not reproduce the recorded value
    the finding is flagged; nothing is corrected.
    """
    out = []
    for kc in KNOWN_CASES:
        value = formula_beta1(kc.params) if kc.dim == 1 else formula_beta2(kc.params)
        out.append(
            {
                "case": kc.case,
                "dim": kc.dim,
                "params": kc.params._asdict(),
                "formula": value,
                "recorded": kc.recorded,
                "agrees": value == kc.recorded,
                "flagged": value != kc.recorded,
            }
        )
    return out


# -- fuzzing -------------------------------------------------------------------------
# hashlib, csv and random are imported where fuzz output needs them, so that
# importing the CLI, which every command pays for, does not load them.


def _digest(g: dict, h: dict) -> str:
    import hashlib

    blob = json.dumps([g, h], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fuzz_records(count: int, seed: int, policy: str = CANONICAL) -> Iterator[dict]:
    """Random merge pairs -> one JSON-able record each (formula vs oracle)."""
    import random

    from .randgen import random_multigraph

    rng = random.Random(seed)
    palette = ("red", "black", "blue")
    for _ in range(count):
        g = random_multigraph(rng, max_nodes=7, max_mult=3, palette=palette)
        h = random_multigraph(rng, max_nodes=7, max_mult=3, palette=palette)
        report = validate(g, h, policy)
        g_dict, h_dict = g.to_json_dict(), h.to_json_dict()
        yield {
            "digest": _digest(g_dict, h_dict),
            "g": g_dict,
            "h": h_dict,
            **report.to_json_dict(),
        }


def summarize_records(records: Iterable[dict]) -> list[dict]:
    """Agreement-rate summary rows (one per dimension), CSV-friendly."""
    totals = {"beta1": [0, 0], "beta2": [0, 0]}
    for rec in records:
        for key in ("beta1", "beta2"):
            totals[key][1] += 1
            if rec["agrees"][key]:
                totals[key][0] += 1
    rows = []
    for key, (agree, total) in totals.items():
        rows.append(
            {
                "dimension": key,
                "agree": agree,
                "total": total,
                "rate": round(agree / total, 4) if total else 0.0,
            }
        )
    return rows


def summary_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["dimension", "agree", "total", "rate"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
