"""Incremental Betti accounting for merges, and closed-form hypotheses.

``incremental_step`` is the one-cell update rule: a new d-cell either
closes a d-cycle (beta_d += 1) or caps one below (beta_{d-1} -= 1).
Replaying every cell of a complex through it, with the closes-cycle
question answered by a GF(2) rank oracle, lands exactly on the direct
Betti vector.  The merge parameters classify cells the same way, per
dimension and side, but as rank differences, so no cell order enters:
the merged complex's full ranks come off its Betti vector, and only
each side's base cells are reduced.  K_{g.h} is the one complex built
here: each operand's Betti numbers come from ``clique_betti``, which
builds no cell, and its parallel copies from its pair multiplicities or
the clique counts of ``clique_cells``.

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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NegativeBetti
from .homology import BettiVector, Gf2Basis, betti, boundary_matrix, clique_betti
from .mcomplex import CANONICAL, Multicomplex, clique_cells, clique_multicomplex
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


def _columns(x: Multicomplex, d: int) -> tuple[int, ...]:
    """Boundary columns of the d-cells; 0-cells have the zero column."""
    return boundary_matrix(x, d).columns if d >= 1 else (0,) * x.cell_count(0)


def replay_betti(x: Multicomplex) -> BettiVector:
    """Add every cell in canonical order through incremental_step, with
    cycle classification by incremental GF(2) rank."""
    beta: BettiVector = ()
    for d in range(x.dimension + 1):
        basis = Gf2Basis()
        for col in _columns(x, d):
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


def _provenance(x: Multicomplex, g: Multigraph, h: Multigraph) -> list[list[str]]:
    """Each cell's tag, per dimension in row order: 'g' / 'h' for cells
    made purely of one operand's material, 'shared' for nodes both own,
    'new' for interaction-created mixed cells.  Above dimension 1 every
    pair of a cell lies in one of its faces, so the faces' tags decide."""
    tags = [
        [
            "shared" if v in g.nodes and v in h.nodes else "g" if v in g.nodes else "h"
            for (v,) in x.grade(0).vertices
        ],
        ["g" if copy <= g.multiplicity(p) else "h" for p, copy in x.grade(1).keys()],
    ]
    for grade in x.grades[2:]:
        below = tags[-1]
        tags.append(
            [
                sides.pop() if len(sides) == 1 else "new"
                for sides in ({below[r] for r in rows} for rows in grade.face_rows())
            ]
        )
    return tags


def extract_params(
    g: Multigraph, h: Multigraph, d: int, policy: str = CANONICAL
) -> IncrementalParams:
    """Derive the conjecture's inputs as a rank ledger of K_{g.h}.

    The source never defines how to count these from data, so the rules
    here are a deterministic reading: n/p classify the d-cells arriving
    from g's side (g's and the interaction-created ones) over a base of
    h's d-cells, and h's symmetrically; cl counts the interaction-created
    (d+1)-cells that cap a d-cycle over a base of every other (d+1)-cell;
    dup is the surplus of parallel copies created one dimension below d.

    An arriving d-cell caps a (d-1)-cycle exactly when it raises the rank,
    and closes a d-cycle otherwise, so the counts do not depend on the
    order of the cells, and each is a rank difference.  With r_d the rank of
    K_{g.h}'s d-th boundary: p_g = r_d - rank(h's d-columns), n_g = (the
    arriving d-cells) - p_g, and cl = r_{d+1} - rank(the (d+1)-columns not
    interaction-created).  This is the per-cell classification of
    Delfinado & Edelsbrunner's incremental algorithm (CAGD 1995).
    """
    if d < 1:
        raise ValueError(f"extraction is defined for d >= 1, got {d}")
    (params,), _ = _extract(g, h, policy, dims=(d,))
    return params


def _surplus(x: Multigraph, e: int, policy: str) -> int:
    """Parallel copies at dimension e of x's clique complex beyond one per
    vertex set: none at e = 0, the sum of (m - 1) over pairs at e = 1,
    and of (n - 1) over the e-cliques of n cells above that, counted off
    ``clique_cells``."""
    if e == 0:
        return 0
    if e == 1:
        return sum(m - 1 for m in x.multiplicities().values())
    _, cliques = clique_cells(x, policy, e)
    return sum(n - 1 for _, n in cliques.get(e, ()))


def _extract(
    g: Multigraph, h: Multigraph, policy: str, dims: Sequence[int]
) -> tuple[tuple[IncrementalParams, ...], BettiVector]:
    """``extract_params`` at each of ``dims``, and the Betti vector of
    K_{g.h}, the one complex built here: g's and h's Betti vectors are
    read off their graphs first, so a refusal still comes for g, then h,
    then the merge."""
    bg = clique_betti(g, policy)
    bh = clique_betti(h, policy)
    m = merge(g, h)
    km = clique_multicomplex(m, policy)
    beta_m = betti(km)
    tags = _provenance(km, g, h)
    tags += [[]] * (max(dims) + 2 - len(tags))  # no cells above km's dimension
    # the d-columns serve n/p at d and cl at d - 1
    columns = {e: _columns(km, e) for e in {e for d in dims for e in (d, d + 1)}}
    # r_e = rank of km's e-th boundary, off its Betti vector:
    # beta_e = c_e - r_e - r_{e+1}, with r_0 = 0 and r_e = 0 above km's dimension
    ranks = [0]
    for e in range(max(dims) + 1):
        ranks.append(km.cell_count(e) - beta_m[e] - ranks[e] if e < len(beta_m) else 0)

    def rank(e: int, sides: tuple[str, ...]) -> int:
        """Rank of the e-columns tagged with one of ``sides`` (above
        dimension 0 every cell is "g", "h" or "new")."""
        basis = Gf2Basis()
        for tag, col in zip(tags[e], columns[e]):
            if tag in sides:
                basis.add(col)
        return basis.rank

    out = []
    for d in dims:
        p_g = ranks[d] - rank(d, ("h",))
        p_h = ranks[d] - rank(d, ("g",))
        # the merge's parallel copies one dimension down, beyond g's and h's
        e = d - 1
        dup = _surplus(m, e, policy) - _surplus(g, e, policy) - _surplus(h, e, policy)
        out.append(
            IncrementalParams(
                dim=d,
                beta_g=bg[d] if d < len(bg) else 0,
                beta_h=bh[d] if d < len(bh) else 0,
                # each side's arrivals are its own d-cells and the new ones
                n_g=sum(t in ("g", "new") for t in tags[d]) - p_g,
                n_h=sum(t in ("h", "new") for t in tags[d]) - p_h,
                p_g=p_g,
                p_h=p_h,
                cl=ranks[d + 1] - rank(d + 1, ("g", "h")),
                dup=max(0, dup),
            )
        )
    return tuple(out), beta_m


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
    direct Betti numbers of the merged complex."""
    (p1, p2), oracle = _extract(g, h, policy, dims=(1, 2))
    return IncrementalReport(
        params_d1=p1,
        params_d2=p2,
        formula_beta1=formula_beta1(p1),
        formula_beta2=formula_beta2(p2),
        oracle_beta1=oracle[1] if len(oracle) > 1 else 0,
        oracle_beta2=oracle[2] if len(oracle) > 2 else 0,
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
