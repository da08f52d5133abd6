"""Incremental Betti accounting for merges, and closed-form hypotheses.

``incremental_step`` is the one-cell update rule: a new d-cell either
closes a d-cycle (beta_d += 1) or caps one below (beta_{d-1} -= 1).
Replaying every cell of a complex through it, with the closes-cycle
question answered by a GF(2) rank oracle, lands exactly on the direct
Betti vector; that replay is also how merge parameters are extracted.

``formula_beta1``/``formula_beta2`` are transcriptions of a closed-form
conjecture for the Betti numbers of a merge.  They are implemented
exactly as stated and treated as hypotheses: ``validate`` reports formula
vs oracle without asserting agreement, and the bundled reference cases
(including the ones whose printed arithmetic does not reproduce the
recorded result) are emitted as flagged findings, never adjusted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import NegativeBetti
from .homology import BettiVector, Gf2Basis, betti, boundary_matrix
from .mcomplex import CANONICAL, Multicomplex, clique_multicomplex, duplications
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


@dataclass(frozen=True)
class IncrementalParams:
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


def _directional_counts(
    tags: Sequence[str],
    columns: Sequence[int],
    base: Callable[[str], bool],
) -> tuple[int, int]:
    """Feed base d-cells into a rank basis silently, then classify the
    rest in canonical order: (closing, non-closing)."""
    basis = Gf2Basis()
    arriving = []
    for tag, col in zip(tags, columns):
        if base(tag):
            basis.add(col)
        else:
            arriving.append(col)
    n = p = 0
    for col in arriving:
        if basis.add(col):
            p += 1
        else:
            n += 1
    return n, p


def extract_params(
    g: Multigraph, h: Multigraph, d: int, policy: str = CANONICAL
) -> IncrementalParams:
    """Derive the conjecture's inputs by canonical-order replay.

    The source never defines how to count these from data, so the rules
    here are a deterministic reading: n/p classify each side's arriving
    d-cells against the other operand's complex (g's material added onto
    K_h and vice versa); cl counts interaction-created (d+1)-cells that
    cap a d-cycle when the new cells are replayed over the union; dup is
    the surplus of parallel copies created one dimension below d.
    """
    if d < 1:
        raise ValueError(f"extraction is defined for d >= 1, got {d}")
    kg, kh, km = (clique_multicomplex(x, policy) for x in (g, h, merge(g, h)))
    (params,) = _extract(g, h, kg, kh, km, dims=(d,))
    return params


def _extract(
    g: Multigraph,
    h: Multigraph,
    kg: Multicomplex,
    kh: Multicomplex,
    km: Multicomplex,
    dims: Sequence[int],
) -> tuple[IncrementalParams, ...]:
    """``extract_params`` at each of ``dims`` over complexes built once."""
    tags = _provenance(km, g, h)
    tags += [[]] * (max(dims) + 2 - len(tags))  # no cells above km's dimension
    # the d-columns serve n/p at d and cl at d - 1
    columns = {e: _columns(km, e) for d in dims for e in (d, d + 1)}
    bg = betti(kg)
    bh = betti(kh)
    out = []
    for d in dims:
        n_g, p_g = _directional_counts(
            tags[d], columns[d], base=lambda t: t in ("h", "shared")
        )
        n_h, p_h = _directional_counts(
            tags[d], columns[d], base=lambda t: t in ("g", "shared")
        )

        # cl: replay only the interaction-created (d+1)-cells over the union
        _, cl = _directional_counts(
            tags[d + 1], columns[d + 1], base=lambda t: t != "new"
        )

        dup = 0
        if d - 1 >= 1:
            dup = max(
                0,
                duplications(km, d - 1)
                - duplications(kg, d - 1)
                - duplications(kh, d - 1),
            )

        out.append(
            IncrementalParams(
                dim=d,
                beta_g=bg[d] if d < len(bg) else 0,
                beta_h=bh[d] if d < len(bh) else 0,
                n_g=n_g,
                n_h=n_h,
                p_g=p_g,
                p_h=p_h,
                cl=cl,
                dup=dup,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class IncrementalReport:
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
            "params": {"d1": asdict(self.params_d1), "d2": asdict(self.params_d2)},
            "formula": {"beta1": self.formula_beta1, "beta2": self.formula_beta2},
            "oracle": {"beta1": self.oracle_beta1, "beta2": self.oracle_beta2},
            "agrees": {"beta1": self.agrees_beta1, "beta2": self.agrees_beta2},
        }


def validate(g: Multigraph, h: Multigraph, policy: str = CANONICAL) -> IncrementalReport:
    """Extract parameters, apply the formulas, and compare against the
    direct Betti numbers of the merged complex."""
    kg, kh, km = (clique_multicomplex(x, policy) for x in (g, h, merge(g, h)))
    p1, p2 = _extract(g, h, kg, kh, km, dims=(1, 2))
    oracle = betti(km)
    return IncrementalReport(
        params_d1=p1,
        params_d2=p2,
        formula_beta1=formula_beta1(p1),
        formula_beta2=formula_beta2(p2),
        oracle_beta1=oracle[1] if len(oracle) > 1 else 0,
        oracle_beta2=oracle[2] if len(oracle) > 2 else 0,
    )


# -- recorded reference cases --------------------------------------------------------


@dataclass(frozen=True)
class KnownCase:
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
                "params": asdict(kc.params),
                "formula": value,
                "recorded": kc.recorded,
                "agrees": value == kc.recorded,
                "flagged": value != kc.recorded,
            }
        )
    return out


# -- fuzzing -------------------------------------------------------------------------


def _digest(g: Multigraph, h: Multigraph) -> str:
    blob = json.dumps([g.to_json_dict(), h.to_json_dict()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fuzz_records(
    count: int,
    seed: int,
    policy: str = CANONICAL,
    max_nodes: int = 7,
    max_mult: int = 3,
) -> Iterator[dict]:
    """Random merge pairs -> one JSON-able record each (formula vs oracle)."""
    from .randgen import random_multigraph

    rng = random.Random(seed)
    palette = ("red", "black", "blue")
    for _ in range(count):
        g = random_multigraph(rng, max_nodes=max_nodes, max_mult=max_mult, palette=palette)
        h = random_multigraph(rng, max_nodes=max_nodes, max_mult=max_mult, palette=palette)
        report = validate(g, h, policy)
        yield {
            "digest": _digest(g, h),
            "g": g.to_json_dict(),
            "h": h.to_json_dict(),
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["dimension", "agree", "total", "rate"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
