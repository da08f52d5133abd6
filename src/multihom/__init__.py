"""Edge-coloured multigraph merges, clique multicomplexes, and GF(2)
Betti numbers along interaction filtrations."""

from .chainlat import (
    UNDEFINED,
    ChainEnv,
    ChainExpr,
    Connective,
    all_chains,
    apply_f,
    bottom_chain,
    check_laws,
    complement,
    evaluate,
    join,
    leq,
    meet,
    merge_count,
    minimal_chains,
    plus,
    top_chain,
)
from .chainparse import parse_chain
from .errors import (
    CellBudgetExceeded,
    ChainBudgetExceeded,
    ChainSyntaxError,
    ComplexStructureError,
    GraphStructureError,
    IncomparableAtoms,
    IndexOutOfRange,
    LawViolation,
    MultihomError,
    NegativeBetti,
    PaletteMismatch,
    SelfLoopPresent,
    UnknownAtom,
    UnsupportedShape,
    WorkspaceError,
)
from .filtration import (
    FiltrationNode,
    FiltrationPoset,
    betti_trace,
    build_filtration,
    chain_betti,
    enumerate_chains,
    level_profile,
    trace_for_chains,
)
from .homology import (
    BoundaryMatrix,
    Gf2Basis,
    betti,
    betti_sum,
    boundary_matrix,
    boundary_squares_to_zero,
    coboundary_rows,
    euler_characteristic,
)
from .incremental import (
    KNOWN_CASES,
    IncrementalParams,
    IncrementalReport,
    extract_params,
    formula_beta1,
    formula_beta2,
    fuzz_records,
    incremental_step,
    known_case_findings,
    replay_betti,
    summarize_records,
    validate,
)
from .mcomplex import (
    CANONICAL,
    PER_COMBINATION,
    MAX_CELLS,
    POLICIES,
    Multicell,
    Multicomplex,
    cell_budget,
    cell_coloring,
    clique_multicomplex,
    complex_merge,
    duplications,
)
from .mgraph import (
    Color,
    EdgeCopy,
    Multigraph,
    Multilayer,
    NodeId,
    merge,
    tensor,
)
from .workspace import Workspace, load_workspace, parse_workspace

__version__ = "0.1.0"
