"""Heuristic and exact solvers for duo-preservation string mapping and its
graph generalization, with exact-rational analysis tooling."""

from .core import (
    DuoError,
    DuoGraph,
    Edge,
    EdgeNotInGraphError,
    EmptyInstanceError,
    IncompatibleEdgesError,
    InvariantError,
    LengthMismatchError,
    Matching,
    NotMaximalError,
    NotPermutationError,
    ParseError,
    StringInstance,
    compatible,
    parse_instance,
    partition_from_matching,
    singleton_partition,
)
from .exact import (
    BudgetExceededError,
    ExactResult,
    exact_max_matching,
    exact_max_value,
)
from .localsearch import (
    IterationCapError,
    SearchTrace,
    SolverConfig,
    TraceStep,
    greedy_maximal,
    improve_step,
    is_local_optimum,
    local_search,
)
from .analysis import (
    GUARANTEE_RHO1,
    GUARANTEE_RHO5,
    MAX_TOKEN_TOTAL,
    RatioReport,
    TokenProfile,
    TokenReport,
    check_full_token_uniqueness,
    check_heavy_singleton_parallel_support,
    check_parallel_pair_conflict_gap,
    check_parallel_token_bound,
    format_rational,
    ratio_report,
    token_profile,
    token_report,
)
from .instances import (
    GRAPH_GAP_CAPS,
    STRING_GAP_CAPS,
    ChecklistReport,
    GapInstance,
    GapSearchSpec,
    GeneratorSpec,
    InfeasibleSpecError,
    SearchBudgetError,
    SubsetBudgetError,
    gen_random_kduo,
    search_gap_instance,
    string_gap_fixture,
    swap_resistance_checklist,
)

__version__ = "0.1.0"
