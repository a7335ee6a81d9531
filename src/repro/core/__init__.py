"""The paper's contribution: shift-minimizing data placement for DWM."""

from repro.core.allocation import (
    AllocationResult,
    AllocationSimulation,
    DataObject,
    allocate,
    partition_objects,
    simulate_allocation,
)
from repro.core.api import (
    ALGORITHMS,
    build_problem,
    compare_methods,
    optimize_placement,
)
from repro.core.baselines import (
    declaration_order_placement,
    frequency_placement,
    random_placement,
    random_placement_mean_shifts,
)
from repro.core.community import (
    affinity_to_networkx,
    community_groups,
    community_placement,
)
from repro.core.cost import (
    evaluate_placement,
    linear_arrangement_cost,
    per_dbc_costs,
    shift_lower_bound,
    single_dbc_lower_bound,
)
from repro.core.exact_partition import (
    exact_partitioned_placement,
    partition_minimum,
)
from repro.core.fast_eval import (
    evaluate_placement_fast,
    evaluate_placements_fast,
)
from repro.core.incremental import CostEvaluator
from repro.core.exact import (
    exact_single_dbc_placement,
    exhaustive_placement,
    exhaustive_search_is_exact,
    minla_exact_order,
    minla_optimal_cost,
)
from repro.core.grouping import (
    greedy_min_affinity_grouping,
    intra_group_affinity,
    refine_grouping,
)
from repro.core.heuristic import (
    chain_and_cut_groups,
    declaration_block_groups,
    grouping_only_placement,
    heuristic_placement,
    hot_spread_groups,
    ordering_only_placement,
)
from repro.core.local_search import (
    simulated_annealing,
    swap_refinement,
    two_opt_refinement,
)
from repro.core.ordering import (
    anchored_offsets,
    greedy_chain_order,
    order_groups,
    restricted_affinity,
    weighted_median_index,
)
from repro.core.ilp import (
    ILPModel,
    build_minla_ilp,
    solve_by_enumeration,
    verify_formulation,
)
from repro.core.online import (
    OnlinePlacer,
    OnlineResult,
    compare_static_vs_online,
)
from repro.core.placement import Placement, Slot
from repro.core.reordering import ReorderingResult, reorder_accesses
from repro.core.problem import PlacementProblem, PlacementResult
from repro.core.spectral import fiedler_order, spectral_placement

__all__ = [
    "ALGORITHMS",
    "AllocationResult",
    "AllocationSimulation",
    "DataObject",
    "ILPModel",
    "OnlinePlacer",
    "build_minla_ilp",
    "solve_by_enumeration",
    "verify_formulation",
    "OnlineResult",
    "Placement",
    "ReorderingResult",
    "allocate",
    "reorder_accesses",
    "compare_static_vs_online",
    "partition_objects",
    "simulate_allocation",
    "PlacementProblem",
    "PlacementResult",
    "Slot",
    "anchored_offsets",
    "affinity_to_networkx",
    "build_problem",
    "chain_and_cut_groups",
    "community_groups",
    "community_placement",
    "compare_methods",
    "declaration_block_groups",
    "hot_spread_groups",
    "CostEvaluator",
    "declaration_order_placement",
    "evaluate_placement",
    "evaluate_placement_fast",
    "evaluate_placements_fast",
    "shift_lower_bound",
    "exact_partitioned_placement",
    "exact_single_dbc_placement",
    "exhaustive_placement",
    "exhaustive_search_is_exact",
    "partition_minimum",
    "fiedler_order",
    "frequency_placement",
    "greedy_chain_order",
    "greedy_min_affinity_grouping",
    "grouping_only_placement",
    "heuristic_placement",
    "intra_group_affinity",
    "linear_arrangement_cost",
    "minla_exact_order",
    "minla_optimal_cost",
    "optimize_placement",
    "order_groups",
    "ordering_only_placement",
    "per_dbc_costs",
    "random_placement",
    "random_placement_mean_shifts",
    "refine_grouping",
    "restricted_affinity",
    "simulated_annealing",
    "single_dbc_lower_bound",
    "spectral_placement",
    "swap_refinement",
    "two_opt_refinement",
    "weighted_median_index",
]
