"""The placement pipeline: groupings × layouts, scored as one portfolio.

Pipeline (see DESIGN.md §4):

1. **Affinity graph** — adjacency counts of consecutive accesses
   (:attr:`PlacementProblem.affinity`).
2. **Grouping** — candidate partitions of items over DBCs.  Because
   cross-DBC transitions are free but splitting a stream creates
   *second-order* adjacencies inside each DBC's restricted subsequence, no
   single grouping objective wins on every access pattern.  The pipeline
   therefore builds a small portfolio of candidate groupings, once per
   problem (:attr:`PlacementProblem.groupings`):

   * *interference-minimizing* — greedy + KL-refined partition minimizing the
     global affinity weight kept inside DBCs (wins on alternation-heavy
     patterns);
   * *chain-and-cut* — a global greedy affinity chain cut into balanced
     contiguous blocks (wins on streaming patterns, which it keeps intact);
   * *declaration blocks* — first-touch blocks of ``L`` (the safe fallback);
   * *hot-spread* — hottest items dealt round-robin so every DBC keeps a hot
     core at its port (wins on skewed, structure-free patterns).

3. **Layout** — per DBC, a *layout* proposes candidate offsets for the
   group and the cheapest on the group's restricted subsequence wins
   (:func:`repro.core.ordering.order_groups`).  The paper's layout is the
   MinLA-style chain anchored on a port (:func:`repro.core.ordering.paper_layout`);
   ShiftsReduce and generalized placement contribute their own layouts.
4. **Selection** — every (layout, grouping) placement is scored exactly
   by the batch scorer (:func:`repro.core.fast_eval.evaluate_placements_fast`,
   one shared trace resolution) and the first cheapest wins
   (:func:`portfolio_placement`; still linear time in the trace).
5. Optional **local refinement** (:mod:`repro.core.local_search`).

A placement method is a tuple of layouts: :func:`heuristic_placement` is
``(paper_layout,)``; ShiftsReduce and generalized placement list their own
layout first and the paper's second, so they never price above the
heuristic.  The ablation variants (:func:`grouping_only_placement`,
:func:`ordering_only_placement`) are single (grouping, layout) pairs that
isolate each phase's contribution for experiment E10.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.core.fast_eval import evaluate_placements_fast
from repro.core.grouping import greedy_min_affinity_grouping, refine_grouping
from repro.core.ordering import (
    Layout,
    first_touch_layout,
    greedy_chain_order,
    order_groups,
    paper_layout,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


class Groupings(NamedTuple):
    """The portfolio's candidate groupings, in candidate order."""

    interference: list[list[str]]
    chain_and_cut: list[list[str]]
    declaration: list[list[str]]
    hot_spread: list[list[str]]


def chain_and_cut_groups(problem: PlacementProblem) -> list[list[str]]:
    """Global affinity chain cut into balanced contiguous blocks.

    The chain keeps strongly-affine (e.g. streaming) items consecutive; the
    cut spreads it over all available DBCs so each block stays short and can
    be anchored near a port.  At most ``num_dbcs`` blocks result, because
    the problem guarantees ``n ≤ num_dbcs · L``.
    """
    config = problem.config
    num_groups = min(config.num_dbcs, problem.num_items)
    chain = greedy_chain_order(list(problem.items), problem.affinity)
    size = min(-(-len(chain) // num_groups), config.words_per_dbc)
    return [chain[start : start + size] for start in range(0, len(chain), size)]


def declaration_block_groups(problem: PlacementProblem) -> list[list[str]]:
    """First-touch order cut into blocks of ``L`` (declaration grouping)."""
    length = problem.config.words_per_dbc
    items = list(problem.items)
    return [items[start : start + length] for start in range(0, len(items), length)]


def hot_spread_groups(problem: PlacementProblem) -> list[list[str]]:
    """Hottest items dealt round-robin across DBCs (hot-spread grouping).

    Gives every DBC a hot core near its port; wins on popularity-skewed
    patterns with little pairwise structure (e.g. table lookups around a hot
    accumulator).
    """
    num_groups = min(problem.config.num_dbcs, problem.num_items)
    groups: list[list[str]] = [[] for _ in range(num_groups)]
    for index, item in enumerate(problem.hot_order):
        groups[index % num_groups].append(item)
    return groups


def candidate_groupings(problem: PlacementProblem) -> Groupings:
    """Build the four portfolio groupings (memoized as ``problem.groupings``)."""
    return Groupings(
        interference=refine_grouping(greedy_min_affinity_grouping(problem), problem),
        chain_and_cut=chain_and_cut_groups(problem),
        declaration=declaration_block_groups(problem),
        hot_spread=hot_spread_groups(problem),
    )


def portfolio_placement(
    problem: PlacementProblem, layouts: Sequence[Layout]
) -> Placement:
    """Cheapest placement over every (layout, grouping) pair.

    Candidates are listed layout-major (all groupings under the first
    layout, then under the second, ...) and the first cheapest wins, so a
    method's own layout wins cost ties against the paper's.  Groupings and
    each group's restricted trace are built once and shared by all layouts.
    """
    memo: dict = {}
    placements = [
        order_groups(problem, groups, layout, memo)
        for layout in layouts
        for groups in problem.groupings
    ]
    costs = evaluate_placements_fast(problem, placements, validate=False)
    return placements[costs.index(min(costs))]


def heuristic_placement(problem: PlacementProblem) -> Placement:
    """The paper's heuristic: the grouping portfolio under the paper layout."""
    return portfolio_placement(problem, (paper_layout,))


def grouping_only_placement(problem: PlacementProblem) -> Placement:
    """Ablation: affinity-aware grouping, but naive (first-touch) ordering.

    Groups are the heuristic's refined interference grouping; within each
    DBC items are laid out in first-touch order starting at offset 0 (no
    chain construction, no port anchoring).
    """
    return order_groups(problem, problem.groupings.interference, first_touch_layout)


def ordering_only_placement(problem: PlacementProblem) -> Placement:
    """Ablation: affinity-aware ordering, but naive (packed) grouping.

    Items fill DBCs in first-touch order blocks of ``L`` (as the declaration
    baseline would), then each block gets the paper layout.
    """
    return order_groups(problem, declaration_block_groups(problem))
