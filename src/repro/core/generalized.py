"""Generalized port-aware placement (Khan et al., arXiv 1912.03507).

The generalized data placement work observes that the classic single-port
constructions stop being the right shape as soon as a DBC has several
access ports: the cheap offsets are no longer one contiguous window but a
*union of neighbourhoods around every port*, and a layout should split its
access chain across those neighbourhoods instead of anchoring the whole
chain at one port.  This module implements the port-count/position
parametric strategies:

* **port-proximity ranking** — offsets sorted by distance to their nearest
  port, hottest items on the cheapest offsets (the exact eager optimum by
  the rearrangement inequality, and a strong lazy generalization);
* **multi-port chain splitting** — the greedy affinity chain cut into one
  contiguous segment per port, each segment anchored so its access-weighted
  median sits on its port (:func:`multi_port_chain_offsets`); with one port
  this degrades exactly to the classic anchored chain;
* the single-port anchored chain itself, kept as a candidate so the
  generalization never loses to the specialization it extends.

Per group the cheapest strategy wins by exact evaluation of the restricted
subsequence (sound by the per-DBC cost decomposition).  Generalized
placement is the pipeline of ``repro.core.heuristic`` configured with the
layouts ``(generalized_layout, paper_layout)``: across every (layout,
grouping) candidate the cheapest full placement wins, and since the
paper's layout is in the portfolio ``generalized ≤ heuristic`` is a
structural guarantee.  All tie-breaks are total, so the construction is
byte-deterministic.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.heuristic import portfolio_placement
from repro.core.ordering import (
    anchored_offsets,
    greedy_chain_order,
    paper_layout,
    proximity_offsets,
    weighted_median_index,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace

__all__ = ["generalized_layout", "generalized_placement", "multi_port_chain_offsets"]


def multi_port_chain_offsets(
    order: Sequence[str],
    config: DWMConfig,
    frequencies: dict[str, int] | None = None,
) -> dict[str, int]:
    """Split ``order`` into one contiguous segment per port, port-anchored.

    The chain is cut into ``num_ports`` balanced contiguous segments
    (leading segments absorb the remainder) assigned to ports in ascending
    offset order.  Each segment is placed contiguously with its
    access-weighted median as close to its port as the already-placed
    prefix and the space the remaining segments need allow, so the result
    is always injective and in range.  With one port this reduces to
    :func:`repro.core.ordering.anchored_offsets`.
    """
    order = list(order)
    length = config.words_per_dbc
    if len(order) > length:
        raise OptimizationError(
            f"group of {len(order)} items exceeds DBC capacity {length}"
        )
    frequencies = frequencies or {}
    ports = config.port_offsets
    num_segments = min(len(ports), len(order)) or 1
    base, extra = divmod(len(order), num_segments)
    segments: list[list[str]] = []
    start = 0
    for index in range(num_segments):
        size = base + (1 if index < extra else 0)
        segments.append(order[start : start + size])
        start += size
    offsets: dict[str, int] = {}
    floor = 0
    remaining = len(order)
    for segment, port in zip(segments, ports):
        remaining -= len(segment)
        median = weighted_median_index(segment, frequencies)
        seg_start = port - median
        seg_start = max(floor, min(length - len(segment) - remaining, seg_start))
        for position, item in enumerate(segment):
            offsets[item] = seg_start + position
        floor = seg_start + len(segment)
    return offsets


def generalized_layout(
    problem: PlacementProblem,
    group: list[str],
    restricted: AccessTrace,
    affinity: dict[tuple[str, str], int],
) -> list[dict[str, int]]:
    """Port-aware candidates: split chains, proximity, anchored chain."""
    config, frequencies = problem.config, problem.frequencies
    chain = greedy_chain_order(group, affinity)
    return [
        multi_port_chain_offsets(chain, config, frequencies),
        multi_port_chain_offsets(chain[::-1], config, frequencies),
        proximity_offsets(group, config, frequencies),
        anchored_offsets(chain, config, frequencies),
    ]


def generalized_placement(problem: PlacementProblem) -> Placement:
    """Full generalized placement: grouping portfolio + port-aware layouts.

    The pipeline lays every grouping out with the port-parametric
    strategies and with the paper layout, making ``generalized ≤
    heuristic`` a structural guarantee on every instance (E21's acceptance
    gate).  Generalized candidates are listed first, so they win cost ties.
    """
    return portfolio_placement(problem, (generalized_layout, paper_layout))
