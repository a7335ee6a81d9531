"""Exact shift-cost scoring of candidate placements (numpy).

The pure-Python evaluator (:func:`repro.core.cost.evaluate_placement`) walks
the trace access by access — exact but interpreter-bound.  This module
scores placements with the vectorized simulation engine's scan instead
(:mod:`repro.memory.batch_sim`): the trace's canonical resolution
(:func:`~repro.memory.batch_sim.resolve_trace`, built at most once per
trace object and already paid for by :func:`repro.core.api.resolve_placement`)
is shared by every placement, and each placement costs one gather plus one
pass of the shared cost kernels per DBC — every port count and policy,
multi-port lazy included.

* :func:`evaluate_placements_fast` — many placements of one problem; used
  by the placement portfolio's candidate selection, the online placer and
  the access reorderer.
* :func:`evaluate_placement_fast` — the one-placement case.

Both agree exactly with the reference walk (``tests/test_fast_eval_ports.py``
and the fuzzer's :func:`repro.verify.oracles.check_engine_agreement`).
For *move*-structured workloads (local search) use
:class:`repro.core.incremental.CostEvaluator`, which scores deltas in
O(touched accesses) instead of re-evaluating at all.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def _scores(
    problem: PlacementProblem,
    placements: Sequence[Placement],
    validate: bool,
) -> list[int]:
    # Both entry points call this helper rather than each other, so a
    # wrapper installed around either (a tracing span) sees one call per
    # scoring request.
    from repro.memory.batch_sim import _scan, _slot_arrays, resolve_trace

    config = problem.config
    if validate:
        for placement in placements:
            placement.validate(config, problem.items)
    resolved = resolve_trace(problem.trace)
    return [
        _scan(resolved, config, *_slot_arrays(resolved.items, placement))[1]
        for placement in placements
    ]


def evaluate_placements_fast(
    problem: PlacementProblem,
    placements: Sequence[Placement],
    validate: bool = True,
) -> list[int]:
    """Exact shift counts of many placements of one problem.

    Semantically identical to calling
    :func:`repro.core.cost.evaluate_placement` on each placement.
    Placements may hold extra items the trace never touches; they cost
    nothing.
    """
    return _scores(problem, placements, validate)


def evaluate_placement_fast(
    problem: PlacementProblem,
    placement: Placement,
    validate: bool = True,
) -> int:
    """Exact total shift count of one placement (see
    :func:`evaluate_placements_fast`)."""
    return _scores(problem, (placement,), validate)[0]
