"""Vectorized batch simulation engine for DWM scratchpads.

The scalar engine (:meth:`ScratchpadMemory.simulate`) replays a trace one
access at a time through :class:`~repro.dwm.array.DWMArrayModel`, allocating
an ``AccessResult`` per access — exact, but interpreted Python all the way
down.  This module computes the identical result with numpy:

1. **Resolve once** (:class:`ResolvedTrace`): the trace is lowered to dense
   arrays — item index and read/write flag per access.  This is the only
   O(accesses) Python loop, and it is independent of config and placement,
   so it amortizes across every (config, placement) pair simulated against
   the same trace.
2. **Scan per run**: for a given placement the per-access (dbc, offset)
   sequences are gathers; accesses are grouped by DBC with a stable argsort
   (DBCs are independent, so each group replays in isolation); and each
   group's shift costs come from the shared kernels of
   :mod:`repro.core.incremental` — the rest-distance table
   (:func:`~repro.core.incremental.eager_cost_table`) for eager, and the
   one lazy dispatcher (:func:`~repro.core.incremental.lazy_access_costs`:
   position diffs for a single port, the port-state automaton for more).

Every path produces per-access integer cost vectors, so totals, per-DBC
totals and ``max_access_shifts`` are all bit-identical to the scalar engine
(differential-tested in ``tests/test_batch_sim.py``).

The same scan prices placement candidates
(:func:`repro.core.fast_eval.evaluate_placements_fast`), so the scorer
and the simulator share one array cost path.

Entry points: :func:`simulate_vectorized` for one run,
:class:`BatchSimulator` / :func:`batch_simulate` to amortize trace
resolution across many runs, and
``ScratchpadMemory.simulate(engine="vectorized")`` for drop-in use.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Sequence

from repro.core.incremental import eager_cost_table, lazy_access_costs
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.memory.result import SimulationResult
from repro.obs import get_registry
from repro.trace.model import AccessTrace


class ResolvedTrace:
    """A trace lowered to dense numpy arrays, reusable across runs.

    Resolution is config- and placement-independent: it only fixes the
    item-index and read/write flag of every access.  Build it once (or let
    :class:`BatchSimulator` do it) and every subsequent simulation of the
    same trace skips the per-access Python loop entirely.
    """

    def __init__(self, trace: AccessTrace) -> None:
        import numpy as np

        start = time.perf_counter()
        self.trace = trace
        self.items: tuple[str, ...] = trace.items
        index = {item: position for position, item in enumerate(self.items)}
        length = len(trace)
        self.item_at = np.fromiter(
            (index[access.item] for access in trace), np.int64, length
        )
        self.is_write = np.fromiter(
            (access.is_write for access in trace), np.bool_, length
        )
        writes = int(self.is_write.sum())
        self.writes = writes
        self.reads = length - writes
        self.resolve_seconds = time.perf_counter() - start
        registry = get_registry()
        registry.inc("sim.resolves")
        registry.observe("sim.resolve.seconds", self.resolve_seconds)

    @classmethod
    def from_arrays(cls, trace: AccessTrace, items, item_at, is_write):
        """Trusted constructor from prebuilt dense arrays.

        Used by the shared-memory attach path
        (:mod:`repro.memory.shm`), where the arrays already exist in a
        published segment and re-deriving them from the trace object
        would repeat the O(accesses) Python loop the segment exists to
        avoid.  The caller guarantees the arrays describe ``trace``.
        """
        resolved = cls.__new__(cls)
        resolved.trace = trace
        resolved.items = tuple(items)
        resolved.item_at = item_at
        resolved.is_write = is_write
        resolved.writes = int(is_write.sum())
        resolved.reads = int(item_at.size) - resolved.writes
        resolved.resolve_seconds = 0.0
        get_registry().inc("sim.resolves", mode="attached")
        return resolved


def seed_resolved(trace: AccessTrace, resolved: ResolvedTrace) -> None:
    """Register ``resolved`` as the canonical resolution of ``trace``.

    The resolution is cached on the trace object itself, so its lifetime
    exactly matches the trace's and every later :func:`resolve_trace`
    call — sweep cells, shared-memory handles, simulators — reuses the
    same arrays.  The cache is dropped on pickling (see
    ``AccessTrace.__getstate__``) so it never bloats task payloads.
    """
    trace._resolved = resolved


#: Serialises first-time resolution so concurrent requests against the same
#: trace object (the placement server's normal case) build the dense arrays
#: exactly once.  A single process-wide lock suffices: resolution is quick
#: relative to the scans it enables, and the fast path below never takes it.
_RESOLVE_LOCK = threading.Lock()


def resolve_trace(trace: AccessTrace) -> ResolvedTrace:
    """The canonical :class:`ResolvedTrace` of ``trace``.

    Resolves at most once per trace object: the result is cached on the
    trace (see :func:`seed_resolved`), so repeated sweep cells over the
    same trace skip the per-access Python loop entirely.  Thread-safe:
    two concurrent callers racing on an unresolved trace still produce
    (and share) a single resolution.
    """
    cached = getattr(trace, "_resolved", None)
    if cached is not None:
        return cached
    with _RESOLVE_LOCK:
        cached = getattr(trace, "_resolved", None)
        if cached is not None:
            return cached
        resolved = ResolvedTrace(trace)
        trace._resolved = resolved
        return resolved


def _slot_arrays(items: Sequence[str], placement: Placement):
    """Per-item (dbc, offset) lookup arrays for one placement.

    Only ``items`` are looked up, so a placement may hold extra items the
    trace never touches.
    """
    import numpy as np

    dbc_of = np.empty(len(items), dtype=np.int64)
    offset_of = np.empty(len(items), dtype=np.int64)
    for position, item in enumerate(items):
        slot = placement[item]
        dbc_of[position] = slot.dbc
        offset_of[position] = slot.offset
    return dbc_of, offset_of


def _dbc_groups(dbc_seq, offset_seq):
    """Yield ``(dbc, indices, offsets)`` for each DBC the stream touches.

    DBCs come in ascending order; ``indices`` are the group's positions
    in the stream and ``offsets`` its offsets in stream order (stable
    sort), so each group replays its DBC's head walk in isolation.
    """
    import numpy as np

    if dbc_seq.size == 0:
        return
    top = int(dbc_seq.max())
    # DBC indices are small, so a narrow key dtype lets numpy's stable sort
    # run as a radix sort (several times faster than timsort on int64).
    order = np.argsort(dbc_seq.astype(np.min_scalar_type(top)), kind="stable")
    sorted_offsets = offset_seq[order]
    bounds = np.searchsorted(dbc_seq[order], np.arange(top + 2)).tolist()
    for dbc in range(len(bounds) - 1):
        low, high = bounds[dbc], bounds[dbc + 1]
        if low < high:
            yield dbc, order[low:high], sorted_offsets[low:high]


def _scan(
    resolved: ResolvedTrace,
    config: DWMConfig,
    dbc_of,
    offset_of,
) -> tuple[list[int], int, int]:
    """Compute (per_dbc_shifts, total_shifts, max_access_shifts)."""
    import numpy as np

    per_dbc = [0] * config.num_dbcs
    max_access = 0
    if resolved.item_at.size == 0:
        return per_dbc, 0, 0
    dbc_seq = dbc_of[resolved.item_at]
    offset_seq = offset_of[resolved.item_at]
    if config.port_policy is PortPolicy.EAGER:
        # Stateless: every access costs twice its rest distance, so a table
        # gather gives per-access costs directly and per-DBC totals are an
        # integer scatter-add (exact, unlike float bincount weights).
        costs = eager_cost_table(config)[offset_seq]
        totals = np.zeros(config.num_dbcs, dtype=np.int64)
        np.add.at(totals, dbc_seq, costs)
        per_dbc = [int(value) for value in totals]
        return per_dbc, int(costs.sum()), int(costs.max())
    # Lazy: head state persists per DBC, so each DBC's group replays alone.
    for dbc, _indices, group in _dbc_groups(dbc_seq, offset_seq):
        costs = lazy_access_costs(group, config.port_offsets)
        per_dbc[dbc] = int(costs.sum())
        max_access = max(max_access, int(costs.max()))
    return per_dbc, sum(per_dbc), max_access


def per_access_costs(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    resolved: ResolvedTrace | None = None,
    validate: bool = True,
):
    """Per-access ``(dbc, shift-cost)`` streams in trace order.

    Returns two equal-length ``int64`` arrays: the DBC index and the shift
    cost of every access.  Costs are the same bit-identical quantities the
    engines sum (``costs.sum() == SimulationResult.shifts``), but kept
    per-access so downstream consumers — the fault injector in
    :mod:`repro.dwm.faults` foremost — can attribute events to individual
    accesses regardless of which engine produced the totals.
    """
    import numpy as np

    if resolved is None or resolved.trace is not trace:
        resolved = resolve_trace(trace)
    if validate:
        placement.validate(config, resolved.items)
    dbc_of, offset_of = _slot_arrays(resolved.items, placement)
    dbc_seq = dbc_of[resolved.item_at]
    offset_seq = offset_of[resolved.item_at]
    if config.port_policy is PortPolicy.EAGER:
        return dbc_seq, eager_cost_table(config)[offset_seq]
    costs = np.empty(dbc_seq.size, dtype=np.int64)
    for _dbc, indices, group in _dbc_groups(dbc_seq, offset_seq):
        # Scatter the group's costs back to trace order.
        costs[indices] = lazy_access_costs(group, config.port_offsets)
    return dbc_seq, costs


def simulate_vectorized(
    trace: AccessTrace,
    config: DWMConfig,
    placement: Placement,
    *,
    resolved: ResolvedTrace | None = None,
    validate: bool = True,
) -> SimulationResult:
    """Run ``trace`` through the vectorized engine.

    Bit-identical to ``ScratchpadMemory.simulate`` (scalar engine); see the
    module docstring.  Pass a prebuilt ``resolved`` (for the same trace) to
    skip trace resolution; ``validate=False`` skips placement validation
    when the caller has already checked coverage.

    ``details`` carries the perf counters ``resolve_seconds`` (0.0 when a
    prebuilt resolution was reused — the marginal cost of this call) and
    ``scan_seconds``.
    """
    if resolved is None or resolved.trace is not trace:
        resolved = resolve_trace(trace)
        resolve_seconds = resolved.resolve_seconds
    else:
        resolve_seconds = 0.0
    if validate:
        placement.validate(config, resolved.items)
    start = time.perf_counter()
    dbc_of, offset_of = _slot_arrays(resolved.items, placement)
    per_dbc, total, max_access = _scan(resolved, config, dbc_of, offset_of)
    scan_seconds = time.perf_counter() - start
    get_registry().observe("sim.scan.seconds", scan_seconds, engine="vectorized")
    return SimulationResult(
        trace_name=trace.name,
        config_description=config.describe(),
        shifts=total,
        reads=resolved.reads,
        writes=resolved.writes,
        per_dbc_shifts=tuple(per_dbc),
        max_access_shifts=max_access,
        details={
            "engine": "vectorized",
            "resolve_seconds": resolve_seconds,
            "scan_seconds": scan_seconds,
        },
    )


class BatchSimulator:
    """Simulate one trace against many (config, placement) pairs.

    Resolves the trace once at construction; each :meth:`simulate` call
    then costs only the vectorized scan.  This is the right tool for
    sweeps, design-space exploration, and optimizer loops that re-simulate
    the same trace under many candidate placements or geometries.
    """

    def __init__(self, trace: AccessTrace) -> None:
        self.trace = trace
        self.resolved = resolve_trace(trace)
        self._resolve_reported = False

    def access_costs(
        self,
        config: DWMConfig,
        placement: Placement,
        *,
        validate: bool = True,
    ):
        """Per-access (dbc, cost) streams, reusing the cached resolution."""
        return per_access_costs(
            self.trace,
            config,
            placement,
            resolved=self.resolved,
            validate=validate,
        )

    def simulate(
        self,
        config: DWMConfig,
        placement: Placement,
        *,
        validate: bool = True,
    ) -> SimulationResult:
        """Vectorized run of the resolved trace on one (config, placement)."""
        result = simulate_vectorized(
            self.trace,
            config,
            placement,
            resolved=self.resolved,
            validate=validate,
        )
        if not self._resolve_reported:
            # Attribute the one-off resolution cost to the first run so the
            # resolve-vs-scan split stays observable through the batch API.
            result.details["resolve_seconds"] = self.resolved.resolve_seconds
            self._resolve_reported = True
        return result


def batch_simulate(
    trace: AccessTrace,
    runs: Iterable[tuple[DWMConfig, Placement]] | Sequence[tuple[DWMConfig, Placement]],
) -> list[SimulationResult]:
    """Simulate ``trace`` under each (config, placement) pair, in order."""
    simulator = BatchSimulator(trace)
    return [simulator.simulate(config, placement) for config, placement in runs]
