"""Incremental (delta) shift-cost evaluation — the optimizer hot path.

Every local-search optimizer scores candidate moves (swap two items, move an
item to a free slot, reverse a segment) against the exact trace cost.  The
reference evaluator (:func:`repro.core.cost.evaluate_placement`) re-walks the
*entire* trace per candidate — O(T) per move.  :class:`CostEvaluator`
exploits the per-DBC decomposition (docs/COST_MODEL.md §2) to score a move
as a **delta touching only the affected DBCs' access subsequences** —
O(T_affected) per move, exact for every port count and policy:

* **eager** (any port count) — each access costs ``2·min_p|offset−p|``
  independent of history, so an item's contribution is
  ``freq(item)·2·dist(offset)`` and a move is O(1) per moved item;
* **lazy** (any port count) — a DBC's cost is the lazy replay of its
  restricted subsequence (docs/COST_MODEL.md §2), re-priced for the
  touched DBCs only, never the full trace: by the compiled kernel's fused
  gather + walk when a backend is active, otherwise by the same
  :func:`lazy_access_costs` dispatcher every array engine uses
  (``|t₁| + Σ|Δt|`` for one port, the port-state automaton scans for more).

The module also holds the array cost kernels shared by the scorer
(:mod:`repro.core.fast_eval`) and the simulation engines
(:mod:`repro.memory.batch_sim`, :mod:`repro.memory.stream_sim`):
:func:`eager_cost_table`, :func:`lazy_access_costs` and
:func:`lazy_costs_from_state`.

The evaluator maintains the current assignment mutably with ``apply_*`` /
``undo`` (no :class:`Placement` dict rebuild per candidate) and materialises
a :class:`Placement` only on demand.  Differential tests assert that totals
and deltas agree exactly with the reference evaluator under every policy ×
port-count combination, including after arbitrary apply/undo sequences.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core import kernels
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import PortPolicy
from repro.errors import PlacementError

def eager_cost_table(config):
    """Per-offset eager access cost: twice the distance to the nearest port.

    Eager accesses are stateless round trips from the rest position, so
    this int64 table (indexed by offset) prices every eager access in
    every array engine.
    """
    import numpy as np

    ports = config.port_offsets
    return np.asarray(
        [
            2 * min(abs(offset - port) for port in ports)
            for offset in range(config.words_per_dbc)
        ],
        dtype=np.int64,
    )


def lazy_access_costs(offsets, ports):
    """Per-access shift costs of a lazy replay from the fresh head (any ``P``).

    The one dispatcher behind every array engine.  A single port needs no
    port choice, so the costs are ``|t₁|, |Δt|…`` over the targets
    ``offset − port`` (numpy ``diff``).  For ``P ≥ 2`` the compiled kernel
    backend (:func:`repro.core.kernels.compiled`) runs one fused walk when
    active; otherwise the numpy closed form
    (:func:`two_port_access_costs_numpy`) or the Hillis–Steele scan
    (:func:`multi_port_access_costs_numpy`) does.  ``offsets`` must be a
    non-empty int64 array.
    """
    import numpy as np

    if len(ports) == 1:
        port = int(ports[0])
        targets = offsets if port == 0 else offsets - port
        costs = np.empty(targets.size, dtype=np.int64)
        costs[0] = abs(int(targets[0]))
        if targets.size > 1:
            np.abs(np.diff(targets), out=costs[1:])
        return costs
    backend = kernels.compiled()
    if backend is not None:
        return backend.lazy_costs(offsets, np.asarray(ports, dtype=np.int64))
    if len(ports) == 2:
        return two_port_access_costs_numpy(offsets, ports)
    return multi_port_access_costs_numpy(offsets, ports)


def two_port_access_costs_numpy(offsets, ports):
    """Per-access shift costs of a lazy two-port replay (closed form).

    Vectorised over the whole offset sequence: with two ports every step's
    transition on the (previous-port) state is either a constant (both
    states pick the same port — the chain converges and forgets its history)
    or a permutation (identity or swap, i.e. an XOR by 0 or 1).  The state
    before step ``t`` is therefore the last convergence value before ``t``
    (or the initial state) XOR-ed with the parity of swaps in between — all
    prefix scans, no sequential walk.  Strict ``<`` comparisons keep the
    lower port on ties, matching :func:`repro.dwm.dbc.port_access_cost`.

    Returns an int64 array of the same length as ``offsets`` whose sum is
    the total lazy cost of the sequence.
    """
    import numpy as np

    port_a, port_b = ports
    head_a = offsets if port_a == 0 else offsets - port_a
    head_b = offsets - port_b
    out = np.empty(offsets.size, dtype=np.int64)
    first_a = abs(int(head_a[0]))
    first_b = abs(int(head_b[0]))
    state = first_b < first_a  # tie → lower port
    out[0] = first_b if state else first_a
    if offsets.size == 1:
        return out
    # Step t serves access t+1; cost_qp = |head_p[t+1] − head_q[t]|.
    cost_aa = np.abs(head_a[1:] - head_a[:-1])
    cost_ab = np.abs(head_b[1:] - head_a[:-1])
    cost_ba = np.abs(head_a[1:] - head_b[:-1])
    cost_bb = np.abs(head_b[1:] - head_b[:-1])
    pick_b0 = cost_ab < cost_aa  # next state given previous state 0
    pick_b1 = cost_bb < cost_ba  # next state given previous state 1
    min0 = np.where(pick_b0, cost_ab, cost_aa)
    min1 = np.where(pick_b1, cost_bb, cost_ba)
    const = pick_b0 == pick_b1
    swap_flag = pick_b0 & ~const
    inclusive = np.bitwise_xor.accumulate(swap_flag)
    prefix = np.empty_like(inclusive)
    prefix[0] = False
    prefix[1:] = inclusive[:-1]
    # vals[j] carries a const step's output back to prefix-XOR space so
    # that state_before[t] = vals[j] ^ prefix[t] for the last const j < t.
    vals = pick_b0 ^ inclusive
    steps = offsets.size - 1
    anchors = np.where(const, np.arange(steps), -1)
    np.maximum.accumulate(anchors, out=anchors)
    last_const = np.empty_like(anchors)
    last_const[0] = -1
    last_const[1:] = anchors[:-1]
    base = np.where(last_const >= 0, vals[np.maximum(last_const, 0)], state)
    states = base ^ prefix
    out[1:] = np.where(states, min1, min0)
    return out


def multi_port_access_costs_numpy(offsets, ports):
    """Per-access shift costs of a lazy multi-port replay (``P ≥ 2``).

    After any access the head equals ``offset − p`` for exactly one port
    ``p``, so the walk is a deterministic automaton over ``P`` states.  The
    per-step (cost, next-state) tables over all P previous states are built
    vectorised, then the *prefix* state sequence is recovered with a
    Hillis–Steele scan of transition-function composition — O(k·P·log k)
    numpy work instead of an O(k·P) interpreted walk.  Greedy tie-breaks
    resolve to the lowest port (argmin-first), matching the reference
    evaluator exactly.

    Returns the full per-access cost vector, which the vectorized
    simulation engine needs for ``max_access_shifts`` and per-DBC
    attribution.
    """
    import numpy as np

    ports_arr = np.asarray(ports, dtype=np.int64)
    num_ports = ports_arr.size
    out = np.empty(offsets.size, dtype=np.int64)
    first_costs = np.abs(int(offsets[0]) - ports_arr)
    state = int(first_costs.argmin())
    out[0] = int(first_costs[state])
    if offsets.size == 1:
        return out
    targets = offsets[:, None] - ports_arr[None, :]  # (k, P) head candidates
    prev = targets[:-1]
    cur = targets[1:]
    # costs[t, q] / nexts[t, q]: cheapest port for access t+1 given the
    # previous access used port q; strict ``<`` keeps the lowest port on
    # ties, matching the reference evaluator.
    costs = np.abs(cur[:, 0, None] - prev)
    nexts = np.zeros_like(costs)
    for port_index in range(1, num_ports):
        candidate = np.abs(cur[:, port_index, None] - prev)
        better = candidate < costs
        costs = np.where(better, candidate, costs)
        nexts = np.where(better, port_index, nexts)
    # Hillis–Steele prefix composition: after the scan, comp[t][q] is the
    # state after steps 0..t given initial state q.
    comp = nexts
    steps = comp.shape[0]
    distance = 1
    while distance < steps:
        comp = np.concatenate(
            [
                comp[:distance],
                np.take_along_axis(comp[distance:], comp[:-distance], axis=1),
            ]
        )
        distance *= 2
    states = np.empty(steps, dtype=np.int64)
    states[0] = state
    states[1:] = comp[:-1, state]
    out[1:] = costs[np.arange(steps), states]
    return out


def lazy_costs_from_state(offsets, ports, head0):
    """Per-access lazy costs of a replay that starts with the head at
    ``head0`` instead of the fresh position 0.

    This is the boundary-state primitive of the streaming engine
    (:mod:`repro.memory.stream_sim`): a chunk's DBC subsequence is priced
    exactly as if it continued the previous chunk's walk, without the
    kernels growing a ``head0`` parameter.  The trick is pure arithmetic
    on the access sequence (docs/STREAMING.md §3):

    * **prepend** a synthetic access ``head0 + max(ports)`` (or
      ``head0 + min(ports)`` when ``head0 < 0``) — the greedy argmin
      provably serves it through that extreme port, leaving the head at
      exactly ``head0``; its cost is dropped;
    * **append** a probe access larger than every other target — the
      argmin provably serves it through ``max(ports)``, so the head the
      walk ended on is ``probe − max(ports) − cost(probe)``.

    Both paddings resolve their port strictly (no ties), so the result is
    bit-identical under every backend (numba / cc / numpy): they all
    compute the same forward-causal integer recurrence.

    ``ports`` must be ascending (as :class:`~repro.dwm.config.DWMConfig`
    normalises them).  Returns ``(costs, head_out)`` where ``costs`` has
    one entry per offset and ``head_out`` is the head position after the
    last access (``head0`` itself for an empty sequence).
    """
    import numpy as np

    offsets = np.asarray(offsets, dtype=np.int64)
    head0 = int(head0)
    if offsets.size == 0:
        return np.empty(0, dtype=np.int64), head0
    if len(ports) == 1:
        # No port choice: only the first access sees the starting head.
        port = int(ports[0])
        costs = lazy_access_costs(offsets, ports)
        costs[0] = abs(int(offsets[0]) - port - head0)
        return costs, int(offsets[-1]) - port
    min_port = int(ports[0])
    max_port = int(ports[-1])
    anchor = head0 + (max_port if head0 >= 0 else min_port)
    probe = max(int(offsets.max()), head0, anchor) + max_port + 1
    padded = np.empty(offsets.size + 2, dtype=np.int64)
    padded[0] = anchor
    padded[1:-1] = offsets
    padded[-1] = probe
    full = lazy_access_costs(padded, ports)
    head_out = probe - max_port - int(full[-1])
    return full[1:-1].copy(), head_out


class CostEvaluator:
    """Exact incremental cost evaluation of moves on one placement.

    Parameters
    ----------
    problem:
        The placement problem (trace + geometry).  The trace's canonical
        resolution (:func:`repro.memory.batch_sim.resolve_trace`) is split
        once into per-item access-position arrays.
    placement:
        Starting placement.  Items of the placement that the problem's trace
        never touches are tracked for occupancy (they block slots) but
        contribute zero cost, mirroring the reference evaluator.
    validate:
        Validate the placement against the geometry first (default True).
    """

    def __init__(
        self,
        problem: PlacementProblem,
        placement: Placement,
        validate: bool = True,
    ) -> None:
        import numpy as np

        from repro.memory.batch_sim import resolve_trace

        self._np = np
        self._problem = problem
        config = problem.config
        self._config = config
        self._ports: tuple[int, ...] = config.port_offsets
        self._ports_np = np.asarray(config.port_offsets, dtype=np.int64)
        self._eager = config.port_policy is PortPolicy.EAGER
        #: compiled lazy-walk kernels (None → numpy fallback).
        self._kernel = None if self._eager else kernels.compiled()
        if validate:
            placement.validate(config, problem.items)

        items = problem.items
        self._items = items
        self._index = problem.item_index
        n = len(items)
        item_at = resolve_trace(problem.trace).item_at
        self._item_at = item_at
        order = np.argsort(item_at, kind="stable")
        boundaries = np.searchsorted(item_at[order], np.arange(n + 1))
        #: trace positions of each item's accesses, ascending.
        self._positions: list = [
            order[boundaries[i] : boundaries[i + 1]] for i in range(n)
        ]
        self._freq = [int(boundaries[i + 1] - boundaries[i]) for i in range(n)]

        # Current assignment (dense per-item arrays; _offset_np mirrors
        # _offset for vectorised gathers).
        self._dbc: list[int] = [0] * n
        self._offset: list[int] = [0] * n
        self._offset_np = np.zeros(n, dtype=np.int64)
        self._members: dict[int, set[int]] = {}
        for i, item in enumerate(items):
            slot = placement[item]
            self._dbc[i] = slot.dbc
            self._offset[i] = slot.offset
            self._offset_np[i] = slot.offset
            self._members.setdefault(slot.dbc, set()).add(i)
        #: placement entries outside the trace: occupancy only, zero cost.
        self._extra: dict[str, tuple[int, int]] = {
            item: (slot.dbc, slot.offset)
            for item, slot in placement.items()
            if item not in self._index
        }
        self._occupied: set[tuple[int, int]] = {
            (self._dbc[i], self._offset[i]) for i in range(n)
        }
        self._occupied.update(self._extra.values())

        self._eager_dist: list[int] = eager_cost_table(config).tolist()
        self._item_cost: list[int] = [0] * n
        self._dbc_cost: dict[int, int] = {}
        self._dbc_positions: dict[int, object] = {}
        self._undo: list = []
        self._probe: tuple | None = None
        #: instrumentation: number of delta computations performed.
        self.delta_evaluations = 0
        #: instrumentation: number of applied (committed) moves.
        self.applied_moves = 0

        if self._eager:
            total = 0
            for i in range(n):
                cost = self._freq[i] * self._eager_dist[self._offset[i]]
                self._item_cost[i] = cost
                total += cost
            self._total = total
        else:
            total = 0
            for dbc, members in self._members.items():
                positions = self._merged_positions(members)
                self._dbc_positions[dbc] = positions
                cost = self._lazy_dbc_cost(positions)
                self._dbc_cost[dbc] = cost
                total += cost
            self._total = total

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Current exact total shift count."""
        return self._total

    def slot_of(self, item: str) -> Slot:
        """Current slot of ``item``."""
        if item in self._extra:
            return Slot(*self._extra[item])
        i = self._index.get(item)
        if i is None:
            raise PlacementError(f"item {item!r} has no placement")
        return Slot(self._dbc[i], self._offset[i])

    def placement(self) -> Placement:
        """Materialise the current assignment as a :class:`Placement`."""
        mapping: dict[str, Slot] = {
            item: Slot(self._dbc[i], self._offset[i])
            for i, item in enumerate(self._items)
        }
        for item, slot in self._extra.items():
            mapping[item] = Slot(*slot)
        return Placement(mapping)

    def dbcs_used(self) -> list[int]:
        """Sorted DBC indices holding at least one item (incl. extras)."""
        used = {dbc for dbc, members in self._members.items() if members}
        used.update(dbc for dbc, _ in self._extra.values())
        return sorted(used)

    def dbc_contents(self, dbc: int) -> dict[int, str]:
        """``{offset: item}`` for one DBC (incl. extras)."""
        contents = {
            self._offset[i]: self._items[i]
            for i in self._members.get(dbc, ())
        }
        for item, (extra_dbc, offset) in self._extra.items():
            if extra_dbc == dbc:
                contents[offset] = item
        return contents

    def free_slots(self) -> list[Slot]:
        """Unoccupied slots on used DBCs, in (DBC, offset) order.

        Matches the enumeration the local-search refiners historically used,
        so seeded runs stay reproducible.
        """
        occupied = self._occupied
        free: list[Slot] = []
        for dbc in self.dbcs_used():
            for offset in range(self._config.words_per_dbc):
                if (dbc, offset) not in occupied:
                    free.append(Slot(dbc, offset))
        return free

    # ------------------------------------------------------------------
    # Per-DBC machinery
    # ------------------------------------------------------------------
    def _merged_positions(self, members: Iterable[int]):
        """Ascending trace positions of all accesses to ``members``."""
        np = self._np
        arrays = [self._positions[i] for i in members]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        merged = np.concatenate(arrays)
        merged.sort()
        return merged

    def _lazy_dbc_cost(self, positions) -> int:
        """Exact lazy-policy cost of one DBC's restricted subsequence."""
        if positions.size == 0:
            return 0
        if self._kernel is not None:
            # Fused gather + walk in native code: no intermediate arrays,
            # one call for every port count.
            return self._kernel.lazy_chain_cost(
                positions, self._item_at, self._offset_np, self._ports_np
            )
        offsets = self._offset_np[self._item_at[positions]]
        return int(lazy_access_costs(offsets, self._ports).sum())

    def _positions_of_dbc(self, dbc: int):
        cached = self._dbc_positions.get(dbc)
        if cached is None:
            cached = self._merged_positions(self._members.get(dbc, ()))
            self._dbc_positions[dbc] = cached
        return cached

    # ------------------------------------------------------------------
    # Delta computation
    # ------------------------------------------------------------------
    def _compute(self, changes: Mapping[int, tuple[int, int]]):
        """(delta, commit-info) for moving each item index to a new slot."""
        self.delta_evaluations += 1
        if self._eager:
            delta = 0
            new_item_costs: dict[int, int] = {}
            for i, (_dbc, offset) in changes.items():
                cost = self._freq[i] * self._eager_dist[offset]
                new_item_costs[i] = cost
                delta += cost - self._item_cost[i]
            return delta, new_item_costs
        affected: set[int] = set()
        for i, (dbc, _offset) in changes.items():
            affected.add(self._dbc[i])
            affected.add(dbc)
        # Temporarily poke the hypothetical offsets into the gather array.
        saved = [(i, int(self._offset_np[i])) for i in changes]
        for i, (_dbc, offset) in changes.items():
            self._offset_np[i] = offset
        new_costs: dict[int, tuple[int, object]] = {}
        delta = 0
        try:
            for dbc in affected:
                base = self._members.get(dbc, set())
                outgoing = {
                    i for i in changes
                    if self._dbc[i] == dbc and changes[i][0] != dbc
                }
                incoming = {
                    i for i in changes
                    if changes[i][0] == dbc and self._dbc[i] != dbc
                }
                if outgoing or incoming:
                    if self._kernel is not None:
                        # Walk (base \ outgoing) ∪ incoming merged on the
                        # fly — no concatenate/sort per probe.  The merged
                        # positions are only materialised if the move is
                        # actually committed (see ``_apply``).
                        cost = self._kernel.lazy_merge_cost(
                            self._positions_of_dbc(dbc),
                            self._merged_positions(outgoing),
                            self._merged_positions(incoming),
                            self._item_at,
                            self._offset_np,
                            self._ports_np,
                        )
                        payload: object = frozenset(
                            (base - outgoing) | incoming
                        )
                    else:
                        positions = self._merged_positions(
                            (base - outgoing) | incoming
                        )
                        cost = self._lazy_dbc_cost(positions)
                        payload = positions
                else:
                    cost = self._lazy_dbc_cost(self._positions_of_dbc(dbc))
                    payload = None
                new_costs[dbc] = (cost, payload)
                delta += cost - self._dbc_cost.get(dbc, 0)
        finally:
            for i, offset in saved:
                self._offset_np[i] = offset
        return delta, new_costs

    def _probe_delta(self, changes: dict[int, tuple[int, int]]) -> int:
        key = tuple(sorted(changes.items()))
        delta, info = self._compute(changes)
        self._probe = (key, delta, info)
        return delta

    def _changes_for_swap(self, item_a: str, item_b: str):
        try:
            a = self._index[item_a]
            b = self._index[item_b]
        except KeyError as exc:
            raise PlacementError(
                f"item {exc.args[0]!r} is not part of the problem trace"
            ) from None
        return {
            a: (self._dbc[b], self._offset[b]),
            b: (self._dbc[a], self._offset[a]),
        }

    def _changes_for_move(self, item: str, slot: Slot | tuple[int, int]):
        slot = slot if isinstance(slot, Slot) else Slot(*slot)
        try:
            i = self._index[item]
        except KeyError:
            raise PlacementError(
                f"item {item!r} is not part of the problem trace"
            ) from None
        target = (slot.dbc, slot.offset)
        if target != (self._dbc[i], self._offset[i]) and target in self._occupied:
            raise PlacementError(
                f"slot {slot} is occupied; moves require a free slot"
            )
        return {i: target}

    def _changes_for_reversal(self, dbc: int, offsets: Sequence[int]):
        contents = self.dbc_contents(dbc)
        changes: dict[int, tuple[int, int]] = {}
        for source, target in zip(offsets, reversed(list(offsets))):
            if source not in contents:
                raise PlacementError(
                    f"offset {source} on DBC {dbc} holds no item"
                )
            item = contents[source]
            if item in self._extra:
                raise PlacementError(
                    f"cannot reverse over untraced item {item!r}"
                )
            changes[self._index[item]] = (dbc, target)
        return changes

    # ------------------------------------------------------------------
    # Public deltas (no state change)
    # ------------------------------------------------------------------
    def swap_delta(self, item_a: str, item_b: str) -> int:
        """Cost change if the two items' slots were exchanged."""
        return self._probe_delta(self._changes_for_swap(item_a, item_b))

    def move_delta(self, item: str, slot: Slot | tuple[int, int]) -> int:
        """Cost change if ``item`` moved to the (free) ``slot``."""
        return self._probe_delta(self._changes_for_move(item, slot))

    def reversal_delta(self, dbc: int, offsets: Sequence[int]) -> int:
        """Cost change if the occupied ``offsets`` of ``dbc`` were reversed.

        ``offsets`` lists occupied offsets in ascending order; the items at
        those offsets are re-laid in reverse (the 2-opt move).
        """
        return self._probe_delta(self._changes_for_reversal(dbc, offsets))

    # ------------------------------------------------------------------
    # Apply / undo
    # ------------------------------------------------------------------
    def _apply(self, changes: dict[int, tuple[int, int]]) -> int:
        key = tuple(sorted(changes.items()))
        if self._probe is not None and self._probe[0] == key:
            _key, delta, info = self._probe
        else:
            delta, info = self._compute(changes)
        self._probe = None
        record_slots = [
            (i, self._dbc[i], self._offset[i]) for i in changes
        ]
        if self._eager:
            record_costs = [(i, self._item_cost[i]) for i in changes]
            for i, cost in info.items():
                self._item_cost[i] = cost
            record = ("eager", record_slots, record_costs, delta)
        else:
            affected = list(info)
            record_costs = [
                (dbc, self._dbc_cost.get(dbc, 0), self._dbc_positions.get(dbc))
                for dbc in affected
            ]
            for dbc, (cost, payload) in info.items():
                self._dbc_cost[dbc] = cost
                if payload is None:
                    continue
                if isinstance(payload, frozenset):
                    # Compiled-kernel probes defer materialisation of the
                    # merged position array to commit time.
                    self._dbc_positions[dbc] = self._merged_positions(payload)
                else:
                    self._dbc_positions[dbc] = payload
            record = ("lazy", record_slots, record_costs, delta)
        self._reassign(changes.items())
        self._total += delta
        self._undo.append(record)
        self.applied_moves += 1
        return self._total

    def _reassign(self, assignments) -> None:
        """Commit new (dbc, offset) slots, keeping occupancy/members in sync."""
        assignments = list(assignments)
        for i, _slot in assignments:
            self._occupied.discard((self._dbc[i], self._offset[i]))
        for i, (dbc, offset) in assignments:
            old_dbc = self._dbc[i]
            if old_dbc != dbc:
                self._members[old_dbc].discard(i)
                self._members.setdefault(dbc, set()).add(i)
            self._dbc[i] = dbc
            self._offset[i] = offset
            self._offset_np[i] = offset
            self._occupied.add((dbc, offset))

    def apply_swap(self, item_a: str, item_b: str) -> int:
        """Exchange the two items' slots; returns the new total."""
        return self._apply(self._changes_for_swap(item_a, item_b))

    def apply_move(self, item: str, slot: Slot | tuple[int, int]) -> int:
        """Move ``item`` to the free ``slot``; returns the new total."""
        return self._apply(self._changes_for_move(item, slot))

    def apply_reversal(self, dbc: int, offsets: Sequence[int]) -> int:
        """Reverse the items at ``offsets`` on ``dbc``; returns the total."""
        return self._apply(self._changes_for_reversal(dbc, offsets))

    def undo(self) -> int:
        """Revert the most recent applied move; returns the restored total."""
        if not self._undo:
            raise PlacementError("nothing to undo")
        kind, record_slots, record_costs, delta = self._undo.pop()
        self._reassign((i, (dbc, offset)) for i, dbc, offset in record_slots)
        if kind == "eager":
            for i, cost in record_costs:
                self._item_cost[i] = cost
        else:
            for dbc, cost, positions in record_costs:
                self._dbc_cost[dbc] = cost
                if positions is None:
                    self._dbc_positions.pop(dbc, None)
                else:
                    self._dbc_positions[dbc] = positions
        self._total -= delta
        self._probe = None
        return self._total
