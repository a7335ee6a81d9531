"""Online (adaptive) data placement with migration accounting.

The paper's algorithm is *static*: it sees the whole trace up front.  Real
workloads shift phase, so a natural extension — flagged as future work in
this literature — is an online placer that periodically re-optimizes from
the recent access window and migrates data accordingly.  Migration is not
free on DWM: moving a word costs a read and a write plus the shifts both
accesses incur, and this module charges all of it.

:class:`OnlinePlacer` implements the policy; :func:`compare_static_vs_online`
runs the three-way comparison of experiment E13 (static-on-first-window vs
oracle static vs online) on phase-changing workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fast_eval import evaluate_placement_fast, evaluate_placements_fast
from repro.core.heuristic import heuristic_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.dwm.dbc import HeadModel
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an online-placement run."""

    access_shifts: int
    migration_shifts: int
    migrated_words: int
    replacements: int

    @property
    def total_shifts(self) -> int:
        """Shifts paid for accesses plus shifts paid to migrate data."""
        return self.access_shifts + self.migration_shifts


class OnlinePlacer:
    """Window-based adaptive placement.

    Every ``window`` accesses the placer re-optimizes using the just-finished
    window as its trace sample.  The new placement is adopted only if its
    *predicted* saving on that sample exceeds the migration bill
    (``hysteresis`` scales how much better it must be).
    """

    def __init__(
        self,
        config: DWMConfig,
        window: int = 512,
        hysteresis: float = 1.5,
        amortization_windows: int = 4,
    ) -> None:
        if window <= 0:
            raise OptimizationError(f"window must be positive, got {window}")
        if hysteresis < 1.0:
            raise OptimizationError("hysteresis must be >= 1.0")
        if amortization_windows < 1:
            raise OptimizationError("amortization_windows must be >= 1")
        self.config = config
        self.window = window
        self.hysteresis = hysteresis
        # A migration pays off over future windows, not just the one that
        # triggered it; the saving is amortized over this horizon.
        self.amortization_windows = amortization_windows

    # ------------------------------------------------------------------
    def _migration_bill(
        self,
        old: Placement,
        new: Placement,
        items,
        heads: dict[int, HeadModel],
    ) -> tuple[int, int]:
        """(shifts, words) to move every relocated item old→new slot.

        Each relocated word costs a read at its old slot and a write at the
        new one, using (and updating) the live head state of both DBCs.
        """
        shifts = 0
        moved = 0
        for item in items:
            src = old[item]
            dst = new[item]
            if src == dst:
                continue
            moved += 1
            shifts += heads[src.dbc].access(src.offset, is_write=False).shifts
            shifts += heads[dst.dbc].access(dst.offset, is_write=True).shifts
        return shifts, moved

    def run(self, trace: AccessTrace) -> OnlineResult:
        """Run the adaptive policy over the whole trace."""
        if len(trace) == 0:
            return OnlineResult(0, 0, 0, 0)
        first_window = trace.truncated(min(self.window, len(trace)))
        problem = PlacementProblem(trace=first_window, config=self.config)
        # The first placement must cover items that appear only later:
        # unknown items are appended in first-touch order to free slots.
        placement = _extend_placement(
            heuristic_placement(problem), trace, self.config
        )
        heads = {
            dbc: HeadModel(self.config) for dbc in range(self.config.num_dbcs)
        }
        access_shifts = 0
        migration_shifts = 0
        migrated = 0
        replacements = 0
        window_accesses: list = []
        for access in trace:
            slot = placement[access.item]
            access_shifts += heads[slot.dbc].access(
                slot.offset, is_write=access.is_write
            ).shifts
            window_accesses.append(access)
            if len(window_accesses) < self.window:
                continue
            sample = AccessTrace(window_accesses, name="window")
            window_accesses = []
            sample_problem = PlacementProblem(trace=sample, config=self.config)
            candidate = _extend_placement(
                heuristic_placement(sample_problem), trace, self.config
            )
            # The incumbent and the candidate share the window's resolution.
            current_cost, candidate_cost = evaluate_placements_fast(
                sample_problem, [placement, candidate], validate=False
            )
            saving = (current_cost - candidate_cost) * self.amortization_windows
            bill, _words = _predict_migration(placement, candidate, trace.items)
            if saving > self.hysteresis * bill:
                shifts, moved = self._migration_bill(
                    placement, candidate, trace.items, heads
                )
                migration_shifts += shifts
                migrated += moved
                replacements += 1
                placement = candidate
        return OnlineResult(
            access_shifts=access_shifts,
            migration_shifts=migration_shifts,
            migrated_words=migrated,
            replacements=replacements,
        )


def _predict_migration(old: Placement, new: Placement, items) -> tuple[int, int]:
    """Cheap upper-ish estimate of a migration bill (no head state)."""
    shifts = 0
    words = 0
    for item in items:
        src, dst = old[item], new[item]
        if src != dst:
            words += 1
            shifts += abs(src.offset) + abs(dst.offset)
    return shifts, words


def _extend_placement(
    placement: Placement, full_trace: AccessTrace, config: DWMConfig
) -> Placement:
    """Give slots to items the optimization window never saw."""
    mapping = dict(placement.as_dict())
    occupied = {tuple(slot) for slot in mapping.values()}
    free = [
        (dbc, offset)
        for dbc in range(config.num_dbcs)
        for offset in range(config.words_per_dbc)
        if (dbc, offset) not in occupied
    ]
    free_iter = iter(free)
    for item in full_trace.items:
        if item not in mapping:
            try:
                mapping[item] = next(free_iter)
            except StopIteration:  # pragma: no cover - capacity checked upstream
                raise OptimizationError("no free slot for late item") from None
    return Placement(mapping)


def compare_static_vs_online(
    trace: AccessTrace,
    config: DWMConfig,
    window: int = 512,
) -> dict[str, int]:
    """Three-way comparison on one (typically phase-changing) trace.

    Returns total shifts for: ``static_first_window`` (optimize on the first
    window only — what a profile-once deployment does), ``oracle_static``
    (the paper's algorithm with the whole trace), and ``online`` (adaptive,
    including migration costs).
    """
    problem = PlacementProblem(trace=trace, config=config)
    first = trace.truncated(min(window, len(trace)))
    first_problem = PlacementProblem(trace=first, config=config)
    static_first = _extend_placement(
        heuristic_placement(first_problem), trace, config
    )
    oracle = heuristic_placement(problem)
    online = OnlinePlacer(config, window=window).run(trace)
    return {
        "static_first_window": evaluate_placement_fast(problem, static_first),
        "oracle_static": evaluate_placement_fast(problem, oracle),
        "online": online.total_shifts,
        "online_migration": online.migration_shifts,
        "online_replacements": online.replacements,
    }
