"""``place`` section: serial ``optimize_placement`` calls, checked exactly.

Traces come from two families: ``markov_trace`` locality, and a
ping-pong/Zipf interleave on which ShiftsReduce beats the paper heuristic.
A cell is one trace with its port count -- (markov, 2 ports) or
(mix, 1 port) -- and a step runs the three methods on the next cell.
Each family has several variants (traces from further seeds), and the
cells cycle through them, so a run averages over many traces of one seed.
The main section stops only after whole passes over the cells.

Each call gets a fresh copy of its trace (made outside the timing), so
every call pays its own trace resolution, as a user's first call would.
Every returned placement is re-priced with the scalar reference engine.
"""

from __future__ import annotations

import gc
import statistics
import time

from harness import median

METHODS = ("heuristic", "shiftsreduce", "generalized")

#: Full size (the ``place`` workload), probe size (other workloads) and the
#: self-test size.  The full size trades the optimizer's hot spot for
#: steadiness.  ``refine_grouping`` does a trace-dependent amount of work,
#: so the larger its share, the more a call's time varies from trace to
#: trace: at 128 items it takes two thirds of the time, and with six
#: traces per run the place times still spread by 0.15-0.26 over five
#: seeds (0.12-0.25 at 80 items).  At 64 items ordering and candidate
#: scoring do most of the work, a call takes 0.2-0.5 s, and a run passes
#: once or twice over six traces.
FULL = {"items": 64, "accesses": 20_000, "variants": 3, "collect": True,
        "cells": (("markov", 2), ("mix", 1))}
PROBE = {"items": 32, "accesses": 4_000, "variants": 4, "collect": False,
         "cells": (("markov", 1), ("mix", 1))}
SMALL = {"items": 32, "accesses": 2_000, "variants": 1, "collect": False,
         "cells": (("markov", 1), ("mix", 2))}


def make_traces(seed: int, size: dict) -> dict:
    """``{(family, variant): trace}``; variant ``v`` uses seed ``seed + 1000 v``."""
    from repro.trace.mixes import interleave
    from repro.trace.synthetic import markov_trace, pingpong_trace, zipf_trace

    items, accesses = size["items"], size["accesses"]
    pairs = items // 4
    rounds = accesses // (4 * pairs)
    traces = {}
    for variant in range(size["variants"]):
        vseed = seed + 1000 * variant
        mix = interleave(
            [
                pingpong_trace(pairs, rounds),
                zipf_trace(items - 2 * pairs, accesses - 2 * pairs * rounds,
                           alpha=1.2, seed=vseed + 1),
            ],
            quantum=2,
        )
        traces["markov", variant] = markov_trace(items, accesses, seed=vseed)
        traces["mix", variant] = mix.renamed(f"mix(n={items},m={accesses},s={vseed})")
    return traces


def check_result(trace, config, result) -> bool:
    """Does the scalar reference engine agree with the claimed shifts?"""
    from repro.memory.spm import ScratchpadMemory

    simulated = ScratchpadMemory(config, result.placement).simulate(
        trace, engine="scalar"
    )
    return simulated.shifts == result.total_shifts


class PlaceSection:
    #: Steps this section runs as a probe of another workload (two passes
    #: over the probe's cells).
    PROBE_STEPS = 16

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        self.traces = make_traces(self.seed, self.size)

    def teardown(self) -> None:
        self.traces = {}

    def one_call(self, family: str, ports: int, method: str, variant: int = 0):
        """``(trace, config, result, start, end)`` of one timed call."""
        from repro.core.api import optimize_placement
        from repro.dwm.config import DWMConfig

        base = self.traces[family, variant]
        trace = base.renamed(base.name)
        config = DWMConfig.for_items(trace.num_items, num_ports=ports)
        if self.size["collect"]:
            gc.collect()  # every timed call starts from the same collector state
        start = time.perf_counter()
        result = optimize_placement(trace, config, method=method)
        return trace, config, result, start, time.perf_counter()

    def begin(self) -> None:
        self.cells = [(variant, family, ports)
                      for variant in range(self.size["variants"])
                      for family, ports in self.size["cells"]]
        self.position = 0
        #: (method, family) -> [(start, end)] of every timed call.
        self.spans: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self.first: dict[tuple, tuple] = {}

    def step(self, res) -> None:
        """The three methods on the next cell."""
        variant, family, ports = self.cells[self.position % len(self.cells)]
        self.position += 1
        for method in METHODS:
            trace, config, result, start, end = self.one_call(family, ports, method, variant)
            self.spans.setdefault((method, family), []).append((start, end))
            key = (variant, family, ports, method)
            if key not in self.first:
                self.first[key] = (trace, config, result)
                continue
            # A repeated call must return the first call's placement.
            first = self.first[key][2]
            res.check(result.placement == first.placement
                      and result.total_shifts == first.total_shifts,
                      f"place: {method} on {trace.name} not deterministic")

    def can_stop(self) -> bool:
        """Only after whole passes over the cells, so every trace is
        sampled equally often."""
        return self.position > 0 and self.position % len(self.cells) == 0

    def finish(self, res, speed) -> None:
        for trace, config, result in self.first.values():
            res.check(check_result(trace, config, result),
                      f"place: {result.method} on {trace.name} "
                      f"claims {result.total_shifts} shifts, scalar engine disagrees")
        families = [family for family, _ in self.size["cells"]]
        for method in METHODS:
            # Per family the median call, then the mean over the families:
            # the families differ in cost, so a median over all calls would
            # pick one family's cluster.
            per_family = [median([speed.seconds(*span) for span in self.spans[method, family]])
                          for family in families]
            res.metric(f"place_{method}_s", statistics.fmean(per_family), "s",
                       samples=sum(len(self.spans[method, f]) for f in families))
        res.metric("place_shifts", sum(r.total_shifts for _, _, r in self.first.values()),
                   "shifts", samples=len(self.first))

    def overhead_unit(self) -> float:
        """One fixed call, for the traced-vs-untraced comparison."""
        family, ports = self.size["cells"][0]
        _, _, _, start, end = self.one_call(family, ports, "heuristic")
        return end - start
