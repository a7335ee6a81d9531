"""``sweep`` section: one trace simulated under many placements and geometries.

A 256-item trace is resolved afresh each round and scanned under seeded
random placements on four geometries (1-, 2- and 4-port lazy, 1-port
eager), which covers every cost path of ``memory.batch_sim``.  The same
trace, packed to ``.rtb`` during setup, is then streamed by
``memory.stream_sim`` sequentially and with ``jobs = cpu_count``.

Every (geometry, placement) of a round runs on all three engines.  A step
is one engine's pass over one geometry, so the host speed is read often.
Checks: the three engines agree exactly (total, per-DBC, worst access) on
every (geometry, placement), and the vectorized engine agrees
with the scalar reference engine on one placement per geometry over the
trace's first 5 * 10^4 accesses (the scalar engine needs about 4 s per
10^6 accesses, too slow to replay the whole trace in every run).
"""

from __future__ import annotations

import os
import random
import time

from harness import Stopwatch

FULL = {"items": 256, "accesses": 1_000_000, "placements": 4}
PROBE = {"items": 256, "accesses": 100_000, "placements": 8}
SMALL = {"items": 64, "accesses": 20_000, "placements": 2}
POOL_SIZE = 8
#: Every trace streams as this many chunks, so ``jobs`` has work to share.
CHUNKS = 4
SCALAR_WINDOW = 50_000
#: In memory, streamed, streamed with ``jobs``.
ENGINES = 3


def geometries(num_items: int):
    from repro.dwm.config import DWMConfig, PortPolicy

    lazy = [DWMConfig.for_items(num_items, num_ports=ports) for ports in (1, 2, 4)]
    eager = DWMConfig.for_items(num_items, num_ports=1, port_policy=PortPolicy.EAGER)
    return lazy + [eager]


def random_placement(items, config, rng):
    from repro.core.placement import Placement

    slots = [(dbc, offset) for dbc in range(config.num_dbcs)
             for offset in range(config.words_per_dbc)]
    rng.shuffle(slots)
    return Placement(dict(zip(items, slots)))


def same(left, right) -> bool:
    return (left.shifts == right.shifts
            and tuple(left.per_dbc_shifts) == tuple(right.per_dbc_shifts)
            and left.max_access_shifts == right.max_access_shifts)


class SweepSection:
    #: Steps this section runs as a probe of another workload (two rounds).
    PROBE_STEPS = 24
    #: The ``jobs`` passes run on every CPU, so the host speed is read there too.
    ALL_CPUS = True

    def __init__(self, seed: int, size: dict, run_dir) -> None:
        self.seed = seed
        self.size = size
        self.rtb_path = run_dir / f"sweep-{size['accesses']}.rtb"
        self.jobs = os.cpu_count() or 1

    def setup(self) -> None:
        from repro.analysis.pool import get_pool
        from repro.core import kernels
        from repro.trace.binio import open_binary, save_binary
        from repro.trace.synthetic import markov_trace

        self.trace = markov_trace(self.size["items"], self.size["accesses"],
                                  seed=self.seed + 7)
        save_binary(self.trace, self.rtb_path)
        self.stream = open_binary(self.rtb_path)
        self.configs = geometries(self.trace.num_items)
        rng = random.Random(self.seed)
        items = list(self.trace.items)
        self.placements = [
            [random_placement(items, config, rng) for _ in range(POOL_SIZE)]
            for config in self.configs
        ]
        # Compiled lazy-cost kernel: load (or build) the shared object and
        # run it once, so no timed call pays for it.
        kernels.reset_backend()
        backend = kernels.compiled()
        if backend is not None:
            import numpy as np

            backend.lazy_costs(np.array([0, 5, 2], dtype=np.int64),
                               np.array([0, 4], dtype=np.int64))
        if self.jobs > 1:
            get_pool(self.jobs).run(abs, [-1] * self.jobs)

    def teardown(self) -> None:
        from repro.analysis.pool import shutdown_pools

        shutdown_pools()
        self.rtb_path.unlink(missing_ok=True)

    def check_scalar(self, res) -> None:
        from repro.memory.batch_sim import simulate_vectorized
        from repro.memory.spm import ScratchpadMemory

        window = self.trace.truncated(SCALAR_WINDOW)
        for config, pool in zip(self.configs, self.placements):
            placement = pool[0]
            scalar = ScratchpadMemory(config, placement).simulate(window, engine="scalar")
            vector = simulate_vectorized(window, config, placement)
            res.check(same(scalar, vector),
                      f"sweep: vectorized {vector.shifts} != scalar {scalar.shifts} "
                      f"on {config.describe()}")

    def begin(self) -> None:
        #: Per engine: [(accesses, start, end)] of every pass.
        self.passes: list[list[tuple[int, float, float]]] = [[] for _ in range(ENGINES)]
        self.stage = 0

    def step(self, res) -> None:
        """One engine's pass over one geometry's placements of the round.

        A round runs every geometry on the three engines in turn (in memory,
        streamed, streamed with ``jobs``); the first pass of a round also
        resolves the trace.  After the third engine the answers are compared.
        """
        from repro.memory.batch_sim import ResolvedTrace, simulate_vectorized
        from repro.memory.stream_sim import simulate_streaming

        index, rest = divmod(self.stage, len(self.configs) * ENGINES)
        geometry, engine = divmod(rest, ENGINES)
        self.stage += 1
        per = self.size["placements"]
        config = self.configs[geometry]
        chosen = [self.placements[geometry][(index * per + j) % POOL_SIZE] for j in range(per)]
        start = time.perf_counter()
        if engine == 0:
            if geometry == 0:
                self.resolved = ResolvedTrace(self.trace)
            results = [simulate_vectorized(self.trace, config, placement,
                                           resolved=self.resolved, validate=False)
                       for placement in chosen]
        else:
            jobs = {} if engine == 1 else {"jobs": self.jobs}
            results = [simulate_streaming(self.stream, config, placement,
                                          chunk_size=-(-len(self.trace) // CHUNKS),
                                          validate=False, **jobs)
                       for placement in chosen]
        end = time.perf_counter()
        self.passes[engine].append((per * len(self.trace), start, end))
        self.answers = [results] if engine == 0 else [*self.answers, results]
        if engine < ENGINES - 1:
            return
        for expected, one, many in zip(*self.answers):
            res.check(same(expected, one) and same(expected, many),
                      f"sweep: engines disagree on {config.describe()} "
                      f"(vectorized {expected.shifts}, stream {one.shifts}, "
                      f"jobs {many.shifts})")

    def can_stop(self) -> bool:
        """Only after whole rounds, so every engine ran the same passes."""
        return self.stage > 0 and self.stage % (len(self.configs) * ENGINES) == 0

    def finish(self, res, speed) -> None:
        self.check_scalar(res)
        names = ("sim_maccess_per_s", "stream_maccess_per_s", "stream_jobs_maccess_per_s")
        # All accesses over all (scaled) seconds: a rate over the whole
        # window rather than one picked pass.
        for engine, (name, passes) in enumerate(zip(names, self.passes)):
            accesses = sum(n for n, _, _ in passes)
            seconds = sum(speed.seconds(start, end, parallel=engine == ENGINES - 1)
                          for _, start, end in passes)
            res.metric(name, accesses / seconds / 1e6, "Maccess/s", samples=len(passes))

    def overhead_unit(self) -> float:
        from repro.memory.batch_sim import ResolvedTrace, simulate_vectorized

        with Stopwatch() as watch:
            resolved = ResolvedTrace(self.trace)
            for config, pool in zip(self.configs, self.placements):
                simulate_vectorized(self.trace, config, pool[0],
                                    resolved=resolved, validate=False)
        return watch.seconds
