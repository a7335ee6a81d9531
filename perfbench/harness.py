"""Shared plumbing of the benchmark: checkout layout, results, statistics.

Everything the benchmark writes lands under ``perfbench/.work`` inside the
checkout it runs from: the compiled-kernel cache, temp files, the serve
result caches and the span dumps.  ``bootstrap`` must run before anything
from ``repro`` is imported, because the program reads its cache and kernel
knobs from the environment at import/first use.
"""

from __future__ import annotations

import bisect
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Shown with every result: the benchmark counts shifts in the repo's own
#: DWM model; nothing here compares that model with real hardware.
MODEL_NOTE = (
    "shift counts come from the repro DWM model and are checked against its "
    "scalar reference engine; the model is not validated against hardware, "
    "so no accuracy figure is given"
)


#: Seconds that :func:`reference_kernel` takes on the host every reported
#: time is scaled to (about its fast-phase reading on a 2.1 GHz Xeon vCPU).
REFERENCE_S = 0.050
#: Units of the metrics :class:`HostSpeed` scales.
TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s", "Maccess/s"}


def reference_kernel() -> float:
    """Seconds of one fixed slice of interpreter and numpy work.

    It is benchmark code and never changes with the program, so it reads
    only how fast the host runs right now.  About half of it is
    interpreter work (an integer loop, dict updates) and half numpy passes
    over arrays larger than the CPU caches.  In a slow stretch of a shared
    host the interpreter part slows more than the program does and the
    numpy part less, so their sum tracks the program best.  (Allocating
    many small objects is left out: the collector makes that part jump
    from sample to sample.)
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    values = (np.arange(1_000_000, dtype=np.int64) * 2_654_435_761) % 256
    np.bincount(values)
    np.cumsum(values)
    np.argsort(values[:250_000], kind="stable")
    return time.perf_counter() - start


def _kernel_worker(conn) -> None:
    """Body of a :class:`ParallelKernel` process: one kernel per request."""
    while conn.recv():
        conn.send(reference_kernel())


class ParallelKernel:
    """:func:`reference_kernel` in several processes at once.

    A reading is the slowest process's time.  It reads how fast the host
    runs work spread over all its CPUs, which one process cannot see: a
    busy neighbour on the second CPU slows a ``jobs = 2`` scan by up to
    half, but not a kernel in one process.
    """

    def __init__(self, processes: int) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.conns, self.procs = [], []
        for _ in range(processes):
            parent, child = context.Pipe()
            proc = context.Process(target=_kernel_worker, args=(child,), daemon=True)
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)
        self()  # the first kernel in a process also imports numpy

    def __call__(self) -> float:
        for conn in self.conns:
            conn.send(True)
        return max(conn.recv() for conn in self.conns)

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self.conns:
            conn.close()


class HostSpeed:
    """Host speed of one run, read from :func:`reference_kernel` between steps.

    A shared host runs the same code up to ~50% slower, in stretches from
    a few seconds to minutes, and every time in a run moves with it.  So
    the kernel runs between the measured steps, and every measured span
    ``[start, end]`` is scaled by the kernel readings around it: the last
    one before ``start``, any inside, and the first one after ``end``.
    A scaled time is ``seconds * REFERENCE_S / mean(those readings)``: the
    time on a host on which the kernel takes ``REFERENCE_S``.  Spans of
    work that runs on all CPUs at once are scaled by the readings of a
    :class:`ParallelKernel` over ``processes`` processes instead.
    """

    def __init__(self, processes: int = 1) -> None:
        #: (midpoint, kernel seconds) of the one-process and the parallel kernel.
        self.samples: list[tuple[float, float]] = []
        self.parallel_samples: list[tuple[float, float]] = []
        self.parallel = ParallelKernel(processes) if processes > 1 else None

    def sample(self, parallel: bool = False) -> None:
        start = time.perf_counter()
        seconds = reference_kernel()
        self.samples.append((start + seconds / 2, seconds))
        if parallel and self.parallel is not None:
            start = time.perf_counter()
            seconds = self.parallel()
            self.parallel_samples.append((start + seconds / 2, seconds))

    def factor(self, start: float | None = None, end: float | None = None,
               parallel: bool = False) -> float:
        """How much slower than the reference host the span ran (1.0 = as
        fast); without a span, the median over the whole run."""
        samples = self.parallel_samples if parallel and self.parallel_samples else self.samples
        readings = [k for _, k in samples]
        if start is not None and samples:
            times = [t for t, _ in samples]
            first = max(0, bisect.bisect_left(times, start) - 1)
            last = bisect.bisect_right(times, end)
            readings = readings[first:last + 1]
            return statistics.fmean(readings) / REFERENCE_S
        return median(readings) / REFERENCE_S

    def seconds(self, start: float, end: float, parallel: bool = False) -> float:
        """``end - start`` scaled to the reference host."""
        return (end - start) / self.factor(start, end, parallel)

    def scale(self, value: float, unit: str) -> float:
        """A value measured over the whole run, scaled by the run's median."""
        if unit in TIME_UNITS:
            return value / self.factor()
        if unit in RATE_UNITS:
            return value * self.factor()
        return value

    def close(self) -> None:
        if self.parallel is not None:
            self.parallel.close()
            self.parallel = None


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program source)."""


def bootstrap(run_id: str) -> Path:
    """Point the process at the checkout's ``src`` and a private work dir.

    Returns the run's own directory (created empty).  Raises
    :class:`SetupError` when the checkout holds no program source, so the
    benchmark fails instead of silently importing another copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    run_dir = WORK / "runs" / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    env = {
        "PYTHONPATH": str(SRC),
        "TMPDIR": str(tmp),
        # The compiled kernel is built once per checkout, then only loaded.
        "REPRO_KERNEL_CACHE": str(WORK / "kernels"),
        # No persistent placement cache for place/sweep: every run computes.
        "REPRO_CACHE": "0",
        "REPRO_CACHE_DIR": str(run_dir / "cache"),
    }
    os.environ.update(env)
    import tempfile

    tempfile.tempdir = str(tmp)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return run_dir


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MiB (0.0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


class Results:
    """Metrics, operation counts and failures of one benchmark run."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Figures recorded with the run but not compared between runs.
        self.context: dict[str, float] = {}

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.samples[name] = int(samples)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        """Count one checked operation; record ``message`` if it failed."""
        if condition:
            self.ok()
        else:
            self.fail(message)


class Stopwatch:
    """``with Stopwatch() as w: ...`` then ``w.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start
