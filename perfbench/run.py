#!/usr/bin/env python3
"""Repo benchmark: ``place``, ``sweep`` and ``serve`` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload place --seed 1 --seconds 12 --trace 0

Every run sets up and runs all three sections (``wl_place``, ``wl_sweep``,
``wl_serve``).  The section named by ``--workload`` runs at full size for
``--seconds`` (whole rounds, at least one); the other two run a fixed
number of small steps each (``PROBE_STEPS``), spread over that window, so
every run reports every metric.  The named section is set up three times
and ``setup_s`` is the median; the two probes are set up once, before it.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the program's public functions in spans
(``spans.py``) and prints the per-layer metrics instead, plus the tracing
overhead of the workload.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it (``# context``) records the host and settings of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    MODEL_NOTE,
    WORK,
    HostSpeed,
    Results,
    SetupError,
    bootstrap,
    median,
    peak_rss_mb,
)

WORKLOADS = ("place", "sweep", "serve")
SETUP_REPEATS = 3


def build_sections(workload: str, seed: int, run_dir: Path, small: bool,
                   traced: bool) -> dict:
    import wl_place
    import wl_serve
    import wl_sweep

    def size(module, name):
        if small:
            return module.SMALL
        return module.FULL if name == workload else module.PROBE

    return {
        "place": wl_place.PlaceSection(seed, size(wl_place, "place")),
        "sweep": wl_sweep.SweepSection(seed, size(wl_sweep, "sweep"), run_dir),
        "serve": wl_serve.ServeSection(seed, size(wl_serve, "serve"), run_dir, traced),
    }


def teardown(sections: dict) -> None:
    for section in sections.values():
        section.teardown()


def measure(main, probes: list, res, seconds: float, speed: HostSpeed) -> float:
    """Run ``main`` in steps for about ``seconds``, with each probe's
    ``PROBE_STEPS`` steps spread evenly over that window, so probes see the
    same host as ``main``.  ``main`` stops only where ``can_stop`` allows
    (whole rounds), and not for a round that would overrun the window by
    more than half.  The host speed is sampled before every step and after
    the last one (on all CPUs too before a step of a section that sets
    ``ALL_CPUS``)."""
    for section in [main, *probes]:
        section.begin()
    done = {id(probe): 0 for probe in probes}

    def step(section) -> None:
        speed.sample(parallel=getattr(section, "ALL_CPUS", False))
        section.step(res)

    def due_probes(until: float) -> None:
        for probe in probes:
            total = probe.PROBE_STEPS
            while done[id(probe)] < total and until >= done[id(probe)] * seconds / total:
                step(probe)
                done[id(probe)] += 1

    start = boundary = time.perf_counter()
    while True:
        due_probes(time.perf_counter() - start)
        if main.can_stop():
            now = time.perf_counter()
            round_s, boundary = now - boundary, now
            if now - start + round_s / 2 >= seconds:
                break
        step(main)
    due_probes(float("inf"))
    speed.sample(parallel=True)
    return time.perf_counter() - start


def layer_metrics(setup: dict, totals: dict, before: dict, after: dict,
                  serve_layers: dict, overhead: float) -> dict:
    """``setup``: span totals of all set-ups; ``totals``: of the measured
    window, benchmark and server process together."""
    from wl_serve import _counter

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def setup_s(name):
        return setup.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    plans = calls("api.plan")
    out = {
        "trace.generate_s": (setup_s("trace.generate"), "s"),
        "trace.pack_s": (setup_s("trace.pack"), "s"),
        "trace.open_s": (setup_s("trace.open"), "s"),
        "trace.restricted_to_s": (self_s("trace.restricted_to"), "s"),
        "api.resolve_s": (self_s("api.resolve"), "s"),
        "api.plan_s": (self_s("api.plan"), "s"),
        "api.execute_s": (self_s("api.execute"), "s"),
        "problem.affinity_s": (self_s("problem.affinity"), "s"),
        "grouping.greedy_s": (self_s("grouping.greedy"), "s"),
        "grouping.refine_s": (self_s("grouping.refine"), "s"),
        "grouping.refine_calls": (calls("grouping.refine"), "count"),
        "heuristic.calls": (calls("heuristic") / plans if plans else 0.0, "1/optimize"),
        "ordering.order_groups_s": (self_s("ordering.order_groups"), "s"),
        "ordering.chain_s": (self_s("ordering.chain"), "s"),
        "ordering.restricted_cost_s": (self_s("ordering.restricted_cost"), "s"),
        "ordering.restricted_cost_calls": (calls("ordering.restricted_cost"), "count"),
        "shiftsreduce.bidirectional_order_s": (self_s("shiftsreduce.bidirectional_order"), "s"),
        "generalized.multi_port_offsets_s": (self_s("generalized.multi_port_offsets"), "s"),
        "score.fast_s": (self_s("score.fast"), "s"),
        "score.exact_s": (self_s("score.exact"), "s"),
        "score.candidates": (totals.get("score.fast", {}).get("units", 0)
                             + totals.get("score.exact", {}).get("units", 0), "count"),
        "batch_sim.resolve_s": (self_s("batch_sim.resolve"), "s"),
        "batch_sim.resolves": (calls("batch_sim.resolve"), "count"),
        "batch_sim.scan_s": (self_s("batch_sim.scan"), "s"),
        "batch_sim.scans": (calls("batch_sim.scan"), "count"),
        "stream_sim.scan_s": (self_s("stream_sim.scan"), "s"),
        "stream_sim.chunks": (_counter(after, "stream.chunks")
                              - _counter(before, "stream.chunks"), "count"),
        "stream_sim.stitch_s": (self_s("stream_sim.stitch"), "s"),
        "pool.dispatches": (_counter(after, "pool.dispatches")
                            - _counter(before, "pool.dispatches"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    out.update(serve_layers)
    return out


def run(args) -> dict:
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir = bootstrap(run_id)
    from repro.core import kernels
    from repro.obs import get_registry
    from spans import Tracer, read_spans, totals, write_spans

    res = Results()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    sections = build_sections(args.workload, args.seed, run_dir, args.small, bool(args.trace))
    main = sections[args.workload]
    probes = [section for section in sections.values() if section is not main]
    setup_spans, setup_times = [], []
    setups_start = time.perf_counter()
    speed = HostSpeed(os.cpu_count() or 1)
    try:
        for probe in probes:
            probe.setup()
        for repeat in range(SETUP_REPEATS):
            if repeat:
                main.teardown()
            speed.sample()
            start = time.perf_counter()
            main.setup()
            setup_spans.append((start, time.perf_counter()))
        setups = (setups_start, time.perf_counter())
        speed.sample()
        setup_times = [speed.seconds(*span) for span in setup_spans]
        registry_before = get_registry().snapshot()
        window_start = time.perf_counter()
        window_s = measure(main, probes, res, args.seconds, speed)
        window = (window_start, time.perf_counter())
        registry_after = get_registry().snapshot()
        start = time.perf_counter()
        for section in sections.values():
            section.finish(res, speed)
        checks_s = time.perf_counter() - start
        serve = sections["serve"]
        serve_layers = serve.layer_metrics
        rss = serve.peak_rss_mb if main is serve else peak_rss_mb()
        overhead = 0.0
        if tracer is not None:
            tracer.uninstall()
            if main is serve:  # the serve section's work runs in the server
                untraced, traced = main.overhead_unit(False), main.overhead_unit(True)
            else:
                untraced = main.overhead_unit()
                tracer.install()
                traced = main.overhead_unit()
                tracer.uninstall()
            overhead = traced / untraced
    finally:
        teardown(sections)
        speed.close()
        if tracer is not None:
            tracer.uninstall()
            # Each server wrote its spans when it stopped.
            spans = list(tracer.spans)
            for dump in sorted(run_dir.glob("serve-*-spans.jsonl")):
                spans.extend(read_spans(dump, offset=len(spans)))
        shutil.rmtree(run_dir, ignore_errors=True)
    res.metric("setup_s", median(setup_times), "s", samples=len(setup_times))
    res.metric("peak_rss_mb", rss, "MiB")
    res.metric("ok_rate", (res.attempted - res.failed) / max(1, res.attempted), "ratio",
               samples=res.attempted)
    if tracer is not None:
        write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl", spans)
        layers = layer_metrics(totals(spans, *setups), totals(spans, *window),
                               registry_before, registry_after, serve_layers, overhead)
        # Layer totals span the whole window: scaled by the run's median.
        metrics = {name: {"value": speed.scale(float(value), unit), "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = res.metrics  # every timing already scaled where it was taken
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.backend_name(), "samples": res.samples,
        "setup_runs_s": setup_times, "window_s": window_s, "checks_s": checks_s,
        "host_factor": speed.factor(), "host_samples": len(speed.samples),
        "parallel_host_factor": speed.factor(parallel=True),
        "failures": res.failures, "note": MODEL_NOTE, **res.context,
    }
    print("# context " + json.dumps(context, sort_keys=True))
    return {"correct": res.failed == 0, "attempted": res.attempted,
            "failed": res.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="run every section at its small size (self-tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exit, so the ``finally`` teardown still stops
    # the server subprocess and the worker pool.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
