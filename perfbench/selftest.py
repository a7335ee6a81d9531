#!/usr/bin/env python3
"""Self-tests of the benchmark, at a seconds-long size.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics that
   ``BENCHMARK.json`` names, each with its unit, and all checks pass.
2. A corrupted shift count is caught as a failure by the ``place``,
   ``sweep`` and ``serve`` output checks.
3. A ``serve`` run, untraced and traced, leaves no process,
   shared-memory segment or run directory behind.

Exit code 0 iff every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import WORK, Results, bootstrap  # noqa: E402


def run_bench(workload: str, trace: int, env=None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=env,
    )
    assert proc.returncode == 0, f"{workload}/trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in spec[key]}
        for workload in (entry["name"] for entry in spec["workloads"]):
            out = run_bench(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            got = out["metrics"]
            assert set(got) == set(expected), (
                f"{workload}/trace={trace}: missing {sorted(set(expected) - set(got))}, "
                f"extra {sorted(set(got) - set(expected))}")
            for name, unit in expected.items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, (name, got[name])
                assert isinstance(value, float) and math.isfinite(value), (name, value)
            print(f"ok   metrics {workload} trace={trace}")


def test_corruption_caught() -> None:
    import wl_place
    import wl_serve
    import wl_sweep
    from repro.core.api import optimize_placement
    from repro.dwm.config import DWMConfig
    from repro.memory.batch_sim import simulate_vectorized

    place = wl_place.PlaceSection(5, wl_place.SMALL)
    place.setup()
    trace, config, result, _, _ = place.one_call("markov", 1, "heuristic")
    assert wl_place.check_result(trace, config, result)
    bad = dataclasses.replace(result, total_shifts=result.total_shifts + 1)
    assert not wl_place.check_result(trace, config, bad)
    print("ok   corrupted place shift count caught")

    sweep = wl_sweep.SweepSection(5, wl_sweep.SMALL, WORK)
    sweep.trace = trace
    sweep.configs = [config]
    sweep.placements = [[result.placement]]
    res = Results()
    sweep.check_scalar(res)
    assert res.failed == 0, res.failures
    import repro.memory.batch_sim as batch_sim

    real = batch_sim.simulate_vectorized

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, shifts=out.shifts + 1)

    batch_sim.simulate_vectorized = off_by_one
    try:
        sweep.check_scalar(res)
    finally:
        batch_sim.simulate_vectorized = real
    assert res.failed == 1, res.failures
    print("ok   corrupted sweep shift count caught")

    serve = wl_serve.ServeSection(5, wl_serve.SMALL, WORK)
    serve.sim_trace = trace
    sim_config = serve.sim_config(0)
    local = simulate_vectorized(trace, sim_config, serve.sim_placement(0))
    reply = {"shifts": local.shifts + 1, "per_dbc_shifts": list(local.per_dbc_shifts),
             "max_access_shifts": local.max_access_shifts, "details": {}}
    res = Results()
    serve.check(res, [("simulate", 0.01, (0, reply))], [])
    assert res.failed == 1, res.failures
    opt_trace, _ = serve._trace(("opt", 0))
    good = optimize_placement(opt_trace, DWMConfig.for_items(opt_trace.num_items))
    from repro.serve.protocol import result_to_payload

    payload = result_to_payload(good)
    payload["total_shifts"] += 1
    serve.check(res, [("optimize", 0.01, (0, {"state": "done", "cached": False,
                                             "result": payload}))], [])
    assert res.failed == 2, res.failures
    # A cache hit must repeat its cold answer field by field.
    from repro.serve.protocol import sim_result_to_payload

    cold = sim_result_to_payload(local)
    hit = dict(cold, per_dbc_shifts=[n + 1 for n in local.per_dbc_shifts],
               details={"cache": "hit"})
    res = Results()
    serve.check(res, [("simulate", 0.01, (0, cold)), ("simulate", 0.01, (0, hit))], [])
    assert res.attempted == 2 and res.failed == 1, res.failures
    print("ok   corrupted serve shift counts caught")


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _processes_with(token: str) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if token.encode() in environ:
            found.append(int(entry))
    return found


def test_serve_leaves_nothing() -> None:
    token = f"PERFBENCH_SELFTEST={uuid.uuid4().hex}"
    env = dict(os.environ)
    key, value = token.split("=")
    env[key] = value
    runs = WORK / "runs"
    runs_before = set(os.listdir(runs)) if runs.is_dir() else set()
    shm_before = _shm_names()
    for trace in (0, 1):
        run_bench("serve", trace, env=env)
        leftover = _processes_with(token)
        assert not leftover, f"processes left running: {leftover}"
        new_shm = _shm_names() - shm_before
        assert not new_shm, f"shared-memory segments left: {sorted(new_shm)}"
        runs_after = set(os.listdir(runs)) if runs.is_dir() else set()
        assert runs_after <= runs_before, \
            f"run directories left: {sorted(runs_after - runs_before)}"
        print(f"ok   serve run (trace={trace}) leaves no process, shm segment or run directory")


def main() -> int:
    run_dir = bootstrap(f"selftest-{os.getpid()}")
    tests = (test_corruption_caught, test_serve_leaves_nothing, test_metrics_emitted)
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
