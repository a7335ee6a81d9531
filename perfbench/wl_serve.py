"""``serve`` section: a closed loop of one client against ``repro serve``.

The server is a subprocess with its default settings, a fresh result cache
and spool directory per set-up, and ``TMPDIR`` inside the run directory.
In a traced run it starts under ``spans.serve_traced``, so its own layers
are timed too.  One ``ServeClient`` sends its next request as soon as
the previous one returns.  Requests come
from one seeded schedule:

* ``simulate`` (95%): a seeded random placement of the 10^5-access base
  trace, on a 1- or 2-port geometry; 25% repeat an earlier placement, so
  the result cache answers them.
* ``optimize`` (3%): ``heuristic`` on a fresh 10^4-access trace (64, 512,
  768 or 1024 items, in turn), uploaded just before; 20% repeat an earlier
  optimize instead.
* ``upload`` (2%): one of three traces of 10^4, 10^5 and 10^4 accesses,
  uploaded again and again (the server parses each upload, then finds it
  already known).

These shares are an assumption: neither the repo nor a public trace of
its users records a request mix.  So latencies are reported per outcome
-- cold simulates, cache-hit simulates, cold optimizes -- and only
``serve_rps`` depends on the shares.

Checks, after the timed window: every cold optimize and simulate response
equals an in-process call on the same trace, every cache hit equals the
cold response for its key field by field, and every upload reports the
local fingerprint.  A refused request (429/503) or any other error counts
as a failure.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

from harness import BENCH_DIR, Stopwatch, median, percentile, proc_peak_rss_mb

#: Starts ``repro serve`` under the span tracer (traced runs only):
#: ``python -c BOOT <span dump path> serve ...``.
BOOT = ("import sys; sys.path.insert(0, {bench!r}); import spans; "
        "sys.exit(spans.serve_traced(sys.argv[1], sys.argv[2:]))").format(bench=str(BENCH_DIR))

#: A step of the main section is a burst of ``burst_s`` seconds; a probe
#: step is ``step_ops`` requests.  There is one client.  With two, a
#: request's latency depends on whether it waits behind the other
#: client's (a cold optimize takes up to 250 ms), and on a 2-CPU host the
#: cold p95 and the cache-hit p50 then spread by 0.25 and 0.28 over five
#: seeds.
FULL = {"sim_items": 128, "sim_accesses": 100_000, "opt_accesses": 10_000,
        "upload_accesses": (10_000, 100_000, 10_000), "burst_s": 2.0, "step_ops": None}
PROBE = {"sim_items": 64, "sim_accesses": 20_000, "opt_accesses": 2_000,
         "upload_accesses": (2_000, 10_000, 2_000), "burst_s": None, "step_ops": 70}
SMALL = dict(PROBE, sim_accesses=5_000, step_ops=15)

OPT_SIZES = (64, 512, 768, 1024)
#: Request pattern: in every 100 requests, uploads at two fixed slots,
#: optimizes at three, simulates elsewhere; every 4th simulate and every
#: 5th optimize repeats an earlier request.
CYCLE = 100
UPLOAD_SLOTS = (22, 88)
OPTIMIZE_SLOTS = (5, 38, 71)
REPEAT_EVERY = {"simulate": 4, "optimize": 5}
UPLOAD_TRACES = 3
#: The fields a cache hit must repeat from its cold answer.
SIM_FIELDS = ("shifts", "reads", "writes", "per_dbc_shifts", "max_access_shifts")
OPT_FIELDS = ("method", "total_shifts", "placement")
#: Requests of the fixed unit that measures the tracing overhead.
OVERHEAD_SIMULATES = 40


def _accesses(trace):
    return [(access.item, "W" if access.is_write else "R") for access in trace]


def _counter(snapshot: dict, name: str, **labels) -> float:
    """Sum of one counter's series whose labels include ``labels``."""
    total = 0.0
    for key, value in (snapshot.get("counters") or {}).items():
        base = key.split("{", 1)[0]
        if base != name:
            continue
        if all(f"{k}={v}" in key for k, v in labels.items()):
            total += value
    return total


def _histogram(snapshot: dict, name: str) -> tuple[float, float]:
    """(count, sum) over every series of one histogram."""
    count = total = 0.0
    for key, value in (snapshot.get("histograms") or {}).items():
        if key.split("{", 1)[0] == name:
            count += value.get("count", 0)
            total += value.get("sum", 0.0)
    return count, total


def _stop(proc, log, client) -> None:
    """Shut a server down and wait for it; kill it if it hangs."""
    from repro.serve.protocol import ServeError

    if client is None:
        proc.terminate()
    else:
        try:
            client.shutdown()
        except (OSError, ServeError):
            pass  # not answering: the kill below still ends it
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    log.close()


class Schedule:
    """Seeded request stream of the client.

    Which kind of request comes next, and whether it repeats an earlier
    one, follows a fixed pattern, so every seed sends the same mix; the
    seed picks the placements, the traces and which earlier request a
    repeat targets.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.issued = {"simulate": 0, "optimize": 0}
        self.seen = {"simulate": 0, "optimize": 0}
        self.uploads = 0
        self.ops = 0

    def next(self, limit: int):
        """The next request, or ``None`` once ``limit`` requests were drawn."""
        if self.ops >= limit:
            return None
        slot = self.ops % CYCLE
        self.ops += 1
        if slot in UPLOAD_SLOTS:
            self.uploads += 1
            return ("upload", (self.uploads - 1) % UPLOAD_TRACES)
        kind = "optimize" if slot in OPTIMIZE_SLOTS else "simulate"
        self.seen[kind] += 1
        if self.issued[kind] and self.seen[kind] % REPEAT_EVERY[kind] == 0:
            return (kind, self.rng.randrange(self.issued[kind]))
        self.issued[kind] += 1
        return (kind, self.issued[kind] - 1)


class ServeSection:
    #: Steps this section runs as a probe of another workload (``step_ops`` requests each).
    PROBE_STEPS = 12

    def __init__(self, seed: int, size: dict, run_dir, traced: bool = False) -> None:
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.traced = traced
        self.setups = 0
        self.proc = None
        self._trace_cache: dict = {}

    # ------------------------------------------------------------------
    # Inputs (deterministic in the seed)
    # ------------------------------------------------------------------
    def sim_config(self, index: int):
        from repro.dwm.config import DWMConfig

        return DWMConfig.for_items(self.size["sim_items"], num_ports=1 + index % 2)

    def sim_placement(self, index: int):
        from wl_sweep import random_placement

        rng = random.Random(self.seed * 1_000_003 + index)
        return random_placement(list(self.sim_trace.items), self.sim_config(index), rng)

    def sim_payload(self, index: int) -> tuple[dict, dict]:
        """(placement, config) of simulate request ``index``, as sent."""
        config = self.sim_config(index)
        placement = {item: list(slot)
                     for item, slot in self.sim_placement(index).as_dict().items()}
        return placement, {"words_per_dbc": config.words_per_dbc,
                           "num_ports": config.num_ports, "policy": "lazy"}

    def _trace(self, key):
        """Optimize target ``("opt", j)`` or re-uploaded trace ``("upload", k)``."""
        from repro.trace.synthetic import markov_trace, zipf_trace

        cached = self._trace_cache.get(key)
        if cached is not None:
            return cached
        kind, index = key
        if kind == "opt":
            trace = markov_trace(OPT_SIZES[index % len(OPT_SIZES)],
                                 self.size["opt_accesses"],
                                 seed=self.seed * 7919 + index)
        else:
            trace = zipf_trace(256, self.size["upload_accesses"][index],
                               seed=self.seed * 31 + index)
        entry = self._trace_cache[key] = (trace, _accesses(trace))
        return entry

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------
    def _start(self, tag: str, traced: bool):
        """Boot a server with its own cache and spool dirs; returns
        ``(proc, log, client, base trace id)`` once the base trace is up."""
        from repro.serve.client import wait_for_server

        serve_args = ["serve", "--port", "0",
                      "--cache-dir", str(self.run_dir / f"{tag}-cache"),
                      "--spool-dir", str(self.run_dir / f"{tag}-spool")]
        if traced:
            command = [sys.executable, "-c", BOOT,
                       str(self.run_dir / f"{tag}-spans.jsonl"), *serve_args]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        log = open(self.run_dir / f"{tag}-server.log", "wb")
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                env=dict(os.environ), text=True)
        try:
            announce = json.loads(proc.stdout.readline())
            client = wait_for_server("127.0.0.1", int(announce["port"]))
            client.timeout = 120.0
            reply = client.upload_trace(self.sim_trace.name, _accesses(self.sim_trace))
            if reply["trace_id"] != self.sim_trace.fingerprint():
                raise RuntimeError("serve: base upload fingerprint mismatch")
        except BaseException:
            _stop(proc, log, None)
            raise
        return proc, log, client, reply["trace_id"]

    def setup(self) -> None:
        from repro.trace.synthetic import markov_trace

        self.setups += 1
        self.sim_trace = markov_trace(self.size["sim_items"], self.size["sim_accesses"],
                                      seed=self.seed + 11)
        self.proc, self.log, self.client, self.sim_id = self._start(
            f"serve-{self.setups}", self.traced)

    def teardown(self) -> None:
        if self.proc is not None:
            _stop(self.proc, self.log, self.client)
            self.proc = None

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _do(self, op, state):
        """Send one request; returns ``(kind, seconds, record)``."""
        kind, index = op
        if kind == "simulate":
            placement, config = self.sim_payload(index)
            with Stopwatch() as watch:
                reply = self.client.simulate(self.sim_id, placement, config=config)
            return "simulate", watch.seconds, (index, reply)
        if kind == "optimize":
            trace, accesses = self._trace(("opt", index))
            if index not in state["uploaded"]:  # first optimize of this trace
                state["uploaded"].add(index)
                with Stopwatch() as up:
                    reply = self.client.upload_trace(trace.name, accesses)
                state["uploads"].append((up.seconds, trace, reply))
            with Stopwatch() as watch:
                reply = self.client.optimize(trace.fingerprint(), method="heuristic")
            return "optimize", watch.seconds, (index, reply)
        trace, accesses = self._trace(("upload", index))
        with Stopwatch() as watch:
            reply = self.client.upload_trace(trace.name, accesses)
        state["uploads"].append((watch.seconds, trace, reply))
        return "upload", watch.seconds, (index, reply)

    def begin(self) -> None:
        self.schedule = Schedule(self.seed)
        self.state = {"uploaded": set(), "uploads": [], "records": [], "errors": []}
        #: (start, end, first record, end record) of every step.
        self.bursts: list[tuple[float, float, int, int]] = []
        self.before = self.client.metrics()

    def step(self, res) -> None:
        """One burst of the closed loop: ``burst_s`` seconds or ``step_ops``
        requests, each sent as soon as the previous one returned."""
        schedule, state = self.schedule, self.state
        last_op = schedule.ops + (self.size["step_ops"] or 10**9)
        first_record = len(state["records"])
        start = time.perf_counter()
        deadline = start + (self.size["burst_s"] or float("inf"))
        while time.perf_counter() < deadline:
            op = schedule.next(last_op)
            if op is None:
                break
            try:
                state["records"].append(self._do(op, state))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                state["errors"].append(f"serve: {op[0]} failed: {type(exc).__name__}: {exc}")
        self.bursts.append((start, time.perf_counter(), first_record, len(state["records"])))

    def can_stop(self) -> bool:
        return bool(self.bursts)

    def finish(self, res, speed) -> None:
        state = self.state
        after = self.client.metrics()
        self.peak_rss_mb = proc_peak_rss_mb(self.proc.pid)
        for message in state["errors"]:
            res.fail(message)
        records = state["records"]
        self.check(res, records, state["uploads"])
        cold_sims, hit_sims, cold_opts = [], [], {}
        # Each latency is scaled by the host speed around its step.
        scaled = []
        for start, end, first, last in self.bursts:
            factor = speed.factor(start, end)
            scaled.extend((kind, seconds / factor, payload)
                          for kind, seconds, payload in records[first:last])
        for kind, seconds, (index, reply) in scaled:
            if kind == "simulate":
                hit = (reply.get("details") or {}).get("cache") == "hit"
                (hit_sims if hit else cold_sims).append(seconds)
            elif kind == "optimize" and not reply.get("cached"):
                cold_opts.setdefault(index % len(OPT_SIZES), []).append(seconds)
        # Every request: the records plus the uploads made before optimizes.
        completed = len(records) + len(state["uploaded"])
        res.metric("serve_sim_p50_ms", 1e3 * median(cold_sims), "ms", samples=len(cold_sims))
        # The tail moves with how much the shared host jitters, more than
        # any bound allows, so it is recorded beside the metrics, not as one.
        res.context["serve_sim_p95_ms"] = 1e3 * percentile(cold_sims, 95)
        res.metric("serve_sim_hit_p50_ms", 1e3 * median(hit_sims), "ms",
                   samples=len(hit_sims))
        # The item counts take turns, so the median of all cold optimizes
        # would sit between two counts' clusters; average each count's median.
        res.metric("serve_opt_p50_ms",
                   1e3 * statistics.fmean(median(v) for v in cold_opts.values()), "ms",
                   samples=sum(map(len, cold_opts.values())))
        busy_s = sum(speed.seconds(start, end) for start, end, _, _ in self.bursts)
        res.metric("serve_rps", completed / busy_s, "1/s", samples=completed)
        self.layer_metrics = self._layers(self.before, after, state["uploads"])

    def overhead_unit(self, traced: bool) -> float:
        """Seconds of a fixed unit of server-side work -- cold simulates and
        one cold optimize per item count -- on a fresh server, traced or not."""
        tag = f"overhead-{'traced' if traced else 'plain'}"
        proc, log, client, sim_id = self._start(tag, traced)
        try:
            opts = [self._trace(("opt", index)) for index in range(len(OPT_SIZES))]
            ids = [client.upload_trace(trace.name, accesses)["trace_id"]
                   for trace, accesses in opts]
            placement, config = self.sim_payload(-1)
            client.simulate(sim_id, placement, config=config)  # resolves the base trace
            with Stopwatch() as watch:
                for index in range(OVERHEAD_SIMULATES):
                    placement, config = self.sim_payload(1_000_000 + index)
                    client.simulate(sim_id, placement, config=config)
                for trace_id in ids:
                    client.optimize(trace_id, method="heuristic")
        finally:
            _stop(proc, log, client)
        return watch.seconds

    # ------------------------------------------------------------------
    # Checks and layer metrics
    # ------------------------------------------------------------------
    def check(self, res, records, uploads) -> None:
        from repro.core.api import optimize_placement
        from repro.dwm.config import DWMConfig
        from repro.memory.batch_sim import resolve_trace, simulate_vectorized
        from repro.serve.protocol import placement_to_payload

        for _, trace, reply in uploads:
            res.check(reply.get("trace_id") == trace.fingerprint()
                      and reply.get("num_accesses") == len(trace),
                      f"serve: upload of {trace.name} answered {reply.get('trace_id')}")
        resolved = resolve_trace(self.sim_trace)
        cold_sim: dict[int, dict] = {}
        cold_opt: dict[int, dict] = {}
        hits = []
        for kind, _, (index, reply) in records:
            if kind == "simulate":
                if (reply.get("details") or {}).get("cache") == "hit":
                    hits.append((cold_sim, SIM_FIELDS, index, reply))
                    continue
                cold_sim[index] = reply
                local = simulate_vectorized(self.sim_trace, self.sim_config(index),
                                            self.sim_placement(index), resolved=resolved)
                res.check(reply.get("shifts") == local.shifts
                          and reply.get("reads") == local.reads
                          and reply.get("writes") == local.writes
                          and reply.get("per_dbc_shifts") == list(local.per_dbc_shifts)
                          and reply.get("max_access_shifts") == local.max_access_shifts,
                          f"serve: simulate #{index} answered {reply.get('shifts')}, "
                          f"in-process {local.shifts}")
            elif kind == "optimize":
                result = reply.get("result") or {}
                if reply.get("cached"):
                    hits.append((cold_opt, OPT_FIELDS, index, result))
                    continue
                cold_opt[index] = result
                trace, _ = self._trace(("opt", index))
                local = optimize_placement(trace, DWMConfig.for_items(trace.num_items),
                                           method="heuristic")
                res.check(reply.get("state") == "done"
                          and result.get("total_shifts") == local.total_shifts
                          and result.get("placement") == placement_to_payload(local.placement),
                          f"serve: optimize #{index} answered "
                          f"{result.get('total_shifts')}, in-process {local.total_shifts}")
        for table, fields, index, answer in hits:
            cold = table.get(index)
            res.check(cold is not None
                      and all(answer.get(f) == cold.get(f) for f in fields),
                      f"serve: cache hit #{index} differs from its cold answer")

    def _layers(self, before: dict, after: dict, uploads) -> dict:
        def delta_counter(name, **labels):
            return _counter(after, name, **labels) - _counter(before, name, **labels)

        def delta_hist(name):
            c1, s1 = _histogram(after, name)
            c0, s0 = _histogram(before, name)
            return c1 - c0, s1 - s0

        out = {}
        for endpoint in ("optimize", "simulate"):
            hits = delta_counter("serve.cache.hits", endpoint=endpoint)
            misses = delta_counter("serve.cache.misses", endpoint=endpoint)
            out[f"serve.cache_hit_ratio.{endpoint}"] = (
                hits / (hits + misses) if hits + misses else 0.0, "ratio")
        count, total = delta_hist("serve.batch.size")
        out["serve.batch_riders_mean"] = (total / count if count else 0.0, "count")
        out["serve.admitted"] = (delta_counter("serve.admission.admitted"), "count")
        out["serve.rejected"] = (delta_counter("serve.admission.rejected"), "count")
        out["serve.optimize_compute_s"] = (delta_hist("optimize.seconds")[1], "s")
        out["serve.sim_scan_s"] = (delta_hist("sim.scan.seconds")[1], "s")
        out["serve.upload_ms"] = (1e3 * median([s for s, _, _ in uploads]) if uploads
                                  else 0.0, "ms")
        return out
