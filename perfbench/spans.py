"""In-memory spans around the program's public functions (traced runs only).

The program is not instrumented for this benchmark; instead ``Tracer``
swaps each listed function for a wrapper that records a span (name, start,
end, parent, thread) and puts the original back on ``uninstall``.  A
function bound into other modules with ``from x import f`` is swapped in
every ``repro`` module that holds it, so every call site is seen.

A span's self time is its duration minus the durations of its direct child
spans (children are nested in the same thread, so they never overlap).
``serve_traced`` runs ``repro serve`` under a tracer of its own, so the
server's spans are recorded in the server process and dumped when it
exits; ``read_spans`` loads such a dump for :func:`totals`.  Span times
are ``time.perf_counter`` readings, the system-wide monotonic clock on
Linux, so spans of both processes share one time axis.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute or Class.attribute, span name, how many units a call
#: scores: ``None`` = none, int = fixed, ``"arg1"`` = ``len`` of the second
#: positional argument).
TARGETS = (
    ("repro.trace.synthetic", "markov_trace", "trace.generate", None),
    ("repro.trace.synthetic", "zipf_trace", "trace.generate", None),
    ("repro.trace.synthetic", "pingpong_trace", "trace.generate", None),
    ("repro.trace.mixes", "interleave", "trace.generate", None),
    ("repro.trace.binio", "save_binary", "trace.pack", None),
    ("repro.trace.binio", "open_binary", "trace.open", None),
    ("repro.trace.model", "AccessTrace.restricted_to", "trace.restricted_to", None),
    ("repro.core.api", "optimize_placement", "api.optimize", None),
    ("repro.core.api", "resolve_placement", "api.resolve", None),
    ("repro.core.api", "plan_placement", "api.plan", None),
    ("repro.core.api", "execute_plan", "api.execute", None),
    ("repro.core.problem", "PlacementProblem.affinity", "problem.affinity", None),
    ("repro.core.problem", "PlacementProblem.affinity_matrix", "problem.affinity", None),
    ("repro.core.grouping", "greedy_min_affinity_grouping", "grouping.greedy", None),
    ("repro.core.grouping", "refine_grouping", "grouping.refine", None),
    ("repro.core.heuristic", "heuristic_placement", "heuristic", None),
    ("repro.core.ordering", "order_groups", "ordering.order_groups", None),
    ("repro.core.ordering", "greedy_chain_order", "ordering.chain", None),
    ("repro.core.ordering", "restricted_sequence_cost", "ordering.restricted_cost", None),
    ("repro.core.shiftsreduce", "bidirectional_order", "shiftsreduce.bidirectional_order", None),
    ("repro.core.generalized", "multi_port_chain_offsets", "generalized.multi_port_offsets", None),
    ("repro.core.fast_eval", "evaluate_placements_fast", "score.fast", "arg1"),
    ("repro.core.fast_eval", "evaluate_placement_fast", "score.fast", 1),
    ("repro.core.cost", "evaluate_placement", "score.exact", 1),
    ("repro.memory.batch_sim", "ResolvedTrace.__init__", "batch_sim.resolve", None),
    ("repro.memory.batch_sim", "_scan", "batch_sim.scan", None),
    ("repro.memory.stream_sim", "simulate_streaming", "stream_sim.scan", None),
    ("repro.memory.stream_sim", "merge_states", "stream_sim.stitch", None),
    ("repro.memory.stream_sim", "finalize_state", "stream_sim.stitch", None),
)


class Tracer:
    """Span recorder; spans stay in memory until :func:`write_spans`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, thread, child_s, units]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, units):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            count = len(args[1]) if units == "arg1" else (units or 0)
            record = [name, time.perf_counter(), 0.0,
                      stack[-1][0] if stack else -1,
                      threading.get_ident(), 0.0, count]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append((index, record))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
                if stack:
                    stack[-1][1][5] += record[2] - record[1]

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Swap every target for its span-recording wrapper."""
        import importlib

        for module_name, attr, name, units in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, member = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[member]
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(
                        self._wrap(original.func, name, units)
                    )
                    wrapped.__set_name__(owner, member)
                else:
                    wrapped = self._wrap(original, name, units)
                self._patch(owner, member, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, units)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "") or "").startswith("repro") and \
                        loaded.__dict__.get(attr) is original:
                    self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def write_spans(path, spans) -> None:
    """Write spans as JSON lines (called once, at the end of a run)."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, thread, child_s, units) in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": name, "parent": parent, "thread": thread,
                "start": start, "end": end, "child_s": child_s, "units": units,
            }) + "\n")


def read_spans(path, offset: int = 0) -> list[list]:
    """The spans of a :func:`write_spans` file, as ``Tracer.spans`` records
    whose ids (and parent ids) start at ``offset``."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return [[r["name"], r["start"], r["end"], r["parent"] + offset if r["parent"] >= 0 else -1,
             r["thread"], r["child_s"], r["units"]] for r in rows]


def totals(spans, since: float = float("-inf"),
           until: float = float("inf")) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and ``units`` of the
    spans that start in ``[since, until)``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "units": 0}
    )
    for name, start, end, _parent, _thread, child_s, units in spans:
        if not since <= start < until:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s
        entry["units"] += units
    return dict(out)


def serve_traced(dump_path: str, argv: list[str]) -> int:
    """``repro.cli.main(argv)`` with every target traced; the spans are
    written to ``dump_path`` when it returns."""
    import repro.cli
    import repro.serve.server  # noqa: F401 - bound before the targets are swapped

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.uninstall()
        write_spans(dump_path, tracer.spans)
