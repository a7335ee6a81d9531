"""Tie-breaking determinism for the cross-paper placement methods.

Same trace + geometry must yield a byte-identical placement on every run
and in every execution mode: repeated in-process runs, and child
processes under both the ``fork`` and ``spawn`` start methods (the two
modes ``--jobs`` workers can run in, and the modes in which string
hashing — the classic source of ordering nondeterminism — differs from
the parent: ``spawn`` children get a fresh ``PYTHONHASHSEED``).
Companion to the CLI byte-identity tests in ``tests/test_cli.py``.
"""

import hashlib
import json
import multiprocessing

import pytest

from repro.core.api import build_problem, plan_placement
from repro.dwm.config import DWMConfig
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace

METHODS = ("shiftsreduce", "generalized")


def _case_payload(seed: int) -> dict:
    trace = markov_trace(9, 150, locality=0.6, seed=seed)
    return {
        "accesses": [(access.item, access.kind.value) for access in trace],
        "words_per_dbc": 6,
        "num_dbcs": 2,
        "num_ports": 2,
    }


def _placement_fingerprint(payload: dict, method: str) -> str:
    """Canonical JSON of the placement the method produces for ``payload``."""
    trace = AccessTrace([tuple(access) for access in payload["accesses"]])
    config = DWMConfig.with_uniform_ports(
        words_per_dbc=payload["words_per_dbc"],
        num_dbcs=payload["num_dbcs"],
        num_ports=payload["num_ports"],
    )
    problem = build_problem(trace, config)
    plan = plan_placement(problem, method=method)
    mapping = {
        item: list(slot) for item, slot in plan.placement.as_dict().items()
    }
    return json.dumps(mapping, sort_keys=True)


@pytest.mark.parametrize("method", METHODS)
def test_repeated_runs_are_byte_identical(method):
    payload = _case_payload(seed=3)
    first = _placement_fingerprint(payload, method)
    for _ in range(3):
        assert _placement_fingerprint(payload, method) == first


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_subprocess_runs_match_parent(method, start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    payload = _case_payload(seed=7)
    parent = _placement_fingerprint(payload, method)
    context = multiprocessing.get_context(start_method)
    with context.Pool(processes=2) as pool:
        children = pool.starmap(
            _placement_fingerprint, [(payload, method)] * 4
        )
    assert all(child == parent for child in children), (
        f"{method} placement differs across {start_method} workers"
    )


@pytest.mark.parametrize("method", METHODS)
def test_eager_policy_is_deterministic_too(method):
    trace = zipf_trace(8, 120, seed=11)
    payload = {
        "accesses": [(access.item, access.kind.value) for access in trace],
        "words_per_dbc": 8,
        "num_dbcs": 1,
        "num_ports": 2,
    }
    trace_obj = AccessTrace([tuple(a) for a in payload["accesses"]])
    config = DWMConfig(
        words_per_dbc=8, num_dbcs=1, port_offsets=(0, 7), port_policy="eager"
    )
    problem = build_problem(trace_obj, config)
    first = plan_placement(problem, method=method).placement.as_dict()
    for _ in range(3):
        assert plan_placement(problem, method=method).placement.as_dict() == first


# ----------------------------------------------------------------------
# Golden placements for the grouping × layout pipeline methods
# ----------------------------------------------------------------------
# sha256 over the canonical placement JSON (``_canonical_placement``) of
# one method on one trace, concatenated over the six geometries of
# ``GOLDEN_GEOMETRIES`` in order.  The digests were captured from the
# three separate portfolio loops (``heuristic``, ``shiftsreduce`` and
# ``generalized`` each with its own grouping/ordering loop, the two newer
# methods re-running ``heuristic_placement`` as a guard candidate) before
# they were folded into one pipeline: the pipeline must reproduce those
# placements byte for byte.  Those loops scored candidates with the
# scalar walk below 4096 accesses (``small``) and with the batch scorer
# above (``large``, ``large_zipf``); one scorer now prices all three
# traces and must pick the same placements.  Every geometry has four DBCs
# so the grouping step matters.

GOLDEN_METHODS = (
    "heuristic",
    "heuristic+ls",
    "annealing",
    "shiftsreduce",
    "generalized",
    "grouping_only",
    "ordering_only",
)

GOLDEN_GEOMETRIES = tuple(
    (ports, policy) for ports in (1, 2, 4) for policy in ("lazy", "eager")
)

GOLDEN_DIGESTS = {
    ('heuristic', 'small'): "2a9f6f91e2ac6cd415649dbf13d10291ed91ede93bce56ef7355cc2dfdea8704",
    ('heuristic', 'large'): "32da68780fc3703e176de9465d25e7388e75c4b645327f1bcde88aeb0a65f025",
    ('heuristic', 'large_zipf'): "6ffc2c9bcac8949d073eb33ba42c2e85a405af17131a3e7dc0a6ddd472c75730",
    ('heuristic+ls', 'small'): "f8cd771a13ffa1713d06b3e39a1b74b373c72cd2c02e8124b8d6bf20b70802ef",
    ('heuristic+ls', 'large'): "6fe07ec0c99c8384c30e8fd8c5ae8be5794009730891774672f02dfe4117aa38",
    ('heuristic+ls', 'large_zipf'): "52e9e58a4b96314b1f65f34164eb4e12069a321b9a184ab26b6b1a3467c11391",
    ('annealing', 'small'): "ccb188c549084d3338f461f25a24ae6ea2755536f1f4937ff5bc41ba8c801d2a",
    ('annealing', 'large'): "83858e9c9780e4fccb287ade6e2f00bcb0a69ced1fd429338c1617aa35d450e8",
    ('annealing', 'large_zipf'): "775da63246783c627ab36537d55168e811968b7cb5142639150eade8503c43e7",
    ('shiftsreduce', 'small'): "059006ccdb1e3e49e2ad2fa20708c4f2a890cb0a66e81010ff17ee96246c6cba",
    ('shiftsreduce', 'large'): "5c4e49ee0178ebb4ff29321c9eeccb00ad9f8826be7ee6d6374cd34bdcef947a",
    ('shiftsreduce', 'large_zipf'): "5b7cab48c21e4ed05ed6190b7e2a285e2a69df11791108cc4e6441b21fc9aa94",
    ('generalized', 'small'): "d9cfe56b364356de8a1f3b796b4ad669c867d50acbffe72f1a16a67bd2dc8c96",
    ('generalized', 'large'): "b1a208556fe02da626b76039b9a998c258a0473ed77e852c652e4ad68bb4d3c1",
    ('generalized', 'large_zipf'): "6ffc2c9bcac8949d073eb33ba42c2e85a405af17131a3e7dc0a6ddd472c75730",
    ('grouping_only', 'small'): "213e5bcfcec3aae489a7ca6c6bbc7d21e96791a3d6a4b51104c79ecd4db121c2",
    ('grouping_only', 'large'): "b0d5dea5030dbd60d8e5c47fbc112e11bcdf79103a631be2a83b37d602a29dac",
    ('grouping_only', 'large_zipf'): "9a9d98b7afcf875f80e1b26c75b6c0dcd2c343e1ca201ce849e6f369348d3ac9",
    ('ordering_only', 'small'): "d28b6fb18ca36b023b38387ecd3ee6e96945bb9b70454c6f2a916626fb72d717",
    ('ordering_only', 'large'): "fab9d58c174b9c572003f031525e4b2a42ab669dff896d0d204e57db83532080",
    ('ordering_only', 'large_zipf'): "c63221449247030e9e56c6a94d13db7d7dad1b39f89dc0f1fe92943dc602746b",

}


def _golden_traces() -> dict:
    return {
        "small": markov_trace(20, 1500, locality=0.7, seed=5),
        "large": markov_trace(20, 4500, locality=0.6, seed=6),
        "large_zipf": zipf_trace(24, 5000, seed=8),
    }


def _canonical_placement(placement) -> str:
    mapping = {item: list(slot) for item, slot in placement.as_dict().items()}
    return json.dumps(mapping, sort_keys=True)


def _golden_digest(trace, method: str) -> str:
    digest = hashlib.sha256()
    for ports, policy in GOLDEN_GEOMETRIES:
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=8, num_dbcs=4, num_ports=ports, port_policy=policy
        )
        problem = build_problem(trace, config)
        placement = plan_placement(problem, method=method).placement
        digest.update(_canonical_placement(placement).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_placements_match_golden_digests(method):
    for name, trace in _golden_traces().items():
        assert _golden_digest(trace, method) == GOLDEN_DIGESTS[(method, name)], (
            f"{method} placement on the {name!r} trace changed"
        )
