"""Unit tests for the vectorised evaluator and port co-design."""

import pytest

from repro.core.api import build_problem, optimize_placement
from repro.core.baselines import declaration_order_placement, random_placement
from repro.core.cost import evaluate_placement
from repro.core.fast_eval import evaluate_placement_fast, evaluate_placements_fast
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.ports import (
    access_histogram,
    co_design_ports,
    weighted_k_medians,
)
from repro.errors import OptimizationError, PlacementError
from repro.trace.kernels import fir_trace
from repro.trace.synthetic import markov_trace, zipf_trace


class TestFastEvaluator:
    @pytest.mark.parametrize("words,ports,policy", [
        (8, 1, PortPolicy.LAZY),
        (32, 1, PortPolicy.LAZY),
        (16, 2, PortPolicy.LAZY),
        (16, 3, PortPolicy.LAZY),
        (16, 4, PortPolicy.LAZY),
        (16, 1, PortPolicy.EAGER),
        (16, 2, PortPolicy.EAGER),
    ])
    def test_agrees_with_scalar(self, words, ports, policy):
        trace = markov_trace(20, 600, locality=0.8, seed=71, write_fraction=0.3)
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=words,
            num_dbcs=max(1, -(-trace.num_items // words)),
            num_ports=ports,
            port_policy=policy,
        )
        problem = build_problem(trace, config)
        for seed in range(4):
            placement = random_placement(problem, seed)
            assert evaluate_placement_fast(problem, placement) == (
                evaluate_placement(problem, placement)
            )

    @pytest.mark.parametrize("ports,policy", [
        (1, PortPolicy.LAZY),
        (2, PortPolicy.LAZY),
        (3, PortPolicy.LAZY),
        (2, PortPolicy.EAGER),
    ])
    def test_extra_untraced_items_cost_nothing(self, ports, policy):
        # The online placer extends a window's placement with items the
        # window never touches; the scorer must price them at zero.
        from repro.core.online import _extend_placement

        from repro.trace.model import AccessTrace

        window = markov_trace(12, 600, locality=0.7, seed=83, write_fraction=0.2)
        full = AccessTrace(
            [access.item for access in window] + [f"late{i}" for i in range(8)]
        )
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=8, num_dbcs=4, num_ports=ports, port_policy=policy
        )
        problem = build_problem(window, config)
        placements = [
            _extend_placement(random_placement(problem, seed), full, config)
            for seed in range(3)
        ]
        expected = [evaluate_placement(problem, p) for p in placements]
        assert evaluate_placements_fast(problem, placements) == expected
        assert [evaluate_placement_fast(problem, p) for p in placements] == (
            expected
        )

    def test_agrees_on_kernel_traces(self):
        trace = fir_trace()
        problem = build_problem(trace, words_per_dbc=16)
        placement = declaration_order_placement(problem)
        assert evaluate_placement_fast(problem, placement) == (
            evaluate_placement(problem, placement)
        )

    def test_validates_coverage(self):
        trace = markov_trace(5, 50, seed=1)
        problem = build_problem(trace, words_per_dbc=8)
        from repro.core.placement import Placement

        with pytest.raises(PlacementError):
            evaluate_placement_fast(problem, Placement({"v0": (0, 0)}))


class TestWeightedKMedians:
    def test_single_median_is_weighted_median(self):
        histogram = {0: 10, 5: 10, 15: 1}
        assert weighted_k_medians(histogram, 1, 16) == (5,)

    def test_two_medians_cover_clusters(self):
        histogram = {1: 50, 2: 50, 14: 50, 15: 50}
        ports = weighted_k_medians(histogram, 2, 16)
        assert len(ports) == 2
        assert min(ports) in (1, 2)
        assert max(ports) in (14, 15)

    def test_optimality_vs_brute_force(self):
        import itertools

        histogram = {0: 3, 3: 7, 6: 2, 7: 9}
        n, k = 8, 2
        best = min(
            (
                sum(
                    weight * min(abs(offset - p) for p in ports)
                    for offset, weight in histogram.items()
                ),
                ports,
            )
            for ports in itertools.combinations(range(n), k)
        )[0]
        chosen = weighted_k_medians(histogram, k, n)
        cost = sum(
            weight * min(abs(offset - p) for p in chosen)
            for offset, weight in histogram.items()
        )
        assert cost == best

    def test_more_ports_than_offsets(self):
        assert weighted_k_medians({0: 1}, 4, 3) == (0, 1, 2)

    def test_invalid_k_raises(self):
        with pytest.raises(OptimizationError):
            weighted_k_medians({}, 0, 8)

    def test_empty_histogram(self):
        ports = weighted_k_medians({}, 2, 8)
        assert len(ports) == 2
        assert all(0 <= p < 8 for p in ports)


class TestCoDesign:
    def test_never_worse_than_uniform(self):
        trace = zipf_trace(30, 800, alpha=1.3, seed=7)
        config, result = co_design_ports(trace, num_ports=2, words_per_dbc=32)
        uniform_config = DWMConfig.for_items(
            trace.num_items, words_per_dbc=32, num_ports=2
        )
        uniform = optimize_placement(trace, uniform_config, method="heuristic")
        assert result.total_shifts <= uniform.total_shifts
        assert config.num_ports == 2

    def test_histogram_totals(self):
        trace = markov_trace(10, 200, seed=2)
        problem = build_problem(trace, words_per_dbc=8)
        placement = declaration_order_placement(problem)
        histogram = access_histogram(problem, placement)
        total = sum(
            weight for per_dbc in histogram.values() for weight in per_dbc.values()
        )
        assert total == len(trace)

    def test_invalid_rounds_raise(self):
        trace = markov_trace(6, 60, seed=3)
        with pytest.raises(OptimizationError):
            co_design_ports(trace, rounds=0)
