"""Tests for the compiled lazy-cost kernel layer (repro.core.kernels).

The contract: whichever backend gets selected (numba, cc, numpy
fallback), every kernel output is bit-identical to the pure-numpy
reference implementations in ``repro.core.incremental`` — the compiled
path is a wall-clock optimisation only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import kernels
from repro.core.incremental import (
    lazy_access_costs,
    multi_port_access_costs_numpy,
    two_port_access_costs_numpy,
)

HAVE_COMPILED = kernels.compiled() is not None


@pytest.fixture
def backend_env(monkeypatch):
    """Set kernel env knobs, re-select the backend, restore afterwards."""

    def select(**env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        kernels.reset_backend()
        return kernels.compiled()

    yield select
    kernels.reset_backend()


def _random_chains(seed: int, count: int = 20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        length = int(rng.integers(2, 96))
        n = int(rng.integers(1, 400))
        offsets = rng.integers(0, length, size=n, dtype=np.int64)
        port_count = int(rng.integers(1, min(4, length) + 1))
        ports = np.sort(
            rng.choice(length, size=port_count, replace=False)
        ).astype(np.int64)
        yield offsets, ports


class TestBackendSelection:
    def test_numpy_request_disables_compiled(self, backend_env):
        assert backend_env(REPRO_KERNEL="numpy") is None
        assert kernels.backend_name() == "numpy"

    def test_no_numba_env_forces_numpy_fallback(self, backend_env):
        assert backend_env(REPRO_NO_NUMBA="1") is None
        info = kernels.describe()
        assert info["no_numba"] is True
        assert info["backend"] == "numpy"

    def test_describe_reports_selection(self, backend_env):
        backend_env(REPRO_KERNEL="auto")
        info = kernels.describe()
        assert info["backend"] in ("numba", "cc", "numpy")
        assert info["compiled"] == (kernels.compiled() is not None)
        assert "cache_dir" in info

    def test_backend_is_cached_singleton(self):
        kernels.reset_backend()
        first = kernels.compiled()
        assert kernels.compiled() is first

    @pytest.mark.skipif(not HAVE_COMPILED, reason="no compiled backend here")
    def test_cc_library_cached_on_disk(self, backend_env):
        backend = backend_env(REPRO_KERNEL="cc")
        if backend is None:
            pytest.skip("no C compiler available")
        info = kernels.describe()
        assert os.path.exists(info["library"])
        # Re-selection must reuse the cached shared object, not recompile.
        again = backend_env(REPRO_KERNEL="cc")
        assert kernels.describe()["library"] == info["library"]
        assert again is not None


@pytest.mark.skipif(not HAVE_COMPILED, reason="no compiled backend here")
class TestKernelParity:
    def test_lazy_costs_matches_numpy(self):
        backend = kernels.compiled()
        for offsets, ports in _random_chains(101):
            expected = multi_port_access_costs_numpy(offsets, ports)
            got = backend.lazy_costs(offsets, ports)
            np.testing.assert_array_equal(got, expected)

    def test_chain_cost_matches_numpy(self):
        backend = kernels.compiled()
        rng = np.random.default_rng(202)
        for offsets, ports in _random_chains(202):
            item_at = np.arange(offsets.size, dtype=np.int64)
            positions = np.flatnonzero(
                rng.random(offsets.size) < 0.6
            ).astype(np.int64)
            expected = (
                int(multi_port_access_costs_numpy(offsets[positions], ports).sum())
                if positions.size
                else 0
            )
            got = backend.lazy_chain_cost(positions, item_at, offsets, ports)
            assert got == expected

    def test_merge_cost_matches_numpy(self):
        backend = kernels.compiled()
        rng = np.random.default_rng(303)
        for offsets, ports in _random_chains(303):
            item_at = np.arange(offsets.size, dtype=np.int64)
            keep = rng.random(offsets.size) < 0.5
            base = np.flatnonzero(keep).astype(np.int64)
            skip = base[rng.random(base.size) < 0.4]
            add = np.flatnonzero(~keep).astype(np.int64)
            add = add[rng.random(add.size) < 0.5]
            merged = np.union1d(np.setdiff1d(base, skip), add).astype(np.int64)
            expected = (
                int(multi_port_access_costs_numpy(offsets[merged], ports).sum())
                if merged.size
                else 0
            )
            got = backend.lazy_merge_cost(
                base, skip, add, item_at, offsets, ports
            )
            assert got == expected

    def test_single_access_and_head_return(self):
        backend = kernels.compiled()
        offsets = np.array([5], dtype=np.int64)
        ports = np.array([0], dtype=np.int64)
        np.testing.assert_array_equal(
            backend.lazy_costs(offsets, ports),
            multi_port_access_costs_numpy(offsets, ports),
        )


class TestDispatchers:
    """The public cost functions agree regardless of selected backend."""

    def test_two_port_dispatcher_matches_numpy(self):
        rng = np.random.default_rng(404)
        offsets = rng.integers(0, 64, size=500, dtype=np.int64)
        ports = np.array([0, 63], dtype=np.int64)
        np.testing.assert_array_equal(
            lazy_access_costs(offsets, ports),
            two_port_access_costs_numpy(offsets, ports),
        )

    def test_multi_port_dispatcher_matches_numpy(self):
        rng = np.random.default_rng(505)
        offsets = rng.integers(0, 48, size=500, dtype=np.int64)
        ports = np.array([3, 17, 40], dtype=np.int64)
        np.testing.assert_array_equal(
            lazy_access_costs(offsets, ports),
            multi_port_access_costs_numpy(offsets, ports),
        )
