"""Compiled kernels for the lazy port-state automaton (optional fast path).

The lazy shift-cost replay is a deterministic automaton: after any access
the head sits at ``offset − p`` for the port ``p`` chosen greedily
(ties break to the lowest port).  The numpy formulations in
:mod:`repro.core.incremental` vectorise this walk (closed form for two
ports, a Hillis–Steele scan for ``P ≥ 3``), but they still materialise O(k)
intermediates and pay ~25 numpy dispatches per chain — the dominant cost
of incremental delta evaluation (see docs/PERFORMANCE.md).

This module provides the same walk as a *compiled* single pass with three
interchangeable backends, selected lazily on first use:

1. **numba** — ``@njit``-compiled from the Python reference below, used
   when the optional ``numba`` package is importable;
2. **cc** — an embedded C translation built with the system C compiler
   into a content-hash-cached shared library loaded via :mod:`ctypes`
   (no new dependencies; the ``.so`` is cached under
   ``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro-dwm/kernels``);
3. **numpy** — no compiled backend: :func:`compiled` returns ``None`` and
   callers use the numpy forms in :mod:`repro.core.incremental`.

All backends are **bit-identical** to the scalar reference
(:func:`repro.dwm.dbc.port_access_cost` greedy walk): integer math only,
strict ``<`` tie-breaking.  Identity is policed by ``tests/test_kernels.py``
and the ``repro fuzz`` kernel-parity oracle
(:func:`repro.verify.oracles.check_kernel_parity`).

Environment knobs:

* ``REPRO_NO_NUMBA=1`` — force the pure python/numpy fallback (disables
  *both* compiled backends; the documented way to verify the fallback).
* ``REPRO_KERNEL=auto|numba|cc|numpy`` — pin a specific backend;
  ``numba``/``cc`` fall through to ``numpy`` when unavailable.
* ``REPRO_KERNEL_CACHE`` — directory for compiled ``.so`` artifacts.

Three entry points, shared by the incremental evaluator and (through
:func:`repro.core.incremental.lazy_access_costs`) the candidate scorer and
the simulation engines:

* ``lazy_costs(offsets, ports, out)`` — per-access costs of one replay;
* ``lazy_chain_cost(positions, item_at, offset_of, ports)`` — total cost
  of the chain ``offset_of[item_at[positions[t]]]`` (fused gather+walk,
  no intermediates);
* ``lazy_merge_cost(base, skip, add, item_at, offset_of, ports)`` —
  total cost of the chain over ``(base \\ skip) ∪ add`` positions merged
  on the fly (all three inputs ascending; ``skip ⊆ base``, ``add``
  disjoint from ``base``).  This is the delta-probe kernel: membership
  changes never pay a concat+sort.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

#: Environment variable forcing the pure python/numpy fallback.
NO_NUMBA_ENV = "REPRO_NO_NUMBA"

#: Environment variable pinning the backend (auto|numba|cc|numpy).
KERNEL_ENV = "REPRO_KERNEL"

#: Environment variable overriding the compiled-artifact cache directory.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

_C_SOURCE = r"""
#include <stdint.h>

/* Branchless |v|: the greedy pick below is data-dependent, so any branch
   on it mispredicts ~50% on low-locality traces. */
static inline int64_t iabs64(int64_t v) {
    int64_t m = v >> 63;
    return (v + m) ^ m;
}

/* One branchless automaton step for the common P=2 case: pick the port
   minimising |offset - port - head|, strict < keeps the lower port on
   ties (take1 only when c1 < c0). */
#define STEP2(offset)                                                      \
    do {                                                                   \
        int64_t t0 = (offset) - p0;                                        \
        int64_t t1 = (offset) - p1;                                        \
        int64_t c0 = iabs64(t0 - head);                                    \
        int64_t c1 = iabs64(t1 - head);                                    \
        int64_t take1 = -(int64_t)(c1 < c0);                               \
        cost = (c1 & take1) | (c0 & ~take1);                               \
        head = (t1 & take1) | (t0 & ~take1);                               \
        total += cost;                                                     \
    } while (0)

/* Generic branchless step for P >= 3 (inner min is mask-selected). */
#define STEPN(offset)                                                      \
    do {                                                                   \
        int64_t best_cost = iabs64((offset) - ports[0] - head);            \
        int64_t best_target = (offset) - ports[0];                         \
        int64_t p;                                                         \
        for (p = 1; p < num_ports; ++p) {                                  \
            int64_t target = (offset) - ports[p];                          \
            int64_t c = iabs64(target - head);                             \
            int64_t take = -(int64_t)(c < best_cost);                      \
            best_cost = (c & take) | (best_cost & ~take);                  \
            best_target = (target & take) | (best_target & ~take);         \
        }                                                                  \
        cost = best_cost;                                                  \
        total += best_cost;                                                \
        head = best_target;                                                \
    } while (0)

/* Per-access lazy costs of one replay.  Head starts at 0.  Returns the
   total; fills `out` (may be NULL) with per-access costs. */
int64_t repro_lazy_costs(const int64_t *offsets, int64_t n,
                         const int64_t *ports, int64_t num_ports,
                         int64_t *out)
{
    int64_t head = 0, total = 0, cost, t;
    if (num_ports == 1) {
        int64_t port = ports[0];
        for (t = 0; t < n; ++t) {
            int64_t target = offsets[t] - port;
            cost = iabs64(target - head);
            total += cost;
            head = target;
            if (out) out[t] = cost;
        }
        return total;
    }
    if (num_ports == 2) {
        int64_t p0 = ports[0], p1 = ports[1];
        for (t = 0; t < n; ++t) {
            STEP2(offsets[t]);
            if (out) out[t] = cost;
        }
        return total;
    }
    for (t = 0; t < n; ++t) {
        STEPN(offsets[t]);
        if (out) out[t] = cost;
    }
    return total;
}

/* Fused gather + walk: the replayed offset sequence is
   offset_of[item_at[positions[t]]].  No intermediates. */
int64_t repro_lazy_chain_cost(const int64_t *positions, int64_t n,
                              const int64_t *item_at,
                              const int64_t *offset_of,
                              const int64_t *ports, int64_t num_ports)
{
    int64_t head = 0, total = 0, cost, t;
    if (num_ports == 2) {
        int64_t p0 = ports[0], p1 = ports[1];
        for (t = 0; t < n; ++t) {
            STEP2(offset_of[item_at[positions[t]]]);
        }
        return total;
    }
    if (num_ports == 1) {
        int64_t port = ports[0];
        for (t = 0; t < n; ++t) {
            int64_t target = offset_of[item_at[positions[t]]] - port;
            total += iabs64(target - head);
            head = target;
        }
        return total;
    }
    for (t = 0; t < n; ++t) {
        STEPN(offset_of[item_at[positions[t]]]);
    }
    return total;
}

/* Walk over (base \ skip) | add without materialising the merged array.
   base/skip/add ascending; skip is a subset of base; add is disjoint
   from base.  Offsets come from offset_of[item_at[pos]]. */
int64_t repro_lazy_merge_cost(const int64_t *base, int64_t nb,
                              const int64_t *skip, int64_t ns,
                              const int64_t *add, int64_t na,
                              const int64_t *item_at,
                              const int64_t *offset_of,
                              const int64_t *ports, int64_t num_ports)
{
    int64_t ib = 0, is = 0, ia = 0;
    int64_t head = 0, total = 0, cost;
    int two = (num_ports == 2);
    int64_t p0 = ports[0], p1 = two ? ports[1] : 0;
    for (;;) {
        int64_t pos;
        while (ib < nb && is < ns && base[ib] == skip[is]) { ++ib; ++is; }
        if (ib < nb && (ia >= na || base[ib] < add[ia])) {
            pos = base[ib++];
        } else if (ia < na) {
            pos = add[ia++];
        } else {
            break;
        }
        {
            int64_t offset = offset_of[item_at[pos]];
            if (two) {
                STEP2(offset);
            } else if (num_ports == 1) {
                int64_t target = offset - p0;
                total += iabs64(target - head);
                head = target;
            } else {
                STEPN(offset);
            }
        }
    }
    (void)cost;
    return total;
}
"""


# ---------------------------------------------------------------------------
# Python reference bodies (compiled by numba; also documentation of intent).
# ---------------------------------------------------------------------------

def _py_lazy_costs(offsets, ports, out):
    head = 0
    total = 0
    num_ports = ports.shape[0]
    for t in range(offsets.shape[0]):
        offset = offsets[t]
        best_cost = -1
        best_target = 0
        for p in range(num_ports):
            target = offset - ports[p]
            cost = target - head
            if cost < 0:
                cost = -cost
            if best_cost < 0 or cost < best_cost:
                best_cost = cost
                best_target = target
        total += best_cost
        head = best_target
        out[t] = best_cost
    return total


def _py_lazy_chain_cost(positions, item_at, offset_of, ports):
    head = 0
    total = 0
    num_ports = ports.shape[0]
    for t in range(positions.shape[0]):
        offset = offset_of[item_at[positions[t]]]
        best_cost = -1
        best_target = 0
        for p in range(num_ports):
            target = offset - ports[p]
            cost = target - head
            if cost < 0:
                cost = -cost
            if best_cost < 0 or cost < best_cost:
                best_cost = cost
                best_target = target
        total += best_cost
        head = best_target
    return total


def _py_lazy_merge_cost(base, skip, add, item_at, offset_of, ports):
    ib = 0
    is_ = 0
    ia = 0
    nb = base.shape[0]
    ns = skip.shape[0]
    na = add.shape[0]
    head = 0
    total = 0
    num_ports = ports.shape[0]
    while True:
        while ib < nb and is_ < ns and base[ib] == skip[is_]:
            ib += 1
            is_ += 1
        if ib < nb and (ia >= na or base[ib] < add[ia]):
            pos = base[ib]
            ib += 1
        elif ia < na:
            pos = add[ia]
            ia += 1
        else:
            break
        offset = offset_of[item_at[pos]]
        best_cost = -1
        best_target = 0
        for p in range(num_ports):
            target = offset - ports[p]
            cost = target - head
            if cost < 0:
                cost = -cost
            if best_cost < 0 or cost < best_cost:
                best_cost = cost
                best_target = target
        total += best_cost
        head = best_target
    return total


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class CompiledKernels:
    """A resolved compiled backend (``numba`` or ``cc``).

    All array arguments must be C-contiguous ``int64`` numpy arrays; the
    helpers in this module's callers guarantee that (argsort outputs and
    dense gather arrays are contiguous by construction).
    """

    def __init__(self, name: str, impl) -> None:
        import numpy as np

        self._np = np
        self.name = name
        self._impl = impl

    def lazy_costs(self, offsets, ports, out=None):
        """Per-access costs; returns ``out`` (allocated when ``None``)."""
        np = self._np
        if out is None:
            out = np.empty(offsets.size, dtype=np.int64)
        ports = np.ascontiguousarray(ports, dtype=np.int64)
        self._impl.lazy_costs(
            np.ascontiguousarray(offsets, dtype=np.int64), ports, out
        )
        return out

    def lazy_chain_cost(self, positions, item_at, offset_of, ports) -> int:
        np = self._np
        return int(
            self._impl.lazy_chain_cost(
                np.ascontiguousarray(positions, dtype=np.int64),
                item_at,
                offset_of,
                np.ascontiguousarray(ports, dtype=np.int64),
            )
        )

    def lazy_merge_cost(
        self, base, skip, add, item_at, offset_of, ports
    ) -> int:
        np = self._np
        return int(
            self._impl.lazy_merge_cost(
                np.ascontiguousarray(base, dtype=np.int64),
                np.ascontiguousarray(skip, dtype=np.int64),
                np.ascontiguousarray(add, dtype=np.int64),
                item_at,
                offset_of,
                np.ascontiguousarray(ports, dtype=np.int64),
            )
        )


class _NumbaImpl:
    """``@njit``-compiled reference bodies."""

    def __init__(self, numba) -> None:
        jit = numba.njit(cache=False, fastmath=False, nogil=True)
        self._costs = jit(_py_lazy_costs)
        self._chain = jit(_py_lazy_chain_cost)
        self._merge = jit(_py_lazy_merge_cost)
        import numpy as np

        # Force compilation now so selection fails here (and falls back)
        # rather than mid-optimization.
        one = np.zeros(1, dtype=np.int64)
        self._costs(one, np.asarray([0], dtype=np.int64), one.copy())
        self._chain(one, one, one, np.asarray([0], dtype=np.int64))
        self._merge(
            one, one[:0], one[:0], one, one, np.asarray([0], dtype=np.int64)
        )

    def lazy_costs(self, offsets, ports, out):
        return self._costs(offsets, ports, out)

    def lazy_chain_cost(self, positions, item_at, offset_of, ports):
        return self._chain(positions, item_at, offset_of, ports)

    def lazy_merge_cost(self, base, skip, add, item_at, offset_of, ports):
        return self._merge(base, skip, add, item_at, offset_of, ports)


class _CcImpl:
    """ctypes bindings over the cc-compiled shared library."""

    def __init__(self, library_path: Path) -> None:
        import ctypes

        lib = ctypes.CDLL(str(library_path))
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.repro_lazy_costs.restype = i64
        lib.repro_lazy_costs.argtypes = [ptr, i64, ptr, i64, ptr]
        lib.repro_lazy_chain_cost.restype = i64
        lib.repro_lazy_chain_cost.argtypes = [ptr, i64, ptr, ptr, ptr, i64]
        lib.repro_lazy_merge_cost.restype = i64
        lib.repro_lazy_merge_cost.argtypes = [
            ptr, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, i64,
        ]
        self._lib = lib
        self.library_path = library_path

    def lazy_costs(self, offsets, ports, out):
        return self._lib.repro_lazy_costs(
            offsets.ctypes.data,
            offsets.size,
            ports.ctypes.data,
            ports.size,
            out.ctypes.data,
        )

    def lazy_chain_cost(self, positions, item_at, offset_of, ports):
        return self._lib.repro_lazy_chain_cost(
            positions.ctypes.data,
            positions.size,
            item_at.ctypes.data,
            offset_of.ctypes.data,
            ports.ctypes.data,
            ports.size,
        )

    def lazy_merge_cost(self, base, skip, add, item_at, offset_of, ports):
        return self._lib.repro_lazy_merge_cost(
            base.ctypes.data,
            base.size,
            skip.ctypes.data,
            skip.size,
            add.ctypes.data,
            add.size,
            item_at.ctypes.data,
            offset_of.ctypes.data,
            ports.ctypes.data,
            ports.size,
        )


def _kernel_cache_dir() -> Path:
    override = os.environ.get(KERNEL_CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-dwm" / "kernels"


def _find_compiler() -> str | None:
    import shutil

    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_cc_library() -> Path | None:
    """Compile the embedded C source into a hash-cached ``.so``."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    library = cache_dir / f"lazykern_{digest}.so"
    if library.exists():
        return library
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            source = Path(tmp) / "lazykern.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            artifact = Path(tmp) / "lazykern.so"
            proc = subprocess.run(
                [
                    compiler,
                    "-O3",
                    "-shared",
                    "-fPIC",
                    "-o",
                    str(artifact),
                    str(source),
                ],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return None
            # Atomic publish: concurrent builders race benignly.
            os.replace(artifact, library)
    except (OSError, subprocess.SubprocessError):
        return None
    return library


_LOCK = threading.Lock()
_BACKEND: CompiledKernels | None = None
_BACKEND_NAME: str | None = None
_SELECTION_NOTE = ""


def _select() -> tuple[CompiledKernels | None, str, str]:
    """Resolve (backend, name, note) from the environment."""
    if os.environ.get(NO_NUMBA_ENV, "").strip():
        return None, "numpy", f"{NO_NUMBA_ENV} set: forcing numpy fallback"
    requested = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if requested not in ("auto", "numba", "cc", "numpy"):
        return None, "numpy", f"unknown {KERNEL_ENV}={requested!r}"
    if requested == "numpy":
        return None, "numpy", f"{KERNEL_ENV}=numpy"
    note = ""
    if requested in ("auto", "numba"):
        try:
            import numba  # noqa: F401

            return CompiledKernels("numba", _NumbaImpl(numba)), "numba", ""
        except Exception as exc:  # noqa: BLE001 - any failure falls through
            note = f"numba unavailable ({type(exc).__name__})"
            if requested == "numba":
                return None, "numpy", note
    library = _build_cc_library()
    if library is not None:
        try:
            return CompiledKernels("cc", _CcImpl(library)), "cc", note
        except OSError as exc:
            note = f"{note}; cc load failed: {exc}".strip("; ")
    else:
        note = f"{note}; no C compiler or compile failed".strip("; ")
    return None, "numpy", note


def compiled() -> CompiledKernels | None:
    """The active compiled backend, or ``None`` (numpy fallback).

    Resolved once per process on first call (thread-safe); use
    :func:`reset_backend` after changing the environment knobs.
    """
    global _BACKEND, _BACKEND_NAME, _SELECTION_NOTE
    if _BACKEND_NAME is None:
        with _LOCK:
            if _BACKEND_NAME is None:
                try:
                    from repro.chaos import failpoint

                    failpoint("kernel.compile")
                    backend, name, note = _select()
                except Exception as exc:  # noqa: BLE001 - degrade to numpy
                    from repro.robust import is_recoverable, record_degradation

                    if not is_recoverable(exc):
                        raise
                    backend, name = None, "numpy"
                    note = (
                        f"kernel selection failed "
                        f"({type(exc).__name__}: {exc})"
                    )
                    record_degradation(
                        "kernel", "compiled", "numpy", note, warn=False
                    )
                _BACKEND = backend
                _SELECTION_NOTE = note
                from repro.obs import get_registry

                get_registry().inc("kernel.selected", backend=name)
                _BACKEND_NAME = name
    return _BACKEND


def backend_name() -> str:
    """Active backend name: ``numba``, ``cc`` or ``numpy``."""
    compiled()
    return _BACKEND_NAME or "numpy"


def reset_backend() -> None:
    """Forget the resolved backend (test hook; next call re-selects)."""
    global _BACKEND, _BACKEND_NAME, _SELECTION_NOTE
    with _LOCK:
        _BACKEND = None
        _BACKEND_NAME = None
        _SELECTION_NOTE = ""


def describe() -> dict:
    """Backend diagnostics for ``repro kernels`` / benchmarks."""
    backend = compiled()
    info: dict = {
        "backend": backend_name(),
        "compiled": backend is not None,
        "requested": os.environ.get(KERNEL_ENV, "auto") or "auto",
        "no_numba": bool(os.environ.get(NO_NUMBA_ENV, "").strip()),
        "compiler": _find_compiler(),
        "cache_dir": str(_kernel_cache_dir()),
    }
    if _SELECTION_NOTE:
        info["note"] = _SELECTION_NOTE
    if backend is not None and isinstance(backend._impl, _CcImpl):
        info["library"] = str(backend._impl.library_path)
    return info
