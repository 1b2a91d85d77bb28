"""Compiled per-topology execution plans for the serving/rollout hot path.

The interpreted stack is written for clarity: every environment step runs
``K`` independent scalar simulator calls, each MNA analysis a one-circuit
stack of its own.  This package trades that flexibility for speed **without
trading away a single bit of behaviour**:

* :func:`build_simulator_kernel` — a batched simulator kernel evaluating
  all ``K`` per-env sizings of one topology in one vectorized pass.
* :class:`BatchedMNAPlan` — the one MNA engine: stamp all ``K`` per-env
  MNA systems of one topology into a single stacked ``(K, n, n)`` tensor
  built once (structure at plan time, parameter-dependent entries restamped
  per step) and solve them with one stacked LAPACK call; Newton DC iterates
  only the not-yet-converged slice.
* :class:`CompiledEpisodePlan` — the batched ``VectorCircuitEnv.step``:
  vectorized action snapping, a batched simulator kernel, vectorized cache
  keys, and batched observation assembly around a slim sequential
  bookkeeping pass that preserves cache and autoreset ordering exactly.
* :class:`PlanCache` — keyed plan storage with config-snapshot invalidation
  and negative caching of :class:`UntraceableError` build failures, so an
  uncompilable configuration falls back to the interpreted path once and
  quietly ("degrades gracefully, never wrongly").

Anything the tracer cannot reproduce bitwise — unshared simulators, cache
subclasses, unknown simulator types, or a build-time probe mismatch — raises
:class:`UntraceableError` and the caller keeps using the interpreted code.
"""

from repro.compile.errors import UntraceableError
from repro.compile.plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache, PlanCacheStats
from repro.compile.mna_plan import BatchedMNAPlan, solve_chunk_rows
from repro.compile.sim_kernels import (
    CmOtaKernel,
    KernelResult,
    OpAmpKernel,
    build_simulator_kernel,
)
from repro.compile.env_plan import CompiledEpisodePlan

__all__ = [
    "UntraceableError",
    "PlanCache",
    "PlanCacheStats",
    "DEFAULT_PLAN_CACHE_SIZE",
    "BatchedMNAPlan",
    "solve_chunk_rows",
    "CompiledEpisodePlan",
    "KernelResult",
    "OpAmpKernel",
    "CmOtaKernel",
    "build_simulator_kernel",
]
