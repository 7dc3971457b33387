"""Sharded multiprocess configuration-space evaluation.

The vectorized engine (:mod:`repro.core.vectorized`) computes a whole
``(n, c, f)`` space as one NumPy broadcast — single-process.  At
production scale (hundreds of thousands of configurations) one process
pins one core while the rest idle.  This module shards a space across
worker processes.  It is the planner's ``sharded`` strategy
(:func:`repro.core.planner.execute`), chosen only when the ambient
:class:`~repro.context.ExecutionContext` allows more than one worker,
the host has more than one CPU and the cost model says it pays::

    with use(workers=4):
        evaluation = evaluate_space(model, space)   # sharded if it pays

Guarantees:

* **Bit-identical results.**  Shards are contiguous runs of the space's
  canonical iteration order (grids split along the node axis, explicit
  lists into contiguous slices), every lane's arithmetic is independent
  of its neighbours (the Eq. 5 fixed point freezes converged lanes), and
  results are written back by shard offset — so the concatenated arrays
  equal the single-process arrays bit for bit, regardless of worker
  scheduling.  The equivalence tests pin this exactly (not just 1e-9).
* **Deterministic dispatch.**  Shard boundaries depend only on the space
  and the worker count, never on timing.
* **Cheap result transport.**  Workers write their slice into shared
  scratch files (``/dev/shm``-backed memmaps when available) instead of
  pickling megabytes of arrays through the result pipe; when no scratch
  space is writable the arrays come back pickled instead.

The worker pool is persistent (created lazily, reused across sweeps,
shut down at interpreter exit) so repeated sweeps do not re-pay process
startup.  Sweeps below :data:`MIN_PARALLEL_CONFIGS` never shard:
sharding a few hundred configurations would cost more in dispatch than
it saves in compute.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import multiprocessing

import numpy as np

from repro import obs
from repro.core import vectorized
from repro.core.cache import ARRAY_FIELDS

#: Below this many configurations a sweep never shards: process dispatch
#: would dominate the broadcast compute.
MIN_PARALLEL_CONFIGS = 4096

#: Shards per worker; >1 load-balances the fixed-point iteration skew
#: (high node counts iterate longer than single-node lanes).
SHARDS_PER_WORKER = 2


@dataclass(frozen=True)
class _SubGrid:
    """A contiguous axis-aligned slice of a grid space.

    Duck-typed like :class:`~repro.core.configspace.ConfigSpace` (the
    engine only reads the three axis tuples, and iteration follows the
    same node-major canonical order), so shards and streamed blocks take
    the same grid-broadcast path as the whole space.
    """

    node_counts: tuple[int, ...]
    core_counts: tuple[int, ...]
    frequencies_hz: tuple[float, ...]

    def __len__(self) -> int:
        return (
            len(self.node_counts)
            * len(self.core_counts)
            * len(self.frequencies_hz)
        )

    def __iter__(self):
        from repro.machines.spec import Configuration

        for n, c, f in itertools.product(
            self.node_counts, self.core_counts, self.frequencies_hz
        ):
            yield Configuration(nodes=n, cores=c, frequency_hz=f)


# ----------------------------------------------------------------------
# host capacity
# ----------------------------------------------------------------------


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduling affinity mask (``sched_getaffinity``), which
    respects cgroup/container and ``taskset`` restrictions that
    ``os.cpu_count()`` ignores; falls back to the raw count on platforms
    without affinity support.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def effective_workers(requested: int) -> int:
    """``requested`` workers clamped to the CPUs actually available.

    Sharding across more processes than cores is a recorded pessimization
    (0.67x at 4 workers on a 1-CPU host, ``parallel_speedup.json``):
    every extra process adds dispatch and serialization cost but no
    parallel compute.  The planner shards at this width and never shards
    when it yields 1.
    """
    return max(1, min(requested, available_cpus()))


# ----------------------------------------------------------------------
# the worker pool (persistent, lazily created)
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None  # guarded-by: _POOL_LOCK
_POOL_WORKERS = 0  # guarded-by: _POOL_LOCK

#: Guards the pool globals: concurrent sweeps (the ``repro serve`` layer
#: dispatches engine calls from a thread pool) must never observe a
#: half-swapped pool or leak a superseded one.
_POOL_LOCK = threading.Lock()


def _pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)created when the worker count changes.

    Thread-safe: without the lock, two threads requesting a pool
    concurrently could each create one and silently replace the other's
    (leaking its worker processes).  A superseded pool is always shut
    down before the swap.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS != workers:
            _shutdown_pool_locked()
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platform without fork
                context = multiprocessing.get_context()
            _POOL = ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            )
            _POOL_WORKERS = workers
        return _POOL


def _shutdown_pool_locked() -> None:  # guarded-by: _POOL_LOCK
    """Shut the current pool down; caller must hold ``_POOL_LOCK``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def shutdown_pool() -> None:
    """Shut the persistent worker pool down (tests, interpreter exit)."""
    with _POOL_LOCK:
        _shutdown_pool_locked()


# The pool must not outlive the interpreter: without this hook a live
# fork pool at exit leaves worker processes to be reaped by timeout.
atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------


def shard_space(
    space: object, shards: int
) -> list[tuple[int, int, object]]:
    """Split a space into contiguous, order-preserving shards.

    Returns ``(offset, length, subspace)`` triples whose concatenation in
    list order is exactly the canonical iteration order of ``space``.
    Grids are split along the node axis (the outermost, so flat order is
    preserved and every shard keeps the fast grid-broadcast path);
    explicit sequences are split into contiguous slices.  At most
    ``shards`` shards are produced — fewer when the space is too small
    to split further.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if vectorized._is_grid(space):
        node_counts = tuple(space.node_counts)
        per_node = len(space.core_counts) * len(space.frequencies_hz)
        pieces = np.array_split(
            np.arange(len(node_counts)), min(shards, len(node_counts))
        )
        out: list[tuple[int, int, object]] = []
        offset = 0
        for piece in pieces:
            sub = _SubGrid(
                node_counts=tuple(node_counts[i] for i in piece),
                core_counts=tuple(space.core_counts),
                frequencies_hz=tuple(space.frequencies_hz),
            )
            length = len(piece) * per_node
            out.append((offset, length, sub))
            offset += length
        return out
    configs = tuple(space)
    if not configs:
        return [(0, 0, configs)]
    pieces = np.array_split(
        np.arange(len(configs)), min(shards, len(configs))
    )
    out = []
    for piece in pieces:
        start, stop = int(piece[0]), int(piece[-1]) + 1
        out.append((start, stop - start, configs[start:stop]))
    return out


def _space_size(space: object) -> int:
    """Number of configurations in a grid or explicit sequence."""
    if vectorized._is_grid(space):
        return (
            len(space.node_counts)
            * len(space.core_counts)
            * len(space.frequencies_hz)
        )
    return len(space) if isinstance(space, Sequence) else len(tuple(space))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _field_dtype(name: str) -> type:
    """Storage dtype of one result field."""
    return np.bool_ if name == "saturated" else np.float64


def _worker_shard(task: tuple) -> tuple[int, float, dict | None]:
    """Evaluate one shard in a worker process.

    Runs the plain single-process engine on the subspace (no context, no
    caches — the parent owns those) and either writes the result arrays
    into the shared scratch memmaps at the shard's offset, or returns
    them pickled when the parent has no scratch space.
    """
    (
        index,
        model,
        subspace,
        class_name,
        queueing,
        service_overlap,
        offset,
        total,
        scratch,
    ) = task
    t_start = time.perf_counter()
    vec = vectorized._compute(
        model, subspace, class_name, queueing, service_overlap, instrument=False
    )
    if scratch is None:
        arrays = {name: getattr(vec, name) for name in ARRAY_FIELDS}
        return index, time.perf_counter() - t_start, arrays
    for name in ARRAY_FIELDS:
        mm = np.memmap(
            os.path.join(scratch, f"{name}.bin"),
            dtype=_field_dtype(name),
            mode="r+",
            shape=(total,),
        )
        mm[offset : offset + len(vec)] = getattr(vec, name)
        mm.flush()
        del mm
    return index, time.perf_counter() - t_start, None


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _scratch_dir() -> str:
    """A scratch directory for the memmap transport, preferring tmpfs."""
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    return tempfile.mkdtemp(prefix="repro-shards-", dir=base)


def _run_sharded(
    workers: int,
    model,
    space: object,
    class_name: str,
    queueing: str,
    service_overlap: bool,
) -> vectorized.VectorizedEvaluation:
    """Fan a sweep out across ``workers`` processes and reassemble in order.

    Shards at exactly ``workers`` width: the planner passes the
    CPU-clamped count (:func:`effective_workers`); benchmarks call this
    directly to time sharding on hosts where the planner would decline.
    """
    shards = shard_space(space, workers * SHARDS_PER_WORKER)
    total = sum(length for _, length, _ in shards)

    scratch: str | None = None
    try:
        scratch = _scratch_dir()
        for name in ARRAY_FIELDS:
            np.memmap(
                os.path.join(scratch, f"{name}.bin"),
                dtype=_field_dtype(name),
                mode="w+",
                shape=(total,),
            ).flush()
    except OSError:  # no writable scratch space: fall back to pickle
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
        scratch = None

    try:
        pool = _pool(workers)
        futures = [
            pool.submit(
                _worker_shard,
                (
                    index,
                    model,
                    subspace,
                    class_name,
                    queueing,
                    service_overlap,
                    offset,
                    total,
                    scratch,
                ),
            )
            for index, (offset, length, subspace) in enumerate(shards)
        ]
        arrays: dict[str, np.ndarray] | None = None
        if scratch is None:
            arrays = {
                name: np.empty(total, dtype=_field_dtype(name))
                for name in ARRAY_FIELDS
            }
        for future in futures:
            index, seconds, payload = future.result()
            obs.observe("parallel.shard_seconds", seconds)
            if arrays is not None and payload is not None:
                offset, length, _ = shards[index]
                for name in ARRAY_FIELDS:
                    arrays[name][offset : offset + length] = payload[name]
        if scratch is not None:
            arrays = {
                name: np.fromfile(
                    os.path.join(scratch, f"{name}.bin"),
                    dtype=_field_dtype(name),
                )
                for name in ARRAY_FIELDS
            }
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    assert arrays is not None
    space_ref = space if vectorized._is_grid(space) else tuple(space)
    result = vectorized.VectorizedEvaluation(
        class_name=class_name,
        space=space_ref,
        **{name: _readonly(arrays[name]) for name in ARRAY_FIELDS},
    )
    if obs.metrics_enabled():
        obs.add("parallel.sweeps")
        obs.add("parallel.shards", len(shards))
        obs.add("parallel.configs", total)
    return result
