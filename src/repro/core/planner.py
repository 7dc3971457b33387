"""Execution planner + block-streamed huge-space evaluation.

:func:`execute` is the one dispatch point every configuration-space
evaluation (:func:`repro.core.vectorized._evaluate`) goes through.  It
reads the ambient :class:`~repro.context.ExecutionContext` and lets
:func:`decide` pick one of three strategies:

* ``cached`` — a warm entry of the context's persistent
  :class:`~repro.core.cache.ResultCache`;
* ``vectorized`` — the broadcast engine
  (:func:`repro.core.vectorized._compute`), block-streamed when the
  sweep's working set exceeds the context's ``max_block_bytes``;
* ``sharded`` — the multiprocess engine (:mod:`repro.core.parallel`),
  a candidate only when ``min(workers, cpus) > 1``.

The scalar reference loop
(:meth:`~repro.core.model.HybridProgramModel.predict` per point) is not a
strategy: it is 48-805x slower than vectorized at every measured size
of 216 configurations or more, and it stays the reference in tests.

* **Decision** (:func:`decide`): hard invariant, pinned by a regression
  test: **an effective single-CPU host never selects ``sharded``**.
  With more than one effective worker, :func:`shard_pays` — one fixed
  comparison of vectorized cost against shard dispatch + transport +
  divided compute — decides; its break-even is 250,000 configs over 2
  workers and about 111k over 4.
* **Streaming** (:func:`iter_block_spaces`,
  :func:`evaluate_space_streamed`): evaluates a space in contiguous
  flat-order blocks sized by a byte budget (``--max-block-bytes``) and
  assembles them into output arrays **bit-identical** to the
  materialized path — every block stays grid-shaped and every lane's
  arithmetic is independent (the Eq. 5 fixed point freezes converged
  lanes).  The property suite pins this contract.

Every strategy returns the same bytes; only the
``repro_plan_selected_total{strategy="…"}`` label records which one ran.
See ``docs/PLANNER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs
from repro.context import current
from repro.core import parallel, vectorized
from repro.core.cache import ARRAY_FIELDS, entry_identity
from repro.core.model import HybridProgramModel
from repro.core.parallel import _SubGrid
from repro.core.vectorized import VectorizedEvaluation
from repro.units import MIB

#: Execution strategies the planner chooses between.
PLAN_STRATEGIES = ("cached", "vectorized", "sharded")

#: Default streaming budget: bounds the *working set* of one evaluation
#: block (result rows + broadcast temporaries), not the final output.
DEFAULT_MAX_BLOCK_BYTES = 64 * MIB

#: Bytes of result arrays one configuration occupies (the 17 persisted
#: ``ARRAY_FIELDS`` rows; ``saturated`` is 1 byte but counted as a full
#: float64 to keep the estimate conservative).
RESULT_BYTES_PER_CONFIG = len(ARRAY_FIELDS) * np.dtype(np.float64).itemsize

#: Conservative per-configuration working-set estimate for one streamed
#: block: result rows plus the broadcast engine's intermediate arrays
#: (~25 temporaries of the block shape during the Eq. 5 fixed point).
WORKING_BYTES_PER_CONFIG = 4 * RESULT_BYTES_PER_CONFIG

#: Wall seconds the broadcast engine spends per configuration.
VECTORIZED_S_PER_CONFIG = 1e-6

#: Extra wall seconds per configuration a shard pays to write its slice
#: into the scratch memmap and have the parent read it back.
SHARD_TRANSPORT_S_PER_CONFIG = 3e-7

#: Fixed wall seconds of fanning one sweep out to the worker pool.  It is
#: deliberately pessimistic, so only sweeps that clearly amortize the
#: fan-out shard (break-even 250,000 configs at 2 workers, about 111k at
#: 4, never below about 71k).
SHARD_DISPATCH_S = 5e-2


def shard_pays(size: int, workers: int) -> bool:
    """Whether sharding ``size`` configs over ``workers`` beats one process.

    Sharding divides the vectorized cost across the workers but adds a
    fixed dispatch plus a per-config transport cost; ties stay
    vectorized.  :func:`decide` asks only when ``workers > 1``.
    """
    return (
        SHARD_DISPATCH_S
        + size * (VECTORIZED_S_PER_CONFIG / workers + SHARD_TRANSPORT_S_PER_CONFIG)
        < size * VECTORIZED_S_PER_CONFIG
    )


# ----------------------------------------------------------------------
# the decision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: the strategy and why it was chosen."""

    strategy: str
    size: int
    workers: int
    streamed: bool
    reason: str


def record_selection(strategy: str) -> None:
    """Count one strategy selection (``plan_selected_total{strategy=…}``)."""
    if obs.metrics_enabled():
        obs.add(f'plan_selected{{strategy="{strategy}"}}')


def decide(
    size: int,
    *,
    workers: int = 1,
    cpus: int | None = None,
    cache_hit: bool = False,
    max_block_bytes: int | None = None,
    record: bool = False,
) -> PlanDecision:
    """Choose an execution strategy for a sweep of ``size`` configs.

    ``workers`` is the context's worker bound and ``cpus`` the host's
    affinity-mask CPU count (defaults to
    :func:`repro.core.parallel.available_cpus`); sharding is only ever a
    candidate when ``min(workers, cpus) > 1`` — a single effective CPU
    never shards (the recorded 0.67x pessimization) — and then only
    where :func:`shard_pays`.  ``cache_hit`` marks a warm
    persistent-cache entry, which wins outright.  A ``max_block_bytes``
    budget smaller than the sweep's working set forces the streamed
    vectorized path (memory beats speed).  With ``record`` the selection
    is counted into the labeled ``plan_selected`` metric.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if not obs.active():
        decision = _decide(size, workers, cpus, cache_hit, max_block_bytes)
    else:
        with obs.span("plan_decision", size=size) as sp:
            decision = _decide(size, workers, cpus, cache_hit, max_block_bytes)
            sp.set(
                strategy=decision.strategy,
                streamed=decision.streamed,
                reason=decision.reason,
            )
        obs.add("planner.decisions")
    if record:
        record_selection(decision.strategy)
    return decision


def _decide(
    size: int,
    workers: int,
    cpus: int | None,
    cache_hit: bool,
    max_block_bytes: int | None,
) -> PlanDecision:
    eff = 1
    if workers > 1:
        eff = (
            parallel.effective_workers(workers)
            if cpus is None
            else max(1, min(workers, cpus))
        )
    streamed = (
        max_block_bytes is not None
        and size * WORKING_BYTES_PER_CONFIG > max_block_bytes
    )

    def result(strategy: str, reason: str) -> PlanDecision:
        return PlanDecision(
            strategy=strategy,
            size=size,
            workers=eff,
            streamed=streamed and strategy == "vectorized",
            reason=reason,
        )

    if cache_hit:
        return result("cached", "warm persistent-cache entry")
    if streamed:
        return result(
            "vectorized",
            "streamed: sweep working set exceeds the max-block-bytes budget",
        )
    if eff < 2:
        return result("vectorized", "one effective worker: sharding is no candidate")
    if shard_pays(size, eff):
        return result("sharded", f"sharding pays at {size} configs over {eff} workers")
    return result(
        "vectorized", f"sharding does not pay at {size} configs over {eff} workers"
    )


# ----------------------------------------------------------------------
# block-streamed evaluation
# ----------------------------------------------------------------------


def block_configs(max_block_bytes: int) -> int:
    """Configurations per block under a byte budget (always >= 1)."""
    if max_block_bytes < 1:
        raise ValueError("max_block_bytes must be >= 1")
    return max(1, int(max_block_bytes) // WORKING_BYTES_PER_CONFIG)


def iter_block_spaces(
    space: object, max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES
) -> Iterator[tuple[int, int, object]]:
    """Split a space into contiguous flat-order blocks under a budget.

    Yields ``(offset, length, subspace)`` whose concatenation in yield
    order is exactly the canonical iteration order of ``space``.  Grids
    split hierarchically — node axis first, then (when a single node row
    exceeds the budget) the core axis, then the frequency axis — so
    every block is itself grid-shaped and takes the same grid-broadcast
    path as the whole space, which is what makes streamed results
    bit-identical to materialized ones.  A budget larger than the space
    yields a single block; an empty explicit sequence yields one empty
    block.
    """
    limit = block_configs(max_block_bytes)
    if not vectorized._is_grid(space):
        cfgs = tuple(space)
        if not cfgs:
            yield (0, 0, cfgs)
            return
        for start in range(0, len(cfgs), limit):
            stop = min(start + limit, len(cfgs))
            yield (start, stop - start, cfgs[start:stop])
        return
    nodes = tuple(space.node_counts)
    cores = tuple(space.core_counts)
    freqs = tuple(space.frequencies_hz)
    per_node = len(cores) * len(freqs)
    per_core = len(freqs)
    offset = 0
    if per_node <= limit:
        rows = max(1, limit // per_node)
        for start in range(0, len(nodes), rows):
            chunk = nodes[start : start + rows]
            length = len(chunk) * per_node
            yield (offset, length, _SubGrid(chunk, cores, freqs))
            offset += length
        return
    for node in nodes:
        if per_core <= limit:
            rows = max(1, limit // per_core)
            for start in range(0, len(cores), rows):
                chunk = cores[start : start + rows]
                length = len(chunk) * per_core
                yield (offset, length, _SubGrid((node,), chunk, freqs))
                offset += length
        else:
            for core in cores:
                for start in range(0, len(freqs), limit):
                    chunk = freqs[start : start + limit]
                    yield (offset, len(chunk), _SubGrid((node,), (core,), chunk))
                    offset += len(chunk)


def evaluate_space_streamed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> VectorizedEvaluation:
    """Full-space evaluation assembled block by block.

    Each block runs the plain single-process broadcast engine on a
    flat-order :func:`iter_block_spaces` slice, so the engine's working
    set (≈4x the result rows in intermediate arrays) stays bounded by
    ``max_block_bytes``.  The assembled output arrays occupy
    ``size * RESULT_BYTES_PER_CONFIG`` bytes and are exactly the
    materialized engine's, bit for bit.
    """
    total = parallel._space_size(space)
    if not obs.active():
        return _assemble_streamed(
            model,
            space,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
            total,
        )
    with obs.span("evaluate_space_streamed", configs=total) as sp:
        result = _assemble_streamed(
            model,
            space,
            class_name,
            queueing,
            service_overlap,
            max_block_bytes,
            total,
        )
        sp.set(class_name=result.class_name)
    return result


def _assemble_streamed(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    max_block_bytes: int,
    total: int,
) -> VectorizedEvaluation:
    arrays = {
        name: np.empty(total, dtype=parallel._field_dtype(name))
        for name in ARRAY_FIELDS
    }
    cls_name = class_name or model.inputs.baseline_class
    blocks = 0
    for offset, length, sub in iter_block_spaces(space, max_block_bytes):
        vec = vectorized._compute(
            model, sub, class_name, queueing, service_overlap, instrument=False
        )
        cls_name = vec.class_name
        for name in ARRAY_FIELDS:
            arrays[name][offset : offset + length] = getattr(vec, name)
        blocks += 1
    if obs.metrics_enabled():
        obs.add("planner.stream_blocks", blocks)
        obs.add("planner.stream_configs", total)
    for arr in arrays.values():
        arr.setflags(write=False)
    space_ref = space if vectorized._is_grid(space) else tuple(space)
    return VectorizedEvaluation(class_name=cls_name, space=space_ref, **arrays)


# ----------------------------------------------------------------------
# the dispatch
# ----------------------------------------------------------------------


def execute(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    *,
    cacheable: bool = True,
    instrument: bool = True,
) -> VectorizedEvaluation:
    """Run one space evaluation under the ambient execution context.

    This is the only dispatch point :func:`repro.core.vectorized._evaluate`
    routes through.  The context's persistent cache is read first (unless
    ``cacheable`` is false, as for the pruned search's ad-hoc chunks);
    :func:`decide` then picks the strategy, and a fresh result is written
    back to the cache.  ``instrument`` records the selection into the
    labeled ``plan_selected`` metric.
    """
    context = current()
    cls = class_name or model.inputs.baseline_class
    size = parallel._space_size(space)
    identity = None
    cached = None
    if context.cache is not None and cacheable:
        identity = entry_identity(model, space, cls, queueing, service_overlap)
        cached = context.cache.get(identity)
    decision = decide(
        size,
        workers=context.workers,
        cache_hit=cached is not None,
        max_block_bytes=context.max_block_bytes,
        record=instrument,
    )
    if cached is not None:
        return cached

    if decision.strategy == "sharded":
        with obs.span(
            "parallel_evaluate", workers=decision.workers, configs=size
        ):
            result = parallel._run_sharded(
                decision.workers, model, space, cls, queueing, service_overlap
            )
    elif decision.streamed:
        assert context.max_block_bytes is not None
        result = evaluate_space_streamed(
            model,
            space,
            cls,
            queueing=queueing,
            service_overlap=service_overlap,
            max_block_bytes=context.max_block_bytes,
        )
    else:
        result = vectorized._compute(
            model, space, cls, queueing, service_overlap, instrument
        )
    if identity is not None:
        context.cache.put(identity, result)
    return result
