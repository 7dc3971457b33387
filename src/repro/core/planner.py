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

* **Cost model** (:class:`CostModel`): per-strategy wall-time estimates,
  either *calibrated* from the committed bench reports
  (``benchmarks/out/vectorized_speedup.json`` +
  ``parallel_speedup.json`` via :func:`calibrate` / ``repro plan
  calibrate``) or a conservative static *fallback* table.
* **Decision** (:func:`decide`): hard invariant, pinned by a regression
  test: **an effective single-CPU host never selects ``sharded``**,
  whatever the cost model says.
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

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Iterator

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

#: Environment variable naming a persisted calibration file
#: (:func:`save_cost_model`) that :func:`resolve_cost_model` loads when
#: no explicit cost model is configured.
CALIBRATION_ENV = "REPRO_PLANNER_CALIBRATION"

#: Marker + version of the persisted calibration document.
CALIBRATION_KIND = "repro_planner_calibration"
CALIBRATION_VERSION = 1


class CalibrationError(ValueError):
    """A calibration source or persisted calibration file is unusable."""


# ----------------------------------------------------------------------
# the cost model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Per-strategy wall-time estimates, linear in the space size.

    ``vectorized`` pays a fixed base (table lookups, array setup) plus a per-config slope;
    ``sharded`` divides the vectorized slope across effective workers
    but adds fixed dispatch plus per-config transport overhead (memmap
    write + read-back); ``cached`` models a warm
    :class:`~repro.core.cache.ResultCache` read.  ``source`` records
    whether the numbers were fit from bench reports (``"calibrated"``)
    or are the static conservative table (``"fallback"``); ``cpus`` is
    the calibration host's CPU count (informational).
    """

    source: str
    vectorized_base_s: float
    vectorized_per_config_s: float
    shard_dispatch_s: float
    shard_overhead_per_config_s: float
    cache_read_base_s: float
    cache_read_per_config_s: float
    cpus: int = 1

    def __post_init__(self) -> None:
        """Reject a non-positive vectorized rate (degenerate fit)."""
        if self.vectorized_per_config_s <= 0:
            raise CalibrationError("per-config costs must be positive")

    def estimate(self, strategy: str, size: int, workers: int = 1) -> float:
        """Estimated wall seconds for ``strategy`` over ``size`` configs."""
        if strategy == "vectorized":
            return self.vectorized_base_s + size * self.vectorized_per_config_s
        if strategy == "sharded":
            w = max(1, workers)
            return (
                self.shard_dispatch_s
                + self.vectorized_base_s
                + size
                * (
                    self.vectorized_per_config_s / w
                    + self.shard_overhead_per_config_s
                )
            )
        if strategy == "cached":
            return self.cache_read_base_s + size * self.cache_read_per_config_s
        raise ValueError(f"unknown strategy {strategy!r}")

    def to_doc(self) -> dict[str, Any]:
        """JSON document for :func:`save_cost_model`."""
        return {
            "kind": CALIBRATION_KIND,
            "format_version": CALIBRATION_VERSION,
            "source": self.source,
            "vectorized_base_s": self.vectorized_base_s,
            "vectorized_per_config_s": self.vectorized_per_config_s,
            "shard_dispatch_s": self.shard_dispatch_s,
            "shard_overhead_per_config_s": self.shard_overhead_per_config_s,
            "cache_read_base_s": self.cache_read_base_s,
            "cache_read_per_config_s": self.cache_read_per_config_s,
            "cpus": self.cpus,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "CostModel":
        """Rebuild a model from :meth:`to_doc` output, validated.

        Unknown keys are ignored, so calibrations that still carry the
        retired ``scalar_per_config_s`` rate keep loading.
        """
        if not isinstance(doc, dict) or doc.get("kind") != CALIBRATION_KIND:
            raise CalibrationError("not a repro planner calibration document")
        if doc.get("format_version") != CALIBRATION_VERSION:
            raise CalibrationError(
                f"unsupported calibration version {doc.get('format_version')!r}"
            )
        try:
            return cls(
                source=str(doc["source"]),
                vectorized_base_s=float(doc["vectorized_base_s"]),
                vectorized_per_config_s=float(doc["vectorized_per_config_s"]),
                shard_dispatch_s=float(doc["shard_dispatch_s"]),
                shard_overhead_per_config_s=float(
                    doc["shard_overhead_per_config_s"]
                ),
                cache_read_base_s=float(doc["cache_read_base_s"]),
                cache_read_per_config_s=float(doc["cache_read_per_config_s"]),
                cpus=int(doc.get("cpus", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"bad calibration document: {exc}") from exc


#: The conservative static table used when no calibration exists.  The
#: orders of magnitude come from the committed bench reports (vectorized
#: ~1 µs/config after a ~2 ms base); the shard dispatch cost is
#: deliberately pessimistic so the planner only shards sweeps large
#: enough (> ~10^5 configs at 4 workers) to clearly amortize process
#: fan-out.
FALLBACK_COST_MODEL = CostModel(
    source="fallback",
    vectorized_base_s=2e-3,
    vectorized_per_config_s=1e-6,
    shard_dispatch_s=5e-2,
    shard_overhead_per_config_s=3e-7,
    cache_read_base_s=1e-3,
    cache_read_per_config_s=2e-7,
    cpus=1,
)

#: Fixed dispatch floor attributed to process fan-out when calibrating
#: the shard overhead from a single measured (sharded_s, single_s) pair.
_SHARD_DISPATCH_FLOOR_S = 1e-2


def calibrate(
    bench_dir: str | pathlib.Path = "benchmarks/out",
) -> CostModel:
    """Fit a :class:`CostModel` from the committed bench reports.

    Reads ``vectorized_speedup.json`` (vectorized and cached timings over
    several sizes — the vectorized base+slope least-squares fit and the
    cache read base) and, when present, ``parallel_speedup.json`` (single
    vs. sharded timing at one large size — the shard transport overhead,
    the per-config warm cache read rate and the calibration host's CPU
    count).  Raises
    :class:`CalibrationError` when the vectorized report is missing or
    unusable; missing parallel data falls back to the static table's
    shard/cache rates.
    """
    bench_dir = pathlib.Path(bench_dir)
    vec_doc = _load_report(bench_dir / "vectorized_speedup.json")
    if vec_doc is None:
        raise CalibrationError(
            f"no usable vectorized_speedup.json under {bench_dir}"
        )
    cases = vec_doc.get("extra", {}).get("cases", [])
    points = []
    cache_bases = []
    for case in cases:
        try:
            configs = int(case["configs"])
            vectorized_s = float(case["vectorized_s"])
        except (KeyError, TypeError, ValueError):
            continue
        if configs < 1 or vectorized_s <= 0:
            continue
        points.append((configs, vectorized_s))
        cached_s = case.get("cached_s")
        if isinstance(cached_s, (int, float)) and cached_s > 0:
            cache_bases.append(float(cached_s))
    if not points:
        raise CalibrationError("vectorized_speedup.json has no usable cases")

    fallback = FALLBACK_COST_MODEL
    shard_dispatch = fallback.shard_dispatch_s
    shard_overhead = fallback.shard_overhead_per_config_s
    cache_per_config = fallback.cache_read_per_config_s
    cpus = fallback.cpus

    par_doc = _load_report(bench_dir / "parallel_speedup.json")
    extra = (par_doc or {}).get("extra", {})
    try:
        par_configs = int(extra["configs"])
        single_s = float(extra["single_process_s"])
        sharded_s = float(extra["sharded_s"])
        cpus = max(1, int(extra.get("cpu_count", 1)))
        workers = max(1, int(extra.get("workers", 1)))
    except (KeyError, TypeError, ValueError):
        par_configs = 0
    if par_configs > 0 and single_s > 0:
        # the large single-process point anchors the vectorized slope
        # where shard decisions actually happen
        points.append((par_configs, single_s))
        eff = max(1, min(workers, cpus))
        # one measured (single, sharded) pair can't separate fixed
        # dispatch from per-config transport; attribute a fixed floor
        # and put the rest on the per-config term (conservative: large
        # sweeps keep paying it).
        shard_dispatch = _SHARD_DISPATCH_FLOOR_S
        overhead_total = max(0.0, sharded_s - single_s / eff - shard_dispatch)
        shard_overhead = max(1e-9, overhead_total / par_configs)
        warm_s = extra.get("cache_warm_s")
        if isinstance(warm_s, (int, float)) and warm_s > 0:
            cache_per_config = max(1e-12, float(warm_s) / par_configs)

    sizes = np.array([p[0] for p in points], dtype=np.float64)
    seconds = np.array([p[1] for p in points], dtype=np.float64)
    if sizes.size >= 2:
        slope, base = np.polyfit(sizes, seconds, 1)
    else:
        slope, base = seconds[0] / sizes[0], 0.0
    return CostModel(
        source="calibrated",
        vectorized_base_s=float(max(0.0, base)),
        vectorized_per_config_s=float(max(1e-9, slope)),
        shard_dispatch_s=float(shard_dispatch),
        shard_overhead_per_config_s=float(shard_overhead),
        cache_read_base_s=float(
            min(cache_bases) if cache_bases else fallback.cache_read_base_s
        ),
        cache_read_per_config_s=float(cache_per_config),
        cpus=cpus,
    )


def _load_report(path: pathlib.Path) -> dict[str, Any] | None:
    """One bench report JSON, or ``None`` when absent/unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def save_cost_model(model: CostModel, path: str | pathlib.Path) -> pathlib.Path:
    """Persist a calibration atomically (temp file + ``os.replace``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(
        json.dumps(model.to_doc(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_cost_model(path: str | pathlib.Path) -> CostModel:
    """Load a persisted calibration; :class:`CalibrationError` if unusable."""
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"calibration {path} is not JSON: {exc}") from exc
    return CostModel.from_doc(doc)


#: Memoized env-var calibrations, keyed by path (tests clear via
#: :func:`invalidate_cost_model_cache`).
_COST_MODEL_CACHE: dict[str, CostModel] = {}


def invalidate_cost_model_cache() -> None:
    """Forget memoized ``REPRO_PLANNER_CALIBRATION`` loads (tests)."""
    _COST_MODEL_CACHE.clear()


def resolve_cost_model() -> CostModel:
    """The cost model in effect: env calibration, else the fallback.

    An unusable file named by ``REPRO_PLANNER_CALIBRATION`` degrades to
    the fallback table (the planner must always be able to decide).
    """
    path = os.environ.get(CALIBRATION_ENV)
    if path:
        model = _COST_MODEL_CACHE.get(path)
        if model is None:
            try:
                model = load_cost_model(path)
            except CalibrationError:
                model = FALLBACK_COST_MODEL
            _COST_MODEL_CACHE[path] = model
        return model
    return FALLBACK_COST_MODEL


# ----------------------------------------------------------------------
# the decision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: the strategy plus its supporting estimates."""

    strategy: str
    size: int
    workers: int
    streamed: bool
    reason: str
    estimates: tuple[tuple[str, float], ...]

    def estimate_for(self, strategy: str) -> float | None:
        """The recorded estimate for ``strategy`` (``None`` if absent)."""
        for name, est in self.estimates:
            if name == strategy:
                return est
        return None


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
    cost_model: CostModel | None = None,
    max_block_bytes: int | None = None,
    min_parallel_configs: int | None = None,
    record: bool = False,
) -> PlanDecision:
    """Choose an execution strategy for a sweep of ``size`` configs.

    ``workers`` is the context's worker bound and ``cpus`` the host's
    affinity-mask CPU count (defaults to
    :func:`repro.core.parallel.available_cpus`); sharding is only ever a
    candidate when ``min(workers, cpus) > 1`` and the sweep reaches
    ``min_parallel_configs`` (default
    :data:`repro.core.parallel.MIN_PARALLEL_CONFIGS`) — a single
    effective CPU never shards, regardless of the cost model (the
    recorded 0.67x pessimization).  ``cache_hit`` marks a warm
    persistent-cache entry, which wins outright.  A ``max_block_bytes``
    budget smaller than the sweep's working set forces the streamed
    vectorized path (memory beats speed).  With ``record`` the selection
    is counted into the labeled ``plan_selected`` metric.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if not obs.active():
        decision = _decide(
            size,
            workers,
            cpus,
            cache_hit,
            cost_model,
            max_block_bytes,
            min_parallel_configs,
        )
    else:
        with obs.span("plan_decision", size=size) as sp:
            decision = _decide(
                size,
                workers,
                cpus,
                cache_hit,
                cost_model,
                max_block_bytes,
                min_parallel_configs,
            )
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
    cost_model: CostModel | None,
    max_block_bytes: int | None,
    min_parallel_configs: int | None,
) -> PlanDecision:
    cm = cost_model if cost_model is not None else resolve_cost_model()
    eff = 1
    if workers > 1:
        eff = (
            parallel.effective_workers(workers)
            if cpus is None
            else max(1, min(workers, cpus))
        )
    min_parallel = (
        min_parallel_configs
        if min_parallel_configs is not None
        else parallel.MIN_PARALLEL_CONFIGS
    )
    streamed = (
        max_block_bytes is not None
        and size * WORKING_BYTES_PER_CONFIG > max_block_bytes
    )
    estimates = [("vectorized", cm.estimate("vectorized", size))]
    if eff > 1:
        estimates.append(("sharded", cm.estimate("sharded", size, eff)))
    if cache_hit:
        estimates.append(("cached", cm.estimate("cached", size)))
    table = tuple(estimates)

    def result(strategy: str, reason: str) -> PlanDecision:
        return PlanDecision(
            strategy=strategy,
            size=size,
            workers=eff,
            streamed=streamed and strategy == "vectorized",
            reason=reason,
            estimates=table,
        )

    if cache_hit:
        return result("cached", "warm persistent-cache entry")
    if streamed:
        return result(
            "vectorized",
            "streamed: sweep working set exceeds the max-block-bytes budget",
        )
    candidates = ["vectorized"]
    if eff > 1 and size >= min_parallel:
        candidates.append("sharded")
    by_name = dict(table)
    best = min(candidates, key=lambda name: by_name[name])
    return result(
        best,
        f"cheapest estimate ({cm.source} cost model: "
        + ", ".join(f"{n}={by_name[n]:.3g}s" for n in candidates)
        + ")",
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
