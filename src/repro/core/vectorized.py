"""Vectorized configuration-space evaluation engine (beyond-paper scalability).

The paper's Pareto analyses (Figs. 8-11) and the UCR search sweep hundreds
of ``(n, c, f)`` points; batch planning and what-if studies re-sweep the
same spaces repeatedly.  Walking those spaces one
:meth:`~repro.core.model.HybridProgramModel.predict` call at a time costs
a Python-level fixed-point loop per configuration.  This module computes
the full time model (Eqs. 1-7) and energy model (Eqs. 8-12) over an entire
space as NumPy array operations, broadcasting over the ``(n, c, f)`` axes
in one shot, plus an LRU-cached space-evaluation layer keyed on
``(model parameters, space)`` so repeated sweeps reuse results.

Two properties are deliberately preserved:

* **The scalar model stays the reference implementation.**  Every
  elementwise operation below mirrors :func:`repro.core.time_model.predict_time`
  and :func:`repro.core.energy_model.predict_energy` in the same order, and
  the per-``(c, f)`` / per-``n`` table lookups call the *same* scalar
  functions (``ModelInputs.artefacts``, ``PowerTable.active``,
  ``CommCharacteristics.eta`` …), so the vectorized results agree with the
  scalar path to within floating-point determinism (the test suite pins
  1e-9 relative tolerance via a hypothesis equivalence test).
* **The Eq. 5 fixed point is iterated lane-wise.**  Each configuration's
  damped iteration sequence is identical to the scalar loop; converged
  lanes are frozen while the rest keep iterating.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro import obs
from repro.core.energy_model import EnergyBreakdown
from repro.core.model import HybridProgramModel, Prediction
from repro.core.time_model import (
    _BURST_FLOOR,
    _DAMPING,
    _FIXPOINT_TOL,
    _MAX_FIXPOINT_ITER,
    TimeBreakdown,
)
from repro.machines.spec import Configuration
from repro.mg1 import RHO_MAX, exponential_second_moment, mg1_mean_wait, mg1_utilization


def _is_grid(space: object) -> bool:
    """Duck-typed check for :class:`~repro.core.configspace.ConfigSpace`
    (imported structurally to avoid a circular import)."""
    return (
        hasattr(space, "node_counts")
        and hasattr(space, "core_counts")
        and hasattr(space, "frequencies_hz")
    )


@dataclass(frozen=True)
class VectorizedEvaluation:
    """Model predictions over a whole space as flat, aligned arrays.

    Arrays are ordered exactly like ``ConfigSpace`` iteration (cartesian
    product, node-major) or like the explicit configuration sequence that
    produced them.  All arrays are read-only: evaluations are shared
    through the LRU cache.
    """

    class_name: str
    space: object  # ConfigSpace or tuple[Configuration, ...]
    nodes: np.ndarray
    cores: np.ndarray
    frequencies_hz: np.ndarray
    t_cpu_s: np.ndarray
    t_mem_s: np.ndarray
    t_net_service_s: np.ndarray
    t_net_wait_s: np.ndarray
    utilization_baseline: np.ndarray
    rho_network: np.ndarray
    saturated: np.ndarray
    cpu_j: np.ndarray
    mem_j: np.ndarray
    net_j: np.ndarray
    idle_j: np.ndarray
    times_s: np.ndarray
    energies_j: np.ndarray
    ucrs: np.ndarray

    def __len__(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def t_net_s(self) -> np.ndarray:
        """Total network time ``T_w,net + T_s,net`` per configuration."""
        return self.t_net_service_s + self.t_net_wait_s

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        """The configurations, aligned with the arrays.

        ``space`` is ``None`` for evaluations rehydrated from the
        persistent disk cache (:mod:`repro.core.cache`); the
        configurations are then rebuilt from the aligned arrays.
        """
        if self.space is None:
            return tuple(
                Configuration(
                    nodes=int(n), cores=int(c), frequency_hz=float(f)
                )
                for n, c, f in zip(self.nodes, self.cores, self.frequencies_hz)
            )
        if isinstance(self.space, tuple):
            return self.space
        return tuple(self.space)

    @cached_property
    def labels(self) -> list[str]:
        """Paper-style (n,c,f) labels."""
        return [cfg.label() for cfg in self.configs]

    def prediction(self, i: int) -> Prediction:
        """Materialize the scalar-API :class:`Prediction` for one point."""
        time = TimeBreakdown(
            t_cpu_s=float(self.t_cpu_s[i]),
            t_mem_s=float(self.t_mem_s[i]),
            t_net_service_s=float(self.t_net_service_s[i]),
            t_net_wait_s=float(self.t_net_wait_s[i]),
            utilization_baseline=float(self.utilization_baseline[i]),
            rho_network=float(self.rho_network[i]),
            saturated=bool(self.saturated[i]),
        )
        energy = EnergyBreakdown(
            cpu_j=float(self.cpu_j[i]),
            mem_j=float(self.mem_j[i]),
            net_j=float(self.net_j[i]),
            idle_j=float(self.idle_j[i]),
        )
        return Prediction(
            config=self.configs[i],
            class_name=self.class_name,
            time=time,
            energy=energy,
        )

    @cached_property
    def predictions(self) -> tuple[Prediction, ...]:
        """All predictions materialized (built once, then cached)."""
        return tuple(self.prediction(i) for i in range(len(self)))


# ----------------------------------------------------------------------
# LRU-cached space-evaluation layer
# ----------------------------------------------------------------------

class CacheInfo(NamedTuple):
    """Cache statistics, mirroring :func:`functools.lru_cache` (plus the
    eviction count the obs layer also tracks)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int
    evictions: int = 0


_MISSING = object()


class _LRUCache:
    """A small explicit LRU (model fingerprints are not lru_cache-able).

    All dict mutation and the ``hits``/``misses``/``evictions`` stats are
    guarded by a lock: `repro serve` calls into the engine from worker
    threads, so ``get``/``put`` race once requests run concurrently.
    Hit/miss/eviction events are mirrored into the observability layer
    (``vectorized.cache.*`` counters, reported outside the lock) whenever
    metrics are enabled.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[object, VectorizedEvaluation] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    def get(self, key: object) -> VectorizedEvaluation | None:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        if value is _MISSING:
            obs.add("vectorized.cache.misses")
            return None
        obs.add("vectorized.cache.hits")
        return value  # type: ignore[return-value]

    def put(self, key: object, value: VectorizedEvaluation) -> None:
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                evicted += 1
        for _ in range(evicted):
            obs.add("vectorized.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                self.hits, self.misses, self.maxsize, len(self._data),
                self.evictions,
            )


_EVALUATION_CACHE = _LRUCache(maxsize=64)


def evaluation_cache_info() -> CacheInfo:
    """Statistics of the space-evaluation LRU cache."""
    return _EVALUATION_CACHE.info()


def clear_evaluation_cache() -> None:
    """Drop all cached space evaluations (tests, memory pressure)."""
    _EVALUATION_CACHE.clear()


def _freeze(mapping: Mapping) -> tuple:
    return tuple(sorted(mapping.items()))


def model_fingerprint(model: HybridProgramModel) -> tuple:
    """A hashable digest of everything a prediction depends on.

    Covers the program's input-class table (scale factors / iterations)
    and every :class:`~repro.core.params.ModelInputs` field, so what-if
    variants and recalibrated models never collide in the cache.
    """
    prog = model.program
    inputs = model.inputs
    classes = tuple(
        sorted((n, ic.iterations, ic.size_factor) for n, ic in prog.classes.items())
    )
    power = inputs.power
    return (
        prog.name,
        prog.reference_class,
        classes,
        inputs.baseline_class,
        inputs.baseline_iterations,
        _freeze(inputs.baseline),
        inputs.comm,
        inputs.network,
        _freeze(power.core_active_w),
        _freeze(power.core_stall_w),
        power.mem_w,
        power.net_w,
        power.sys_idle_w,
    )


def _space_key(space: object) -> tuple:
    if _is_grid(space):
        return (
            "grid",
            space.node_counts,
            space.core_counts,
            space.frequencies_hz,
        )
    return ("configs", tuple(space))


def cache_key(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
) -> tuple:
    """The LRU key: (model params, space, evaluation options)."""
    cls = class_name or model.inputs.baseline_class
    return (
        model_fingerprint(model),
        _space_key(space),
        cls,
        queueing,
        service_overlap,
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _flat(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Materialize a broadcastable array as a flat contiguous copy."""
    return np.ascontiguousarray(np.broadcast_to(a, shape)).reshape(-1)


def evaluate_configs(
    model: HybridProgramModel,
    space: object,
    class_name: str | None = None,
    *,
    queueing: str = "bracketed",
    service_overlap: bool = True,
    use_cache: bool = True,
) -> VectorizedEvaluation:
    """Predict every configuration of a space in one broadcast pass.

    ``space`` is a :class:`~repro.core.configspace.ConfigSpace` or any
    sequence of :class:`Configuration`.  ``queueing`` and
    ``service_overlap`` select the same time-model variants as
    :func:`repro.core.time_model.predict_time`.  With ``use_cache`` the
    result is served from / stored into the module LRU, keyed on
    ``(model params, space, options)``.
    """
    if queueing not in ("bracketed", "mg1", "none"):
        raise ValueError(f"unknown queueing variant {queueing!r}")
    if not obs.active():
        return _evaluate(
            model, space, class_name, queueing, service_overlap, use_cache
        )
    t_start = time.perf_counter()
    with obs.span("evaluate_space", queueing=queueing) as sp:
        result = _evaluate(
            model, space, class_name, queueing, service_overlap, use_cache
        )
        sp.set(configs=len(result), class_name=result.class_name)
    obs.observe("vectorized.evaluate_seconds", time.perf_counter() - t_start)
    return result


def _evaluate(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    use_cache: bool,
    instrument: bool = True,
) -> VectorizedEvaluation:
    if not _is_grid(space) and not isinstance(space, tuple):
        space = tuple(space)
    key = (
        cache_key(model, space, class_name, queueing, service_overlap)
        if use_cache
        else None
    )
    # The planner is the single dispatch point: under the ambient
    # execution context it reads the disk cache and picks the strategy.
    # The import is deferred: repro.core.planner imports this module.
    from repro.core import planner as _planner

    if key is not None:
        cached = _EVALUATION_CACHE.get(key)
        if cached is not None:
            if instrument:
                _planner.record_selection("cached")
            return cached

    result = _planner.execute(
        model,
        space,
        class_name,
        queueing,
        service_overlap,
        cacheable=use_cache,
        instrument=instrument,
    )
    if key is not None:
        _EVALUATION_CACHE.put(key, result)
    return result


def _compute(
    model: HybridProgramModel,
    space: object,
    class_name: str | None,
    queueing: str,
    service_overlap: bool,
    instrument: bool = True,
) -> VectorizedEvaluation:
    """The single-process broadcast engine (no caches, no dispatch).

    This is the reference vectorized path: the planner dispatch behind
    :func:`_evaluate` and every shard of the multiprocess engine
    (:mod:`repro.core.parallel`) call exactly this function, which is why
    sharded results are bit-identical to single-process ones.
    """
    inputs = model.inputs
    cls_name = class_name or inputs.baseline_class
    scale = model.program.scale_factor(cls_name, inputs.baseline_class)
    iterations = model.program.iterations(cls_name)
    if scale <= 0 or iterations < 1:
        raise ValueError("scale must be positive and iterations >= 1")
    size_ratio = scale * inputs.baseline_iterations / iterations

    # --- broadcastable (n, c, f) views and per-point parameter tables.
    # Parameter values come from the *same scalar lookups and power laws*
    # the reference model uses, called once per distinct value, so the
    # elementwise math below sees bit-identical operands.
    if _is_grid(space):
        # grid: three small axes broadcast to shape (N, C, F), no sorting
        n_ax = np.asarray(space.node_counts, dtype=np.float64)
        c_ax = np.asarray(space.core_counts, dtype=np.float64)
        f_ax = np.asarray(space.frequencies_hz, dtype=np.float64)
        shape = (n_ax.size, c_ax.size, f_ax.size)
        n = n_ax.reshape(-1, 1, 1)
        c = c_ax.reshape(1, -1, 1)
        f = f_ax.reshape(1, 1, -1)
        cf_pairs = [
            (i, j, int(c_ax[i]), float(f_ax[j]))
            for i in range(c_ax.size)
            for j in range(f_ax.size)
        ]
        useful = np.empty((1, c_ax.size, f_ax.size))
        mem = np.empty_like(useful)
        util = np.empty_like(useful)
        p_act = np.empty_like(useful)
        p_stall = np.empty_like(useful)
        for i, j, ci, fi in cf_pairs:
            art = inputs.artefacts(ci, fi)
            useful[0, i, j] = art.useful_cycles
            mem[0, i, j] = art.mem_stall_cycles
            util[0, i, j] = art.utilization
            p_act[0, i, j] = inputs.power.active(ci, fi)
            p_stall[0, i, j] = inputs.power.stall(ci, fi)
        node_values = [int(v) for v in n_ax]
        eta_total = np.array(
            [inputs.comm.eta(v) * iterations for v in node_values]
        ).reshape(-1, 1, 1)
        volume_total = np.array(
            [inputs.comm.volume(v) * size_ratio * iterations for v in node_values]
        ).reshape(-1, 1, 1)
        space_ref: object = space
    else:
        # explicit configuration list: deduplicate lookups via np.unique
        cfgs = tuple(space)
        shape = (len(cfgs),)
        n = np.array([cfg.nodes for cfg in cfgs], dtype=np.float64)
        c = np.array([cfg.cores for cfg in cfgs], dtype=np.float64)
        f = np.array([cfg.frequency_hz for cfg in cfgs], dtype=np.float64)
        cf = np.stack((c, f), axis=1) if n.size else np.empty((0, 2))
        uniq_cf, inv_cf = np.unique(cf, axis=0, return_inverse=True)
        inv_cf = inv_cf.reshape(-1)
        k = uniq_cf.shape[0]
        useful_u = np.empty(k)
        mem_u = np.empty(k)
        util_u = np.empty(k)
        p_act_u = np.empty(k)
        p_stall_u = np.empty(k)
        for i in range(k):
            ci, fi = int(uniq_cf[i, 0]), float(uniq_cf[i, 1])
            art = inputs.artefacts(ci, fi)
            useful_u[i] = art.useful_cycles
            mem_u[i] = art.mem_stall_cycles
            util_u[i] = art.utilization
            p_act_u[i] = inputs.power.active(ci, fi)
            p_stall_u[i] = inputs.power.stall(ci, fi)
        useful = useful_u[inv_cf]
        mem = mem_u[inv_cf]
        util = util_u[inv_cf]
        p_act = p_act_u[inv_cf]
        p_stall = p_stall_u[inv_cf]
        uniq_n, inv_n = np.unique(n, return_inverse=True)
        eta_u = np.array(
            [inputs.comm.eta(int(v)) * iterations for v in uniq_n]
        )
        vol_u = np.array(
            [inputs.comm.volume(int(v)) * size_ratio * iterations for v in uniq_n]
        )
        eta_total = eta_u[inv_n]
        volume_total = vol_u[inv_n]
        space_ref = cfgs

    if n.size and (n.min() < 1 or c.min() < 1):
        raise ValueError("need nodes >= 1 and cores >= 1")

    # Eqs. 2-4 and Eq. 7: per-core cycles split across n nodes
    t_cpu = useful * scale / (n * f)
    t_mem = mem * scale / (n * f)

    # communication characteristics (single-node lanes carry zeros)
    nu = np.divide(
        volume_total, eta_total, out=np.zeros_like(volume_total), where=eta_total > 0
    )
    bandwidth = inputs.network.bandwidth_bytes_per_s
    overhead = inputs.network.latency_floor_s
    multi = n > 1
    if bandwidth <= 0 and bool(np.any(np.broadcast_to(multi, shape))):
        raise ValueError("network bandwidth must be positive for nodes > 1")

    # Eq. 6: non-overlapped network service time (zero on a single node).
    # The overlap slack is clamped at zero exactly like the scalar path.
    wire_time = eta_total * overhead + (
        volume_total / bandwidth if bandwidth > 0 else np.zeros_like(volume_total)
    )
    slack = np.maximum(0.0, 1.0 - util)
    if service_overlap:
        t_net_service = np.maximum(slack * t_cpu, wire_time)
    else:
        t_net_service = slack * t_cpu + wire_time
    t_net_service = np.where(multi, t_net_service, 0.0)

    # Eq. 5: switch waiting time via the damped fixed point, lane-wise,
    # through the shared P-K helper (repro.mg1) with the exponential
    # second moment — the same call the scalar model makes.  Each lane
    # follows exactly the scalar iteration sequence; converged lanes
    # freeze while the rest keep iterating.
    y_mean = (
        nu / bandwidth if bandwidth > 0 else np.zeros_like(nu)
    )
    y_m2 = exponential_second_moment(y_mean)
    drain_bound = eta_total * y_mean
    burst_floor = np.where(n > 2, _BURST_FLOOR * drain_bound, 0.0)

    t_base = t_cpu + t_mem + t_net_service
    wait = np.zeros(shape)
    rho_out = np.zeros(shape)
    saturated = np.zeros(shape, dtype=bool)
    iters = 0
    if queueing != "none" and bool(multi.any()):
        total = np.broadcast_to(t_base, shape).copy()
        done = np.broadcast_to(~multi, shape).copy()
        for iters in range(1, _MAX_FIXPOINT_ITER + 1):
            if bool(done.all()):
                break
            active = ~done
            lam = eta_total / total
            rho_raw = mg1_utilization(lam, y_mean)
            rho = np.minimum(rho_raw, RHO_MAX)
            new_wait = eta_total * mg1_mean_wait(
                lam, y_mean, y_m2, rho_max=RHO_MAX
            )
            if queueing == "bracketed":
                new_wait = np.minimum(
                    np.maximum(new_wait, burst_floor), drain_bound
                )
            new_total = t_base + new_wait
            conv = np.abs(new_total - total) <= _FIXPOINT_TOL * total
            damped = _DAMPING * new_wait + (1.0 - _DAMPING) * wait
            rho_out = np.where(active, rho, rho_out)
            # any-iteration semantics, matching the scalar flag: the clamp
            # engaging anywhere along the lane's fixed point marks it
            saturated = saturated | (active & (rho_raw >= RHO_MAX))
            wait = np.where(active, np.where(conv, new_wait, damped), wait)
            total = np.where(
                active, np.where(conv, new_total, t_base + damped), total
            )
            done = done | conv
    if instrument and obs.metrics_enabled():
        lanes = int(np.broadcast_to(multi, shape).sum())
        obs.add("vectorized.fixpoint_iterations", iters)
        obs.add("vectorized.lanes", int(np.prod(shape)))
        obs.add("vectorized.multi_node_lanes", lanes)
        obs.add("vectorized.saturated_lanes", int(saturated.sum()))
        if queueing == "bracketed" and lanes:
            # one post-hoc pass: lanes whose final wait sits on a bracket
            # edge were clamped away from the raw M/G/1 estimate
            on_edge = np.broadcast_to(multi, shape) & (
                (wait <= np.broadcast_to(burst_floor, shape))
                | (wait >= np.broadcast_to(drain_bound, shape))
            )
            obs.add(
                "vectorized.fixpoint_bracket_clamped_lanes",
                int(np.count_nonzero(on_edge & (wait > 0))),
            )

    # totals, associated exactly like TimeBreakdown.total_s
    t_net = t_net_service + wait
    times = t_cpu + t_mem + t_net
    ucrs = np.divide(t_cpu, times, out=np.zeros(shape), where=times > 0)

    # Eqs. 8-12
    power = inputs.power
    cpu_j = (p_act * t_cpu + p_stall * t_mem) * c * n
    mem_j = power.mem_w * t_mem * n
    net_j = power.net_w * t_net * n
    idle_j = power.sys_idle_w * times * n
    energies = cpu_j + mem_j + net_j + idle_j

    result = VectorizedEvaluation(
        class_name=cls_name,
        space=space_ref,
        nodes=_readonly(_flat(n, shape)),
        cores=_readonly(_flat(c, shape)),
        frequencies_hz=_readonly(_flat(f, shape)),
        t_cpu_s=_readonly(_flat(t_cpu, shape)),
        t_mem_s=_readonly(_flat(t_mem, shape)),
        t_net_service_s=_readonly(_flat(t_net_service, shape)),
        t_net_wait_s=_readonly(_flat(wait, shape)),
        utilization_baseline=_readonly(_flat(util, shape)),
        rho_network=_readonly(_flat(rho_out, shape)),
        saturated=_readonly(_flat(saturated, shape)),
        cpu_j=_readonly(_flat(cpu_j, shape)),
        mem_j=_readonly(_flat(mem_j, shape)),
        net_j=_readonly(_flat(net_j, shape)),
        idle_j=_readonly(_flat(idle_j, shape)),
        times_s=_readonly(_flat(times, shape)),
        energies_j=_readonly(_flat(energies, shape)),
        ucrs=_readonly(_flat(ucrs, shape)),
    )
    return result


def evaluate_many(
    model: HybridProgramModel,
    configs: Iterable[Configuration],
    class_name: str | None = None,
) -> VectorizedEvaluation:
    """Vectorized evaluation of an explicit configuration batch (uncached).

    Convenience for callers holding ad-hoc candidate lists (the pruned
    search, planners) where caching arbitrary subsets would only churn
    the LRU.  Deliberately *uninstrumented*: these callers invoke it from
    inner loops inside their own span (e.g. "search") and account the
    work through their own counters, so per-chunk spans and lane metrics
    would dominate both the trace and the < 2% overhead budget that
    ``benchmarks/bench_obs_overhead.py`` enforces.
    """
    return _evaluate(
        model, tuple(configs), class_name, "bracketed", True, False, instrument=False
    )
