"""Per-layer metric names and their derivation from a traced run.

Every traced run reports every name in :data:`PER_LAYER`; a layer the
workload bypasses reads 0, which is the prediction for it.  Times are
self times (span duration minus child spans), so the layers of one
single-threaded run add up instead of double counting.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import harness
from spans import self_time_by_name

STAGES = (
    "characterize-xeon-sp",
    "characterize-arm-cp",
    "calibrate-xeon-sp",
    "validate-xeon-sp",
    "validate-arm-cp",
    "fig8-pareto-xeon-sp",
    "ext-modern-machine",
    "ext-dvfs-advice",
)
STRATEGIES = ("cached", "vectorized", "sharded", "scalar")
RULES = tuple(f"RL00{i}" for i in range(1, 9))
PHASES = ("light", "heavy")

#: Span name -> per-layer time metric (self time summed over the run).
SPAN_TIMES = {
    "pipeline.fingerprint": "pipeline.fingerprint_s",
    "pipeline.store_get": "pipeline.store_get_s",
    "pipeline.store_put": "pipeline.store_put_s",
    "measure.netpipe": "measure.netpipe_s",
    "measure.baseline_sweep": "measure.baseline_sweep_s",
    "measure.comm_profile": "measure.comm_profile_s",
    "measure.power": "measure.power_s",
    "core.characterize": "core.characterize_s",
    "core.calibrate": "core.calibrate_s",
    "core.evaluate": "core.evaluate_s",
    "core.pareto": "core.pareto_s",
    "core.planner_decide": "core.planner_decide_s",
    "analysis.validate": "analysis.validate_s",
}

_SERVE = {
    "serve.handle_s": "s",
    "serve.parse_s": "s",
    "serve.engine_s": "s",
    "serve.serialize_s": "s",
    "serve.transport_s": "s",
    "serve.response_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.engine_calls": "count",
    "serve.lateness_ms": "ms",
    "serve.rate_ratio": "ratio",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
}

PER_LAYER: dict[str, str] = {
    "run.p50_ms": "ms",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.repro_self_s": "s",
    "pipeline.stages_executed": "count",
    "pipeline.stages_cached": "count",
    **{f"pipeline.stage_s.{stage}": "s" for stage in STAGES},
    **{name: "s" for name in SPAN_TIMES.values()},
    "simulate.run_s": "s",
    "simulate.runs": "count",
    "simulate.engine_events": "count",
    "core.evaluate_calls": "count",
    "core.engine_cache_hit_ratio": "ratio",
    **{f"core.plan_share.{s}": "ratio" for s in STRATEGIES},
    **{f"{name}.{phase}": unit for phase in PHASES for name, unit in _SERVE.items()},
    "serve.max_rps": "1/s",
    "lint.parse_s": "s",
    "lint.symbol_table_s": "s",
    "lint.call_graph_s": "s",
    **{f"lint.rule_s.{rule}": "s" for rule in RULES},
    "lint.findings": "count",
    "trace.overhead_s": "s",
}


def empty() -> dict[str, float]:
    """Every per-layer metric at 0 (a bypassed layer)."""
    return {name: 0.0 for name in PER_LAYER}


def with_units(values: Mapping[str, float]) -> dict[str, tuple[float, str]]:
    """``values`` as (value, unit) pairs, refusing unknown names."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise harness.BenchError(f"unknown per-layer metrics {sorted(unknown)}")
    return {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}


def from_imports(values: dict[str, float], stderr: str) -> None:
    """Fill the ``import.*`` metrics from ``-X importtime`` output."""
    for key, seconds in harness.parse_importtime(stderr).items():
        values[f"import.{key}"] = seconds


def from_spans(values: dict[str, float], spans: list[dict]) -> None:
    """Fill the span-derived layer times and counts of one run."""
    own = self_time_by_name(spans)
    for span_name, metric in SPAN_TIMES.items():
        values[metric] = own.get(span_name, 0.0)
    values["simulate.run_s"] = own.get("simulate.run", 0.0) + own.get("simulate.engine", 0.0)
    names = {span["id"]: span["name"] for span in spans}
    # A run called from inside another run (run_batch -> run) counts once.
    runs = [s["attrs"]["runs"] for s in spans if s["name"] == "simulate.run" and names.get(s["parent"]) != s["name"]]
    events = [s["attrs"]["events"] for s in spans if s["name"] == "simulate.engine"]
    values["simulate.runs"] = float(sum(runs))
    values["simulate.engine_events"] = float(sum(events))
    values["core.evaluate_calls"] = float(sum(1 for span in spans if span["name"] == "core.evaluate"))


def from_prometheus(values: dict[str, float], samples: Mapping[str, float]) -> None:
    """Fill engine-cache and planner shares from ``/metrics`` counters."""
    hits = samples.get("repro_vectorized_cache_hits_total", 0.0)
    misses = samples.get("repro_vectorized_cache_misses_total", 0.0)
    values["core.engine_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    chosen = {s: samples.get(f'repro_plan_selected_total{{strategy="{s}"}}', 0.0) for s in STRATEGIES}
    total = sum(chosen.values())
    for strategy, count in chosen.items():
        values[f"core.plan_share.{strategy}"] = count / total if total else 0.0


def parse_prometheus(text: str) -> dict[str, float]:
    """Prometheus text exposition as {sample name with labels: value}."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def median_of(runs: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced runs."""
    runs = list(runs)
    return {name: harness.median([run[name] for run in runs]) for name in runs[0]}
