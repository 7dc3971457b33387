"""Pipeline execution and staleness inspection.

:func:`run_pipeline` walks the DAG in topological order, computes every
selected stage's content fingerprint from live input files + params +
upstream output digests, and executes **only** stages whose fingerprint
has no entry in the artifact store.  Independent stages fan out across a
thread pool when ``workers > 1``; every stage runs in a copy of the
caller's :class:`~repro.context.ExecutionContext`, so the worker bound,
cache, block budget and resilience layer installed by the global CLI
flags reach the pool threads exactly as they reach a serial run.

:func:`pipeline_status` answers "what would run, and why" without
executing anything: per stage it reports ``fresh`` / ``stale`` /
``missing`` and, for stale stages, the concrete reasons (which input
file changed, which param changed, which upstream artifact changed)
derived by diffing the current identity against the stage's last
recorded execution.

Stage checkpoints: each execution gets a private directory keyed by the
stage's fingerprint; resumable campaigns (:func:`repro.core.inputs.
characterize` with ``baseline_checkpoint``, :func:`repro.resilience.
pipeline.evaluate_space_checkpointed`) park their ledgers there, so a
crashed run resumes mid-stage.  The directory is wiped whenever the
stage's identity changes — a stale campaign must never resume into a new
one (:class:`repro.resilience.checkpoint.Checkpoint` would refuse with a
``CheckpointError``; we never get that far) — and after success.
"""

from __future__ import annotations

import contextvars
import pathlib
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import obs
from repro.pipeline.dag import Pipeline, PipelineError
from repro.pipeline.fingerprint import identity_digest, stage_identity
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.store import ArtifactStore, StoreEntry


@dataclass(frozen=True)
class StageReport:
    """What happened to one stage during a run."""

    name: str
    action: str  # "executed" | "cached"
    fingerprint: str
    seconds: float
    output_digests: Mapping[str, str]


@dataclass(frozen=True)
class PipelineRun:
    """The outcome of one :func:`run_pipeline` invocation."""

    reports: tuple[StageReport, ...]
    artifacts: Mapping[str, Any]

    @property
    def executed(self) -> tuple[str, ...]:
        """Names of stages that actually ran, in topological order."""
        return tuple(r.name for r in self.reports if r.action == "executed")

    @property
    def cached(self) -> tuple[str, ...]:
        """Names of stages served from the store, in topological order."""
        return tuple(r.name for r in self.reports if r.action == "cached")


@dataclass(frozen=True)
class StageStatus:
    """One stage's freshness verdict from :func:`pipeline_status`."""

    name: str
    state: str  # "fresh" | "stale" | "missing"
    reasons: tuple[str, ...] = ()
    fingerprint: str | None = None


def _checkpoint_dir(store: ArtifactStore, stage: Stage) -> pathlib.Path:
    return store.directory / "checkpoints" / stage.name


def _prepare_checkpoint_dir(
    store: ArtifactStore, stage: Stage, fingerprint: str
) -> pathlib.Path:
    """The stage's checkpoint dir, wiped if it belongs to another identity."""
    directory = _checkpoint_dir(store, stage)
    marker = directory / ".identity"
    try:
        previous = marker.read_text(encoding="utf-8").strip()
    except OSError:
        previous = None
    if previous != fingerprint and directory.exists():
        shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True, exist_ok=True)
    marker.write_text(fingerprint + "\n", encoding="utf-8")
    return directory


def _clear_checkpoint_dir(store: ArtifactStore, stage: Stage) -> None:
    shutil.rmtree(_checkpoint_dir(store, stage), ignore_errors=True)


def _execute_stage(
    stage: Stage,
    identity: dict[str, Any],
    fingerprint: str,
    store: ArtifactStore,
    workspace: pathlib.Path,
    artifacts: Mapping[str, Any],
) -> tuple[StoreEntry, float]:
    """Run one stage's callable and persist its outputs."""
    checkpoint_dir = _prepare_checkpoint_dir(store, stage, fingerprint)
    stage_workspace = workspace / stage.name
    stage_workspace.mkdir(parents=True, exist_ok=True)
    context = StageContext(
        stage=stage,
        workspace=stage_workspace,
        artifacts=dict(artifacts),
        checkpoint_dir=checkpoint_dir,
    )
    started = time.perf_counter()
    with obs.span("pipeline_stage", stage=stage.name, fingerprint=fingerprint):
        outputs = stage.run(context)
    elapsed = time.perf_counter() - started
    if set(outputs) != set(stage.outputs):
        raise PipelineError(
            f"stage {stage.name!r} returned outputs {sorted(outputs)}, "
            f"declared {sorted(stage.outputs)}"
        )
    entry = store.put(identity, outputs)
    store.record_latest(stage.name, identity)
    _clear_checkpoint_dir(store, stage)
    return entry, elapsed


def run_pipeline(
    pipeline: Pipeline,
    store: ArtifactStore,
    stages: Iterable[str] | None = None,
    workers: int = 1,
    force: bool = False,
) -> PipelineRun:
    """Execute ``pipeline`` incrementally against ``store``.

    ``stages`` selects a subset (plus its transitive dependencies —
    fresh ancestors are served from the store, not re-run); ``None``
    runs everything.  ``workers > 1`` executes independent stages of the
    same depth concurrently in threads.  ``force`` re-executes every
    selected stage even when its entry exists (the new outputs still
    land at the same fingerprints, so an unchanged pipeline stays
    bit-identical).

    Returns a :class:`PipelineRun` with per-stage reports in topological
    order and the payloads of every selected stage's artifacts.
    """
    selected = pipeline.closure(stages)
    workers = max(1, int(workers))
    workspace = store.directory / "workspace"

    entries: dict[str, StoreEntry] = {}
    reports: dict[str, StageReport] = {}
    artifacts: dict[str, Any] = {}

    def _visit(stage: Stage) -> None:
        upstream: dict[str, str] = {}
        visible: dict[str, Any] = {}
        for dep in stage.deps:
            dep_entry = entries[dep]
            upstream.update(dep_entry.output_digests)
            visible.update(dep_entry.outputs)
        identity = stage_identity(stage, upstream)
        fingerprint = identity_digest(identity)
        entry = None if force else store.get(identity)
        if entry is not None:
            store.record_latest(stage.name, identity)
            obs.add("pipeline.stage_runs.cached")
            report = StageReport(
                name=stage.name,
                action="cached",
                fingerprint=fingerprint,
                seconds=0.0,
                output_digests=entry.output_digests,
            )
        else:
            obs.add("pipeline.stage_runs.executed")
            entry, elapsed = _execute_stage(
                stage, identity, fingerprint, store, workspace, visible
            )
            obs.observe("pipeline.stage_seconds", elapsed)
            report = StageReport(
                name=stage.name,
                action="executed",
                fingerprint=fingerprint,
                seconds=elapsed,
                output_digests=entry.output_digests,
            )
        entries[stage.name] = entry
        reports[stage.name] = report

    with obs.span(
        "pipeline_run", stages=len(selected), workers=workers, force=force
    ):
        obs.add("pipeline.runs")
        pending = [pipeline.stage(n) for n in pipeline.order if n in selected]
        if workers == 1:
            for stage in pending:
                _visit(stage)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                done: set[str] = set()
                while pending:
                    wave = [
                        s
                        for s in pending
                        if all(d in done for d in s.deps if d in selected)
                    ]
                    if not wave:  # unreachable: order is topological
                        raise PipelineError(
                            "pipeline wave deadlock; remaining: "
                            f"{[s.name for s in pending]}"
                        )
                    futures = [
                        pool.submit(contextvars.copy_context().run, _visit, s)
                        for s in wave
                    ]
                    for future in futures:
                        future.result()
                    done.update(s.name for s in wave)
                    pending = [s for s in pending if s.name not in done]

        for name in pipeline.order:
            if name in entries:
                artifacts.update(entries[name].outputs)

    ordered = tuple(
        reports[name] for name in pipeline.order if name in reports
    )
    return PipelineRun(reports=ordered, artifacts=artifacts)


def _diff_reasons(
    current: Mapping[str, Any], previous: Mapping[str, Any]
) -> list[str]:
    """Human-readable differences between two identity documents."""
    reasons: list[str] = []
    cur_inputs = current.get("inputs", {})
    prev_inputs = previous.get("inputs", {})
    for path in sorted(set(cur_inputs) | set(prev_inputs)):
        if cur_inputs.get(path) != prev_inputs.get(path):
            reasons.append(f"input changed: {path}")
    cur_params = current.get("params", {})
    prev_params = previous.get("params", {})
    for key in sorted(set(cur_params) | set(prev_params)):
        if cur_params.get(key) != prev_params.get(key):
            reasons.append(f"param changed: {key}")
    cur_up = current.get("upstream", {})
    prev_up = previous.get("upstream", {})
    for name in sorted(set(cur_up) | set(prev_up)):
        if cur_up.get(name) != prev_up.get(name):
            reasons.append(f"upstream artifact changed: {name}")
    for key in ("outputs", "format_version"):
        if current.get(key) != previous.get(key):
            reasons.append(f"stage definition changed: {key}")
    return reasons


def pipeline_status(
    pipeline: Pipeline,
    store: ArtifactStore,
    stages: Iterable[str] | None = None,
) -> tuple[StageStatus, ...]:
    """Per-stage freshness of ``pipeline`` against ``store``, read-only.

    A stage is ``fresh`` when its current fingerprint has a store entry,
    ``stale`` when it (or an upstream) must re-run, and ``missing`` when
    it has never executed or its entry was evicted.  Stale verdicts
    carry concrete reasons diffed against the stage's last recorded
    execution.  Stages downstream of a non-fresh stage cannot have their
    fingerprint computed (upstream output digests are unknown) and
    report ``stale`` with the blocking upstream named.
    """
    selected = pipeline.closure(stages)
    statuses: list[StageStatus] = []
    digests: dict[str, Mapping[str, str]] = {}  # fresh stages only
    verdicts: dict[str, str] = {}

    for name in pipeline.order:
        if name not in selected:
            continue
        stage = pipeline.stage(name)
        blocking = [
            d for d in stage.deps if verdicts.get(d) in ("stale", "missing")
        ]
        if blocking:
            verdicts[name] = "stale"
            statuses.append(
                StageStatus(
                    name=name,
                    state="stale",
                    reasons=tuple(
                        f"upstream stage not fresh: {d}" for d in blocking
                    ),
                )
            )
            continue
        upstream: dict[str, str] = {}
        for dep in stage.deps:
            upstream.update(digests[dep])
        identity = stage_identity(stage, upstream)
        fingerprint = identity_digest(identity)
        if store.contains(identity):
            entry = store.get(identity)
            if entry is not None:
                verdicts[name] = "fresh"
                digests[name] = entry.output_digests
                statuses.append(
                    StageStatus(
                        name=name, state="fresh", fingerprint=fingerprint
                    )
                )
                continue
        previous = store.latest_identity(name)
        if previous is None:
            verdicts[name] = "missing"
            statuses.append(
                StageStatus(
                    name=name,
                    state="missing",
                    reasons=("never executed",),
                    fingerprint=fingerprint,
                )
            )
            continue
        reasons = _diff_reasons(identity, previous)
        if not reasons:
            verdicts[name] = "missing"
            statuses.append(
                StageStatus(
                    name=name,
                    state="missing",
                    reasons=("artifact entry missing from store",),
                    fingerprint=fingerprint,
                )
            )
            continue
        verdicts[name] = "stale"
        statuses.append(
            StageStatus(
                name=name,
                state="stale",
                reasons=tuple(reasons),
                fingerprint=fingerprint,
            )
        )
    return tuple(statuses)
