"""The ``pipeline-cold`` and ``pipeline-warm`` workloads.

Each timed unit is one fresh ``repro pipeline repro --json`` process:
``cold`` against an empty store (every stage executes and writes),
``warm`` against a store one untimed cold run filled (every stage is
served from the store).  The paper's flow is fixed, so the seed does
not change the inputs.

Correctness, checked on every repeat: exit 0; 8 stages, all executed
(cold) or all cached (warm); every stage's output digests equal to the
first run's; the Fig. 8 artifact reports 216 configurations.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

import harness
import layers
from layers import STAGES

FIG8_CONFIGS = 216


class Gate(harness.Tally):
    """Checks each pipeline run against the first one."""

    def __init__(self) -> None:
        super().__init__()
        self.digests: dict[str, dict] = {}

    def check(self, exit: harness.Exit, store: pathlib.Path, action: str) -> list[dict]:
        """Gate one run; returns its stage reports ([] when it failed)."""
        try:
            reports = self._reports(exit, store, action)
        except (ValueError, KeyError, OSError) as exc:
            self.record(f"{action} run: {exc}")
            return []
        self.record(None)
        return reports

    def _reports(self, exit: harness.Exit, store: pathlib.Path, action: str) -> list[dict]:
        if exit.code != 0:
            raise ValueError(f"exit {exit.code}: {exit.stderr[-300:]}")
        reports = json.loads(exit.stdout)
        if sorted(r["stage"] for r in reports) != sorted(STAGES):
            raise ValueError(f"stages {[r['stage'] for r in reports]}")
        for report in reports:
            if report["action"] != action:
                raise ValueError(f"{report['stage']} was {report['action']}, expected {action}")
            entry = json.loads((store / f"{report['fingerprint']}.json").read_text())
            payload = entry["payload"]
            reference = self.digests.setdefault(report["stage"], payload["output_digests"])
            if payload["output_digests"] != reference:
                raise ValueError(f"{report['stage']} output digests changed")
            fig8 = payload["outputs"].get("fig8_pareto_xeon_sp")
            if fig8 is not None and fig8["configurations"] != FIG8_CONFIGS:
                raise ValueError(f"Fig. 8 has {fig8['configurations']} configurations")
        return reports


def pipeline_args(store: pathlib.Path) -> list[str]:
    """Arguments of the measured command (default ``--jobs``)."""
    return ["pipeline", "repro", "--store", str(store), "--json"]


class _Stores:
    """The store each run uses: a fresh one (cold) or one filled once (warm)."""

    def __init__(self, kind: str, work: pathlib.Path, gate: Gate) -> None:
        self.kind, self.work = kind, work
        self.action = "executed" if kind == "cold" else "cached"
        if kind == "warm":
            store = work / "warm-store"
            fill = harness.run_process(harness.repro_cmd(*pipeline_args(store)), work)
            gate.check(fill, store, "executed")

    def next(self) -> pathlib.Path:
        """The store for the next run (emptied first when cold)."""
        if self.kind == "cold":
            shutil.rmtree(self.work / "cold-store", ignore_errors=True)
            return self.work / "cold-store"
        return self.work / "warm-store"


def measure(kind: str, seconds: float, work: pathlib.Path) -> tuple[dict, Gate]:
    """Untraced run: end-to-end metrics; set-up is ``repro --help``."""
    gate = Gate()
    stores = _Stores(kind, work, gate)

    def op() -> harness.Exit:
        store = stores.next()
        exit = harness.run_process(harness.repro_cmd(*pipeline_args(store)), work)
        gate.check(exit, store, stores.action)
        return exit

    return harness.measure_cli(seconds, harness.repro_cmd("--help"), op, work), gate


def trace(kind: str, seconds: float, work: pathlib.Path) -> tuple[dict, Gate]:
    """Traced run: per-layer metrics, from alternating plain and traced runs."""
    gate = Gate()
    stores = _Stores(kind, work, gate)
    spans_path, metrics_path = work / "spans.json", work / "metrics.txt"
    runs, walls = [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not (runs or gate.failed):
        store = stores.next()
        plain = harness.run_process(harness.repro_cmd(*pipeline_args(store)), work)
        gate.check(plain, store, stores.action)
        walls.append(plain.seconds)
        store = stores.next()
        cmd = harness.launcher_cmd(spans_path, "cli", "--metrics", str(metrics_path), *pipeline_args(store))
        traced = harness.run_process(cmd, work)
        reports = gate.check(traced, store, stores.action)
        if not reports:
            continue
        values = layers.empty()
        layers.from_imports(values, traced.stderr)
        layers.from_spans(values, json.loads(spans_path.read_text()))
        layers.from_prometheus(values, layers.parse_prometheus(metrics_path.read_text()))
        for report in reports:
            values[f"pipeline.stage_s.{report['stage']}"] = report["seconds"]
            values[f"pipeline.stages_{report['action']}"] += 1
        values["trace.overhead_s"] = traced.seconds - plain.seconds
        runs.append(values)
    values = layers.median_of(runs) if runs else layers.empty()
    values["run.p50_ms"] = harness.median(walls) * 1e3
    return values, gate
