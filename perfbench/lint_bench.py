"""The ``lint-corpus`` workload: ``python -m repro.lint`` on a seeded corpus.

The corpus (:mod:`corpus`) comes from the seed, not from ``src/``, so a
change to the program's own sources does not move ``lint`` times.  The
timed unit is one fresh ``python -m repro.lint --json --no-baseline``
process over the whole corpus; its findings must equal the planted set
exactly, on every repeat.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from collections import Counter

import corpus
import harness
import layers


def lint_args(root: pathlib.Path) -> list[str]:
    """Arguments of the measured command."""
    return ["--json", "--no-baseline", "--root", str(root), str(root / "src")]


def lint_cmd(root: pathlib.Path) -> list[str]:
    """The measured command line."""
    return [sys.executable, "-m", "repro.lint", *lint_args(root)]


class Gate(harness.Tally):
    """Checks that a lint run reports exactly the planted findings."""

    def __init__(self, expected: Counter) -> None:
        super().__init__()
        self.expected = expected

    def check(self, exit: harness.Exit) -> dict | None:
        """Gate one run; returns its JSON report (``None`` when it failed)."""
        if exit.code != 1:  # 1: findings reported
            self.record(f"exit {exit.code}: {exit.stderr[-300:]}")
            return None
        try:
            report = json.loads(exit.stdout)
        except ValueError as exc:
            self.record(f"bad JSON report: {exc}")
            return None
        found = Counter((f["path"], f["line"], f["rule"]) for f in report["findings"])
        if found != self.expected:
            missing, extra = self.expected - found, found - self.expected
            self.record(f"missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]}")
            return None
        self.record(None)
        return report


def _corpus(seed: int, work: pathlib.Path) -> tuple[pathlib.Path, Gate]:
    root = work / "corpus"
    return root, Gate(corpus.generate(seed, root))


def measure(seed: int, seconds: float, work: pathlib.Path) -> tuple[dict, Gate]:
    """Untraced run: end-to-end metrics; set-up is ``python -m repro.lint --help``."""
    root, gate = _corpus(seed, work)

    def op() -> harness.Exit:
        exit = harness.run_process(lint_cmd(root), work)
        gate.check(exit)
        return exit

    setup_cmd = [sys.executable, "-m", "repro.lint", "--help"]
    return harness.measure_cli(seconds, setup_cmd, op, work), gate


def trace(seed: int, seconds: float, work: pathlib.Path) -> tuple[dict, Gate]:
    """Traced run: the linter's own phase timings, import costs, overhead."""
    root, gate = _corpus(seed, work)
    spans_path = work / "spans.json"
    runs, walls = [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not (runs or gate.failed):
        plain = harness.run_process(lint_cmd(root), work)
        gate.check(plain)
        walls.append(plain.seconds)
        traced = harness.run_process(harness.launcher_cmd(spans_path, "lint", *lint_args(root)), work)
        report = gate.check(traced)
        if report is None:
            continue
        values = layers.empty()
        layers.from_imports(values, traced.stderr)
        timings = report["timings"]
        values["lint.parse_s"] = timings["parse"]
        values["lint.symbol_table_s"] = timings["symbol_table"]
        values["lint.call_graph_s"] = timings["call_graph"]
        for rule in layers.RULES:
            values[f"lint.rule_s.{rule}"] = timings[f"rule:{rule}"]
        values["lint.findings"] = float(len(report["findings"]))
        values["trace.overhead_s"] = traced.seconds - plain.seconds
        runs.append(values)
    values = layers.median_of(runs) if runs else layers.empty()
    values["run.p50_ms"] = harness.median(walls) * 1e3
    return values, gate
