"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is run from ``src/`` with
no install step.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``perfbench/README.md``).  The result line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
whenever a result is printed (a failed correctness gate prints
``"correct": false``) and non-zero when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import harness
import layers
import lint_bench
import pipeline_bench
import serve_bench

WORKLOADS = ("pipeline-cold", "pipeline-warm", "serve-mix", "lint-corpus")


def _run(workload: str, seed: int, seconds: float, traced: bool, work) -> tuple:
    if workload.startswith("pipeline-"):
        kind = workload.split("-", 1)[1]
        return (pipeline_bench.trace if traced else pipeline_bench.measure)(kind, seconds, work)
    module = serve_bench if workload == "serve-mix" else lint_bench
    return (module.trace if traced else module.measure)(seed, seconds, work)


def main(argv: list[str]) -> int:
    """Parse ``argv``, run the workload, print the result; the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_checkout()
        work = harness.work_dir(args.workload)
        try:
            metrics, gate = _run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in gate.errors:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = layers.with_units(metrics)
    harness.emit(gate.failed == 0 and gate.attempted > 0, gate.attempted, gate.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
