"""Overhead gate for the ``repro.resilience`` layer.

The resilience wrappers are compiled into every instrument read in
``repro.measure`` (counters, wall meter, mpiP, NetPIPE, power bench,
Watts-Up, power traces).  Their contract mirrors the ``repro.obs`` gate:
the measurement pipeline must not pay for fault tolerance it is not
using.  This module pins two numbers to
``benchmarks/out/resilience_overhead.json``:

* ``overhead_pct`` — a full characterization campaign (the most
  measurement-dense pipeline stage) run under an **enabled, clean**
  resilience context (retry policy, no chaos) versus the disabled
  default, as a pooled-median percentage.  The enabled-clean path is a
  strict superset of the disabled path (per-call stats, chaos lookup,
  retry-loop bookkeeping), so gating it < 2% bounds the disabled
  ``None``-check path tighter still.
* ``chaos_recovery_pct`` — the same campaign under the CI drop/delay
  schedule with generous retries, reported (not gated) so recovery cost
  stays visible in trend tracking.

Measurement follows ``bench_obs_overhead.py``: disabled/enabled samples
are interleaved pair-by-pair, compared through the ratio of pooled
medians, and the gate takes the best of a few independent attempts so a
scheduler-noise spike cannot fail a healthy build.
"""

import pathlib
import statistics
import time

from repro import resilience
from repro.context import use
from repro.core.inputs import characterize
from repro.machines.arm import arm_cluster
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program

#: Same bar as the obs gate: an unused layer costs < 2% wall time.
OVERHEAD_CEILING_PCT = 2.0
#: Interleaved (disabled, enabled) sample pairs per attempt.
_PAIRS = 12
#: Independent measurement attempts; the best one is gated.
_MAX_ATTEMPTS = 4

_CI_SCHEDULE = (
    pathlib.Path(__file__).parents[1]
    / "tests"
    / "fixtures"
    / "chaos"
    / "schedule_ci.json"
)


def _measure_overhead_pct(run, policy, chaos=None) -> float:
    """Enabled-vs-disabled overhead as a pooled-median percentage."""
    disabled, enabled = [], []
    for _ in range(_PAIRS):
        with use(resilience=None):
            t0 = time.perf_counter()
            run()
            disabled.append(time.perf_counter() - t0)
        with use(resilience=resilience.ResilienceContext(policy, chaos)):
            t0 = time.perf_counter()
            run()
            enabled.append(time.perf_counter() - t0)
    ratio = statistics.median(enabled) / statistics.median(disabled)
    return 100.0 * (ratio - 1.0)


def test_resilience_overhead(benchmark, arm_sim, write_report):
    program = get_program("CP")

    def run():
        # a fresh campaign every sample: characterization is the
        # measurement-dense stage where every instrument wrapper fires
        return characterize(SimulatedCluster(arm_cluster()), program)

    run()  # warm-up (imports, allocator)
    policy = resilience.RetryPolicy()

    attempts = []
    for _ in range(_MAX_ATTEMPTS):
        attempts.append(_measure_overhead_pct(run, policy))
        if min(attempts) < OVERHEAD_CEILING_PCT:
            break
    overhead_pct = min(attempts)

    # recovery cost under the CI chaos schedule (reported, not gated)
    chaos = resilience.ChaosSchedule.load(_CI_SCHEDULE)
    chaos_policy = resilience.RetryPolicy.aggressive()
    with use(resilience=None):
        t0 = time.perf_counter()
        run()
        t_clean = time.perf_counter() - t0
    with use(resilience=resilience.ResilienceContext(chaos_policy, chaos)):
        t0 = time.perf_counter()
        run()
        t_chaos = time.perf_counter() - t0
    chaos_recovery_pct = 100.0 * (t_chaos / t_clean - 1.0)

    write_report(
        "resilience_overhead",
        {
            "overhead_pct": (overhead_pct, "%"),
            "ceiling_pct": (OVERHEAD_CEILING_PCT, "%"),
            "chaos_recovery_pct": (chaos_recovery_pct, "%"),
        },
        extra={
            "pairs_per_attempt": _PAIRS,
            "attempts_pct": attempts,
            "chaos_schedule": str(_CI_SCHEDULE.name),
        },
    )
    print(
        f"\n[resilience] overhead={overhead_pct:+.2f}% "
        f"(attempts: {', '.join(f'{a:+.2f}%' for a in attempts)}) "
        f"chaos recovery={chaos_recovery_pct:+.2f}%"
    )

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"resilience overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_CEILING_PCT}% in every attempt: {attempts}"
    )
