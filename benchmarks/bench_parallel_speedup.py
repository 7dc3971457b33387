"""Sharded/planner execution vs. single process (perf regression gates).

Times the single-process broadcast engine against (a) the *forced*
sharded multiprocess engine (``repro.core.parallel._run_sharded``,
called directly so it shards even where the planner would decline) and
(b) the *planner-routed* path (``repro.core.planner`` under an execution
context with the same worker bound and a result cache), checks the sharded arrays are bit-identical to the single-process
ones, times the persistent result cache's warm path, and measures the
planner's per-decision overhead plus the peak RSS of a block-streamed
evaluation of a large space.  A machine-readable record goes to
``benchmarks/out/parallel_speedup.json`` for CI trend tracking.

Two modes:

* full (default): a ~100k-config sweep at 4 workers must reach >= 3x over
  single-process — enforced only where the host actually has >= 4 CPUs
  (the record says whether the floor was enforced and why), and the
  streamed evaluation covers a 10^6-config grid;
* smoke (``REPRO_BENCH_SMOKE=1``): a small space at 2 workers and a
  10^5-config streamed grid — process dispatch on a loaded single-core
  CI runner can legitimately lose to one process when *forced*.

The planner floor binds in both modes: the planner-routed path must
never lose to single-process (>= 1.0x), because the planner declines
sharding below its break-even (the recorded 0.67x pessimization) and
serves repeats from the warm cache.  One untimed planner pass fills the
cache; then single-process and planner-routed runs alternate and the
floor compares their medians, so scheduler noise on millisecond-scale
sweeps cannot decide it.  Likewise the planner must never pick a
strategy slower than the scalar reference loop.  Either way the warm
cache must not be slower than recomputing, and the sharded arrays must
equal the single-process arrays exactly.

The streamed gate runs the same sweep twice in fresh forked children,
under a ``max_block_bytes`` budget and without one: the budgeted peak
RSS must stay within the output arrays plus a fixed allowance, below
the unbudgeted peak, and both runs must produce the same bytes.
"""

import hashlib
import multiprocessing
import os
import resource
import time

import numpy as np

from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity
from repro.core.configspace import ConfigSpace
from repro.context import use
from repro.core.parallel import _run_sharded, shutdown_pool
from repro.core.planner import RESULT_BYTES_PER_CONFIG, decide, iter_block_spaces
from repro.core.vectorized import _compute, clear_evaluation_cache, evaluate_configs
from repro.units import KIB, MIB

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Full-mode bar from the ISSUE: >= 3x at 4 workers on ~100k configs.
FULL_SPEEDUP_FLOOR = 3.0
#: The floor only binds where the hardware can deliver it.
FULL_FLOOR_MIN_CPUS = 4
#: The planner-routed path must never lose to single-process — in any
#: mode, on any host: the planner may decline sharding and may answer
#: repeats from the warm cache, so >= 1.0x is always achievable.
PLANNER_SPEEDUP_FLOOR = 1.0
WORKERS = 2 if SMOKE else 4
_REPEATS = 2 if SMOKE else 3
#: Alternating single-process / planner-routed pairs behind the planner
#: floor's medians.
PLANNER_FLOOR_PAIRS = 7

#: Streamed-evaluation budget and grid (10^5 configs smoke, 10^6 full).
STREAM_BLOCK_BYTES = 4 * MIB
STREAM_NODES = 4_167 if SMOKE else 41_667
#: Peak-RSS allowance of the budgeted sweep on top of its output arrays:
#: one block's working set plus allocator slack.  The unbudgeted pass
#: peaks about 70 MiB above its output at 10^6 configs.
STREAM_RSS_ALLOWANCE = 32 * MIB


def _synthetic_space() -> ConfigSpace:
    """~100k configs on the Xeon axes (~4.3k in smoke mode)."""
    max_nodes = 180 if SMOKE else 4170
    return ConfigSpace(
        node_counts=tuple(range(1, max_nodes + 1)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )


def _stream_space() -> ConfigSpace:
    """The large streamed grid: 24 configs per node row."""
    return ConfigSpace(
        node_counts=tuple(range(1, STREAM_NODES + 1)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )


def _best_of(fn, repeats: int = _REPEATS) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _median_pair(first, second, pairs: int) -> tuple[float, float, object]:
    """Median wall times of ``first`` and ``second`` run alternately.

    Interleaving the two spreads any drift in host load over both sides
    evenly; returns both medians plus ``second``'s last result.
    """
    first_s, second_s = [], []
    result = None
    for _ in range(pairs):
        t0 = time.perf_counter()
        first()
        first_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        result = second()
        second_s.append(time.perf_counter() - t0)
    return float(np.median(first_s)), float(np.median(second_s)), result


def _stream_child(model, space, block_bytes, conn):
    """Evaluate ``space`` in a fresh process and report its peak RSS.

    ``block_bytes`` is the context's ``max_block_bytes`` (``None``
    evaluates unbudgeted).  The child warms up on a two-row slice first
    so interpreter + import RSS is excluded; the delta then isolates the
    sweep's own working set and output.  ``ru_maxrss`` is KiB on Linux.
    """
    warmup = ConfigSpace(
        node_counts=space.node_counts[:2],
        core_counts=space.core_counts,
        frequencies_hz=space.frequencies_hz,
    )
    with use(max_block_bytes=block_bytes):
        evaluate_configs(model, warmup, use_cache=False)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB
        t0 = time.perf_counter()
        result = evaluate_configs(model, space, use_cache=False)
        elapsed = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * KIB
    digest = hashlib.sha256()
    for name in ARRAY_FIELDS:
        digest.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    conn.send(
        {
            "rss_delta_bytes": max(0, after - before),
            "elapsed_s": elapsed,
            "digest": digest.hexdigest(),
            "configs": len(result),
        }
    )
    conn.close()


def _measure_stream(model, space, block_bytes):
    """Fork a child, evaluate the space, return its RSS/timing record."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_stream_child, args=(model, space, block_bytes, child)
    )
    proc.start()
    child.close()
    record = parent.recv()
    proc.join()
    assert proc.exitcode == 0
    return record


def test_parallel_speedup(
    benchmark, xeon_sim, model_cache, write_artifact, write_report, tmp_path
):
    """Gate sharded, planner-routed, warm-cache and streamed execution."""
    model = model_cache(xeon_sim, "SP")
    space = _synthetic_space()
    cls = model.inputs.baseline_class

    def forced_shards():
        return _run_sharded(WORKERS, model, space, cls, "bracketed", True)

    try:
        # pre-warm the persistent pool: fork cost is paid once per process
        # lifetime, not per sweep, so it is excluded like any other warmup
        forced_shards()

        def single_pass():
            return _compute(model, space, None, "bracketed", True)

        single_s, single = _best_of(single_pass)
        sharded_s, sharded = _best_of(forced_shards)
        benchmark.pedantic(forced_shards, rounds=1, iterations=1)

        # the planner-routed path: under a cached context the planner
        # declines sharding when the host cannot profit and serves
        # repeats warm
        def planner_pass():
            clear_evaluation_cache()  # time the planner, not the LRU
            with use(
                workers=WORKERS, cache=ResultCache(tmp_path / "planner-cache")
            ):
                return evaluate_configs(model, space)

        planner_pass()  # untimed: fills the cache the timed passes read
        floor_single_s, planner_s, planner_result = _median_pair(
            single_pass, planner_pass, PLANNER_FLOOR_PAIRS
        )
    finally:
        shutdown_pool()

    bit_identical = all(
        np.array_equal(getattr(sharded, name), getattr(single, name))
        for name in ARRAY_FIELDS
    )
    planner_identical = all(
        np.array_equal(getattr(planner_result, name), getattr(single, name))
        for name in ARRAY_FIELDS
    )

    # warm-cache path: one write, then repeated reads of the same entry
    cache = ResultCache(tmp_path / "cache")
    identity = entry_identity(model, space, "A", "bracketed", True)
    put_s, _ = _best_of(lambda: cache.put(identity, single), repeats=1)
    warm_s, warm = _best_of(lambda: cache.get(identity))
    assert warm is not None

    # planner decision overhead: the sharding rule per decide() call
    decisions = 1000
    t0 = time.perf_counter()
    for _ in range(decisions):
        decide(len(space), workers=WORKERS, cpus=WORKERS)
    planner_overhead_s = (time.perf_counter() - t0) / decisions

    # the planner must never pick a strategy slower than the scalar
    # reference loop (ISSUE acceptance, gated in smoke mode too): time
    # the scalar loop against the planner-chosen strategy on the paper's
    # 216-config space
    paper_space = ConfigSpace(
        node_counts=tuple(range(1, 10)),
        core_counts=tuple(range(1, 9)),
        frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
    )
    scalar_s, _ = _best_of(
        lambda: [model.predict(cfg) for cfg in paper_space], repeats=1
    )
    chosen_s, _ = _best_of(
        lambda: (
            clear_evaluation_cache(),
            evaluate_configs(model, paper_space),
        )[1]
    )

    # streamed evaluation: the same sweep under the block budget and
    # unbudgeted, each's peak RSS in a fresh process, and the same bytes
    stream_space = _stream_space()
    stream = _measure_stream(model, stream_space, STREAM_BLOCK_BYTES)
    unbudgeted = _measure_stream(model, stream_space, None)
    stream_identical = stream["digest"] == unbudgeted["digest"]
    stream_output_bytes = len(stream_space) * RESULT_BYTES_PER_CONFIG
    stream_blocks = sum(
        1 for _ in iter_block_spaces(stream_space, STREAM_BLOCK_BYTES)
    )

    cpu_count = os.cpu_count() or 1
    floor_enforced = not SMOKE and cpu_count >= FULL_FLOOR_MIN_CPUS
    reason = (
        "smoke mode: correctness only"
        if SMOKE
        else (
            f"full mode on {cpu_count} CPUs"
            if floor_enforced
            else f"host has {cpu_count} < {FULL_FLOOR_MIN_CPUS} CPUs; "
            "speedup recorded but floor not enforced"
        )
    )

    record = {
        "workers": WORKERS,
        "cpu_count": cpu_count,
        "configs": len(space),
        "single_process_s": single_s,
        "sharded_s": sharded_s,
        "planner_s": planner_s,
        "planner_floor_single_s": floor_single_s,
        "planner_floor_pairs": PLANNER_FLOOR_PAIRS,
        "cache_put_s": put_s,
        "cache_warm_s": warm_s,
        "scalar_216_s": scalar_s,
        "planner_216_s": chosen_s,
        "speedup_floor_x": FULL_SPEEDUP_FLOOR,
        "planner_speedup_floor_x": PLANNER_SPEEDUP_FLOOR,
        "floor_enforced": floor_enforced,
        "floor_reason": reason,
        "stream_configs": stream["configs"],
        "stream_blocks": stream_blocks,
        "stream_block_bytes": STREAM_BLOCK_BYTES,
        "stream_elapsed_s": stream["elapsed_s"],
        "stream_output_bytes": stream_output_bytes,
        "stream_rss_allowance_bytes": STREAM_RSS_ALLOWANCE,
        "unbudgeted_peak_rss_bytes": unbudgeted["rss_delta_bytes"],
        "unbudgeted_elapsed_s": unbudgeted["elapsed_s"],
        "stream_bit_identical": stream_identical,
    }
    write_report(
        "parallel_speedup",
        {
            "speedup_x": (single_s / sharded_s, "x"),
            "planner_speedup_x": (floor_single_s / planner_s, "x"),
            "warm_cache_speedup_x": (single_s / warm_s, "x"),
            "bit_identical": (1.0 if bit_identical else 0.0, "bool"),
            "planner_overhead": (planner_overhead_s, "s"),
            "stream_peak_rss": (float(stream["rss_delta_bytes"]), "bytes"),
        },
        extra=record,
    )

    write_artifact(
        "parallel_speedup.txt",
        "\n".join(
            [
                "Sharded / planner-routed evaluation vs. single process",
                "",
                f"configs:        {len(space)}",
                f"workers:        {WORKERS} (host CPUs: {cpu_count})",
                f"single process: {single_s:.4f} s",
                f"sharded:        {sharded_s:.4f} s  "
                f"({single_s / sharded_s:.2f}x, forced)",
                f"planner (auto): {planner_s:.4f} s  "
                f"({floor_single_s / planner_s:.2f}x, median of "
                f"{PLANNER_FLOOR_PAIRS} alternating pairs)",
                f"warm cache:     {warm_s:.4f} s  "
                f"({single_s / warm_s:.2f}x)",
                f"bit-identical:  {bit_identical} (planner: {planner_identical})",
                f"decision cost:  {planner_overhead_s * 1e6:.1f} us",
                f"scalar 216:     {scalar_s:.4f} s vs planner {chosen_s:.4f} s",
                f"streamed:       {stream['configs']} configs in "
                f"{stream_blocks} blocks, peak RSS delta "
                f"{stream['rss_delta_bytes'] / MIB:.1f} MiB "
                f"({stream['elapsed_s']:.2f} s); unbudgeted "
                f"{unbudgeted['rss_delta_bytes'] / MIB:.1f} MiB "
                f"({unbudgeted['elapsed_s']:.2f} s); output "
                f"{stream_output_bytes / MIB:.1f} MiB",
                f"floors:         sharded >= {FULL_SPEEDUP_FLOOR}x ({reason}); "
                f"planner >= {PLANNER_SPEEDUP_FLOOR}x (always)",
            ]
        ),
    )

    # correctness is unconditional: exact equality, not a tolerance
    assert bit_identical, "sharded arrays diverged from single-process"
    assert planner_identical, "planner-routed arrays diverged"
    # the warm cache must never lose to recomputation
    assert warm_s <= single_s, (
        f"warm cache slower than recompute: {warm_s:.4f}s vs {single_s:.4f}s"
    )
    # the planner floor binds in every mode: auto mode must match or beat
    # single-process (it may decline sharding and may answer from cache)
    assert floor_single_s / planner_s >= PLANNER_SPEEDUP_FLOOR, (
        f"planner-routed path lost to single process: "
        f"{floor_single_s / planner_s:.2f}x (medians of "
        f"{PLANNER_FLOOR_PAIRS} alternating pairs)"
    )
    # ... and must never pick a strategy slower than the scalar loop
    assert chosen_s <= scalar_s, (
        f"planner strategy slower than scalar: {chosen_s:.4f}s vs {scalar_s:.4f}s"
    )
    # streamed evaluation: output arrays plus a fixed allowance, below
    # the unbudgeted pass, and the same bytes
    stream_ceiling = stream_output_bytes + STREAM_RSS_ALLOWANCE
    assert stream["rss_delta_bytes"] <= stream_ceiling, (
        f"streamed peak RSS {stream['rss_delta_bytes'] / MIB:.1f} MiB "
        f"exceeds output + allowance {stream_ceiling / MIB:.1f} MiB"
    )
    assert stream["rss_delta_bytes"] < unbudgeted["rss_delta_bytes"], (
        f"streamed peak RSS {stream['rss_delta_bytes'] / MIB:.1f} MiB not "
        f"below unbudgeted {unbudgeted['rss_delta_bytes'] / MIB:.1f} MiB"
    )
    assert stream_identical, "streamed arrays differ from the unbudgeted sweep"
    assert stream["configs"] == len(stream_space)
    if not SMOKE:
        assert len(space) >= 100_000
        assert stream["configs"] >= 10**6
        # near-instant warm reads: at least 2x faster than recomputing
        assert warm_s <= single_s / 2
    if floor_enforced:
        speedup = single_s / sharded_s
        assert speedup >= FULL_SPEEDUP_FLOOR, (
            f"parallel speedup regressed: {speedup:.2f}x"
        )
