"""Sharded multiprocess engine: bit-identity, sharding laws, context plumbing.

The headline guarantee is stronger than the usual 1e-9 tolerance: sharded
results must equal the single-process broadcast arrays *bit for bit*
(``np.array_equal``), for both transports, because every shard runs the
identical reference engine on an order-preserving slice of the space.
"""

import numpy as np
import pytest

from repro.context import ExecutionContext, current, use
from repro.core import parallel, planner
from repro.core.cache import ResultCache
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.parallel import _run_sharded, shard_space, shutdown_pool
from repro.core.search import _CHUNK_SIZE, _effective_chunk_size
from repro.core.search import search_min_energy_within_deadline
from repro.core.vectorized import (
    _compute,
    clear_evaluation_cache,
    evaluate_configs,
)
from repro.resilience.checkpoint import CheckpointError
from tests.conftest import config

#: The cache-layer fields compared bit for bit between execution modes.
from repro.core.cache import ARRAY_FIELDS


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    """Shut the persistent pool down once this module is done."""
    yield
    shutdown_pool()


@pytest.fixture(autouse=True)
def _fresh_lru():
    """Every test sees an empty space-evaluation LRU."""
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


@pytest.fixture(scope="module")
def model(xeon_sim, model_cache):
    return model_cache(xeon_sim, "SP")


GRID = ConfigSpace(
    node_counts=(1, 2, 3, 4, 6, 8),
    core_counts=(1, 4, 8),
    frequencies_hz=(1.2e9, 1.8e9),
)


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for name in ARRAY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.fixture()
def two_cpus(monkeypatch):
    """A 2-CPU host, whatever the real affinity mask."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)


@pytest.fixture()
def sharding_pays(monkeypatch, two_cpus):
    """A 2-CPU host where the planner's rule shards any sweep size."""
    monkeypatch.setattr(planner, "shard_pays", lambda size, workers: True)


def _no_scratch_space():
    raise OSError("no writable scratch space")


# ----------------------------------------------------------------------
# context validation
# ----------------------------------------------------------------------


def test_plan_rejects_bad_knobs():
    with pytest.raises(ValueError, match="workers"):
        ExecutionContext(workers=0)
    with pytest.raises(ValueError, match="max_block_bytes"):
        ExecutionContext(max_block_bytes=0)
    with pytest.raises(TypeError):
        ExecutionContext(transport="carrier-pigeon")


def test_plan_shard_count():
    # a sweep shards into workers x SHARDS_PER_WORKER pieces, and the
    # pruned search grows its candidate blocks by the same count
    assert parallel.SHARDS_PER_WORKER == 2
    with use(workers=4):
        assert _effective_chunk_size() == _CHUNK_SIZE * 8
    assert _effective_chunk_size() == _CHUNK_SIZE


def test_parallel_plan_restores_previous_plan():
    before = current()
    with use(workers=2) as outer:
        assert current() is outer
        with use(workers=3) as inner:
            assert current() is inner
            assert inner.workers == 3
        assert current() is outer
    assert current() is before


def test_parallel_plan_restores_on_error():
    before = current()
    with pytest.raises(RuntimeError):
        with use(workers=2):
            raise RuntimeError("boom")
    assert current() is before


# ----------------------------------------------------------------------
# sharding laws
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 3, 5, 7, 100])
def test_shard_space_grid_preserves_order(shards):
    pieces = shard_space(GRID, shards)
    assert len(pieces) == min(shards, len(GRID.node_counts))
    # offsets are contiguous and cover the space exactly
    expected_offset = 0
    rebuilt = []
    for offset, length, sub in pieces:
        assert offset == expected_offset
        assert length == len(list(sub.node_counts)) * len(GRID.core_counts) * len(
            GRID.frequencies_hz
        )
        expected_offset += length
        # each sub-grid keeps the full core/frequency axes (grid fast path)
        assert tuple(sub.core_counts) == GRID.core_counts
        assert tuple(sub.frequencies_hz) == GRID.frequencies_hz
        rebuilt.extend(
            ConfigSpace(
                node_counts=tuple(sub.node_counts),
                core_counts=tuple(sub.core_counts),
                frequencies_hz=tuple(sub.frequencies_hz),
            )
        )
    assert expected_offset == len(GRID)
    assert rebuilt == list(GRID)


@pytest.mark.parametrize("shards", [1, 2, 4, 9])
def test_shard_space_explicit_preserves_order(shards):
    cfgs = [config(n, c, 1.8) for n in (1, 2, 4) for c in (1, 2, 8)]
    pieces = shard_space(cfgs, shards)
    rebuilt = []
    expected_offset = 0
    for offset, length, sub in pieces:
        assert offset == expected_offset
        assert length == len(tuple(sub))
        expected_offset += length
        rebuilt.extend(sub)
    assert rebuilt == cfgs


def test_shard_space_empty_sequence():
    assert shard_space([], 4) == [(0, 0, ())]


def test_shard_space_rejects_zero_shards():
    with pytest.raises(ValueError):
        shard_space(GRID, 0)


# ----------------------------------------------------------------------
# bit-identity: sharded == single-process, both transports
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["memmap", "pickle"])
def test_sharded_grid_bit_identical(model, transport, monkeypatch):
    if transport == "pickle":
        monkeypatch.setattr(parallel, "_scratch_dir", _no_scratch_space)
    reference = _compute(model, GRID, None, "bracketed", True)
    sharded = _run_sharded(
        2, model, GRID, model.inputs.baseline_class, "bracketed", True
    )
    _assert_bit_identical(sharded, reference)


@pytest.mark.parametrize("transport", ["memmap", "pickle"])
def test_sharded_explicit_bit_identical(model, transport, monkeypatch):
    if transport == "pickle":
        monkeypatch.setattr(parallel, "_scratch_dir", _no_scratch_space)
    cfgs = tuple(
        config(n, c, f)
        for n in (1, 2, 5, 8)
        for c in (1, 8)
        for f in (1.2, 1.8)
    )
    reference = _compute(model, cfgs, None, "bracketed", True)
    sharded = _run_sharded(
        2, model, cfgs, model.inputs.baseline_class, "bracketed", True
    )
    _assert_bit_identical(sharded, reference)


def test_sharded_matches_all_queueing_variants(model):
    for queueing in ("bracketed", "mg1", "none"):
        reference = _compute(model, GRID, None, queueing, True)
        sharded = _run_sharded(
            2, model, GRID, model.inputs.baseline_class, queueing, True
        )
        _assert_bit_identical(sharded, reference)


def test_evaluate_space_under_plan_matches(model, sharding_pays):
    from repro import obs

    baseline = evaluate_space(model, GRID)
    clear_evaluation_cache()
    registry = obs.enable_metrics()
    try:
        with use(workers=2):
            planned = evaluate_space(model, GRID)
        assert registry.counter_value("parallel.sweeps") == 1
    finally:
        obs.disable()
    assert np.array_equal(planned.times_s, baseline.times_s)
    assert np.array_equal(planned.energies_j, baseline.energies_j)
    assert np.array_equal(planned.ucrs, baseline.ucrs)


# ----------------------------------------------------------------------
# inline threshold + search integration
# ----------------------------------------------------------------------


def test_small_sweep_runs_inline(model, monkeypatch, two_cpus):
    def _forbidden(*args, **kwargs):  # pragma: no cover - fails the test
        raise AssertionError("small sweep must not shard")

    # the real rule on a 2-CPU host: 36 configs are far below break-even
    monkeypatch.setattr(parallel, "_run_sharded", _forbidden)
    reference = _compute(model, GRID, None, "bracketed", True)
    with use(workers=2):
        inline = evaluate_configs(model, GRID, use_cache=False)
    _assert_bit_identical(inline, reference)


def test_single_worker_plan_runs_inline(model, monkeypatch, sharding_pays):
    def _forbidden(*args, **kwargs):  # pragma: no cover - fails the test
        raise AssertionError("workers=1 must not shard")

    monkeypatch.setattr(parallel, "_run_sharded", _forbidden)
    with use(workers=1):
        evaluate_configs(model, GRID, use_cache=False)


def test_search_identical_under_plan(model, sharding_pays):
    space = list(GRID)
    best_plain, stats_plain = search_min_energy_within_deadline(
        model, space, deadline_s=1e6
    )
    with use(workers=2):
        best_plan, stats_plan = search_min_energy_within_deadline(
            model, space, deadline_s=1e6
        )
    assert best_plain is not None and best_plan is not None
    assert best_plan.config == best_plain.config
    assert best_plan.energy_j == best_plain.energy_j
    assert stats_plan.total == stats_plain.total


def test_search_checkpoint_pins_chunk_size(model, tmp_path):
    """A checkpoint written under one worker count refuses another."""
    ck = tmp_path / "search.ck"
    space = list(GRID)
    with use(workers=2):
        search_min_energy_within_deadline(
            model, space, deadline_s=1e6, checkpoint=ck
        )
    with pytest.raises(CheckpointError):
        search_min_energy_within_deadline(
            model, space, deadline_s=1e6, checkpoint=ck
        )


# ----------------------------------------------------------------------
# disk cache wiring through the context
# ----------------------------------------------------------------------


def test_plan_serves_warm_results_from_disk(model, tmp_path):
    with use(cache=ResultCache(tmp_path)) as context:
        cold = evaluate_space(model, GRID)
        assert context.cache.stats()["writes"] == 1
        assert context.cache.stats()["misses"] == 1
        clear_evaluation_cache()  # force the disk-cache path
        warm = evaluate_space(model, GRID)
        assert context.cache.stats()["hits"] == 1
    _assert_bit_identical(warm.vectorized, cold.vectorized)
    # rehydrated evaluations rebuild their configs from the arrays
    assert warm.vectorized.configs == tuple(GRID)


def test_uncacheable_sweeps_skip_disk(model, tmp_path):
    cfgs = tuple(config(n, 8, 1.8) for n in (1, 2, 4))
    with use(cache=ResultCache(tmp_path)) as context:
        evaluate_configs(model, cfgs, use_cache=False)
        assert context.cache.stats()["writes"] == 0
        assert context.cache.entries() == []


# ----------------------------------------------------------------------
# worker clamping on low-CPU hosts (regression: 0.67x pessimization)
# ----------------------------------------------------------------------


def test_effective_workers_clamps_to_available_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    assert parallel.effective_workers(1) == 1
    assert parallel.effective_workers(2) == 2
    assert parallel.effective_workers(8) == 2
    monkeypatch.setattr(parallel, "available_cpus", lambda: 16)
    assert parallel.effective_workers(8) == 8


def test_available_cpus_is_positive():
    assert parallel.available_cpus() >= 1


def test_clamped_plan_runs_inline_on_single_cpu_host(
    model, monkeypatch, sharding_pays
):
    """workers=4 on a 1-CPU host must fall back to the inline engine."""
    from repro import obs

    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    registry = obs.enable_metrics()
    try:
        with use(workers=4):
            result = evaluate_configs(model, GRID, use_cache=False)
        assert registry.counter_value('plan_selected{strategy="vectorized"}') == 1
        # no sharded sweep ran
        assert registry.counter_value("parallel.sweeps") == 0
    finally:
        obs.disable()
    _assert_bit_identical(result, _compute(model, GRID, None, "bracketed", True))


def test_clamp_partial_uses_available_cpus(model, monkeypatch, sharding_pays):
    """workers=4 on a 2-CPU host shards across 2 workers, bit-identically."""
    from repro import obs

    widths = []
    real = parallel._run_sharded

    def spy(workers, *args):
        widths.append(workers)
        return real(workers, *args)

    monkeypatch.setattr(parallel, "_run_sharded", spy)
    registry = obs.enable_metrics()
    try:
        with use(workers=4):
            result = evaluate_configs(model, GRID, use_cache=False)
        assert registry.counter_value("parallel.sweeps") == 1
        assert registry.counter_value('plan_selected{strategy="sharded"}') == 1
    finally:
        obs.disable()
    assert widths == [2]
    _assert_bit_identical(result, _compute(model, GRID, None, "bracketed", True))


def test_clamp_workers_false_bypasses_the_clamp(model, monkeypatch):
    """Calling the shard engine directly shards at the requested width
    regardless of CPUs."""
    from repro import obs

    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    registry = obs.enable_metrics()
    try:
        result = _run_sharded(
            2, model, GRID, model.inputs.baseline_class, "bracketed", True
        )
        assert registry.counter_value("parallel.sweeps") == 1
        assert registry.counter_value("parallel.shards") == 2 * 2
    finally:
        obs.disable()
    _assert_bit_identical(result, _compute(model, GRID, None, "bracketed", True))


# ----------------------------------------------------------------------
# pool lifecycle (regression: leaked superseded pools, thread races)
# ----------------------------------------------------------------------


def test_superseded_pool_is_shut_down_on_resize():
    first = parallel._pool(2)
    second = parallel._pool(3)
    assert first is not second
    # the old pool must be unusable (shut down), not silently leaked
    with pytest.raises(RuntimeError):
        first.submit(int, 0)
    assert second.submit(int, 0).result() == 0
    shutdown_pool()


def test_pool_requests_race_to_a_single_pool():
    """Concurrent _pool() calls from many threads must share one pool."""
    import threading

    pools = []
    barrier = threading.Barrier(8)

    def grab():
        barrier.wait()
        pools.append(parallel._pool(2))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(p) for p in pools}) == 1
    shutdown_pool()


def test_shutdown_pool_is_idempotent_and_reentrant():
    parallel._pool(2)
    shutdown_pool()
    shutdown_pool()  # second call is a no-op, not an error
    assert parallel._POOL is None


def test_pool_is_shut_down_at_interpreter_exit():
    """A process holding a live pool must exit promptly and cleanly."""
    import subprocess
    import sys

    code = (
        "from repro.core import parallel\n"
        "pool = parallel._pool(2)\n"
        "assert pool.submit(int, 1).result() == 1\n"
        "print('pool-alive')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pool-alive" in proc.stdout
