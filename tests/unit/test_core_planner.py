"""Planner: the sharding rule, decision table, blocks, metrics."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.context import ExecutionContext, current, use
from repro.core import planner
from repro.core.cache import ARRAY_FIELDS, ResultCache, entry_identity
from repro.core.configspace import ConfigSpace
from repro.core.planner import (
    DEFAULT_MAX_BLOCK_BYTES,
    WORKING_BYTES_PER_CONFIG,
    decide,
    iter_block_spaces,
    shard_pays,
)
from repro.core.vectorized import clear_evaluation_cache, evaluate_configs
from tests.conftest import config


@pytest.fixture(autouse=True)
def _clean_planner_state():
    """Each test starts without a warm LRU, and leaves the execution
    context as it found it."""
    clear_evaluation_cache()
    before = current()
    yield
    assert current() is before


@pytest.fixture()
def sharding_always_pays(monkeypatch):
    """Force the rule's answer to "shard" at every size."""
    monkeypatch.setattr(planner, "shard_pays", lambda size, workers: True)


# ----------------------------------------------------------------------
# the sharding rule
# ----------------------------------------------------------------------


def _reference_shards(size, workers):
    """The default comparison the rule replaced, kept as the reference.

    The old planner estimated ``vectorized`` as a 2 ms base plus 1 us per
    config and ``sharded`` as 50 ms dispatch plus the same base plus
    ``size * (1 us / workers + 0.3 us)``, took the strictly cheaper one
    (ties to ``vectorized``) and never sharded below 4096 configs.
    """
    vectorized_s = 2e-3 + size * 1e-6
    sharded_s = 5e-2 + 2e-3 + size * (1e-6 / workers + 3e-7)
    return (sharded_s < vectorized_s) & (size >= 4096)


class TestShardRule:
    SIZES = np.arange(0, 2 * 10**6 + 1, dtype=np.int64)

    @pytest.mark.parametrize("workers", range(2, 17))
    def test_rule_agrees_with_the_reference_at_every_size(self, workers):
        # the rule is plain float arithmetic, so it evaluates elementwise
        # over the whole size range exactly as it does per call
        rule = shard_pays(self.SIZES, workers)
        reference = _reference_shards(self.SIZES, workers)
        mismatched = self.SIZES[rule != reference]
        assert mismatched.size == 0, mismatched[:10]
        # per-call agreement around the break-even, through decide()
        first = int(self.SIZES[np.argmax(reference)])
        for size in (first - 2, first - 1, first, first + 1, 2 * 10**6):
            expect = bool(_reference_shards(size, workers))
            assert shard_pays(size, workers) is expect
            d = decide(size, workers=workers, cpus=workers)
            assert (d.strategy == "sharded") is expect

    def test_break_even_sizes(self):
        assert not shard_pays(111_111, 4) and shard_pays(111_112, 4)
        # no worker count brings the break-even below ~71k configs
        assert not shard_pays(71_428, 10**9)

    @pytest.mark.parametrize("size", [0, 1, 4096, 250_001, 10**6, 2 * 10**6])
    def test_single_worker_never_shards(self, size, sharding_always_pays):
        for cpus in (1, 4, 16):
            assert decide(size, workers=1, cpus=cpus).strategy == "vectorized"


# ----------------------------------------------------------------------
# decision table
# ----------------------------------------------------------------------


class TestDecisionTable:
    """The (grid size, workers, cache state, affinity mask) corners."""

    def test_tiny_space_is_vectorized(self):
        assert decide(1, workers=1, cpus=1).strategy == "vectorized"
        assert decide(3, workers=1, cpus=1).strategy == "vectorized"

    def test_empty_space_is_vectorized(self):
        assert decide(0, workers=1, cpus=1).strategy == "vectorized"

    def test_medium_space_prefers_vectorized(self):
        for size in (100, 4096, 100080):
            assert decide(size, workers=1, cpus=8).strategy == "vectorized"
            assert decide(size, workers=2, cpus=8).strategy == "vectorized"

    def test_large_space_with_real_cpus_shards(self):
        d = decide(10**6, workers=4, cpus=4)
        assert d.strategy == "sharded"
        assert d.workers == 4

    def test_one_cpu_affinity_never_selects_sharded(self, monkeypatch):
        # regression for the 0.67x pessimization recorded on a 1-CPU
        # host: 4 requested workers on a 1-CPU affinity mask must not
        # shard, at any size, even where the rule is forced to say yes
        for size in (1, 4096, 100080, 10**7):
            assert decide(size, workers=4, cpus=1).strategy != "sharded"
        monkeypatch.setattr(planner, "shard_pays", lambda size, workers: True)
        monkeypatch.setattr(planner.parallel, "available_cpus", lambda: 1)
        for size in (1, 4096, 100080, 10**7):
            d = decide(size, workers=4, cpus=1)
            assert d.strategy == "vectorized"
            assert d.workers == 1
            assert decide(size, workers=4).strategy == "vectorized"

    def test_warm_cache_wins_in_auto_mode(self):
        d = decide(10**6, workers=4, cpus=4, cache_hit=True)
        assert d.strategy == "cached"

    def test_forced_cache_mode_does_not_exist(self):
        # no strategy can be forced: the rule always decides
        with pytest.raises(TypeError):
            decide(10, mode="cached")

    def test_block_budget_forces_streamed_vectorized(self):
        size = 10**7
        budget = 1_000_000
        assert size * WORKING_BYTES_PER_CONFIG > budget
        d = decide(size, workers=4, cpus=4, max_block_bytes=budget)
        assert d.strategy == "vectorized"
        assert d.streamed
        # sharded is not even a candidate under a streaming budget, even
        # where the rule would pick it
        assert decide(size, workers=4, cpus=4).strategy == "sharded"

    def test_generous_budget_does_not_stream(self):
        d = decide(100, workers=1, cpus=1, max_block_bytes=DEFAULT_MAX_BLOCK_BYTES)
        assert not d.streamed

    def test_min_parallel_floor_gates_sharding(self):
        # the rule's break-even is the only size floor: one config below
        # it stays vectorized, one above it shards
        assert decide(250_000, workers=2, cpus=2).strategy == "vectorized"
        assert decide(250_001, workers=2, cpus=2).strategy == "sharded"

    def test_allow_scalar_false_excludes_scalar(self):
        assert decide(1, workers=1, cpus=1).strategy == "vectorized"
        for size in (0, 1, 216, 10**6):
            d = decide(size, workers=4, cpus=4)
            assert d.strategy != "scalar"
            assert d.strategy in planner.PLAN_STRATEGIES

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            decide(-1)


class TestAmbientConfig:
    def test_planner_config_restores_previous(self):
        before = current()
        with use(max_block_bytes=1 << 20) as outer:
            assert current() is outer
            with use(max_block_bytes=1):
                assert current().max_block_bytes == 1
            assert current() is outer
        assert current() is before

    def test_config_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = current()

        with use(max_block_bytes=1):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
            assert current().max_block_bytes == 1
        assert seen["other"] == ExecutionContext()

    def test_invalid_mode_rejected(self):
        # plan modes are gone: the context has no field to force one
        with pytest.raises(TypeError):
            with use(mode="psychic"):
                pass  # pragma: no cover - use() raises before the body
        with pytest.raises(ValueError, match="max_block_bytes"):
            with use(max_block_bytes=0):
                pass  # pragma: no cover - use() raises before the body


# ----------------------------------------------------------------------
# block iteration
# ----------------------------------------------------------------------


def _flatten_blocks(space, max_block_bytes):
    blocks = list(iter_block_spaces(space, max_block_bytes))
    # offsets are contiguous and lengths consistent
    expect = 0
    cfgs = []
    for offset, length, sub in blocks:
        assert offset == expect
        sub_cfgs = list(sub)
        assert len(sub_cfgs) == length
        cfgs.extend(sub_cfgs)
        expect += length
    return blocks, cfgs


class TestBlockIteration:
    GRID = ConfigSpace(
        node_counts=(1, 2, 3, 5),
        core_counts=(1, 2, 4),
        frequencies_hz=(1.6e9, 2.0e9, 2.4e9),
    )

    @pytest.mark.parametrize(
        "budget",
        [
            1,  # single config per block: freq-axis splitting
            2 * WORKING_BYTES_PER_CONFIG,  # freq-axis runs
            4 * WORKING_BYTES_PER_CONFIG,  # core-axis splitting
            12 * WORKING_BYTES_PER_CONFIG,  # node rows
            10**9,  # whole grid in one block
        ],
    )
    def test_grid_blocks_concatenate_to_canonical_order(self, budget):
        blocks, cfgs = _flatten_blocks(self.GRID, budget)
        assert cfgs == list(self.GRID)
        if budget >= 10**9:
            assert len(blocks) == 1

    def test_single_config_grid(self):
        grid = ConfigSpace(
            node_counts=(1,), core_counts=(8,), frequencies_hz=(2.0e9,)
        )
        blocks, cfgs = _flatten_blocks(grid, 1)
        assert len(blocks) == 1 and cfgs == list(grid)

    def test_explicit_sequence_slices(self):
        seq = tuple(config(n, 2, 2.0) for n in range(1, 8))
        blocks, cfgs = _flatten_blocks(seq, 3 * WORKING_BYTES_PER_CONFIG)
        assert cfgs == list(seq)
        assert [b[1] for b in blocks] == [3, 3, 1]

    def test_empty_sequence_yields_one_empty_block(self):
        blocks = list(iter_block_spaces((), 1))
        assert blocks == [(0, 0, ())]

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_block_bytes"):
            list(iter_block_spaces(self.GRID, 0))


# ----------------------------------------------------------------------
# execute() dispatch + labeled metrics
# ----------------------------------------------------------------------


SPACE = ConfigSpace(
    node_counts=(1, 2, 4), core_counts=(1, 4), frequencies_hz=(1.6e9, 2.4e9)
)


class TestExecuteDispatch:
    def test_streamed_config_is_bit_identical(self, xeon_sp_model):
        vec = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        with use(max_block_bytes=1):
            streamed = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        for name in ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(streamed, name), getattr(vec, name)
            )

    def test_planner_uses_disk_cache_when_plan_has_one(
        self, xeon_sp_model, tmp_path
    ):
        cache = ResultCache(tmp_path)
        identity = entry_identity(
            xeon_sp_model, SPACE, "W", "bracketed", True
        )
        registry = obs.enable_metrics()
        try:
            with use(cache=ResultCache(tmp_path)):
                evaluate_configs(xeon_sp_model, SPACE)
                assert cache.contains(identity)
                clear_evaluation_cache()
                again = evaluate_configs(xeon_sp_model, SPACE)
            cached = registry.counter_value('plan_selected{strategy="cached"}')
        finally:
            obs.disable()
        assert again is not None
        assert cached == 1

    def test_selection_counter_is_labeled_in_prometheus_text(
        self, xeon_sp_model
    ):
        registry = obs.enable_metrics()
        try:
            evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
            text = registry.to_prometheus_text()
        finally:
            obs.disable()
        assert 'repro_plan_selected_total{strategy="vectorized"} 1' in text
        # one TYPE line for the whole family
        assert text.count("# TYPE repro_plan_selected_total counter") == 1

    def test_lru_hit_records_cached_selection(self, xeon_sp_model):
        registry = obs.enable_metrics()
        try:
            evaluate_configs(xeon_sp_model, SPACE)
            evaluate_configs(xeon_sp_model, SPACE)
            value = registry.counter_value('plan_selected{strategy="cached"}')
        finally:
            obs.disable()
        assert value >= 1


class TestResultCacheContains:
    def test_contains_probe_tracks_entry_files(self, xeon_sp_model, tmp_path):
        cache = ResultCache(tmp_path)
        identity = entry_identity(xeon_sp_model, SPACE, "W", "bracketed", True)
        assert not cache.contains(identity)
        vec = evaluate_configs(xeon_sp_model, SPACE, use_cache=False)
        cache.put(identity, vec)
        assert cache.contains(identity)
        # the probe does not count as a get
        assert cache.stats()["hits"] == 0
