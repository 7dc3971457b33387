"""Planner: cost model, calibration, decision table, blocks, metrics."""

import json
import pathlib
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
    FALLBACK_COST_MODEL,
    WORKING_BYTES_PER_CONFIG,
    CalibrationError,
    CostModel,
    calibrate,
    decide,
    iter_block_spaces,
    load_cost_model,
    resolve_cost_model,
    save_cost_model,
)
from repro.core.vectorized import clear_evaluation_cache, evaluate_configs
from tests.conftest import config

BENCH_DIR = "benchmarks/out"

#: A calibration file as the previous release wrote it: it still carries
#: the retired ``scalar_per_config_s`` rate.
LEGACY_CALIBRATION = (
    pathlib.Path(__file__).parents[1]
    / "fixtures"
    / "planner"
    / "calibration_with_scalar_rate.json"
)


@pytest.fixture(autouse=True)
def _clean_planner_state(monkeypatch):
    """Each test starts without env calibration or cache, and leaves the
    execution context as it found it."""
    monkeypatch.delenv(planner.CALIBRATION_ENV, raising=False)
    planner.invalidate_cost_model_cache()
    clear_evaluation_cache()
    before = current()
    yield
    assert current() is before
    planner.invalidate_cost_model_cache()


# ----------------------------------------------------------------------
# cost model + calibration
# ----------------------------------------------------------------------


class TestCostModel:
    def test_estimates_are_linear_in_size(self):
        cm = FALLBACK_COST_MODEL
        assert cm.estimate("vectorized", 100) == pytest.approx(
            cm.vectorized_base_s + 100 * cm.vectorized_per_config_s
        )
        assert cm.estimate("cached", 100) == pytest.approx(
            cm.cache_read_base_s + 100 * cm.cache_read_per_config_s
        )

    def test_sharded_estimate_divides_slope_by_workers(self):
        cm = FALLBACK_COST_MODEL
        one = cm.estimate("sharded", 10**6, workers=1)
        four = cm.estimate("sharded", 10**6, workers=4)
        assert four < one
        assert four == pytest.approx(
            cm.shard_dispatch_s
            + cm.vectorized_base_s
            + 10**6 * (cm.vectorized_per_config_s / 4 + cm.shard_overhead_per_config_s)
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            FALLBACK_COST_MODEL.estimate("quantum", 10)
        # the scalar loop is a test reference, not a strategy
        with pytest.raises(ValueError, match="unknown strategy"):
            FALLBACK_COST_MODEL.estimate("scalar", 10)

    def test_degenerate_rates_rejected(self):
        with pytest.raises(CalibrationError):
            CostModel(
                source="bad",
                vectorized_base_s=0.0,
                vectorized_per_config_s=0.0,
                shard_dispatch_s=0.0,
                shard_overhead_per_config_s=0.0,
                cache_read_base_s=0.0,
                cache_read_per_config_s=0.0,
            )


class TestCalibration:
    def test_calibrate_from_committed_reports(self):
        cm = calibrate(BENCH_DIR)
        assert cm.source == "calibrated"
        # vectorized is far cheaper per config than the best observed
        # per-config scalar time
        with open(f"{BENCH_DIR}/vectorized_speedup.json") as fh:
            cases = json.load(fh)["extra"]["cases"]
        best = min(c["scalar_s"] / c["configs"] for c in cases)
        assert cm.vectorized_per_config_s < best / 100
        assert cm.cpus == 1  # the committed parallel report's host

    def test_calibrated_model_reproduces_measured_ordering(self):
        # on the calibration host, the vectorized estimate must stay far
        # below the measured scalar loop at every measured size — the
        # acceptance gate "never selects a strategy slower than scalar"
        cm = calibrate(BENCH_DIR)
        with open(f"{BENCH_DIR}/vectorized_speedup.json") as fh:
            cases = json.load(fh)["extra"]["cases"]
        for case in cases:
            estimate = cm.estimate("vectorized", case["configs"])
            assert estimate < case["scalar_s"]

    def test_missing_vectorized_report_is_an_error(self, tmp_path):
        with pytest.raises(CalibrationError, match="vectorized_speedup"):
            calibrate(tmp_path)

    def test_missing_parallel_report_falls_back_for_shards(self, tmp_path):
        with open(f"{BENCH_DIR}/vectorized_speedup.json") as fh:
            (tmp_path / "vectorized_speedup.json").write_text(fh.read())
        cm = calibrate(tmp_path)
        assert cm.source == "calibrated"
        assert cm.shard_dispatch_s == FALLBACK_COST_MODEL.shard_dispatch_s
        assert (
            cm.shard_overhead_per_config_s
            == FALLBACK_COST_MODEL.shard_overhead_per_config_s
        )

    def test_save_load_round_trip(self, tmp_path):
        cm = calibrate(BENCH_DIR)
        path = save_cost_model(cm, tmp_path / "cal.json")
        assert load_cost_model(path) == cm
        assert "scalar_per_config_s" not in json.loads(path.read_text())

    def test_calibration_with_retired_scalar_rate_still_loads(self):
        doc = json.loads(LEGACY_CALIBRATION.read_text())
        assert "scalar_per_config_s" in doc
        cm = load_cost_model(LEGACY_CALIBRATION)
        assert cm.source == doc["source"]
        assert cm.vectorized_per_config_s == doc["vectorized_per_config_s"]
        assert cm.shard_dispatch_s == doc["shard_dispatch_s"]
        assert cm.cpus == doc["cpus"]

    def test_load_rejects_foreign_and_corrupt_files(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"kind": "something_else"}')
        with pytest.raises(CalibrationError):
            load_cost_model(foreign)
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(CalibrationError):
            load_cost_model(corrupt)
        with pytest.raises(CalibrationError):
            load_cost_model(tmp_path / "missing.json")

    def test_resolve_prefers_env_then_fallback(self, tmp_path, monkeypatch):
        assert resolve_cost_model() is FALLBACK_COST_MODEL
        path = save_cost_model(calibrate(BENCH_DIR), tmp_path / "cal.json")
        monkeypatch.setenv(planner.CALIBRATION_ENV, str(path))
        planner.invalidate_cost_model_cache()
        assert resolve_cost_model().source == "calibrated"
        # an explicit model is a decide() argument, not context state
        assert decide(10, cost_model=FALLBACK_COST_MODEL).reason.startswith(
            "cheapest estimate (fallback"
        )

    def test_resolve_degrades_unusable_env_file_to_fallback(
        self, tmp_path, monkeypatch
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        monkeypatch.setenv(planner.CALIBRATION_ENV, str(bad))
        planner.invalidate_cost_model_cache()
        assert resolve_cost_model() is FALLBACK_COST_MODEL


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

    def test_large_space_with_real_cpus_shards(self):
        d = decide(10**6, workers=4, cpus=4)
        assert d.strategy == "sharded"
        assert d.workers == 4

    def test_one_cpu_affinity_never_selects_sharded(self):
        # regression for the 0.67x pessimization recorded in
        # parallel_speedup.json: 4 requested workers on a 1-CPU affinity
        # mask must not shard, at any size, even when forced
        cheap_shards = CostModel(
            source="test",
            vectorized_base_s=1.0,
            vectorized_per_config_s=1.0,
            shard_dispatch_s=0.0,
            shard_overhead_per_config_s=0.0,
            cache_read_base_s=1.0,
            cache_read_per_config_s=1.0,
        )
        for size in (1, 4096, 100080, 10**7):
            assert decide(size, workers=4, cpus=1).strategy != "sharded"
            d = decide(size, workers=4, cpus=1, cost_model=cheap_shards)
            assert d.strategy == "vectorized"
            assert d.estimate_for("sharded") is None

    def test_calibrated_model_reproduces_the_recorded_pessimization(self):
        # the exact recorded case: 100080 configs, 4 requested workers,
        # a 1-CPU calibration host — auto mode declines sharding
        cm = calibrate(BENCH_DIR)
        d = decide(100080, workers=4, cpus=1, cost_model=cm)
        assert d.strategy == "vectorized"
        # on the same host, small sweeps also decline sharding: the
        # fixed dispatch cost dominates under the amortization size
        small = decide(4096, workers=4, cpus=4, cost_model=cm)
        assert small.strategy == "vectorized"

    def test_warm_cache_wins_in_auto_mode(self):
        d = decide(10**6, workers=4, cpus=4, cache_hit=True)
        assert d.strategy == "cached"

    def test_forced_cache_mode_does_not_exist(self):
        # no strategy can be forced: the cost model always decides
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
        # where the cost model would pick it
        assert decide(size, workers=4, cpus=4).strategy == "sharded"

    def test_generous_budget_does_not_stream(self):
        d = decide(100, workers=1, cpus=1, max_block_bytes=DEFAULT_MAX_BLOCK_BYTES)
        assert not d.streamed

    def test_min_parallel_floor_gates_sharding(self):
        cheap_shards = CostModel(
            source="test",
            vectorized_base_s=1.0,
            vectorized_per_config_s=1.0,
            shard_dispatch_s=0.0,
            shard_overhead_per_config_s=0.0,
            cache_read_base_s=1.0,
            cache_read_per_config_s=1.0,
        )
        below = decide(
            99, workers=4, cpus=4, cost_model=cheap_shards, min_parallel_configs=100
        )
        assert below.strategy != "sharded"
        above = decide(
            100, workers=4, cpus=4, cost_model=cheap_shards, min_parallel_configs=100
        )
        assert above.strategy == "sharded"

    def test_allow_scalar_false_excludes_scalar(self):
        assert decide(1, workers=1, cpus=1).strategy == "vectorized"
        for size in (0, 1, 216, 10**6):
            d = decide(size, workers=4, cpus=4)
            assert d.strategy != "scalar"
            assert d.estimate_for("scalar") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            decide(-1)

    def test_decision_carries_estimates(self):
        d = decide(1000, workers=4, cpus=4)
        assert d.estimate_for("vectorized") == pytest.approx(
            FALLBACK_COST_MODEL.estimate("vectorized", 1000)
        )
        assert d.estimate_for("sharded") is not None
        assert d.estimate_for("cached") is None  # no warm entry probed


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
