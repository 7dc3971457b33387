"""Serve × planner: /metrics strategy labels, byte-stable responses."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.context import use
from repro.core import parallel, planner
from repro.core.vectorized import clear_evaluation_cache
from repro.serve.app import ServeApp

#: Large enough that the planner has a real decision to make, small
#: enough that an evaluation is milliseconds.
SPACE = {
    "nodes": list(range(1, 13)),
    "cores": [1, 2, 4, 8],
    "frequencies_ghz": [1.2, 1.8, 2.4],
}


def _body(**overrides) -> bytes:
    base = {"cluster": "xeon", "program": "SP", "space": SPACE}
    base.update(overrides)
    return json.dumps(base).encode()


@pytest.fixture(scope="module")
def shared_models():
    """Characterize (xeon, SP) once; later apps reuse the model registry."""
    app = ServeApp()
    app._model_for("xeon", "SP")
    models, specs = dict(app._models), dict(app._specs)
    obs.disable()
    return models, specs


@pytest.fixture()
def make_app(shared_models):
    """Factory for fresh apps preloaded with the shared model registry."""
    models, specs = shared_models

    def make(max_block_bytes=None, **kwargs) -> ServeApp:
        # the app captures the execution context it is created in
        with use(max_block_bytes=max_block_bytes):
            app = ServeApp(**kwargs)
        app._models.update(models)
        app._specs.update(specs)
        return app

    yield make
    obs.disable()


@pytest.fixture(autouse=True)
def _fresh_lru():
    """Strategy comparisons must not be short-circuited by the space LRU."""
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


async def _query(app: ServeApp, body: bytes) -> bytes:
    status, _, payload = await app.handle("POST", "/v1/evaluate_space", body)
    assert status == 200
    return payload


def test_selected_strategy_surfaces_in_metrics(make_app):
    async def run():
        app = make_app()
        await _query(app, _body())
        status, ctype, payload = await app.handle("GET", "/metrics", b"")
        assert status == 200 and ctype.startswith("text/plain")
        text = payload.decode()
        assert 'repro_plan_selected_total{strategy="' in text
        # exactly one TYPE line for the family even with several labels
        assert text.count("# TYPE repro_plan_selected_total counter") == 1

    asyncio.run(run())


def test_streamed_response_bytes_identical_to_materialized(make_app):
    async def run():
        materialized = await _query(make_app(), _body())
        clear_evaluation_cache()
        # one-config blocks: maximum block-boundary stress
        streamed = await _query(make_app(max_block_bytes=1024), _body())
        assert streamed == materialized

    asyncio.run(run())


def test_sharded_response_bytes_identical(make_app, monkeypatch):
    cheap_shards = planner.CostModel(
        source="test",
        vectorized_base_s=1.0,
        vectorized_per_config_s=1.0,
        shard_dispatch_s=0.0,
        shard_overhead_per_config_s=0.0,
        cache_read_base_s=1.0,
        cache_read_per_config_s=1.0,
    )

    async def run():
        vectorized = await _query(make_app(), _body())
        clear_evaluation_cache()
        with use(workers=2):
            app = make_app()
        sharded = await _query(app, _body())
        assert sharded == vectorized
        assert app.registry.counter_value('plan_selected{strategy="sharded"}') == 1

    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "MIN_PARALLEL_CONFIGS", 1)
    monkeypatch.setattr(planner, "resolve_cost_model", lambda: cheap_shards)
    try:
        asyncio.run(run())
    finally:
        parallel.shutdown_pool()


def test_scalar_plan_is_not_selectable_in_serve(make_app):
    # the scalar loop is not a strategy: even a tiny query routes
    # through the byte-stable engine strategies
    async def run():
        app = make_app()
        await _query(
            app, _body(space={"nodes": [1], "cores": [2], "frequencies_ghz": [1.8]})
        )
        assert app.registry.counter_value('plan_selected{strategy="scalar"}') == 0

    asyncio.run(run())


def test_response_lru_and_coalescer_unaffected_by_strategy(make_app):
    async def run():
        app = make_app(max_block_bytes=1024)
        first = await _query(app, _body())
        hits_before = app.registry.counter_value("serve.cache.response_hits")
        second = await _query(app, _body())
        assert second == first
        assert (
            app.registry.counter_value("serve.cache.response_hits")
            == hits_before + 1
        )
        # the streamed engine ran exactly once: the repeat was answered
        # from the response LRU without re-entering the engine
        assert app.engine_calls == 1

    asyncio.run(run())


def test_warm_tier_serves_streamed_results(make_app, tmp_path):
    async def run():
        app = make_app(cache_dir=str(tmp_path), max_block_bytes=1024)
        first = await _query(app, _body())
        clear_evaluation_cache()
        # a fresh app sharing only the disk tier answers from it
        other = make_app(cache_dir=str(tmp_path))
        second = await _query(other, _body())
        assert second == first
        assert other.engine_calls == 0

    asyncio.run(run())
