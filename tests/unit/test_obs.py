"""The observability layer: metrics registry, tracer, and the facade."""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.trace import Tracer, read_jsonl


@pytest.fixture(autouse=True)
def _clean_backends():
    """Every test starts and ends with the no-op backends."""
    obs.disable()
    yield
    obs.disable()


class TestCounters:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(2.5)
        assert reg.counter_value("a.b") == 3.5

    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never.fired") == 0.0

    def test_clear_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(1.0)
        reg.clear()
        assert reg.counter_value("a") == 0.0
        assert reg.snapshot() == {"counters": {}, "histograms": {}}


class TestHistograms:
    def test_summary_stats(self):
        h = Histogram(name="h")
        for v in (0.5e-6, 2e-3, 40.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(40.0020005)
        assert h.min == 0.5e-6
        assert h.max == 40.0
        assert h.mean == pytest.approx(h.sum / 3)

    def test_bucket_assignment(self):
        h = Histogram(name="h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # le=1.0 gets 0.5 and the boundary 1.0; le=10.0 gets 5.0; +Inf gets 100.0
        assert h.bucket_counts == [2, 1, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(name="h", buckets=(10.0, 1.0))

    def test_default_buckets_span_microseconds_to_minutes(self):
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[-1] == 60.0


class TestExporters:
    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("vectorized.cache.hits", help="LRU hits").inc(3)
        reg.histogram("model.predict_seconds", buckets=(1e-3, 1.0)).observe(0.5)
        text = reg.to_prometheus_text()
        assert "# TYPE repro_vectorized_cache_hits_total counter" in text
        assert "# HELP repro_vectorized_cache_hits_total LRU hits" in text
        assert "repro_vectorized_cache_hits_total 3" in text
        assert "# TYPE repro_model_predict_seconds histogram" in text
        assert 'repro_model_predict_seconds_bucket{le="0.001"} 0' in text
        assert 'repro_model_predict_seconds_bucket{le="1"} 1' in text
        assert 'repro_model_predict_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_model_predict_seconds_sum 0.5" in text
        assert "repro_model_predict_seconds_count 1" in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.25)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c"] == 1
        assert snap["histograms"]["h"]["count"] == 1
        assert math.isclose(snap["histograms"]["h"]["sum"], 0.25)

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""


class TestTracer:
    def test_spans_nest_and_record_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.parent is None
        assert inner.parent == outer.index
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert inner.start_s >= outer.start_s

    def test_attrs_via_set(self):
        tracer = Tracer()
        with tracer.span("s", {"queueing": "mg1"}) as sp:
            sp.set(configs=12)
        assert tracer.spans[0].attrs == {"queueing": "mg1", "configs": 12}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        records = read_jsonl(str(path))
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[1]["parent"] == records[0]["index"]
        assert all(r["duration_s"] >= 0.0 for r in records)

    def test_bounded_span_count(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_names(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert tracer.names() == {"a", "b"}


def _subtrees(tracer):
    """``{owner: (outer, inner)}`` from spans tagged with an owner attr."""
    trees = {}
    for record in tracer.spans:
        if record.name in ("outer", "inner"):
            trees.setdefault(record.attrs["owner"], {})[record.name] = record
    return {k: (v["outer"], v["inner"]) for k, v in trees.items()}


class TestTracerConcurrency:
    """Interleaved threads and tasks each nest under their own spans."""

    def test_interleaved_threads_give_disjoint_subtrees(self):
        import threading

        tracer = Tracer()
        owners = ("a", "b", "c", "d")
        barrier = threading.Barrier(len(owners), timeout=10)

        def work(owner):
            # every thread opens outer, then inner, then closes both in
            # lockstep, so each step interleaves with the other threads
            with tracer.span("outer", {"owner": owner}):
                barrier.wait()
                with tracer.span("inner", {"owner": owner}):
                    barrier.wait()
                barrier.wait()

        threads = [threading.Thread(target=work, args=(o,)) for o in owners]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        trees = _subtrees(tracer)
        assert set(trees) == set(owners)
        for outer, inner in trees.values():
            assert outer.parent is None
            assert inner.parent == outer.index

    def test_index_assignment_survives_thread_stress(self):
        import sys
        import threading

        tracer = Tracer()
        threads_n, spans_n = 8, 200

        def work(owner):
            for _ in range(spans_n):
                with tracer.span("outer", {"owner": owner}):
                    with tracer.span("inner", {"owner": owner}):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # every span landed once, at the index it was assigned
        assert [r.index for r in tracer.spans] == list(
            range(2 * threads_n * spans_n)
        )
        for record in tracer.spans:
            if record.name == "inner":
                parent = tracer.spans[record.parent]
                assert parent.name == "outer"
                assert parent.attrs["owner"] == record.attrs["owner"]
            else:
                assert record.parent is None

    def test_interleaved_tasks_give_disjoint_subtrees(self):
        import asyncio

        tracer = Tracer()
        owners = ("a", "b", "c", "d")

        async def work(owner):
            with tracer.span("outer", {"owner": owner}):
                await asyncio.sleep(0)
                with tracer.span("inner", {"owner": owner}):
                    await asyncio.sleep(0)
                await asyncio.sleep(0)

        async def main():
            with tracer.span("root") as root:
                await asyncio.gather(*(work(o) for o in owners))
            return root.record.index

        root = asyncio.run(main())
        trees = _subtrees(tracer)
        assert set(trees) == set(owners)
        for outer, inner in trees.values():
            assert outer.parent == root
            assert inner.parent == outer.index


class TestFacade:
    def test_noop_by_default(self):
        assert not obs.active()
        obs.add("some.counter", 5)
        obs.observe("some.hist", 1.0)
        with obs.span("ignored") as sp:
            assert sp.set(a=1) is sp
        assert obs.counter_value("some.counter") == 0.0

    def test_observed_enables_and_restores(self):
        assert not obs.active()
        with obs.observed() as (reg, tracer):
            assert obs.metrics_enabled() and obs.tracing_enabled()
            obs.add("c")
            with obs.span("s"):
                pass
            assert reg.counter_value("c") == 1.0
            assert tracer.names() == {"s"}
        assert not obs.active()

    def test_observed_metrics_only(self):
        with obs.observed(tracing=False) as (reg, tracer):
            assert tracer is None
            assert obs.metrics_enabled() and not obs.tracing_enabled()
            assert obs.span("x") is obs.span("y")  # the shared no-op span

    def test_observed_restores_previous_backend(self):
        outer = obs.enable_metrics()
        obs.add("outer.counter")
        with obs.observed(tracing=False):
            obs.add("inner.counter")
        assert obs.get_metrics() is outer
        assert obs.counter_value("outer.counter") == 1.0
        assert obs.counter_value("inner.counter") == 0.0

    def test_counter_value_reads_live_registry(self):
        obs.enable_metrics()
        obs.add("hits", 2)
        assert obs.counter_value("hits") == 2.0


class TestRegistryThreadSafety:
    """Metric creation must be race-free (repro serve worker threads)."""

    def test_concurrent_counter_creation_yields_one_object(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            for _ in range(200):
                seen.append(registry.counter("serve.requests"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1

    def test_concurrent_histogram_creation_yields_one_object(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(4)

        def create():
            barrier.wait()
            seen.append(registry.histogram("serve.request_seconds"))

        threads = [threading.Thread(target=create) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(h) for h in seen}) == 1
