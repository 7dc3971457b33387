"""Metric names, the result line, and the constants BENCHMARK.json records."""

import json
import re
import sys

import pytest

import harness
import layers
import serve_bench

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_unique():
    """Every metric and workload name fits the contract's pattern, once."""
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name


def test_per_layer_list_matches_what_a_traced_run_reports():
    """BENCHMARK.json lists exactly the per-layer names and units a traced run fills."""
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert set(layers.with_units(layers.empty())) == set(layers.PER_LAYER)


def test_cli_workloads_report_every_end_to_end_metric(tmp_path):
    """A one-process-per-op run reports every end-to-end metric, each above 0."""
    noop = [sys.executable, "-c", "pass"]
    metrics = harness.measure_cli(0.0, noop, lambda: harness.run_process(noop, tmp_path), tmp_path)
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_host_speed_scales_by_the_median_reference_time(monkeypatch):
    """The factor is the nominal reference time over the median of the run's reference times."""
    nominal = harness.REF_NOMINAL_S
    times = iter([4 * nominal, 2 * nominal, nominal / 2])
    monkeypatch.setattr(harness, "reference_s", lambda: next(times))
    speed = harness.HostSpeed()
    speed.sample()
    speed.sample()
    assert speed.scale() == pytest.approx(0.5)


def test_serve_rates_and_limit_are_the_ones_recorded():
    """The serve rates and p99 limit in the code are the ones BENCHMARK.json records."""
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "serve-mix")
    ladder = serve_bench.LADDER_RPS
    for value in (serve_bench.LIGHT_RPS, serve_bench.HEAVY_RPS, ladder[0], ladder[-1], serve_bench.P99_LIMIT_MS):
        assert f"{value:g}" in why


def test_p99_needs_ten_samples_beyond_it():
    """p99 is the nearest-rank value and refuses fewer than 1000 samples."""
    values = list(range(1, 1001))
    assert harness.p99(values) == 990
    with pytest.raises(harness.BenchError):
        harness.p99(values[:999])


def test_importtime_sums_self_time_per_package():
    """``-X importtime`` self times are summed in total and per package."""
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:      1000 |       1000 |     scipy.optimize",
        "import time:        50 |         50 | repro.cli",
        "some other line",
    ]
    expected = {"total_s": 1350e-6, "numpy_s": 300e-6, "scipy_s": 1000e-6, "repro_self_s": 50e-6}
    assert harness.parse_importtime("\n".join(lines)) == pytest.approx(expected)
