"""Differential harness: closed-form NetPIPE vs the event-level oracle.

``repro.measure.netpipe._one_way_time`` resolves a message's frame tandem
(sender link, switch forwarding delay, receiver link) in closed form.
The event-heap simulation of the same tandem in
``tests.oracles.event_engine`` is the reference: every one-way time, and
therefore every NetPIPE curve, fingerprint and golden value downstream,
must be the *identical* float — compared with ``==``, never approx.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines.arm import arm_cluster
from repro.machines.spec import ClusterSpec
from repro.machines.xeon import xeon_cluster
from repro.measure import netpipe
from repro.measure.netpipe import DEFAULT_SIZES, _one_way_time, run_netpipe
from tests.oracles.event_engine import event_one_way_time

CLUSTERS = {"xeon": xeon_cluster(), "arm": arm_cluster()}

#: Sizes around the 1500 B MTU, where the frame count changes.
MTU_BOUNDARY_SIZES = (1499, 1500, 1501, 2999, 3000, 3001, 4500, 4501)

#: Sizes that fit one frame, where overhead ordering cannot matter.
SINGLE_FRAME_SIZES = (1, 7, 64, 1000, 1400)


def _with_overhead(cluster: ClusterSpec, overhead_s: float) -> ClusterSpec:
    """The cluster with its NIC's per-message overhead replaced."""
    nic = dataclasses.replace(cluster.node.nic, per_message_overhead_s=overhead_s)
    return dataclasses.replace(
        cluster, node=dataclasses.replace(cluster.node, nic=nic)
    )


def _without_overhead(cluster: ClusterSpec) -> ClusterSpec:
    """The cluster with a zero per-message overhead NIC.

    With no overhead every frame is posted at t=0 and frame 0 goes first
    on the sending link instead of last.
    """
    return _with_overhead(cluster, 0.0)


@pytest.fixture(params=sorted(CLUSTERS))
def cluster(request) -> ClusterSpec:
    return CLUSTERS[request.param]


@pytest.mark.parametrize("size", MTU_BOUNDARY_SIZES + SINGLE_FRAME_SIZES)
@pytest.mark.parametrize("overhead", [True, False], ids=["overhead", "no-overhead"])
def test_boundary_sizes_match_oracle(cluster, size, overhead):
    spec = cluster if overhead else _without_overhead(cluster)
    assert _one_way_time(spec, float(size)) == event_one_way_time(spec, float(size))


@given(
    name=st.sampled_from(sorted(CLUSTERS)),
    overhead=st.booleans(),
    size=st.integers(min_value=1, max_value=16 * 2**20),
)
@example(name="xeon", overhead=True, size=16 * 2**20)
@example(name="arm", overhead=False, size=16 * 2**20)
@settings(max_examples=40, deadline=None)
def test_drawn_sizes_match_oracle(name, overhead, size):
    spec = CLUSTERS[name] if overhead else _without_overhead(CLUSTERS[name])
    assert _one_way_time(spec, float(size)) == event_one_way_time(spec, float(size))


@given(
    name=st.sampled_from(sorted(CLUSTERS)),
    overhead_s=st.floats(min_value=1e-6, max_value=1e-3),
    size=st.integers(min_value=1, max_value=64 * 1500),
)
# the last frame reaches the switch at posted + (done - posted), which
# here is one ulp away from done: the closed form must keep that rounding
@example(name="xeon", overhead_s=2.5384094322279106e-05, size=13654)
@settings(max_examples=100, deadline=None)
def test_drawn_overheads_match_oracle(name, overhead_s, size):
    spec = _with_overhead(CLUSTERS[name], overhead_s)
    assert _one_way_time(spec, float(size)) == event_one_way_time(spec, float(size))


def test_full_default_sweep_matches_oracle(cluster, monkeypatch):
    """The whole default ``run_netpipe`` curve, jitter included."""
    closed = run_netpipe(cluster)
    monkeypatch.setattr(netpipe, "_one_way_time", event_one_way_time)
    oracle = run_netpipe(cluster)
    assert np.array_equal(closed.message_bytes, np.asarray(DEFAULT_SIZES, float))
    assert np.array_equal(closed.latency_s, oracle.latency_s)
    assert np.array_equal(closed.throughput_mbps, oracle.throughput_mbps)


def test_overhead_overlaps_the_other_frames(cluster):
    """Documented behaviour: frame 0 carries the overhead but is posted
    after the other frames, so a two-frame message costs no more than a
    one-frame one and large messages pay no overhead at all."""
    bare = _without_overhead(cluster)
    assert _one_way_time(cluster, 3000.0) == _one_way_time(cluster, 1500.0)
    for size in (2.0**16, 2.0**24):
        assert _one_way_time(cluster, size) == _one_way_time(bare, size)
    overhead = cluster.node.nic.per_message_overhead_s
    assert _one_way_time(cluster, 64.0) - _one_way_time(bare, 64.0) == pytest.approx(
        overhead
    )
