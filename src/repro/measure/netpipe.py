"""NetPIPE-style network characterization (paper §III-E2, Fig. 3).

NetPIPE ping-pongs messages of exponentially growing sizes between two
nodes and reports per-size latency and throughput.  The paper uses it to
establish that MPI over TCP reaches only ~90 Mbps on the 100 Mbps link —
the ``B`` (communication throughput) input of the model.

One message is resolved at MTU-frame granularity as a deterministic
two-server FIFO tandem: each frame is serialized by the sending link,
store-and-forwarded by the switch (a fixed delay), and serialized again
by the receiving link.  Frames pipeline across the two links, so large
transfers asymptote to the link's effective bandwidth while small ones
are dominated by the protocol latency floor — reproducing Fig. 3's two
regimes.  :func:`_one_way_time` solves the tandem in one pass over the
frames.

Per-message protocol overhead is *not* charged once up front.  It delays
only frame 0, which is posted to the sending link ``per_message_overhead_s``
after the message's other frames, so it overlaps their serialization:

* a one-frame message pays the full overhead, and a 3000 B message
  takes exactly as long as a 1500 B one on both built-in clusters;
* once the other frames take at least the overhead to serialize, the
  overhead disappears — in the default sweep from 16 KiB on ``xeon``
  and 4 KiB on ``arm``, so no message of 64 KiB or more pays any;
* sizes in between pay part of it.

This ordering is pinned by every fingerprint and golden value that
depends on ``B`` and the latency floor, so it is kept as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import resilience
from repro import rng as rng_mod
from repro.machines.spec import ClusterSpec
from repro.units import mbps, to_mbps

#: Default NetPIPE sweep: 1 B to 16 MiB, powers of two.
DEFAULT_SIZES = tuple(2**k for k in range(0, 25))


@dataclass(frozen=True)
class NetpipeResult:
    """Latency/throughput curves over message size (Fig. 3's two series)."""

    message_bytes: np.ndarray
    latency_s: np.ndarray
    throughput_mbps: np.ndarray

    @property
    def peak_throughput_mbps(self) -> float:
        """The achievable-bandwidth plateau (the model's ``B``)."""
        return float(self.throughput_mbps.max())

    def achievable_bandwidth_bytes_per_s(self) -> float:
        """Peak throughput converted to bytes/s for the model."""
        return mbps(self.peak_throughput_mbps)

    def latency_floor_s(self) -> float:
        """Small-message one-way latency floor."""
        return float(self.latency_s.min())


def _one_way_time(cluster: ClusterSpec, size: float) -> float:
    """One-way transfer time for one message through the frame tandem.

    Frames all have the same size, so only the posting times order the
    sending link: frames 1…F−1 are posted at t=0, frame 0 at
    ``per_message_overhead_s``.  Frames leave the sending link in that
    order, a whole frame time apart, so they reach the receiving link in
    it too.  The float operations are exactly those of an event-heap
    simulation of the same tandem: a frame reaches the switch at
    ``posted + (sent - posted)``, the time an event scheduled at its
    completion fires, which can differ from ``sent`` in the last bit.
    """
    nic = cluster.node.nic
    frames = max(1, int(np.ceil(size / nic.mtu_bytes)))
    frame_link_time = (size / frames) / nic.effective_bandwidth
    forwarding = cluster.switch.forwarding_latency_s

    send_free = receive_free = 0.0
    for posted in [0.0] * (frames - 1) + [nic.per_message_overhead_s]:
        send_free = max(posted, send_free) + frame_link_time
        arrival = posted + (send_free - posted) + forwarding
        receive_free = max(arrival, receive_free) + frame_link_time
    return receive_free


def run_netpipe(
    cluster: ClusterSpec,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repetitions: int = 3,
    rng: np.random.Generator | None = None,
    root_seed: int = rng_mod.DEFAULT_ROOT_SEED,
) -> NetpipeResult:
    """Run the characterization sweep on a cluster's network."""
    if rng is None:
        rng = rng_mod.derive(root_seed, "netpipe", cluster.name)
    latencies = np.empty(len(sizes))
    for i, size in enumerate(sizes):
        base = _one_way_time(cluster, float(size))
        # OS scheduling jitter on each timed ping
        observed = base * (1.0 + np.abs(rng.normal(0.0, 0.01, size=repetitions)))
        latencies[i] = observed.mean()
    if resilience.active():
        # All latencies are computed first (so the jitter stream is consumed
        # exactly as in an undisturbed sweep), then each size's timing is
        # routed through the resilience layer.  Sizes whose pings stay lost
        # after every retry are dropped from the curve: the bandwidth
        # plateau and latency floor survive on the remaining points.
        sizes, latencies = _resilient_sizes(cluster, sizes, latencies)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    throughput = to_mbps(sizes_arr / latencies)
    return NetpipeResult(
        message_bytes=sizes_arr,
        latency_s=latencies,
        throughput_mbps=throughput,
    )


def _resilient_sizes(
    cluster: ClusterSpec, sizes: tuple[int, ...], latencies: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-size resilience pass: retry, degrade, or fail actionably."""
    context = resilience.get_context()
    surviving_sizes: list[int] = []
    surviving_lat: list[float] = []
    for i, size in enumerate(sizes):
        try:
            lat = resilience.call(
                "netpipe",
                (cluster.name, f"size={size}"),
                lambda value=float(latencies[i]): value,
                corrupt=lambda value, factor: value * factor,
            )
        except resilience.SampleLost:
            if context is not None:
                context.note_lost_unit("netpipe", f"size={size}")
            continue
        surviving_sizes.append(size)
        surviving_lat.append(lat)
    if len(surviving_sizes) < 2:
        raise resilience.ResilienceError(
            f"NetPIPE lost all but {len(surviving_sizes)} of {len(sizes)} "
            "message sizes; need at least 2 to characterize the network — "
            "raise --retries or relax the chaos schedule"
        )
    return tuple(surviving_sizes), np.asarray(surviving_lat, dtype=np.float64)
