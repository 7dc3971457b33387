"""Minimal discrete-event simulation core: the event-level test oracle.

Production code resolves every queue in closed form — vectorized Lindley
recursions in :mod:`repro.simulate.queueing` and a one-pass FIFO tandem
in :mod:`repro.measure.netpipe`.  This module keeps the classic
event-heap engine as the reference those closed forms are checked
against, event for event:

* :func:`event_one_way_time` simulates one NetPIPE message on the heap;
  the closed-form ``_one_way_time`` must return the identical float;
* :class:`FifoServer` cross-checks the Lindley solution.

The engine is deliberately small: a time-ordered heap of callbacks plus a
FIFO single-server resource.  Determinism is guaranteed by a monotone
sequence number breaking ties in event time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.machines.spec import ClusterSpec


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())


class Simulator:
    """A time-ordered event loop.

    Events scheduled at equal times fire in scheduling order.  Scheduling in
    the past raises, which catches causality bugs early.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, _Event(self.now + delay, next(self._seq), callback, args)
        )

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at an absolute time."""
        self.schedule(time - self.now, callback, *args)

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains (or ``until`` is reached).

        Returns the final simulation time.
        """
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return self.now
            event = heapq.heappop(self._heap)
            self.now = event.time
            self.events_processed += 1
            event.callback(*event.args)
        return self.now


class FifoServer:
    """A single FIFO server (memory controller / switch port analogue).

    Requests are served one at a time in submission order; each completed
    request is reported through its completion callback with the request's
    waiting time and completion time.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._busy_until = 0.0
        self.total_busy = 0.0
        self.requests_served = 0

    def submit(
        self,
        service_time: float,
        on_complete: Callable[[float, float], None] | None = None,
    ) -> tuple[float, float]:
        """Submit a request now; returns ``(wait_time, completion_time)``.

        ``on_complete(wait, completion)`` additionally fires as an event at
        the completion time if given.
        """
        if service_time < 0:
            raise ValueError("service time must be non-negative")
        start = max(self._sim.now, self._busy_until)
        wait = start - self._sim.now
        completion = start + service_time
        self._busy_until = completion
        self.total_busy += service_time
        self.requests_served += 1
        if on_complete is not None:
            self._sim.schedule_at(completion, on_complete, wait, completion)
        return wait, completion


def event_one_way_time(cluster: ClusterSpec, size: float) -> float:
    """One NetPIPE message simulated frame by frame on the event heap.

    Each frame is posted to the sending link (frame 0 after the
    per-message overhead), forwarded by the switch after its fixed delay
    and serialized again by the receiving link; the message is delivered
    when its last frame is.
    """
    nic = cluster.node.nic
    switch = cluster.switch
    frames = max(1, int(math.ceil(size / nic.mtu_bytes)))
    frame_link_time = (size / frames) / nic.effective_bandwidth

    sim = Simulator()
    sender = FifoServer(sim)
    receiver = FifoServer(sim)
    done: list[float] = []

    def deliver(_wait: float, completion: float) -> None:
        done.append(completion)

    def at_switch(_wait: float, _completion: float) -> None:
        # store-and-forward, then the receiving link serializes the frame
        sim.schedule(
            switch.forwarding_latency_s,
            lambda: receiver.submit(frame_link_time, deliver),
        )

    for k in range(frames):
        overhead = nic.per_message_overhead_s if k == 0 else 0.0
        sim.schedule(overhead, lambda: sender.submit(frame_link_time, at_switch))
    sim.run()
    return max(done)
