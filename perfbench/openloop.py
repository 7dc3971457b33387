"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

Requests are sent on a fixed schedule whatever the server does: each
one is written to its connection when it falls due, pipelined behind
any still unanswered, and its latency is measured from the time it was
*due*, not from when it was sent.  A server stall therefore shows in the
latency of every request scheduled during it, and a generator that
falls behind its own schedule shows as lateness (sent minus due).

Two threads do the work: a sender that sleeps until each due time
(a timed lock wait, microsecond-precise, where an event loop's timers
round up to the millisecond) and the calling thread, which reads every
connection through one selector.
"""

from __future__ import annotations

import collections
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass

#: Keep-alive connections a schedule is spread over (the reference host
#: has 2 CPUs).
CONNECTIONS = 2
#: The schedule starts this long after :func:`run_schedule` is called.
LEAD_S = 0.05
#: Requests unanswered this long after the last one fell due fail.
TIMEOUT_S = 10.0
#: Time limit of one :func:`get`.
GET_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Request:
    """One scheduled request; ``due`` is seconds after the phase start."""

    due: float
    path: str
    body: bytes
    key: str  #: requests with equal keys must get byte-identical bodies
    configs: int  #: the size of the configuration space it asks for


@dataclass
class Outcome:
    """What happened to one request (times are ``time.monotonic()``)."""

    request: Request
    due: float
    sent: float | None = None
    done: float | None = None
    status: int | None = None
    body: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Answered with 200 (body checks are the caller's)."""
        return self.error is None and self.status == 200

    @property
    def latency_s(self) -> float:
        """Due to response; a failed request counts as infinitely late."""
        if not self.ok or self.done is None:
            return float("inf")
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        """How far behind schedule the generator sent it."""
        return (self.sent if self.sent is not None else self.due) - self.due


def poisson_schedule(rng: random.Random, rate: float, count: int) -> list[float]:
    """Offsets of the first ``count`` arrivals of a Poisson process of ``rate``."""
    times, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        times.append(t)
    return times


def encode(method: str, path: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 request."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def parse_response(buf: bytearray) -> tuple[int, bytes, int] | None:
    """``(status, body, bytes used)`` of the first complete response in ``buf``."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    end = head_end + 4 + length
    if len(buf) < end:
        return None
    return status, bytes(buf[head_end + 4 : end]), end


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return sock


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One blocking ``GET`` on a fresh connection."""
    with _connect(host, port) as sock:
        sock.settimeout(GET_TIMEOUT_S)
        sock.sendall(encode("GET", path))
        buf = bytearray()
        while (parsed := parse_response(buf)) is None:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed")
            buf += chunk
        return parsed[0], parsed[1]


def run_schedule(host: str, port: int, requests: list[Request]) -> list[Outcome]:
    """Send ``requests`` on schedule over :data:`CONNECTIONS` keep-alive sockets.

    Request ``i`` goes to connection ``i % CONNECTIONS``, opened in that
    order; the schedule starts :data:`LEAD_S` after the call.  Requests
    unanswered :data:`TIMEOUT_S` after the last one fell due fail with
    ``error="timeout"``.
    """
    socks = [_connect(host, port) for _ in range(CONNECTIONS)]
    # Responses arrive in request order, so each one answers the oldest
    # request still pending on its connection.
    pending: list[collections.deque[Outcome]] = [collections.deque() for _ in socks]
    start = time.monotonic() + LEAD_S
    outcomes = [Outcome(request=r, due=start + r.due) for r in requests]
    stop = threading.Event()

    def send() -> None:
        for i, outcome in enumerate(outcomes):
            delay = outcome.due - time.monotonic()
            if delay > 0 and stop.wait(delay):
                return
            lane = i % CONNECTIONS
            payload = encode("POST", outcome.request.path, outcome.request.body)
            outcome.sent = time.monotonic()
            pending[lane].append(outcome)
            try:
                socks[lane].sendall(payload)
            except OSError as exc:
                outcome.error = f"send failed: {exc}"
                return

    sender = threading.Thread(target=send, name="openloop-sender")
    sender.start()
    try:
        last_due = outcomes[-1].due if outcomes else start
        _receive(socks, pending, len(outcomes), last_due + TIMEOUT_S)
    finally:
        stop.set()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # unblocks a sender stuck in sendall
            except OSError:
                pass
        sender.join()
        for sock in socks:
            sock.close()
    for outcome in outcomes:
        if outcome.done is None and outcome.error is None:
            outcome.error = "timeout"
    return outcomes


def _receive(
    socks: list[socket.socket],
    pending: list[collections.deque[Outcome]],
    expected: int,
    deadline: float,
) -> None:
    """Read responses off every socket until all arrived or ``deadline``."""
    buffers = [bytearray() for _ in socks]
    with selectors.DefaultSelector() as selector:
        for lane, sock in enumerate(socks):
            selector.register(sock, selectors.EVENT_READ, lane)
        remaining = expected
        while remaining and (left := deadline - time.monotonic()) > 0:
            for key, _ in selector.select(timeout=left):
                lane = key.data
                chunk = key.fileobj.recv(65536)
                now = time.monotonic()
                if not chunk:
                    for outcome in pending[lane]:
                        outcome.error = "connection closed"
                    selector.unregister(key.fileobj)
                    remaining -= len(pending[lane])
                    pending[lane].clear()
                    continue
                buffers[lane] += chunk
                while (parsed := parse_response(buffers[lane])) is not None:
                    status, body, used = parsed
                    del buffers[lane][:used]
                    outcome = pending[lane].popleft()
                    outcome.done, outcome.status, outcome.body = now, status, body
                    remaining -= 1
