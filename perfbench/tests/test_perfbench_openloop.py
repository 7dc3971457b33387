"""Open-loop accounting: latency from due time, with an injected stall."""

import random
import socket
import threading
import time

import openloop
from openloop import Request


class StallingServer:
    """Answers pipelined requests in order, one thread per connection.

    Connection ``lane`` (in accept order) sleeps ``stall_s`` before its
    answer to request ``stall_at`` of the schedule, which the generator
    sends on lane ``stall_at % CONNECTIONS``.
    """

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_lane = stall_at % openloop.CONNECTIONS
        self.stall_turn = stall_at // openloop.CONNECTIONS
        self.stall_s = stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self) -> None:
        for lane in range(openloop.CONNECTIONS):
            conn, _ = self.listener.accept()
            thread = threading.Thread(target=self._serve, args=(conn, lane), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, lane: int) -> None:
        with conn:
            buf, served = b"", 0
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                while len(rest) < length:
                    rest += conn.recv(65536)
                buf = rest[length:]
                if lane == self.stall_lane and served == self.stall_turn:
                    time.sleep(self.stall_s)
                served += 1
                body = b'{"configs": 1}'
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)

    def close(self) -> None:
        """Stop accepting and wait for the connection threads to end."""
        self.listener.close()
        for thread in self.threads:
            thread.join(timeout=5)


def test_a_stall_counts_against_every_request_due_during_it():
    """A stalled answer delays its connection's queue, measured from due time."""
    gap, stall_at, stall_s = 0.01, 5, 0.2
    server = StallingServer(stall_at, stall_s)
    try:
        requests = [Request(due=i * gap, path="/v1/x", body=b"{}", key="k", configs=1) for i in range(40)]
        outcomes = openloop.run_schedule("127.0.0.1", server.port, requests)
    finally:
        server.close()

    assert all(o.ok for o in outcomes)
    stall_end = outcomes[stall_at].sent + stall_s
    stalled_lane = stall_at % openloop.CONNECTIONS
    for i, outcome in enumerate(outcomes):
        # The generator kept its schedule through the stall ...
        assert outcome.lateness_s < 0.05
        if i % openloop.CONNECTIONS != stalled_lane:
            # ... the other connection was not held up ...
            assert outcome.latency_s < stall_s / 2
        elif stall_at <= i and outcome.due < stall_end:
            # ... and every request due on the stalled connection before
            # the stall ended waited for it, which only latency from the
            # due time shows.
            assert outcome.latency_s >= stall_end - outcome.due - 0.005
            assert outcome.latency_s > outcome.done - outcome.sent - 1e-9
    assert max(o.latency_s for o in outcomes) >= stall_s - 0.005
    assert outcomes[-1].latency_s < stall_s / 2  # the queue drained afterwards


def test_unanswered_requests_fail_after_the_timeout(monkeypatch):
    """A request nobody answers fails as a timeout and counts as infinitely late."""
    monkeypatch.setattr(openloop, "TIMEOUT_S", 0.3)
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        requests = [Request(due=0.0, path="/v1/x", body=b"{}", key="k", configs=1)]
        start = time.monotonic()
        (outcome,) = openloop.run_schedule("127.0.0.1", listener.getsockname()[1], requests)
        assert time.monotonic() - start < 5
    finally:
        listener.close()
    assert not outcome.ok and outcome.error == "timeout"
    assert outcome.latency_s == float("inf")


def test_poisson_schedule_is_seeded_and_has_the_asked_rate():
    """Same seed, same arrivals; the count is exact and the rate as asked."""
    a = openloop.poisson_schedule(random.Random(7), 500.0, 5000)
    b = openloop.poisson_schedule(random.Random(7), 500.0, 5000)
    assert a == b
    assert len(a) == 5000
    assert a == sorted(a) and 9.4 < a[-1] < 10.6
