"""The ``serve-mix`` workload: an open-loop request mix against ``repro serve``.

Each server runs as a child process with its default settings.  Set-up
warms the xeon/SP and arm/CP models; then seeded Poisson streams run
over two keep-alive connections.  The untraced run gives three servers
in turn a share of the ``light`` phase; the traced run adds the
``heavy`` phase and a fixed ladder of rates for the highest rate that
meets :data:`P99_LIMIT_MS` without a growing backlog.  Rates are
absolute, so a faster server is measured at the same load, never at a
load re-derived from its own speed.

About :data:`HOT_SHARE` of requests come from a hot set of
:data:`HOT_QUERIES` queries (within the 256-entry response LRU and the
64-entry engine LRU), so the median measures transport, parsing and the
LRU; the rest are random sub-spaces that never repeat in a run, so they
reach the vectorized engine and set the tail.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

import harness
import layers
import openloop
from openloop import Outcome, Request, poisson_schedule

#: Models the service answers for, warmed during set-up.
MODELS = (("xeon", "SP"), ("arm", "CP"))

#: Axes that random grids draw from, per cluster.
_AXES = {
    "xeon": (tuple(range(1, 33)), tuple(range(1, 9)), (1.2, 1.5, 1.8)),
    "arm": (tuple(range(1, 33)), tuple(range(1, 5)), (0.2, 0.5, 0.8, 1.1, 1.4)),
}

ENDPOINTS = ("evaluate_space", "search", "pareto", "whatif", "ucr")
HOT_QUERIES = 40
HOT_SHARE = 0.8

#: Phase rates (requests/s), absolute: set once from the capacity of the
#: reference host (2 CPUs; this mix saturates at about 1100 requests/s),
#: never re-derived per run.  Light is about 1/4 of capacity, heavy 3/4.
LIGHT_RPS = 275.0
HEAVY_RPS = 800.0
#: Share of ``--seconds`` for the light phase (split over the set-up
#: servers) and length of the heavy phase, at the expected arrival rate.
#: Every phase sends at least :data:`MIN_SAMPLES` requests, so p99 has
#: ten samples beyond it.
LIGHT_SHARE = 0.6
HEAVY_S = 3.0
MIN_SAMPLES = 1000
#: The max_rps ladder (about 15 % steps, spanning the capacity this mix
#: has had on the reference host), the rung length, and the p99 limit
#: every passing rung meets.
LADDER_RPS = (450.0, 525.0, 600.0, 700.0, 800.0, 900.0, 1050.0, 1200.0, 1400.0)
RUNG_S = 1.5
P99_LIMIT_MS = 100.0
#: Backlog test: the last quarter's median latency may exceed the first
#: quarter's by at most this factor plus :data:`BACKLOG_SLACK_MS`.
BACKLOG_FACTOR = 2.0
BACKLOG_SLACK_MS = 5.0
#: Servers started per run; set-up time is their median.
SETUPS = 3
#: A server that has not printed its "listening" line by then is killed.
SPAWN_TIMEOUT_S = 60.0


def _grid(rng: random.Random, cluster: str, small: bool) -> dict:
    """A random sub-space: 2-4 node counts when ``small``, else 72 configs.

    Unique queries all have 72 configurations so that the engine tail
    comes from load, not from which sizes a seed happens to draw.
    """
    nodes, cores, freqs = _AXES[cluster]
    if small:
        shape = (rng.randint(2, 4), rng.randint(1, len(cores)), rng.randint(1, len(freqs)))
    else:
        shape = (6, 4, 3)
    return {
        "nodes": sorted(rng.sample(nodes, shape[0])),
        "cores": sorted(rng.sample(cores, shape[1])),
        "frequencies_ghz": sorted(rng.sample(freqs, shape[2])),
    }


def _body(rng: random.Random, endpoint: str, small: bool) -> dict:
    cluster, program = rng.choice(MODELS)
    doc = {
        "cluster": cluster,
        "program": program,
        "space": _grid(rng, cluster, small),
        "queueing": rng.choice(("bracketed", "mg1", "none")),
    }
    if endpoint == "search":
        if rng.random() < 0.5:
            doc.update(objective="min_energy", deadline_s=rng.uniform(20.0, 200.0))
        else:
            doc.update(objective="min_time", budget_j=rng.uniform(5e3, 5e5))
    elif endpoint == "whatif":
        knob = rng.choice(("memory_bandwidth", "network_bandwidth", "idle_power"))
        doc["factors"] = {knob: rng.choice((0.5, 1.5, 2.0))}
    return doc


def _request(endpoint: str, doc: dict) -> Request:
    space = doc["space"]
    return Request(
        due=0.0,
        path=f"/v1/{endpoint}",
        body=json.dumps(doc).encode(),
        key=endpoint + json.dumps(doc, sort_keys=True),
        configs=len(space["nodes"]) * len(space["cores"]) * len(space["frequencies_ghz"]),
    )


class Mix:
    """The seeded request mix: a fixed hot set plus never-repeating queries."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve-mix/{seed}")
        endpoints = [ENDPOINTS[i % len(ENDPOINTS)] for i in range(HOT_QUERIES)]
        self.hot = [_request(e, _body(self._rng, e, small=True)) for e in endpoints]
        self._seen = {r.key for r in self.hot}

    def unique(self) -> Request:
        """A query not sent before in this run."""
        while True:
            endpoint = self._rng.choice(ENDPOINTS)
            request = _request(endpoint, _body(self._rng, endpoint, small=False))
            if request.key not in self._seen:
                self._seen.add(request.key)
                return request

    def phase(self, rate: float, seconds: float) -> list[Request]:
        """A Poisson schedule of mixed requests, ``seconds`` long on average.

        It holds at least :data:`MIN_SAMPLES` requests whatever the draw.
        """
        requests = []
        for due in poisson_schedule(self._rng, rate, max(MIN_SAMPLES, round(rate * seconds))):
            if self._rng.random() < HOT_SHARE:
                template = self._rng.choice(self.hot)
            else:
                template = self.unique()
            requests.append(dataclasses.replace(template, due=due))
        return requests


@dataclass
class Server:
    """A running ``repro serve`` child."""

    proc: subprocess.Popen
    port: int
    setup_s: float = 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server's threads so far."""
        fields = pathlib.Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise harness.BenchError("no VmHWM for the server")
        return int(match.group(1)) / 1024.0


def spawn(cmd: list[str], log: pathlib.Path) -> Server:
    """Start the server and wait for its "listening" line."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            cmd,
            cwd=harness.ROOT,
            env=harness.program_env(),
            stdout=subprocess.PIPE,
            stderr=err,
            stdin=subprocess.DEVNULL,
        )
    server = Server(proc, 0)
    # A server that neither prints nor exits is killed, which ends readline.
    timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        for raw in proc.stdout:
            match = re.search(r"listening on http://[^:]+:(\d+)", raw.decode())
            if match:
                server.port = int(match.group(1))
                return server
    finally:
        timer.cancel()
    server.stop()
    raise harness.BenchError(f"server did not start (see {log})")


def scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` as {sample name: value}."""
    status, body = openloop.get("127.0.0.1", port, "/metrics")
    if status != 200:
        raise harness.BenchError(f"/metrics answered {status}")
    return layers.parse_prometheus(body.decode())


def warm_requests() -> list[Request]:
    """One small query per model: its first answer builds the model."""
    requests = []
    for cluster, program in MODELS:
        space = {"nodes": [1, 2], "cores": [1, 2], "frequencies_ghz": [_AXES[cluster][2][-1]]}
        requests.append(_request("evaluate_space", {"cluster": cluster, "program": program, "space": space}))
    return requests


class Checker(harness.Tally):
    """Gates every response: 200, configs match, equal keys equal bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.bodies: dict[str, bytes] = {}

    def check(self, outcomes: list[Outcome]) -> None:
        """Record every outcome."""
        for outcome in outcomes:
            problem = self._problem(outcome)
            self.record(None if problem is None else f"{outcome.request.path}: {problem}")

    def _problem(self, outcome: Outcome) -> str | None:
        if not outcome.ok:
            return outcome.error or f"status {outcome.status}"
        request = outcome.request
        reference = self.bodies.setdefault(request.key, outcome.body)
        if outcome.body != reference:
            return "response bytes differ from an earlier answer to the same query"
        if json.loads(outcome.body).get("configs") != request.configs:
            return f"configs != {request.configs}"
        return None


def schedule(requests: list[Request], port: int) -> list[Outcome]:
    """Run one schedule against the server on ``port``.

    The generator's own garbage collector is paused meanwhile, so its
    pauses do not land in the server's measured latency.
    """
    gc.disable()
    try:
        return openloop.run_schedule("127.0.0.1", port, requests)
    finally:
        gc.enable()


def set_up(cmd: list[str], work: pathlib.Path, mix: Mix, checker: Checker) -> Server:
    """Spawn, wait for "listening", warm both models (timed as ``setup_s``)."""
    start = time.monotonic()
    server = spawn(cmd, work / "server.log")
    try:
        warm = schedule(warm_requests(), server.port)
        server.setup_s = time.monotonic() - start
        checker.check(warm)
        # Prime the hot set (untimed); its bytes are compared across
        # servers, so LRU answers are checked against fresh computations.
        checker.check(schedule(mix.hot, server.port))
    except BaseException:
        server.stop()
        raise
    return server


@dataclass
class PhaseResult:
    """Client-side view of one phase."""

    name: str
    rate: float
    outcomes: list[Outcome]
    before: dict[str, float]
    after: dict[str, float]
    started: float
    ended: float
    cpu_s: float  #: server CPU time (all threads) spent during the phase

    def latencies_ms(self) -> list[float]:
        """Each request's latency from its due time, in schedule order."""
        return [o.latency_s * 1e3 for o in self.outcomes]

    def p50_ms(self) -> float:
        """Median latency from due time."""
        return harness.median(self.latencies_ms())

    def p99_ms(self) -> float:
        """p99 latency from due time."""
        return harness.p99(self.latencies_ms())

    def achieved_rps(self) -> float:
        """Completed requests per second of the schedule's span."""
        done = [o.done for o in self.outcomes if o.ok]
        if not done:
            return 0.0
        return len(done) / (max(done) - min(o.due for o in self.outcomes))

    def backlog_grows(self) -> bool:
        """Whether latency rose across the phase (a queue that never drains)."""
        lat = self.latencies_ms()
        quarter = max(1, len(lat) // 4)
        first, last = harness.median(lat[:quarter]), harness.median(lat[-quarter:])
        return last > BACKLOG_FACTOR * first + BACKLOG_SLACK_MS

    def delta(self, name: str) -> float:
        """How much the ``/metrics`` sample ``name`` grew over the phase."""
        return self.after.get(name, 0.0) - self.before.get(name, 0.0)


def run_phase(name: str, rate: float, seconds: float, mix: Mix, server: Server) -> PhaseResult:
    """One fixed-rate phase, bracketed by ``/metrics`` scrapes."""
    requests = mix.phase(rate, seconds)
    before = scrape(server.port)
    cpu_before, started = server.cpu_s(), time.monotonic()
    outcomes = schedule(requests, server.port)
    ended, cpu = time.monotonic(), server.cpu_s() - cpu_before
    return PhaseResult(name, rate, outcomes, before, scrape(server.port), started, ended, cpu)


def _passes(rung: PhaseResult) -> bool:
    """A rung passes: p99 within the limit, no backlog, rate achieved."""
    return rung.p99_ms() <= P99_LIMIT_MS and not rung.backlog_grows() and rung.achieved_rps() >= 0.9 * rung.rate


def max_rps(mix: Mix, server: Server, checker: Checker) -> float:
    """Achieved rate at the highest ladder rung that meets the limit.

    The ladder climbs until a rung misses the p99 limit, shows a growing
    backlog or falls more than 10 % short of its scheduled rate.
    """
    best = 0.0
    for rate in LADDER_RPS:
        rung = run_phase(f"ladder-{rate:g}", rate, RUNG_S, mix, server)
        checker.check(rung.outcomes)
        if not _passes(rung):
            break
        best = rung.achieved_rps()
    return best


def measure(seed: int, seconds: float, work: pathlib.Path) -> tuple[dict, Checker]:
    """Untraced run: end-to-end metrics.

    :data:`SETUPS` servers are started in turn, each timed from spawn to
    warm and then given an equal share of the light phase, so set-up
    and light-load samples spread over the whole run.  Set-up and CPU
    times are scaled by the host speed sampled after each of them.
    """
    mix, checker = Mix(seed), Checker()
    setups, cpu_s, requests, rss = [], 0.0, 0, []
    speed = harness.HostSpeed()
    for _ in range(SETUPS):
        server = set_up(harness.repro_cmd("serve", "--port", "0"), work, mix, checker)
        try:
            setups.append(server.setup_s)
            speed.sample()
            phase = run_phase("light", LIGHT_RPS, LIGHT_SHARE * seconds / SETUPS, mix, server)
            checker.check(phase.outcomes)
            cpu_s += phase.cpu_s
            speed.sample()
            requests += len(phase.outcomes)
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
    scale = speed.scale()
    metrics = {
        "setup_s": (harness.median(setups) * scale, "s"),
        "norm_cpu_ms": (1e3 * cpu_s / requests * scale, "ms"),
        "peak_rss_mb": (harness.median(rss), "MB"),
    }
    return metrics, checker


def _client_layers(values: dict, phase: PhaseResult) -> None:
    """Client-side figures of one phase against a plain server."""
    p = phase.name
    values[f"serve.p50_ms.{p}"] = phase.p50_ms()
    values[f"serve.p99_ms.{p}"] = phase.p99_ms()
    values[f"serve.lateness_ms.{p}"] = 1e3 * harness.p99([o.lateness_s for o in phase.outcomes])
    values[f"serve.rate_ratio.{p}"] = phase.achieved_rps() / phase.rate


def _span_layers(values: dict, phase: PhaseResult, spans: list[dict]) -> None:
    """Per-call medians of the serve spans inside one phase, plus counters."""
    inside = [s for s in spans if phase.started <= s["start"] <= phase.ended]

    def per_call(name: str) -> float:
        durations = [s["end"] - s["start"] for s in inside if s["name"] == name]
        return harness.median(durations) if durations else 0.0

    p = phase.name
    handle = per_call("serve.handle")
    values[f"serve.handle_s.{p}"] = handle
    values[f"serve.parse_s.{p}"] = per_call("serve.parse")
    values[f"serve.engine_s.{p}"] = per_call("core.evaluate")
    values[f"serve.serialize_s.{p}"] = per_call("serve.serialize")
    round_trips = [o.done - o.sent for o in phase.outcomes if o.ok]
    if round_trips:
        values[f"serve.transport_s.{p}"] = harness.median(round_trips) - handle
    requests = phase.delta("repro_serve_requests_total")
    hits = phase.delta("repro_serve_cache_response_hits_total")
    values[f"serve.response_hit_ratio.{p}"] = hits / requests if requests else 0.0
    values[f"serve.coalesced.{p}"] = phase.delta("repro_serve_coalesced_total")
    values[f"serve.engine_calls.{p}"] = phase.delta("repro_serve_engine_calls_total")


def trace(seed: int, seconds: float, work: pathlib.Path) -> tuple[dict, Checker]:
    """Traced run: per-phase client figures, then spans from a traced server.

    A plain server runs the light and heavy phases and the max_rps
    ladder (client-side latencies, lateness, rates).  A server started
    through the traced launcher then runs the same phases for the span
    and ``/metrics`` breakdowns; the tracing overhead is the traced minus
    the plain median latency of the light phase.
    """
    mix, checker = Mix(seed), Checker()
    values = layers.empty()
    light_s = LIGHT_SHARE * seconds / SETUPS
    server = set_up(harness.repro_cmd("serve", "--port", "0"), work, mix, checker)
    try:
        plain = [
            run_phase("light", LIGHT_RPS, light_s, mix, server),
            run_phase("heavy", HEAVY_RPS, HEAVY_S, mix, server),
        ]
        for phase in plain:
            checker.check(phase.outcomes)
            _client_layers(values, phase)
        values["run.p50_ms"] = values["serve.p50_ms.light"]
        values["serve.max_rps"] = max_rps(mix, server, checker)
    finally:
        server.stop()

    spans_path = work / "spans.json"
    server = set_up(harness.launcher_cmd(spans_path, "cli", "serve", "--port", "0"), work, mix, checker)
    try:
        traced = [
            run_phase("light", LIGHT_RPS, light_s, mix, server),
            run_phase("heavy", HEAVY_RPS, HEAVY_S, mix, server),
        ]
        totals = scrape(server.port)
    finally:
        server.stop()
    spans = json.loads(spans_path.read_text())
    layers.from_imports(values, (work / "server.log").read_text())
    layers.from_spans(values, spans)
    layers.from_prometheus(values, totals)
    for phase in traced:
        checker.check(phase.outcomes)
        _span_layers(values, phase, spans)
    values["trace.overhead_s"] = (traced[0].p50_ms() - plain[0].p50_ms()) / 1e3
    return values, checker
