"""Process launching, statistics and result output shared by workloads."""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: What the ``repro`` console script runs (``[project.scripts]``).
ENTRY = "import sys; from repro.cli.main import main; sys.exit(main())"
#: A program process still running after this long is killed.
PROCESS_TIMEOUT_S = 120.0
#: Fewest timed operations and set-up launches of a one-process-per-op run,
#: and how many operations share one set-up launch.
MIN_OPS = 3
MIN_SETUPS = 4
SETUP_EVERY = 2
#: The host-speed reference: a fixed pure-Python workload of
#: ``REF_ITEMS`` items that the benchmark runs in its own process between
#: program runs.  A run's time metrics are scaled by ``REF_NOMINAL_S``
#: over the reference's median CPU time in that run, which takes out most
#: of the shared host's speed drift (see ``perfbench/README.md``).
#: ``REF_NOMINAL_S`` only sets the unit; the reference took 0.17-0.28 s
#: on the reference host (a 2-vCPU Intel Xeon VM).
REF_ITEMS = 200_000
REF_NOMINAL_S = 0.2


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not (ROOT / "src" / "repro" / "cli" / "main.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")


def work_dir(name: str) -> pathlib.Path:
    """A fresh scratch directory inside the checkout (git-ignored)."""
    path = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def repro_cmd(*args: str) -> list[str]:
    """The ``repro`` command line, as its console script would run it."""
    return [sys.executable, "-c", ENTRY, *args]


def launcher_cmd(spans: pathlib.Path, target: str, *args: str) -> list[str]:
    """The traced launcher's command line (``-X importtime`` on)."""
    return [sys.executable, "-X", "importtime", str(BENCH_DIR / "launch.py"), str(spans), target, "--", *args]


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        """Count one operation; ``problem`` is ``None`` when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)


@dataclass(frozen=True)
class Exit:
    """How one fresh program process ended."""

    seconds: float  #: wall time from spawn to reaped exit
    code: int  #: exit code (negative: killed by that signal)
    cpu_s: float  #: the child's user plus system CPU time from ``wait4``
    peak_rss_mb: float  #: the child's peak RSS from ``wait4``
    stdout: str
    stderr: str


def run_process(cmd: Sequence[str], out_dir: pathlib.Path) -> Exit:
    """Run ``cmd`` from the checkout root and reap it with ``wait4``.

    Output goes to files in ``out_dir`` so a full pipe never stalls the
    child; the timed interval is spawn to reaped exit.
    """
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        code, usage = _reap(proc.pid)
        seconds = time.perf_counter() - start
    proc.returncode = code
    return Exit(
        seconds=seconds,
        code=code,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def _reap(pid: int) -> tuple[int, Any]:
    """Wait for ``pid`` (killed after :data:`PROCESS_TIMEOUT_S`); exit code and rusage.

    ``waitid(WNOWAIT)`` waits without reaping, so the pid stays the
    child's (a zombie) until the timer can no longer signal it.
    """
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(PROCESS_TIMEOUT_S, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
    finally:
        timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def reference_s() -> float:
    """CPU seconds this thread takes for the reference workload, now.

    It fills a dict with :data:`REF_ITEMS` small tuples in a scattered
    key order and reads them back in another, so that, like the
    program, it allocates, hashes and follows pointers.
    """
    start = time.thread_time()
    table = {}
    for i in range(REF_ITEMS):
        table[i * 7919 % REF_ITEMS] = (i, str(i))
    total = 0
    for i in range(REF_ITEMS):
        total += table[i * 104729 % REF_ITEMS][0]
    return time.thread_time() - start


class HostSpeed:
    """Reference-workload samples taken between program runs."""

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def sample(self) -> None:
        """Run the reference workload once more."""
        self.samples.append(reference_s())

    def scale(self) -> float:
        """The factor from this run's host speed to nominal speed."""
        return REF_NOMINAL_S / median(self.samples)


def measure_cli(
    seconds: float, setup_cmd: Sequence[str], op: Callable[[], Exit], out_dir: pathlib.Path
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of a workload whose unit is one fresh process.

    A set-up launch (``setup_cmd``, until ready to work) precedes every
    other timed operation, so both sample the same stretch of the run.
    An operation starts only while a typical round still ends inside
    ``seconds``, so the run measures for ``seconds`` and no longer.  The
    host speed is sampled after every round, and the times are scaled
    by its median.
    """
    setups: list[float] = []
    cpu_ms: list[float] = []
    rss_mb: list[float] = []
    rounds: list[float] = []
    speed = HostSpeed()

    def setup() -> float:
        exit = run_process(setup_cmd, out_dir)
        if exit.code != 0:
            raise BenchError(f"{' '.join(setup_cmd[-2:])} exited {exit.code}")
        return exit.seconds

    deadline = time.monotonic() + seconds
    while len(cpu_ms) < MIN_OPS or time.monotonic() + max(rounds[-SETUP_EVERY:]) <= deadline:
        start = time.monotonic()
        setup_s = setup() if len(cpu_ms) % SETUP_EVERY == 0 else None
        exit = op()
        speed.sample()
        if setup_s is not None:
            setups.append(setup_s)
        cpu_ms.append(exit.cpu_s * 1e3)
        rss_mb.append(exit.peak_rss_mb)
        rounds.append(time.monotonic() - start)
    while len(setups) < MIN_SETUPS:
        setups.append(setup())
        speed.sample()
    scale = speed.scale()
    return {
        "setup_s": (median(setups) * scale, "s"),
        "norm_cpu_ms": (median(cpu_ms) * scale, "ms"),
        "peak_rss_mb": (median(rss_mb), "MB"),
    }


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sequence."""
    if not values:
        raise BenchError("no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def p99(values: Sequence[float]) -> float:
    """p99, refusing fewer samples than leave ten beyond it."""
    if len(values) < 1000:
        raise BenchError(f"p99 needs 1000 samples, got {len(values)}")
    return percentile(values, 99.0)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds from ``-X importtime`` output.

    ``total_s`` sums every module's self time; the package entries sum
    self time over the package and its submodules.
    """
    sums = {"total_s": 0.0, "numpy_s": 0.0, "scipy_s": 0.0, "repro_self_s": 0.0}
    prefixes = {"numpy": "numpy_s", "scipy": "scipy_s", "repro": "repro_self_s"}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:") :].split("|")
        seconds = int(self_us) / 1e6
        name = name.strip()
        sums["total_s"] += seconds
        key = prefixes.get(name.split(".")[0])
        if key is not None:
            sums[key] += seconds
    return sums


def emit(correct: bool, attempted: int, failed: int, metrics: Mapping[str, tuple[float, str]]) -> None:
    """Print the result line the benchmark contract asks for."""
    doc: dict[str, Any] = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))
