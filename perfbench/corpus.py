"""Seeded lint corpus: a repo-sized source tree with a planted finding set.

:func:`generate` writes about :data:`MODULES` modules under
``<root>/src/synth`` (nested defs, classes with ``threading`` locks and
``# guarded-by:`` annotations, async defs and cross-module imports) plus
a few ``src/repro/core`` modules named after pipeline entry points, and
returns the findings ``repro.lint`` must report for it.  Every planted
violation carries a ``# planted: RLxxx`` comment on the line the linter
reports, so the expected set is read back from the files themselves and
the corpus documents its own answer.  The output depends only on the
seed.

The filler code is written to be clean under every rule: no conversion
literals, no entropy or clock calls, no pool submissions, no blocking
call reachable from an ``async def``, guarded state touched only under
its lock, and one lock order.
"""

from __future__ import annotations

import pathlib
import random
import re
from collections import Counter

#: Modules in the generated package (the repository has about 130).
MODULES = 128
#: Modules per sub-package.
PER_PACKAGE = 8
#: Top-level functions, classes and methods per module.
FUNCTIONS = 4
CLASSES = 1
METHODS = 2
#: Planted findings per rule.  The counts are fixed so that every seed
#: lints the same amount of code; the seed picks their form and place.
PLANTS = {
    "RL001": 4,
    "RL002": 3,
    "RL003": 2,
    "RL004": 3,
    "RL005": 2,
    "RL006": 3,
    "RL007": 3,
    "RL008": 2,
}

_MARK = re.compile(r"# planted: (RL\d{3})(?:x(\d+))?")

#: Entry points whose modules RL005 checks; each plant writes the module
#: with the function but without a ``repro.obs`` span.
_ENTRY_POINTS = (
    ("repro/core/batch.py", "plan_batch"),
    ("repro/core/dvfs.py", "advise_stall_dvfs"),
    ("repro/core/pareto.py", "pareto_frontier"),
)


def _module_path(index: int) -> tuple[str, str]:
    package = f"pkg{index // PER_PACKAGE:02d}"
    return f"synth.{package}.mod{index:03d}", f"src/synth/{package}/mod{index:03d}.py"


class _Module:
    """Source lines of one generated module, built top to bottom."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.rel = _module_path(index)[1]
        self.header = ['"""Generated module for the reprolint benchmark corpus."""', ""]
        self.imports = {"import asyncio", "import threading"}
        self.body: list[str] = []

    def add(self, block: str) -> None:
        """Append ``block`` followed by two blank lines."""
        self.body.extend(block.strip("\n").splitlines())
        self.body.append("")
        self.body.append("")

    def text(self) -> str:
        """The module's source: docstring, sorted imports, body."""
        return "\n".join(self.header + sorted(self.imports) + ["", ""] + self.body) + "\n"


def _pure_function(rng: random.Random, m: int, f: int, callees: list[str]) -> str:
    """A function with nested closures; ``callees`` are pure functions."""
    a, b = rng.randint(2, 7), rng.randint(1, 5)
    calls = "".join(f"\n        acc = acc + {c}(acc, {k + 1})" for k, c in enumerate(callees))
    return f'''
def compute_{m}_{f}(value, step):
    """Pure arithmetic over nested helpers."""

    def scale(x):
        def shift(y):
            return y + {b}

        return shift(x) * {a}

    acc = 0
    for item in (value, step, value - step):
        acc = acc + scale(item)
    if acc > {a * 11}:{calls}
        acc = acc - {b}
    return acc
'''


def _class(rng: random.Random, m: int, c: int) -> str:
    lock = f"_lock_{c}"
    methods = []
    for k in range(METHODS):
        if k % 2 == 0:
            method = f'''
    def update_{k}(self, key, amount):
        """Add under the lock, through a nested helper."""

        def bump(current):
            return current + amount * {rng.randint(2, 7)}

        with self.{lock}:
            self.totals[key] = bump(self.totals.get(key, 0))
            self.count += 1
            return self.count
'''
        else:
            method = f'''
    def read_{k}(self, key):
        """Read a consistent snapshot under the lock."""
        with self.{lock}:
            snapshot = dict(self.totals)
            count = self.count

        def weight(items):
            return [v * {rng.randint(2, 7)} for v in items]

        return sum(weight(snapshot.values())) + count + len(key)
'''
        methods.append(method)
    header = f'''
class Ledger_{m}_{c}:
    """Counters shared between threads."""

    def __init__(self):
        self.{lock} = threading.Lock()
        self.totals = {{}}  # guarded-by: {lock}
        self.count = 0  # guarded-by: {lock}
'''
    return header + "".join(methods)


def _async_function(m: int, f: int, callee: str) -> str:
    return f'''
async def serve_{m}_{f}(value):
    """Yield to the loop between two pure steps."""
    first = {callee}(value, 1)
    await asyncio.sleep(0)
    return {callee}(first, 2)
'''


def _lock_pair(m: int) -> str:
    """Two module locks, always taken in one order."""
    return f'''
_OUTER_{m} = threading.Lock()
_INNER_{m} = threading.Lock()
_REGISTRY_{m} = {{}}  # guarded-by: _INNER_{m}


def register_{m}(key, value):
    """Record a value under both locks, outer first."""
    with _OUTER_{m}:
        with _INNER_{m}:
            _REGISTRY_{m}[key] = value
            return len(_REGISTRY_{m})
'''


# -- planted violations: each marked line is one reported finding ----------
_CONVERSIONS = (
    "hz = value * 1e9  # planted: RL001",
    "rate = value / 1e6  # planted: RL001",
    "bits = value * 8  # planted: RL001",
    "size = value / 2**30  # planted: RL001",
)
_ENTROPY_SOURCES = (
    ("random.random()", "import random"),
    ("time.time()", "import time"),
)


def _plant_units(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    line = rng.choice(_CONVERSIONS)
    block = f'''
def convert_{tag}(value):
    """A raw unit conversion."""
    {line}
    return {line.split(" =")[0]}
'''
    return block, set()


def _plant_determinism(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    call, module = rng.choice(_ENTROPY_SOURCES)
    block = f'''
def jitter_{tag}():
    """An unseeded entropy or clock source."""
    return {call}  # planted: RL002
'''
    return block, {module}


def _plant_forksafety(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    block = f'''
_SHARD_LOG_{tag} = []


def _shard_worker_{tag}(shard):
    _SHARD_LOG_{tag}.append(len(shard))  # planted: RL003
    return sum(shard)


def dispatch_{tag}(pool, shards):
    """Run the impure worker on a pool."""
    futures = [pool.submit(_shard_worker_{tag}, shard) for shard in shards]
    return [future.result() for future in futures]
'''
    return block, set()


def _plant_atomicio(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    mode = rng.choice(('"w"', '"a"'))
    block = f'''
def save_checkpoint_{tag}(checkpoint_path, payload):
    """Write straight onto the checkpoint file."""
    with open(checkpoint_path, {mode}, encoding="utf-8") as fh:  # planted: RL004
        json.dump(payload, fh)
'''
    return block, {"import json"}


def _plant_asyncblocking(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    block = f'''
def _load_{tag}(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


async def fetch_{tag}(path):
    """Reaches blocking file IO from the event loop."""
    data = _load_{tag}(path)  # planted: RL006
    await asyncio.sleep(0)
    return data
'''
    return block, set()


def _plant_lockguard(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    block = f'''
class Tally_{tag}:
    """A counter read without its lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self.value += 1

    def racy_read(self):
        return self.value  # planted: RL007
'''
    return block, set()


def _plant_lockorder(rng: random.Random, tag: str) -> tuple[str, set[str]]:
    if rng.random() < 0.5:
        block = f'''
_FIRST_{tag} = threading.Lock()
_SECOND_{tag} = threading.Lock()


def refresh_{tag}():
    with _FIRST_{tag}:
        with _SECOND_{tag}:
            pass


def snapshot_{tag}():
    with _SECOND_{tag}:
        with _FIRST_{tag}:  # planted: RL008
            pass
'''
        return block, set()
    block = f'''
_HELD_{tag} = threading.Lock()


async def publish_{tag}():
    with _HELD_{tag}:
        await asyncio.sleep(0)  # planted: RL008
'''
    return block, set()


_PLANTERS = {
    "RL001": _plant_units,
    "RL002": _plant_determinism,
    "RL003": _plant_forksafety,
    "RL004": _plant_atomicio,
    "RL006": _plant_asyncblocking,
    "RL007": _plant_lockguard,
    "RL008": _plant_lockorder,
}


def _entry_point_module(function: str) -> str:
    return f'''"""Generated pipeline entry point without a repro.obs span."""


def {function}(*args, **kwargs):  # planted: RL005
    """Return the arguments it was given."""
    return args, kwargs
'''


def build(seed: int) -> dict[str, str]:
    """The corpus as {repository-relative path: source text}."""
    rng = random.Random(f"lint-corpus/{seed}")
    modules = [_Module(i) for i in range(MODULES)]
    for module in modules:
        m = module.index
        # Cross-module calls only go to lower-indexed modules' pure
        # functions, so the call graph is deep but acyclic.
        for f in range(FUNCTIONS):
            callees = []
            if m > 0 and f % 3 == 0:
                other = rng.randrange(m)
                target = f"compute_{other}_{rng.randrange(FUNCTIONS)}"
                module.imports.add(f"from {_module_path(other)[0]} import {target}")
                callees.append(target)
            if f > 0 and f % 2 == 0:
                callees.append(f"compute_{m}_{rng.randrange(f)}")
            module.add(_pure_function(rng, m, f, callees))
        for c in range(CLASSES):
            module.add(_class(rng, m, c))
        module.add(_lock_pair(m))
        module.add(_async_function(m, 0, f"compute_{m}_{rng.randrange(FUNCTIONS)}"))

    files: dict[str, str] = {}
    count = 0
    for rule, n in sorted(PLANTS.items()):
        if rule == "RL005":
            for rel, function in rng.sample(_ENTRY_POINTS, n):
                files[f"src/{rel}"] = _entry_point_module(function)
            continue
        for _ in range(n):
            count += 1
            block, imports = _PLANTERS[rule](rng, f"p{count}")
            target = rng.choice(modules)
            target.imports |= imports
            target.add(block)

    for module in modules:
        files[module.rel] = module.text()
    # No __init__.py files: an empty ``repro/__init__.py`` would make RL005
    # look for every configured entry point in module ``repro``.
    return files


def expected_findings(files: dict[str, str]) -> Counter:
    """The planted findings, as a multiset of (path, line, rule)."""
    expected: Counter = Counter()
    for rel, text in files.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _MARK.search(line)
            if match:
                expected[(rel, lineno, match.group(1))] += int(match.group(2) or 1)
    return expected


def generate(seed: int, root: pathlib.Path) -> Counter:
    """Write the corpus under ``root``; return its planted findings."""
    files = build(seed)
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return expected_findings(files)
