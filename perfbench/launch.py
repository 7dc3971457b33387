"""Traced launcher: run the ``repro`` CLI or linter with layer spans.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python -X importtime perfbench/launch.py SPANS.json cli  -- ARGS...
    python -X importtime perfbench/launch.py SPANS.json lint -- ARGS...

``cli`` runs ``repro.cli.main.main(ARGS)`` exactly as the ``repro``
console script does; ``lint`` runs ``python -m repro.lint ARGS``.
Before any ``repro`` module is imported, an import hook is installed
that, as each module in :data:`WRAPS` finishes executing, replaces the
listed public functions with span-recording wrappers *in the namespace
their caller looks them up in* (``repro.pipeline.paper.characterize``,
not ``repro.core.inputs.characterize``).  No module is imported
earlier than the program itself would import it, so ``-X importtime``
still describes the program.  The spans are written to SPANS.json when
the program returns, including after SIGTERM for ``repro serve``.
"""

from __future__ import annotations

import importlib.abc
import sys
from typing import Any, Callable

from spans import SpanRecorder

RECORDER = SpanRecorder()


def _runs(result: Any, args: tuple, kwargs: dict, state: Any) -> dict:
    """Simulated runs one ``SimulatedCluster`` call performed."""
    requests = kwargs.get("requests", args[1] if len(args) > 1 else None)
    return {"runs": len(requests) if isinstance(requests, (list, tuple)) else 1}


def _events_before(args: tuple, kwargs: dict) -> int:
    return args[0].events_processed


def _events(result: Any, args: tuple, kwargs: dict, state: int) -> dict:
    """Events one ``Simulator.run`` call processed."""
    return {"events": args[0].events_processed - state}


#: module -> [(attribute path, span name, before hook, after hook)].
#: A dotted attribute path wraps a method on the class, which is where
#: instance method calls look it up.
WRAPS: dict[str, list[tuple[str, str, Callable | None, Callable | None]]] = {
    "repro.pipeline.paper": [
        ("characterize", "core.characterize", None, None),
        ("calibrate", "core.calibrate", None, None),
        ("validate_program", "analysis.validate", None, None),
        ("evaluate_space", "core.evaluate", None, None),
        ("pareto_frontier", "core.pareto", None, None),
    ],
    "repro.pipeline.runner": [
        ("stage_identity", "pipeline.fingerprint", None, None),
        ("identity_digest", "pipeline.fingerprint", None, None),
    ],
    "repro.pipeline.store": [
        ("ArtifactStore.get", "pipeline.store_get", None, None),
        ("ArtifactStore.put", "pipeline.store_put", None, None),
    ],
    "repro.core.model": [
        ("characterize", "core.characterize", None, None),
    ],
    "repro.core.inputs": [
        ("run_baseline_sweep", "measure.baseline_sweep", None, None),
        ("profile_communication", "measure.comm_profile", None, None),
        ("run_netpipe", "measure.netpipe", None, None),
        ("characterize_power", "measure.power", None, None),
    ],
    "repro.core.planner": [
        ("decide", "core.planner_decide", None, None),
    ],
    "repro.simulate.cluster": [
        ("SimulatedCluster.run", "simulate.run", None, _runs),
        ("SimulatedCluster.run_batch", "simulate.run", None, _runs),
    ],
    "repro.simulate.engine": [
        ("Simulator.run", "simulate.engine", _events_before, _events),
    ],
    "repro.serve.app": [
        ("ServeApp.handle", "serve.handle", None, None),
        ("parse_query", "serve.parse", None, None),
        ("evaluate_configs", "core.evaluate", None, None),
        ("pareto_mask", "core.pareto", None, None),
        ("canonical_json", "serve.serialize", None, None),
    ],
}


def _install(module: Any) -> None:
    for path, name, before, after in WRAPS[module.__name__]:
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = getattr(owner, attr)
        setattr(owner, attr, RECORDER.wrap(name, original, before, after))


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Finds the modules in :data:`WRAPS` and wraps them once executed."""

    def find_spec(self, fullname, path, target=None):
        """The spec the next finder gives, with a wrapping ``exec_module``."""
        if fullname not in WRAPS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module: Any) -> None:
            exec_module(module)
            _install(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def main(argv: list[str]) -> int:
    """Run the target under the import hook; write spans on return."""
    if len(argv) < 3 or argv[1] not in ("cli", "lint") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, target, program_args = argv[0], argv[1], argv[3:]
    sys.meta_path.insert(0, _WrapOnImport())
    try:
        if target == "cli":
            from repro.cli.main import main as cli_main

            return cli_main(program_args)
        from repro.lint.cli import main as lint_main

        return lint_main(program_args)
    finally:
        RECORDER.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
