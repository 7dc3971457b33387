"""RL004 — cache/checkpoint files must be written atomically.

The persistent result cache (:mod:`repro.core.cache`) and the
checkpoint layer (:mod:`repro.resilience.checkpoint`) promise that a
reader never observes a torn file: writers build a complete temp file
and race on the final :func:`os.replace`.  A bare ``open(path, "w")``,
``np.save`` or ``json.dump`` straight onto the destination breaks that
promise — a crash mid-write leaves a corrupt entry that the next run
either rejects (losing the work) or, worse, trusts.

Scope: every write in the configured atomic modules, plus any write
anywhere whose target expression mentions a cache/checkpoint path
(``config.atomic_target_markers``).  A write passes when its enclosing
function uses the tmp+rename idiom (an ``os.replace``/``os.rename``/
``Path.rename`` call, with the written target named like a temp file)
or targets an in-memory ``io.BytesIO``/``io.StringIO`` buffer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import Module, Project, import_aliases, resolve_dotted
from repro.lint.registry import register

#: ``module.function`` writers whose first argument is the destination.
_PATH_WRITERS = frozenset(
    {
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
    }
)

#: ``module.function`` writers whose *second* argument is the destination.
_STREAM_WRITERS = frozenset({"json.dump", "pickle.dump"})

#: Method names that write their receiver to disk.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: Calls that implement the rename half of the tmp+rename idiom.
_RENAME_CALLS = ("os.replace", "os.rename", "pathlib.Path.rename")

#: open() modes that create/truncate/append the destination.
_WRITE_MODES = ("w", "a", "x")


def _call_target(call: ast.Call, resolved: str | None) -> ast.expr | None:
    """The destination expression of a recognized write call."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" or resolved == "open":
        mode: ast.expr | None = call.args[1] if len(call.args) > 1 else None
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value.startswith(_WRITE_MODES)
        ):
            return call.args[0] if call.args else None
        return None
    if resolved in _PATH_WRITERS and call.args:
        return call.args[0]
    if resolved in _STREAM_WRITERS and len(call.args) > 1:
        return call.args[1]
    if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
        return func.value
    return None


@register
class AtomicIoChecker:
    """Flag non-atomic writes of cache/checkpoint data."""

    rule = "RL004"
    title = "cache/checkpoint writes must use the tmp+rename idiom"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Scan atomic-scoped modules and marker-matching writes."""
        for module in project.modules:
            scoped = config.path_matches(module.rel, config.atomic_modules)
            yield from self._check_module(module, scoped, config)

    def _check_module(
        self, module: Module, scoped: bool, config: LintConfig
    ) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func_node, calls in _functions_with_calls(module.tree):
            # the scope facts are only needed once a write is in scope
            buffers: set[str] | None = None
            has_rename: bool | None = None
            for call in calls:
                resolved = (
                    resolve_dotted(call.func, aliases)
                    if isinstance(call.func, (ast.Attribute, ast.Name))
                    else None
                )
                target = _call_target(call, resolved)
                if target is None:
                    continue
                target_text = ast.unparse(target)
                in_scope = scoped or any(
                    marker in target_text.lower()
                    for marker in config.atomic_target_markers
                )
                if not in_scope:
                    continue
                if buffers is None:
                    buffers = _memory_buffers(func_node, aliases)
                    has_rename = _has_rename(calls, aliases)
                if isinstance(target, ast.Name) and target.id in buffers:
                    continue  # in-memory staging buffer, not a file
                if has_rename and "tmp" in target_text.lower():
                    continue  # the tmp half of tmp+rename
                yield Finding(
                    path=module.rel,
                    line=call.lineno,
                    rule=self.rule,
                    message=(
                        f"non-atomic write to {target_text!r}: write a "
                        "temp file and os.replace() it over the "
                        "destination (see repro.resilience.checkpoint."
                        "atomic_write_json)"
                    ),
                    snippet=module.line(call.lineno),
                )


def _functions_with_calls(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.Call]]]:
    """Yield (scope node, calls) for each function plus the module body.

    One recursive visit assigns every call to its innermost enclosing
    function (decorators and defaults included); module-level writes get
    the module itself as their scope so the tmp+rename detection still
    has something to look at.
    """
    scopes: dict[ast.AST, list[ast.Call]] = {tree: []}

    def visit(node: ast.AST, owner: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes[child] = []
                visit(child, child)
                continue
            if isinstance(child, ast.Call):
                scopes[owner].append(child)
            visit(child, owner)

    visit(tree, tree)
    module_calls = scopes.pop(tree)
    yield from scopes.items()
    if module_calls:
        yield tree, module_calls


def _memory_buffers(scope: ast.AST, aliases: dict[str, str]) -> set[str]:
    """Names bound to io.BytesIO()/io.StringIO() within ``scope``."""
    buffers: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, (ast.Attribute, ast.Name))
        ):
            resolved = resolve_dotted(node.value.func, aliases)
            if resolved in ("io.BytesIO", "io.StringIO"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        buffers.add(target.id)
    return buffers


def _has_rename(calls: list[ast.Call], aliases: dict[str, str]) -> bool:
    """True when any call in the scope performs the rename step.

    Recognized: ``os.replace``/``os.rename``, and ``.rename()``/
    ``.replace()`` on a receiver that looks like a temp path (so
    ``text.replace("a", "b")`` string munging does not count).
    """
    for call in calls:
        func = call.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("replace", "rename")
        ):
            continue
        resolved = resolve_dotted(func, aliases)
        if resolved in ("os.replace", "os.rename"):
            return True
        receiver = ast.unparse(func.value).lower()
        if "tmp" in receiver or "temp" in receiver:
            return True
    return False
