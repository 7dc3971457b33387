"""The one ambient execution context of a configuration-space evaluation.

Every evaluation of T and E over an ``(n, c, f)`` space, and every
instrument read of a measurement campaign, runs under a single frozen
:class:`ExecutionContext` held in a :class:`contextvars.ContextVar`::

    from repro.context import use

    with use(workers=4, max_block_bytes=64 * 2**20):
        evaluation = evaluate_space(model, space)

``workers`` is an upper bound on shard processes (the planner decides
whether sharding pays), ``cache`` a persistent
:class:`~repro.core.cache.ResultCache`, ``max_block_bytes`` the streamed
working-set budget and ``resilience`` the enabled
:class:`~repro.resilience.ResilienceContext` (``None`` is the
pass-through default).

Being a context variable, the context follows the code that runs under
it: asyncio tasks inherit it when they are created, and a thread pool
sees it when the submission goes through
``contextvars.copy_context().run`` (the pipeline's stage waves and the
service's engine pool do).  A bare thread starts from the default.

The module imports only the standard library at runtime.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.core.cache import ResultCache
    from repro.resilience import ResilienceContext


@dataclass(frozen=True)
class ExecutionContext:
    """How evaluations and instrument reads execute while installed."""

    workers: int = 1
    cache: ResultCache | None = None
    max_block_bytes: int | None = None
    resilience: ResilienceContext | None = None

    def __post_init__(self) -> None:
        """Reject a worker count or block budget below one."""
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_block_bytes is not None and self.max_block_bytes < 1:
            raise ValueError("max_block_bytes must be >= 1")


_CURRENT: contextvars.ContextVar[ExecutionContext] = contextvars.ContextVar(
    "repro_execution_context", default=ExecutionContext()
)


def current() -> ExecutionContext:
    """The context installed for the running code (the default if none)."""
    return _CURRENT.get()


@contextmanager
def use(
    base: ExecutionContext | None = None, /, **changes: Any
) -> Iterator[ExecutionContext]:
    """Install ``base`` (default: the current context) with ``changes``.

    The previous context is restored on exit, also when the block
    raises.
    """
    context = replace(base if base is not None else current(), **changes)
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
