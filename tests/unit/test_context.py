"""The ambient execution context: installation, isolation, propagation."""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.context import ExecutionContext, current, use

DEFAULT = ExecutionContext()


@pytest.fixture(autouse=True)
def _default_context():
    """Run every test from the default context (the chaos CI job installs
    a session-wide resilience context; these tests compare against the
    default)."""
    with use(DEFAULT) as context:
        yield context


def test_default_context():
    assert current() == DEFAULT
    assert DEFAULT.workers == 1
    assert DEFAULT.cache is None
    assert DEFAULT.max_block_bytes is None
    assert DEFAULT.resilience is None


def test_context_is_frozen():
    with pytest.raises(AttributeError):
        current().workers = 4  # type: ignore[misc]


def test_use_applies_changes_to_the_current_context():
    with use(workers=4):
        with use(max_block_bytes=1024) as inner:
            assert inner == ExecutionContext(workers=4, max_block_bytes=1024)
        assert current() == ExecutionContext(workers=4)


def test_use_installs_a_given_context_with_changes():
    base = ExecutionContext(workers=3, max_block_bytes=2048)
    with use(workers=8):
        with use(base) as installed:
            assert installed is current()
            assert installed == base
        with use(base, workers=2) as changed:
            assert changed == ExecutionContext(workers=2, max_block_bytes=2048)


def test_use_rejects_bad_values_and_unknown_fields():
    with pytest.raises(ValueError, match="workers"):
        with use(workers=0):
            pass  # pragma: no cover - use() raises before the body
    with pytest.raises(ValueError, match="max_block_bytes"):
        with use(max_block_bytes=0):
            pass  # pragma: no cover - use() raises before the body
    with pytest.raises(TypeError):
        with use(mode="auto"):
            pass  # pragma: no cover - use() raises before the body
    assert current() == DEFAULT


def test_use_restores_previous_context_when_the_block_raises():
    with use(workers=2) as outer:
        with pytest.raises(RuntimeError, match="boom"):
            with use(workers=3, max_block_bytes=1):
                raise RuntimeError("boom")
        assert current() is outer
    assert current() == DEFAULT


def test_threads_see_only_their_own_context():
    barrier = threading.Barrier(2)
    seen: dict[int, list[int]] = {2: [], 5: []}

    def worker(workers: int) -> None:
        with use(workers=workers):
            for _ in range(3):
                # both threads sit inside their own use() at once
                barrier.wait()
                seen[workers].append(current().workers)

    threads = [threading.Thread(target=worker, args=(n,)) for n in (2, 5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {2: [2, 2, 2], 5: [5, 5, 5]}
    assert current() == DEFAULT


def test_bare_thread_sees_the_default():
    seen = []
    with use(workers=4, max_block_bytes=4096):
        t = threading.Thread(target=lambda: seen.append(current()))
        t.start()
        t.join()
    assert seen == [DEFAULT]


def test_copied_context_reaches_pool_threads():
    with use(workers=4) as installed:
        with ThreadPoolExecutor(max_workers=2) as pool:
            bare = pool.submit(current).result()
            copied = [
                pool.submit(contextvars.copy_context().run, current).result()
                for _ in range(4)
            ]
    assert bare == DEFAULT
    assert copied == [installed] * 4


def test_asyncio_tasks_inherit_the_creating_context():
    async def probe() -> ExecutionContext:
        await asyncio.sleep(0)
        return current()

    async def main() -> tuple[ExecutionContext, ...]:
        with use(workers=3) as installed:
            inside = asyncio.ensure_future(probe())
        # created after the block: sees what its creator sees now
        outside = asyncio.ensure_future(probe())
        with use(workers=7):
            # a task created earlier keeps its creation-time context
            result = await inside, await outside
        return (installed, *result)

    installed, inside, outside = asyncio.run(main())
    assert inside is installed
    assert outside == DEFAULT
