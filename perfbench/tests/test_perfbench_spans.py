"""Span recorder: self time on a hand-built tree, parents under threads."""

import threading

from spans import SpanRecorder, self_time_by_name, self_times


def span(id, parent, name, start, end):
    """A finished span as the recorder writes it."""
    return {"id": id, "parent": parent, "name": name, "thread": 0, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    """Self time removes overlapping children once and clips them to the parent."""
    tree = [
        span(1, None, "stage", 0.0, 10.0),
        span(2, 1, "sweep", 1.0, 3.0),
        span(3, 1, "sweep", 2.0, 5.0),  # overlaps span 2: counted once
        span(4, 1, "netpipe", 8.0, 12.0),  # runs past the parent's end
        span(5, 2, "sim", 1.5, 2.5),  # a grandchild: only span 2 loses it
    ]
    own = self_times(tree)
    assert own[1] == 10.0 - 4.0 - 2.0
    assert own[2] == 2.0 - 1.0
    assert own[3] == 3.0
    assert own[4] == 4.0
    assert own[5] == 1.0
    assert self_time_by_name(tree) == {"stage": 4.0, "sweep": 4.0, "netpipe": 4.0, "sim": 1.0}


def test_concurrent_threads_get_their_own_parents():
    """Spans opened at once on two threads get parents from their own thread."""
    recorder = SpanRecorder()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=5)

    def outer():
        recorder.wrap("inner", inner)()

    wrapped = recorder.wrap("outer", outer)
    threads = [threading.Thread(target=wrapped) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    spans = recorder.snapshot()
    by_id = {s["id"]: s for s in spans}
    inners = [s for s in spans if s["name"] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s["parent"]]
        assert parent["name"] == "outer"
        assert parent["thread"] == s["thread"]
    assert all(s["parent"] is None for s in spans if s["name"] == "outer")


def test_wrapper_records_attributes_from_before_and_after_hooks():
    """``after`` sees the call's result and what ``before`` returned."""
    recorder = SpanRecorder()
    counter = {"n": 0}

    def work(k):
        counter["n"] += k
        return k * 2

    def before(args, kwargs):
        return counter["n"]

    def after(result, args, kwargs, state):
        return {"delta": counter["n"] - state, "result": result}

    wrapped = recorder.wrap("work", work, before=before, after=after)
    assert wrapped(3) == 6
    (only,) = recorder.snapshot()
    assert only["attrs"] == {"delta": 3, "result": 6}
