import sys
import threading

import pytest

from dwdebench.tracer import Span, Tracer, busy_by_name, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_with_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.now += 1.0

    def middle():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0

    traced_inner = tr.timed("m.inner", inner)
    traced_middle = tr.timed("m.middle", middle)
    with tr.span("root", request=7):
        clock.now += 0.5
        traced_middle()
        traced_middle()
        clock.now += 0.5
    spans = {s.name: s for s in tr.spans()}
    by_id = {s.id: s for s in tr.spans()}
    selfs = self_times(tr.spans())
    assert spans["root"].duration == 9.0
    assert selfs[spans["root"].id] == 1.0
    assert [selfs[s.id] for s in by_id.values() if s.name == "m.middle"] == [3.0, 3.0]
    assert by_id[spans["m.inner"].parent].name == "m.middle"
    assert {s.request for s in tr.spans()} == {7}
    assert busy_by_name(tr.spans()) == {"root": 9.0, "m.middle": 8.0, "m.inner": 2.0}


def test_self_time_subtracts_the_union_of_children_on_other_threads():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1, 100),
        Span(2, 1, "child", 1.0, 6.0, 1, 200),
        Span(3, 1, "child", 4.0, 9.0, 1, 300),
        Span(4, 3, "leaf", 8.0, 12.0, 1, 300),  # overruns its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(2.0)  # 10 - |[1, 9]|
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(4.0)  # 5 - |[8, 9]|
    assert busy_by_name(spans)["child"] == pytest.approx(10.0)


def test_work_on_another_thread_keeps_its_parent():
    tr = Tracer()
    work = tr.timed("m.work", lambda: sum(range(1000)))
    both_alive = threading.Barrier(2, timeout=10)  # else the second may reuse the first's ident
    with tr.span("root", request=3):
        ctx = tr.context()

        def run():
            with tr.adopted(ctx):
                both_alive.wait()
                work()

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    spans = tr.spans()
    root = next(s for s in spans if s.name == "root")
    children = [s for s in spans if s.name == "m.work"]
    assert len(children) == 2
    assert all(s.parent == root.id and s.request == 3 for s in children)
    assert len({s.thread for s in children} | {root.thread}) == 3


def test_concurrent_recording_loses_nothing():
    tr = Tracer()
    calls = 4000
    workers = 4  # more threads than cores
    counted = tr.counted("m.count", lambda: None)
    timed = tr.timed("m.timed", lambda: None)

    def run():
        with tr.span("root", request=1):
            for _ in range(calls):
                counted()
                timed()
                tr.add("m.items", 2)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    spans = [s for s in tr.spans() if s.name == "m.timed"]
    assert len(spans) == workers * calls
    assert len({s.id for s in tr.spans()}) == workers * (calls + 1)
    assert tr.counts() == {"m.count.calls": workers * calls, "m.items": 2 * workers * calls}


def test_counts_outside_a_request_are_dropped():
    tr = Tracer()
    counted = tr.counted("m.count", lambda: None)
    counted()
    tr.add("m.items")
    with tr.span("root", request=1):
        counted()
    (span,) = tr.spans()
    assert tr.counts() == {"m.count.calls": 1}
    assert span.request == 1


def test_generator_span_covers_its_items():
    clock = FakeClock()
    tr = Tracer(clock)
    seen = []

    def gen(n):
        for i in range(n):
            clock.now += 1.0
            yield i

    traced = tr.timed_generator("m.gen", gen, lambda add, a, k, items: seen.append(items))
    assert list(traced(3)) == [0, 1, 2]
    (span,) = tr.spans()
    assert span.duration == 3.0 and seen == [3]


def test_restore_puts_originals_back():
    import dwde
    from dwde import exact, experiments

    from dwdebench import layers

    original = exact.build_site_chain
    tr = Tracer()
    layers.install(tr)
    try:
        assert experiments.build_site_chain is exact.build_site_chain is dwde.build_site_chain
        assert exact.build_site_chain is not original
    finally:
        tr.restore()
    assert exact.build_site_chain is original
    assert experiments.build_site_chain is original
    assert experiments.ThreadPoolExecutor.__module__ == "concurrent.futures.thread"
