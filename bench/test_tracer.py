"""Tests of the benchmark's tracer.  Run: python3 -m pytest bench"""

import itertools
import sys
import threading
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Span, Tracer, install_kwl, self_times, summarize  # noqa: E402

MAIN, WORKER = 1, 2


def test_self_time_of_synthetic_tree():
    # root [0, 10] on the main thread has children A [1, 4] and B [5, 6];
    # A has a grandchild [2, 3]; a pool task [2, 9] on a worker is caused by root.
    spans = [
        Span(0, "root", 0.0, 10.0, None, MAIN, None),
        Span(1, "A", 1.0, 4.0, 0, MAIN, None),
        Span(2, "leaf", 2.0, 3.0, 1, MAIN, None),
        Span(3, "B", 5.0, 6.0, 0, MAIN, None),
        Span(4, "task", 2.0, 9.0, 0, WORKER, None),
        Span(5, "leaf", 3.0, 5.0, 4, WORKER, None),
    ]
    own = self_times(spans)
    # the worker task runs beside root, so root's self time keeps the wait
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 5.0, 5: 2.0}

    stats = summarize(spans, MAIN)
    assert stats["root"].self_s == 6.0
    assert (stats["leaf"].calls, stats["leaf"].busy_s) == (2, 3.0)
    assert (stats["leaf"].self_s, stats["leaf"].wall_s) == (1.0, 1.0)  # main thread only
    assert (stats["task"].busy_s, stats["task"].self_s) == (7.0, 0.0)


def test_nested_calls_with_a_ticking_clock():
    tracer = Tracer(clock=itertools.count().__next__)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (o,) = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [o.id, o.id]
    assert (o.start, o.end) == (0, 5)  # inner spans take ticks 1-2 and 3-4
    assert summarize(tracer.spans, threading.get_ident())["outer"].self_s == 3


def test_generator_gets_one_span_per_item():
    tracer = Tracer(clock=itertools.count().__next__)
    gen = tracer.wrap("gen", lambda: (yield from range(3)))

    def consume():
        return list(gen())
    assert tracer.wrap("consume", consume)() == [0, 1, 2]
    gen_spans = [s for s in tracer.spans if s.name == "gen"]
    assert len(gen_spans) == 4  # three items and the final StopIteration
    consume_span = next(s for s in tracer.spans if s.name == "consume")
    assert all(s.parent == consume_span.id for s in gen_spans)


def test_worker_thread_spans_count_as_busy_not_self():
    tracer = Tracer()
    executor = tracer.traced_executor("task")

    def nap(seconds):
        time.sleep(seconds)
        return seconds

    def submitter():
        with executor(max_workers=2) as ex:
            return sum(ex.map(nap, [0.05, 0.05]))
    assert tracer.wrap("submit", submitter)() == 0.1

    main = threading.get_ident()
    sub = next(s for s in tracer.spans if s.name == "submit")
    tasks = [s for s in tracer.spans if s.name == "task"]
    assert len(tasks) == 2
    assert all(t.parent == sub.id and t.thread != main for t in tasks)
    stats = summarize(tracer.spans, main)
    assert stats["submit"].self_s == sub.duration  # waiting on the pool is self time
    assert stats["task"].busy_s >= 0.1
    assert stats["task"].self_s == 0.0


def _fake_package(monkeypatch):
    """``fakepkg.core`` defines f; ``fakepkg.user`` imports it by name."""
    core = types.ModuleType("fakepkg.core")
    exec("def f(x):\n    return x + 1\n", core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.f = core.f
    exec("def g(x):\n    return 2 * f(x)\n", user.__dict__)
    for mod in (core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_rebinding_is_seen_through_a_second_module(monkeypatch):
    core, user = _fake_package(monkeypatch)
    original = core.f
    tracer = Tracer()
    tracer.trace_function("fakepkg", core, "f")
    assert user.f is core.f is not original
    assert user.g(1) == 4
    assert [s.name for s in tracer.spans] == ["core.f"]
    tracer.uninstall()
    assert user.f is core.f is original


def test_unbound_function_is_an_error(monkeypatch):
    core, _ = _fake_package(monkeypatch)
    with pytest.raises(LookupError):
        Tracer().trace_function("otherpkg", core, "f")


def test_kwl_installation_traces_calls_made_inside_kwl():
    from kwl import graphs, stokes, weights
    originals = (weights.cached_weight, stokes.cached_weight, weights.np, weights.qmc)
    g = graphs.make_graph(2, 1, [(0, 1), (1, 2)])
    weights.clear_weight_cache()
    tracer = Tracer()
    install_kwl(tracer)
    try:
        rep = stokes.verify_identity(g, "log", 1 << 10, 5, threads=2)
    finally:
        tracer.uninstall()
        weights.clear_weight_cache()
    assert (weights.cached_weight, stokes.cached_weight, weights.np, weights.qmc) == originals
    stats = summarize(tracer.spans, threading.get_ident())
    for name in ("stokes.verify_identity", "stokes.boundary_strata", "graphs.contract",
                 "weights.cached_weight", "weights.compute_weight", "weights.pool_task",
                 "weights.sobol", "weights.integrand_batch", "weights.det"):
        assert stats[name].calls > 0, name
    batch = [s for s in tracer.spans if s.name == "weights.integrand_batch"]
    assert all(s.note["rows"] == 64 for s in batch)  # 2^10 samples over 16 batches
    untraced = stokes.verify_identity(g, "log", 1 << 10, 5, threads=2)
    weights.clear_weight_cache()
    assert untraced.residual == rep.residual
