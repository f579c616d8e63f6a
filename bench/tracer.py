"""Span tracer that times calls into kwl's public functions from outside.

:meth:`Tracer.trace_function` rebinds a function in every module of a
package that holds a reference to it (``stokes`` and ``operators`` bind
``cached_weight`` through ``from .weights import ...``, so rebinding
``weights.cached_weight`` alone would miss their calls).
:func:`install_kwl` does this for kwl's public functions and proxies three
library objects used inside ``weights``: scipy's
``Sobol`` (construction and ``random``), ``np.linalg.det`` and the
thread pool, whose tasks become spans whose parent is the submitting span.

Spans (name, start, end, parent, thread) are kept in memory;
:func:`summarize` turns them into per-name counts, busy time summed over
all threads and self time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    note: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Proxy:
    """Attribute access falls through to ``target`` except for ``overrides``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             note: Optional[Callable] = None, parent: Optional[int] = None):
        """Run ``fn`` inside a span; ``parent`` overrides the thread's own
        open span (used for pool tasks, whose cause is on another thread)."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        result = None
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = self.clock()
            stack.pop()
            extra = note(args, result) if note is not None and result is not None else None
            # list.append is atomic, so worker threads may record concurrently
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), extra))

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Traced version of ``fn``.  A generator function gets one span per
        ``next``, so its time excludes the consumer's work between items."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, (it,))
                    except StopIteration:
                        return
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return traced

    # -- installing --------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, package: str, original, replacement) -> int:
        """Replace ``original`` by ``replacement`` in every loaded module of
        ``package`` that binds it; returns the number of bindings replaced."""
        count = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, replacement)
                    count += 1
        return count

    def trace_function(self, package: str, module, qualname: str,
                       note: Optional[Callable] = None) -> None:
        """Wrap ``module.qualname`` (a function, or ``Class.method``) and
        rebind it wherever ``package`` refers to it."""
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            self.replace(cls, meth, self.wrap(name, cls.__dict__[meth], note))
            return
        original = getattr(module, qualname)
        if self.rebind(package, original, self.wrap(name, original, note)) == 0:
            raise LookupError(f"{name} is bound nowhere in {package}")

    def traced_executor(self, name: str) -> type:
        """ThreadPoolExecutor whose tasks are spans named ``name``, each
        parented to the span that submitted it."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call, name, fn, args, kwargs,
                                      None, tracer.current())
        return TracedExecutor

    def traced_sobol(self, sobol_cls: type, name: str) -> type:
        """Subclass of scipy's ``Sobol`` whose construction and ``random``
        calls are spans named ``name``."""
        tracer = self

        class TracedSobol(sobol_cls):
            def __init__(self, *args, **kwargs):
                tracer.call(name, super().__init__, args, kwargs)

            def random(self, *args, **kwargs):
                return tracer.call(name, super().random, args, kwargs)
        return TracedSobol

    def uninstall(self) -> None:
        """Restore every binding this tracer replaced, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# kwl-specific installation


#: (module, function or Class.method) pairs timed from outside
KWL_FUNCTIONS = (
    ("weights", "integrand_batch"), ("weights", "compute_weight"),
    ("weights", "cached_weight"),
    ("graphs", "contract"), ("graphs", "canonical_key"), ("graphs", "enumerate_graphs"),
    ("stokes", "boundary_strata"), ("stokes", "orientation_sign"),
    ("stokes", "verify_identity"),
    ("operators", "d_gamma"), ("operators", "u_n"), ("operators", "MultiDiffOperator.apply"),
    ("operators", "star_product"), ("operators", "check_associativity"),
)


def _batch_note(args, result) -> dict:
    """Rows, rejected rows and computed pairing-tensor bytes of one
    ``integrand_batch(g, kind, U)`` call."""
    g, _, U = args[:3]
    rows, d = U.shape
    itemsize = np.dtype(complex).itemsize
    return {"rows": rows, "rejected": result[1],
            "tensor_bytes": rows * len(g.edges) * d * itemsize}


def install_kwl(tracer: Tracer) -> None:
    """Trace every function in :data:`KWL_FUNCTIONS` plus Sobol generation,
    ``np.linalg.det`` and the thread pool inside ``kwl.weights``."""
    mods = {name: importlib.import_module(f"kwl.{name}")
            for name in ("weights", "graphs", "stokes", "operators")}
    for modname, qualname in KWL_FUNCTIONS:
        note = _batch_note if qualname == "integrand_batch" else None
        tracer.trace_function("kwl", mods[modname], qualname, note)
    w = mods["weights"]
    tracer.replace(w, "qmc", _Proxy(w.qmc, Sobol=tracer.traced_sobol(w.qmc.Sobol, "weights.sobol")))
    det = tracer.wrap("weights.det", w.np.linalg.det)
    tracer.replace(w, "np", _Proxy(w.np, linalg=_Proxy(w.np.linalg, det=det)))
    tracer.replace(w, "ThreadPoolExecutor", tracer.traced_executor("weights.pool_task"))


# ---------------------------------------------------------------------------
# summaries


@dataclass
class NameStats:
    calls: int = 0
    busy_s: float = 0.0   # summed durations over all threads
    self_s: float = 0.0   # self time of the spans on the summarized thread
    wall_s: float = 0.0   # summed durations on the summarized thread


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its same-thread children cover.

    Children on other threads (pool tasks) run concurrently with their
    parent and are not subtracted: the parent's self time then includes
    the time it waited for them.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    own = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.duration
    return own


def summarize(spans: Iterable[Span], thread: int) -> Dict[str, NameStats]:
    """Per-name statistics; self and wall time count only ``thread``'s spans."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, NameStats] = {}
    for s in spans:
        st = out.setdefault(s.name, NameStats())
        st.calls += 1
        st.busy_s += s.duration
        if s.thread == thread:
            st.self_s += own[s.id]
            st.wall_s += s.duration
    return out
