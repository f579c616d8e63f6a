"""What the benchmark reads of kwl, checked on kwl's side.

``bench/tracer.py`` times ``integrand_batch(g, kinds, U)`` by its
positional arguments and reads ``result[1]`` as the rejected-row count;
``bench/run.py`` turns the spans into the per-layer metrics.  A two-kind
identity pass must still give it finite numbers.  ``bench/workloads.py``
starts every round from ``clear_caches()``, which must leave no identity
row or stratum record behind.
"""

import collections
import json
import math
import threading
import time
from pathlib import Path

import pytest

from kwl import graphs, stokes, weights
from kwl.forms import KINDS

BENCH = Path(__file__).resolve().parents[1] / "bench"
GRAPHS = (graphs.parse_graph("2 1 ; a1>a2 a2>g1"),
          graphs.parse_graph("3 1 ; a1>a2 a1>a3 a2>g1 a3>g1"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracer
    return run, tracer


def _identity_pass(threads):
    """Seconds, reports and estimates kept of both kinds' identities of
    ``GRAPHS``, from a cold cache."""
    weights.clear_weight_cache()
    t0 = time.perf_counter()
    reports = [stokes.verify_identity(g, kind, 1 << 10, 5, threads=threads)
               for kind in KINDS for g in GRAPHS]
    seconds = time.perf_counter() - t0
    return seconds, repr([r.to_json_dict() for r in reports]), len(weights._cache)


def test_layer_metrics_of_a_traced_two_kind_identity_pass(bench):
    run, tracer = bench
    untraced, want, estimates = _identity_pass(2)
    traced_run = tracer.Tracer()
    tracer.install_kwl(traced_run)
    try:
        traced, got, _ = _identity_pass(2)
    finally:
        traced_run.uninstall()
    one, _, _ = _identity_pass(1)
    weights.clear_weight_cache()
    assert got == want
    metrics, stats = run._layer_metrics(traced_run.spans, threading.get_ident(), 2, {
        "untraced": untraced, "traced": traced, "threads=1": one})
    json.dumps(metrics, allow_nan=False)
    for name, value in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    calls = metrics["weights.compute_weight.calls"]
    assert 0 < calls == estimates // 2  # one pass per class for both kinds
    # 2^10 samples: 16 batches of 64 rows, one integrand_batch call each
    assert metrics["weights.integrand_batch.calls"] == 16 * calls
    assert metrics["weights.integrand_batch.rows"] == 16 * 64 * calls
    assert stats["weights.det"].calls > 0 and metrics["weights.cache_hit_ratio"] > 0
    notes = [s.note for s in traced_run.spans if s.name == "weights.integrand_batch"]
    assert all(type(note["rejected"]) is int for note in notes)


def test_cleared_caches_start_a_cold_identity_round(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    _, first, _ = _identity_pass(2)
    assert stokes._rows and stokes._strata
    workloads.clear_caches()
    assert not stokes._rows and not stokes._strata
    calls = collections.Counter()
    strata = stokes.boundary_strata
    monkeypatch.setattr(stokes, "boundary_strata", lambda g: calls.update([g]) or strata(g))
    reports = [stokes.verify_identity(g, kind, 1 << 10, 5, threads=2)
               for kind in KINDS for g in GRAPHS]
    weights.clear_weight_cache()
    assert calls == {g: 1 for g in GRAPHS}
    assert repr([r.to_json_dict() for r in reports]) == first
