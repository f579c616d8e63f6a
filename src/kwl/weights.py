"""Deterministic quasi-Monte Carlo estimation of graph weights.

The weight of a top-degree graph is the integral of its integrand over the
gauge slice, computed by pulling back to the unit hypercube.  Samples come
from 16 independently scrambled low-discrepancy streams: the estimate is
the mean of the batch means and the error is the spread of the batch
means, which stays valid without independence assumptions on points
inside a batch.  Everything is keyed by an integer seed; identical
(graph, kind, samples, seed) inputs give bit-identical results regardless
of the worker pool size.

Consecutive batches share a pool task up to ``TASK_ROWS`` rows.  Batch
``b``'s scrambled Sobol engine (:mod:`kwl.qmc`: Joe-Kuo direction numbers
with the linear matrix scramble and digital shift of
``scipy.stats.qmc.Sobol``, bit for bit) depends only on (dim, seed, b), so
it is built once and shared by every later weight, in any thread, until
``clear_weight_cache``; drawing from an engine does not change it.

On slices of dimension ``MIN_EXPANDED_DIM`` or more the integrand is
:func:`forms.frame_integrand`, the graph's column-subset recursion on the
edge terms of each chunk; smaller slices keep ``np.linalg.det`` only for
the benchmark tracer's ``weights.det`` span, until ROADMAP item 1.  A
class whose plan is empty (no bijection from edges to frame columns)
weighs an exact zero in :func:`cached_weight`.  ``clear_weight_cache``
empties the plans of :mod:`kwl.forms` too.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import qmc
from .forms import (ANGLE, check_kind, clear_plans, frame_integrand, frame_plan,
                    pairing_matrices, pairing_scale)
from .graphs import Graph, canonical_graph, canonical_key, encode_graph
from .halfplane import gauge_dim, gauge_frame, slice_map

BATCHES = 16
COLLISION_EPS = 1e-12
# rows per determinant chunk in integrand_batch; per-row values do not
# depend on it.  On 65,536-row (4,0) and (3,1) batches of either kind,
# 8k-row chunks ran 8-20 % faster than 4k at two threads and within 4 % at
# one; 2k were slowest, and 16k ran 2-13 % faster than 8k at two threads
# but 2-7 % slower at one
CHUNK_ROWS = 8192
#: rows per pool task: consecutive batches share a task up to this many
#: rows, since two threads on small batches ran slower than one
TASK_ROWS = 1 << 14
#: slices of at least this dimension take :func:`forms.frame_integrand`;
#: smaller ones keep ``np.linalg.det`` only for the benchmark tracer's
#: ``weights.det`` span (it times the one- to three-edge weights of small
#: identities there), until the tracer reads kwl's own spans (ROADMAP item 1)
MIN_EXPANDED_DIM = 4
#: absolute floor of the bound on a measured weight's distance from its
#: exact value (zero for the vanishing patterns)
VANISHING_TOL = 5e-3


@dataclass(frozen=True)
class WeightEstimate:
    """QMC weight estimate with batch-based statistical error.

    ``class_key`` is the canonical class key of an estimate that
    :func:`cached_weight` looked up (None otherwise); it takes no part in
    equality or JSON.
    """

    value: complex
    stderr: float
    samples: int
    seed: int
    kind: str
    graph: str
    rejected: int = 0
    exact: bool = False
    class_key: Optional[tuple] = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {"graph": self.graph, "kind": self.kind, "samples": self.samples,
                "seed": self.seed, "value": [self.value.real, self.value.imag],
                "stderr": self.stderr, "rejected": self.rejected}


def default_threads() -> int:
    env = os.environ.get("KWL_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"KWL_THREADS must be a thread count of at least 1, got {env!r}")
        return threads
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# vectorized integrand evaluation


def integrand_batch(g: Graph, kind: str, U: np.ndarray) -> Tuple[np.ndarray, int]:
    """Hypercube integrand values for a batch of sample points.

    Returns (values, rejected) where values already include the sampling
    Jacobian and samples within ``COLLISION_EPS`` of a collision are zeroed.
    The batch is worked ``CHUNK_ROWS`` rows at a time (temporaries do not
    grow with it; chunk boundaries depend only on the row index).  Slices of
    dimension ``MIN_EXPANDED_DIM`` or more take :func:`forms.frame_integrand`,
    smaller ones ``np.linalg.det``.
    """
    n, m = g.n, g.m
    Z, G, jac = slice_map(n, m, U)  # column-major: each point is contiguous
    B = U.shape[0]
    E = len(g.edges)

    point = [Z[:, v] if v < n else G[:, v - n] for v in range(n + m)]

    vals = np.ones(B, dtype=float if kind == ANGLE else complex)
    # near-collision samples may overflow here; they are zeroed by the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if E:
            for lo in range(0, B, CHUNK_ROWS):
                rows = slice(lo, lo + CHUNK_ROWS)
                points = [p[rows] for p in point]
                frame = gauge_frame(n, m, points[0])
                vals[rows] = (frame_integrand(g.edges, points, frame, kind)
                              if E >= MIN_EXPANDED_DIM else pairing_scale(kind, E)
                              * np.linalg.det(pairing_matrices(g.edges, points, frame, kind)))
        vals *= jac

    # guard integrable singularities: zero out samples at near-collisions
    # (a mirror image conj(z_i) is never closer to z_j than z_i is)
    mind = np.full(B, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            np.minimum(mind, np.abs(Z[:, i] - Z[:, j]), out=mind)
        for k in range(m):
            np.minimum(mind, np.abs(Z[:, i] - G[:, k]), out=mind)
    mask = (mind < COLLISION_EPS) | ~np.isfinite(vals)
    rejected = int(mask.sum())
    if rejected:
        vals = np.where(mask, 0.0, vals)
    return vals, rejected


def _check_budget(samples: int, seed: int) -> None:
    if samples <= 0:
        raise ValueError("sample budget must be positive")
    if samples > BATCHES << qmc.BITS:
        raise ValueError(f"sample budget {samples} exceeds {BATCHES} batches "
                         f"of 2^{qmc.BITS} Sobol points")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


_cache: Dict[tuple, WeightEstimate] = {}
#: scrambled Sobol engines by (dim, seed, batch)
_engines: Dict[Tuple[int, int, int], qmc.Sobol] = {}
_cache_lock = threading.Lock()


def _sobol_points(dim: int, seed: int, batch: int, n: int) -> np.ndarray:
    """First ``n`` points of the Sobol stream scrambled by ``(seed, batch)``."""
    key = (dim, seed, batch)
    with _cache_lock:
        sob = _engines.get(key)
    if sob is None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, batch]))
        sob = qmc.Sobol(dim, seed=rng)
        with _cache_lock:
            sob = _engines.setdefault(key, sob)
    return sob.random(n)


def qmc_mean(func, dim: int, samples: int, seed: int,
             threads: Optional[int] = None) -> Tuple[complex, float, int, int]:
    """Batched scrambled-QMC mean of ``func(U) -> (values, rejected)`` over
    the ``dim``-dimensional unit hypercube.

    The budget is rounded up so the 16 batches are equal powers of two;
    batch ``b`` uses the Sobol stream seeded by ``(seed, b)``, and batches
    share pool tasks up to ``TASK_ROWS`` rows, for every thread count.
    Returns (value, stderr, actual sample count, rejected sample count).
    """
    _check_budget(samples, seed)
    nthreads = threads if threads is not None else default_threads()
    if nthreads < 1:
        raise ValueError(f"thread count must be at least 1, got {nthreads}")
    per_batch = 1 << max(0, math.ceil(math.log2(samples / BATCHES)))
    group = max(1, min(BATCHES, TASK_ROWS // per_batch))

    def task(lo: int) -> list:
        out = []
        for batch in range(lo, lo + group):
            # Sobol points can include exact zeros; nudge off the faces
            U = np.clip(_sobol_points(dim, seed, batch, per_batch), 1e-15, 1.0 - 1e-15)
            vals, rejected = func(U)
            out.append((complex(np.mean(vals)), rejected))
        return out

    with ThreadPoolExecutor(max_workers=nthreads) as ex:
        results = [r for part in ex.map(task, range(0, BATCHES, group)) for r in part]

    means = np.array([r[0] for r in results], dtype=complex)
    value = complex(means.mean())
    var = float(np.sum(np.abs(means - value) ** 2)) / (BATCHES - 1)
    return (value, math.sqrt(var / BATCHES), per_batch * BATCHES,
            sum(r[1] for r in results))


# ---------------------------------------------------------------------------
# public estimation API


def _exact(value: complex, g: Graph, kind: str, seed: int) -> WeightEstimate:
    return WeightEstimate(value, 0.0, 0, seed, kind, encode_graph(g), exact=True)


def _exact_weight(g: Graph, kind: str, samples: int, seed: int) -> Optional[WeightEstimate]:
    """The weight the degree decides, after checking the arguments.

    A graph whose edge count differs from its slice dimension weighs
    exactly zero (the integral of a non-top form) and the empty top-degree
    graph exactly one; None means the weight must be estimated.  Raises on
    a bad kind or budget, a graph with no gauge slice, and a top-degree
    slice of more than ``qmc.MAX_DIM`` dimensions.
    """
    check_kind(kind)
    _check_budget(samples, seed)
    dim = gauge_dim(g.n, g.m)
    if len(g.edges) != dim:
        return _exact(0.0 + 0j, g, kind, seed)
    if dim == 0:
        return _exact(1.0 + 0j, g, kind, seed)
    if dim > qmc.MAX_DIM:
        raise ValueError(f"the slice of a ({g.n},{g.m}) graph has {dim} dimensions; "
                         f"the Sobol table stops at {qmc.MAX_DIM}")
    return None


def compute_weight(g: Graph, kind: str, samples: int, seed: int,
                   threads: Optional[int] = None) -> WeightEstimate:
    """Estimate the weight of a graph.

    Degree-decided weights are exact (:func:`_exact_weight`).  Otherwise
    the value is the deterministic QMC estimate at the requested sample
    budget, rounded up so the 16 batches are balanced powers of two.
    """
    exact = _exact_weight(g, kind, samples, seed)
    if exact is not None:
        return exact
    value, stderr, total, rejected = qmc_mean(
        lambda U: integrand_batch(g, kind, U), len(g.edges), samples, seed, threads)
    return WeightEstimate(value, stderr, total, seed, kind, encode_graph(g),
                          rejected=rejected)


def cached_weight(g: Graph, kind: str, samples: int, seed: int,
                  threads: Optional[int] = None) -> WeightEstimate:
    """Weight estimate deduplicated across graphs isomorphic up to aerial
    relabelling and edge reordering (sign restored from the edge parity).

    Degree-decided weights are returned before any canonical search.  A
    class of parity 0 (:func:`graphs.canonical_key`: it has an odd
    automorphism) weighs an exact zero, and so does a class with no
    bijection from edges to frame columns (an empty
    :func:`forms.frame_plan`: its integrand vanishes identically).  Only
    this class-level entry point applies these rules;
    :func:`compute_weight` estimates every graph it is given.
    """
    exact = _exact_weight(g, kind, samples, seed)
    if exact is not None:
        return exact
    key, parity = canonical_key(g)
    if parity == 0 or not frame_plan(key[2], gauge_frame(key[0], key[1], 1.0)):
        return _exact(0.0 + 0j, g, kind, seed)
    cache_key = (key, kind, samples, seed)
    with _cache_lock:
        hit = _cache.get(cache_key)
    if hit is None:
        hit = replace(compute_weight(canonical_graph(key), kind, samples, seed, threads),
                      class_key=key)
        with _cache_lock:
            _cache[cache_key] = hit
    if g.edges == key[2]:  # the canonical graph itself
        return hit
    value = hit.value if parity == 1 or hit.value == 0 else -hit.value  # no -0.0
    return replace(hit, value=value, graph=encode_graph(g))


def clear_weight_cache() -> None:
    """Empty the weight cache, the Sobol engine store and the plans."""
    with _cache_lock:
        _cache.clear()
        _engines.clear()
    clear_plans()


# ---------------------------------------------------------------------------
# structural vanishing patterns


UNIVALENT = "univalent"
ONE_IN_ONE_OUT = "one-in-one-out"
NO_OUTGOING = "no-outgoing-edge"
WHEEL = "wheel"


def _is_wheel_hub(g: Graph, hub: int) -> bool:
    """Hub with no outgoing edges whose in-neighbours form a directed cycle."""
    if g.out_degree(hub) != 0:
        return False
    rim = sorted({s for s, t in g.edges if t == hub})
    if len(rim) < 2 or any(v >= g.n for v in rim):
        return False
    rim_set = set(rim)
    succ = {}
    for s, t in g.edges:
        if s in rim_set and t in rim_set:
            if s in succ:
                return False
            succ[s] = t
    if set(succ) != rim_set:
        return False
    # one cycle through the whole rim
    seen = set()
    v = rim[0]
    while v not in seen:
        seen.add(v)
        v = succ[v]
    return seen == rim_set and v == rim[0]


def detect_vanishing_pattern(g: Graph) -> Optional[str]:
    """Structural reason for a vanishing log weight, if present."""
    if g.n >= 2:
        for v in range(g.n):
            if g.in_degree(v) + g.out_degree(v) == 1:
                return UNIVALENT
    for v in range(g.n):
        if g.in_degree(v) == 1 and g.out_degree(v) == 1:
            return ONE_IN_ONE_OUT
    if g.num_vertices >= 2:
        for v in range(g.n):
            if _is_wheel_hub(g, v):
                return WHEEL
        for v in range(g.n):
            if g.out_degree(v) == 0:
                return NO_OUTGOING
    return None


def vanishing_check(g: Graph, kind: str, samples: int, seed: int,
                    threads: Optional[int] = None):
    """Measure the weight of a pattern-bearing graph and test it against 0.

    Returns (passed, estimate, pattern, bound); it passes when |value| <
    bound = max(VANISHING_TOL, 3 stderr).  Raises when no structural
    pattern is present.
    """
    pattern = detect_vanishing_pattern(g)
    if pattern is None:
        raise ValueError("graph exhibits none of the structural vanishing patterns")
    est = cached_weight(g, kind, samples, seed, threads)
    bound = max(VANISHING_TOL, 3.0 * est.stderr)
    return abs(est.value) < bound, est, pattern, bound
