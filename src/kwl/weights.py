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
``clear_weight_cache``; drawing from an engine does not change it.  Its
column-major draws are clipped in place: ``func`` gets an F-contiguous ``U``.

On slices of dimension ``MIN_EXPANDED_DIM`` or more the integrand is
:func:`forms.frame_integrand`, the graph's column-subset recursion on the
edge terms of each chunk; smaller slices keep ``np.linalg.det`` only for
the benchmark tracer's ``weights.det`` span, until kwl has its own timers
(ROADMAP item 4).  Every entry point decides per class, before sampling,
the weights exact at any budget and seed: by degree, an odd automorphism,
an empty plan (no bijection from edges to frame columns) and, in the log
kind alone, :func:`forms.log_vanishes`.  Nothing else decides one: a
structural vanishing pattern only labels a report row, and
:func:`vanishing_check` holds an exact weight to 0 with no tolerance.
``clear_weight_cache`` empties the plans and the log rule's cache of
:mod:`kwl.forms` too, and every :func:`class_store` table: each labelled
graph's class, and the stratum records and identity rows of :mod:`kwl.stokes`.

One kernel pass estimates a tuple of kinds: :func:`integrand_batch` and
:func:`qmc_mean` give one entry per kind, sharing everything but each
kind's link sums, scale, Jacobian product and mean, so each kind gets the
value of its one-kind pass bit for bit; :func:`compute_weight` also takes
one kind.  An estimate's ``rejected`` counts the rows of its pass that are
near a collision or non-finite in any of the pass's kinds.  On a miss,
:func:`cached_weight` estimates ``kind`` together with the ``kinds`` it
is asked for and lacks: :func:`stokes.verify_identity` asks for both
kinds by default, :func:`vanishing_check` and ``operators.u_n`` for none.
The collision mask takes distances only on rows where the real parts of
some pair are within ``COLLISION_EPS``: as a floating-point ``hypot(x, y)
>= |x|``, that prefilter changes no bit of the mask.

:func:`compute_weights` estimates graphs that share (n, m) and edge count
in one pass, of which :func:`compute_weight` and :func:`integrand_batch`
are the one-graph case: the graphs share each batch's Sobol draw, slice map
and collision distances, and each chunk's frame and edge terms per ordered
vertex pair; each keeps its own plan and non-finite rows.
:func:`prefetch_weights` runs one such pass per group for the classes
``operators.u_n`` and ``suite.check_structural_vanishing`` will read;
:func:`stokes.verify_identity` keeps its one-miss pass.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import qmc
from .forms import (ANGLE, LOG, check_kind, class_log_vanishes, clear_plans, frame_integrand,
                    frame_plan, pairing_matrices, pairing_scale)
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
#: identities there), until the tracer reads kwl's own spans (ROADMAP item 4)
MIN_EXPANDED_DIM = 4
#: absolute floor of the bound on a measured weight's distance from its
#: exact value (zero for the vanishing patterns)
VANISHING_TOL = 5e-3


@dataclass(frozen=True)
class WeightEstimate:
    """QMC weight estimate with batch-based statistical error."""

    value: complex
    stderr: float
    samples: int
    seed: int
    kind: str
    graph: str
    rejected: int = 0
    exact: bool = False

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
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return min(4, usable)


# ---------------------------------------------------------------------------
# vectorized integrand evaluation


def integrand_batch(g: Graph, kinds: Tuple[str, ...], U: np.ndarray) -> Tuple[tuple, int]:
    """Hypercube integrand values of a batch of sample points, one per kind.

    Returns (values, rejected) where values already include the sampling
    Jacobian and samples within ``COLLISION_EPS`` of a collision are zeroed:
    the one-graph case of :func:`_integrand_group`.
    """
    return _integrand_group((g,), kinds, U)[0]


def _integrand_group(graphs: Sequence[Graph], kinds: Tuple[str, ...],
                     U: np.ndarray) -> List[Tuple[tuple, int]]:
    """:func:`integrand_batch` of every graph in ``graphs``, which share
    (n, m) and edge count, from one slice map of ``U``.

    The batch is worked ``CHUNK_ROWS`` rows at a time (temporaries do not
    grow with it; chunk boundaries depend only on the row index).  The
    graphs share the collision distances of the batch, and per chunk the
    frame and the edge terms of each ordered vertex pair, computed on first
    use.  Slices of dimension ``MIN_EXPANDED_DIM`` or more take
    :func:`forms.frame_integrand`, smaller ones ``np.linalg.det``.

    The kinds also share each complex pairing entry; the link sums, scale
    and Jacobian product are per kind, so each array equals its one-kind,
    one-graph pass bit for bit.  A graph's ``rejected`` counts one mask for
    its pass: a row near a collision (shared) or non-finite in any kind
    (the graph's own), zeroed in all.
    """
    n, m, E = graphs[0].n, graphs[0].m, len(graphs[0].edges)
    Z, G, jac = slice_map(n, m, U)  # column-major: each point is contiguous
    B = U.shape[0]

    point = [Z[:, v] if v < n else G[:, v - n] for v in range(n + m)]
    vals = [[np.empty(B, dtype=float if k == ANGLE else complex) for k in kinds]
            for _ in graphs]
    # near-collision samples may overflow here; they are zeroed by the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, B, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            points = [p[rows] for p in point]
            frame = gauge_frame(n, m, points[0])
            terms: dict = {}
            for g, out in zip(graphs, vals):
                if E >= MIN_EXPANDED_DIM:
                    dets = frame_integrand(g.edges, points, frame, kinds, terms)
                else:  # the angle matrix is the imaginary part of the log one
                    M = pairing_matrices(g.edges, points, frame)
                    dets = [pairing_scale(k, E) * np.linalg.det(M.imag if k == ANGLE else M)
                            for k in kinds]
                for v, det in zip(out, dets):
                    v[rows] = det
        for out in vals:
            for v in out:
                v *= jac

    # guard integrable singularities: zero out samples at near-collisions
    # (a mirror image conj(z_i) is never closer to z_j than z_i is); exact
    # distances only on rows where some pair's real parts are that close
    pairs = [(point[i], q) for i in range(n) for q in point[i + 1:]]
    near = np.flatnonzero(np.any([abs(p.real - q.real) < COLLISION_EPS for p, q in pairs], axis=0))
    mind = np.min([abs(p[near] - q[near]) for p, q in pairs], axis=0, initial=np.inf)
    collided = np.zeros(B, dtype=bool)
    collided[near] = mind < COLLISION_EPS
    passes = []
    for out in vals:
        mask = collided.copy()
        for v in out:
            mask |= ~np.isfinite(v)
        rejected = int(mask.sum())
        if rejected:
            out = [np.where(mask, 0.0, v) for v in out]
        passes.append((tuple(out), rejected))
    return passes


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
#: tables of data on graphs and classes, by name (see :func:`class_store`)
_stores: Dict[str, dict] = {}
_cache_lock = threading.Lock()


def class_store(name: str) -> dict:
    """The table ``name``, which :func:`clear_weight_cache` empties."""
    with _cache_lock:
        return _stores.setdefault(name, {})


#: :func:`_class_of`'s result by labelled graph; :func:`weight_class` enters each
#: representative, under its class key, as the one object of its class
_labelled = class_store("labelled graph classes")


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


def _per_batch(samples: int) -> int:
    """Rows per batch: the budget rounded up to 16 equal powers of two."""
    return 1 << max(0, math.ceil(math.log2(samples / BATCHES)))


def _qmc_passes(func, dim: int, samples: int, seed: int,
                threads: Optional[int] = None) -> Tuple[list, int]:
    """:func:`qmc_mean` of ``func(U)``, a sequence of passes ``(values,
    rejected)``: per pass ``(values, stderrs, rejected)``, and the sample
    count.  A pool task holds every pass's arrays of one batch at a time."""
    _check_budget(samples, seed)
    nthreads = threads if threads is not None else default_threads()
    if nthreads < 1:
        raise ValueError(f"thread count must be at least 1, got {nthreads}")
    per_batch = _per_batch(samples)
    group = max(1, min(BATCHES, TASK_ROWS // per_batch))

    def task(lo: int) -> list:
        out = []
        for batch in range(lo, lo + group):
            # Sobol points can include exact zeros; nudge off the faces
            U = _sobol_points(dim, seed, batch, per_batch)
            np.clip(U, 1e-15, 1.0 - 1e-15, out=U)
            out.append([(tuple(complex(np.mean(v)) for v in vals), rejected)
                        for vals, rejected in func(U)])
        return out

    with ThreadPoolExecutor(max_workers=nthreads) as ex:
        results = [r for part in ex.map(task, range(0, BATCHES, group)) for r in part]

    passes = []
    for batches in zip(*results):
        stats = []
        for column in zip(*(r[0] for r in batches)):
            means = np.array(column, dtype=complex)  # one kind: its own summation order
            value = complex(means.mean())
            var = float(np.sum(np.abs(means - value) ** 2)) / (BATCHES - 1)
            stats.append((value, math.sqrt(var / BATCHES)))
        value, stderr = zip(*stats)
        passes.append((value, stderr, sum(r[1] for r in batches)))
    return passes, per_batch * BATCHES


def qmc_mean(func, dim: int, samples: int, seed: int) -> Tuple[tuple, tuple, int, int]:
    """Batched scrambled-QMC means of ``func(U) -> (values, rejected)`` over
    the ``dim``-dimensional unit hypercube, ``values`` a tuple of arrays.

    The budget is rounded up so the 16 batches are equal powers of two;
    batch ``b`` uses the Sobol stream seeded by ``(seed, b)``, and batches
    share pool tasks up to ``TASK_ROWS`` rows, for every thread count.
    Returns (values, stderrs, actual sample count, rejected sample count),
    one value and stderr per array, each averaged on its own.
    """
    ((value, stderr, rejected),), total = _qmc_passes(lambda U: (func(U),), dim, samples, seed)
    return value, stderr, total, rejected


# ---------------------------------------------------------------------------
# public estimation API


def _exact(value: complex, g: Graph, kind: str, seed: int) -> WeightEstimate:
    return WeightEstimate(value, 0.0, 0, seed, kind, encode_graph(g), exact=True)


def check_request(kind: str, samples: int, seed: int) -> None:
    """Raise on a bad kind, sample budget or seed, as every weight does."""
    check_kind(kind)
    _check_budget(samples, seed)


def weight_class(g: Graph) -> Tuple[Optional[complex], Optional[Graph], int]:
    """``(value, None, 0)`` for a weight exact at any kind, budget and seed,
    else ``(None, representative, parity)``: the class's canonical graph and
    the sign carrying its weight to ``g``.  The degree decides zero when
    the edge count is not the slice dimension (a non-top form) and one for
    the empty top-degree graph; then parity 0 (:func:`graphs.canonical_key`:
    an odd automorphism) and an empty :func:`forms.frame_plan` (the
    integrand vanishes identically) decide an exact zero.  Raises on a
    top-degree slice of more than ``qmc.MAX_DIM`` dimensions."""
    dim = gauge_dim(g.n, g.m)
    if len(g.edges) != dim or dim == 0:
        return complex(len(g.edges) == dim == 0), None, 0
    if dim > qmc.MAX_DIM:
        raise ValueError(f"the slice of a ({g.n},{g.m}) graph has {dim} dimensions; "
                         f"the Sobol table stops at {qmc.MAX_DIM}")
    key, parity = canonical_key(g)
    if parity == 0 or not frame_plan(key[2], gauge_frame(key[0], key[1], 1.0)):
        return 0.0 + 0j, None, 0
    rep = (_labelled.get(key) or _labelled.setdefault(key, (None, canonical_graph(key), 1)))[1]
    return None, rep, parity


def compute_weights(graphs: Sequence[Graph], kinds: Tuple[str, ...], samples: int,
                    seed: int, threads: Optional[int] = None) -> List[tuple]:
    """Estimate graphs that share (n, m) and edge count: per graph, a tuple
    of estimates, one per kind in ``kinds``.

    Weights :func:`_decided` before sampling are exact.  The rest are
    deterministic QMC estimates at the requested sample budget, rounded up
    so the 16 batches are balanced powers of two, from one pass per tuple
    of kinds still needed.  The graphs of a pass share each batch's Sobol
    draw, slice map and collision distances and each chunk's frame and edge
    terms (:func:`_integrand_group`), in runs of at most ``BATCHES *
    TASK_ROWS`` rows per batch summed over the graphs, since a pool task
    holds each graph's values for its batch.  Each estimate is its own
    one-kind pass bit for bit; ``rejected`` counts the rows rejected in
    any kind of its pass: the angle rows alone if the log is decided.
    """
    if not kinds:
        raise ValueError("no propagator kind given")
    for k in kinds:
        check_request(k, samples, seed)
    if len({(g.n, g.m, len(g.edges)) for g in graphs}) > 1:
        raise ValueError("the graphs of a group must share (n, m) and edge count")
    ests = [[_decided(g, k, seed) for k in kinds] for g in graphs]
    passes: Dict[tuple, List[int]] = {}
    for i, row in enumerate(ests):
        need = tuple(k for k, est in zip(kinds, row) if est is None)
        if need:
            passes.setdefault(need, []).append(i)
    size = max(1, BATCHES * TASK_ROWS // _per_batch(samples))
    for need, index in passes.items():
        for lo in range(0, len(index), size):
            run = [graphs[i] for i in index[lo:lo + size]]
            # one graph goes through integrand_batch, which the benchmark tracer times
            results, total = _qmc_passes(
                (lambda U: (integrand_batch(run[0], need, U),)) if len(run) == 1
                else (lambda U: _integrand_group(run, need, U)),
                len(run[0].edges), samples, seed, threads)
            for i, g, (values, stderrs, rejected) in zip(index[lo:lo + size], run, results):
                new = iter([WeightEstimate(v, e, total, seed, k, encode_graph(g), rejected=rejected)
                            for v, e, k in zip(values, stderrs, need)])
                ests[i] = [next(new) if est is None else est for est in ests[i]]
    return [tuple(row) for row in ests]


def compute_weight(g: Graph, kind, samples: int, seed: int,
                   threads: Optional[int] = None):
    """Estimate the weight of a graph: the one-graph :func:`compute_weights`.

    ``kind`` is one kind, giving one estimate, or a non-empty tuple of
    kinds, giving a tuple of estimates: the decided ones exact, the rest
    from one kernel pass (:func:`integrand_batch`), each bit-identical to
    its one-kind estimate save ``rejected``, which counts the rows rejected
    in any of the sampled kinds.
    """
    (ests,) = compute_weights([g], kind if isinstance(kind, tuple) else (kind,),
                              samples, seed, threads)
    return ests if isinstance(kind, tuple) else ests[0]


def _class_of(g: Graph) -> Tuple[Optional[complex], Optional[Graph], int]:
    """:func:`weight_class`, searched once per labelled graph, never for a representative found."""
    key = (g.n, g.m, g.edges)
    return _labelled.get(key) or _labelled.setdefault(key, weight_class(g))


def _decided(g: Graph, kind: str, seed: int) -> Optional[WeightEstimate]:
    """``g``'s exact estimate in ``kind``, else None: :func:`weight_class`'s
    value, or 0 in the log kind if the class's representative
    :func:`forms.log_vanishes` (cached until :func:`forms.clear_plans`)."""
    exact, rep, _ = _class_of(g)
    if exact is None and kind == LOG and class_log_vanishes(rep.n, rep.m, rep.edges):
        exact = 0.0 + 0j
    return None if exact is None else _exact(exact, g, kind, seed)


def cached_weight(g: Graph, kind: str, samples: int, seed: int,
                  threads: Optional[int] = None, kinds: Tuple[str, ...] = ()) -> WeightEstimate:
    """Weight estimate deduplicated across graphs isomorphic up to aerial
    relabelling and edge reordering (sign restored from the edge parity).

    A representative :func:`weight_class` has kept is found with no
    search.  On a miss, ``kind`` and whichever of ``kinds`` the cache lacks
    at this budget and seed go to one :func:`compute_weight`, which
    samples those not decided exact in one kernel pass, and all are kept.
    """
    check_request(kind, samples, seed)
    exact, rep, parity = _class_of(g)
    if exact is not None:
        return _exact(exact, g, kind, seed)
    key = (rep.n, rep.m, rep.edges)
    cache_key = (key, kind, samples, seed)
    with _cache_lock:
        hit = _cache.get(cache_key)
    if hit is None:
        with _cache_lock:
            together = (kind,) + tuple(k for k in kinds if k != kind
                                       and (key, k, samples, seed) not in _cache)
        ests = compute_weight(rep, together, samples, seed, threads)
        with _cache_lock:
            for k, est in zip(together, ests):
                _cache[key, k, samples, seed] = est
            hit = _cache[cache_key]
    if g.edges == rep.edges:  # the canonical graph itself
        return hit
    value = hit.value if parity == 1 or hit.value == 0 else -hit.value  # no -0.0
    return replace(hit, value=value, graph=encode_graph(g))


def prefetch_weights(graphs: Iterable[Graph], kind: str, samples: int, seed: int,
                     threads: Optional[int] = None) -> None:
    """Estimate, in ``kind``, every class of ``graphs`` that
    :func:`cached_weight` would sample and lacks at this budget and seed:
    one :func:`compute_weights` per (n, m, edge count), in first-seen order.
    Later :func:`cached_weight` calls on ``graphs`` then hit."""
    check_request(kind, samples, seed)
    groups: Dict[tuple, Dict[tuple, Graph]] = {}
    for g in graphs:
        exact, rep, _ = _class_of(g)
        if exact is None:
            key = (rep.n, rep.m, rep.edges)
            with _cache_lock:
                known = (key, kind, samples, seed) in _cache
            if not known:
                groups.setdefault((rep.n, rep.m, len(rep.edges)), {})[key] = rep
    for reps in groups.values():
        ests = compute_weights(list(reps.values()), (kind,), samples, seed, threads)
        with _cache_lock:
            for key, (est,) in zip(reps, ests):
                _cache[key, kind, samples, seed] = est


def clear_weight_cache() -> None:
    """Empty the weights, the Sobol engines, the class stores and the plans."""
    with _cache_lock:
        _cache.clear()
        _engines.clear()
        for store in _stores.values():
            store.clear()
    clear_plans()


# ---------------------------------------------------------------------------
# structural vanishing patterns


UNIVALENT = "univalent"
ONE_IN_ONE_OUT = "one-in-one-out"
NO_OUTGOING = "no-outgoing-edge"


def detect_vanishing_pattern(g: Graph) -> Optional[str]:
    """Structural reason for a vanishing log weight, if present: a label
    for reports, as the weight rules alone decide which weights are exact."""
    if g.n >= 2:
        for v in range(g.n):
            if g.in_degree(v) + g.out_degree(v) == 1:
                return UNIVALENT
    for v in range(g.n):
        if g.in_degree(v) == 1 and g.out_degree(v) == 1:
            return ONE_IN_ONE_OUT
    if g.num_vertices >= 2:
        for v in range(g.n):
            if g.out_degree(v) == 0:
                return NO_OUTGOING
    return None


def vanishing_check(g: Graph, kind: str, samples: int, seed: int):
    """Measure the weight of a pattern-bearing graph and test it against 0.

    Returns (passed, estimate, pattern, bound).  An exact estimate passes
    only at 0, with bound 0; a sampled one when |value| < bound =
    max(VANISHING_TOL, 3 stderr).  Raises when no structural pattern is
    present.
    """
    pattern = detect_vanishing_pattern(g)
    if pattern is None:
        raise ValueError("graph exhibits none of the structural vanishing patterns")
    est = cached_weight(g, kind, samples, seed)
    if est.exact:
        return est.value == 0, est, pattern, 0.0
    bound = max(VANISHING_TOL, 3.0 * est.stderr)
    return abs(est.value) < bound, est, pattern, bound
