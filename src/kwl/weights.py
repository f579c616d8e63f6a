"""Deterministic quasi-Monte Carlo estimation of graph weights.

The weight of a top-degree graph is the integral of its integrand over the
gauge slice, computed by pulling back to the unit hypercube.  Samples come
from 16 independently scrambled low-discrepancy streams: the estimate is
the mean of the batch means and the error is the spread of the batch
means, which stays valid without independence assumptions on points
inside a batch.  Everything is keyed by an integer seed; identical
(graph, kind, samples, seed) inputs give bit-identical results regardless
of the worker pool size.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.stats import qmc

from .forms import ANGLE, KINDS
from .graphs import Graph, canonical_graph, canonical_key, encode_graph
from .halfplane import gauge_dim, gauge_supported, slice_columns, slice_map

BATCHES = 16
COLLISION_EPS = 1e-12
# rows per pairing-matrix chunk in integrand_batch; per-row values do not
# depend on it.  A chunk of 6 x 6 complex matrices is 2.4 MB; chunks of
# 1k-16k rows ran at about the same speed, whole 65,536-row batches slower
CHUNK_ROWS = 4096


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
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# vectorized integrand evaluation


def _pairing_chunk(g: Graph, cols: List[Tuple[int, str]], point: List[np.ndarray],
                   angle: bool) -> np.ndarray:
    """Unscaled pairing matrices of one row chunk, shape (rows, E, d).

    Moving the source of the edge ``(s, t)`` with velocity ``v`` pairs to
    ``v*a - conj(v)*b`` and moving its target to ``-v*(a - b)``, where
    ``a = 1/(zs - zt)`` and ``b = 1/(conj(zs) - zt)``.  The angle propagator
    keeps only the imaginary parts.
    """
    M = np.zeros((len(point[0]), len(g.edges), len(cols)),
                 dtype=float if angle else complex)
    for ei, (s, t) in enumerate(g.edges):
        zs, zt = point[s], point[t]
        a = 1.0 / (zs - zt)
        b = 1.0 / (np.conj(zs) - zt)
        diff = a - b
        for ci, (p, mode) in enumerate(cols):
            # velocities: x and g move by 1, y by i, phi by i*z along the circle
            if p == s:  # sources are aerial: x, y or phi
                if mode == "x":
                    entry = diff
                elif mode == "y":
                    entry = 1j * (a + b)
                else:
                    v = 1j * zs
                    entry = v * a - np.conj(v) * b
            elif p == t:
                if mode == "x" or mode == "g":
                    entry = -diff
                elif mode == "y":
                    entry = -1j * diff
                else:
                    entry = -1j * zt * diff
            else:
                continue
            M[:, ei, ci] = entry.imag if angle else entry
    return M


def integrand_batch(g: Graph, kind: str, U: np.ndarray) -> Tuple[np.ndarray, int]:
    """Hypercube integrand values for a batch of sample points.

    Returns (values, rejected) where values already include the sampling
    Jacobian and samples within ``COLLISION_EPS`` of a collision are zeroed.
    Pairing matrices are built and reduced ``CHUNK_ROWS`` rows at a time, so
    their memory does not grow with the batch; chunk boundaries depend only
    on the row index.
    """
    n, m = g.n, g.m
    Z, G, jac = slice_map(n, m, U)
    B = U.shape[0]
    E = len(g.edges)
    angle = kind == ANGLE

    point = [Z[:, v] if v < n else G[:, v - n] for v in range(n + m)]
    cols = slice_columns(n, m)
    # det(M / c) = det(M) * c^-E for the E x E pairing matrix
    scale = (2.0 * math.pi) ** -E if angle else (2j * math.pi) ** -E

    vals = np.ones(B, dtype=float if angle else complex)
    # near-collision samples may overflow here; they are zeroed by the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if E:
            for lo in range(0, B, CHUNK_ROWS):
                rows = slice(lo, lo + CHUNK_ROWS)
                M = _pairing_chunk(g, cols, [p[rows] for p in point], angle)
                vals[rows] = np.linalg.det(M)
        vals *= scale
        vals *= jac

    # guard integrable singularities: zero out samples at near-collisions
    mind = np.full(B, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            mind = np.minimum(mind, np.abs(Z[:, i] - Z[:, j]))
            mind = np.minimum(mind, np.abs(np.conj(Z[:, i]) - Z[:, j]))
        for k in range(m):
            mind = np.minimum(mind, np.abs(Z[:, i] - G[:, k]))
    mask = (mind < COLLISION_EPS) | ~np.isfinite(vals)
    rejected = int(mask.sum())
    if rejected:
        vals = np.where(mask, 0.0, vals)
    return vals, rejected


def _qmc_batches(func, dim: int, samples: int, seed: int,
                 threads: Optional[int]) -> Tuple[complex, float, int, int]:
    """Batched scrambled-QMC mean of ``func(U) -> (values, rejected)``.

    The budget is rounded up so the 16 batches are equal powers of two;
    batch ``b`` uses the Sobol stream seeded by ``(seed, b)``.  Returns
    (value, stderr, actual sample count, rejected sample count).
    """
    if samples <= 0:
        raise ValueError("sample budget must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    per_batch = 1 << max(0, math.ceil(math.log2(samples / BATCHES)))

    def one(batch: int) -> Tuple[complex, int]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, batch]))
        sob = qmc.Sobol(dim, scramble=True, seed=rng)
        # Sobol points can include exact zeros; nudge off the faces
        U = np.clip(sob.random(per_batch), 1e-15, 1.0 - 1e-15)
        vals, rejected = func(U)
        return complex(np.mean(vals)), rejected

    nthreads = threads if threads is not None else default_threads()
    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as ex:
            futs = [ex.submit(one, b) for b in range(BATCHES)]
            results = [f.result() for f in futs]
    else:
        results = [one(b) for b in range(BATCHES)]

    means = np.array([r[0] for r in results], dtype=complex)
    value = complex(means.mean())
    var = float(np.sum(np.abs(means - value) ** 2)) / (BATCHES - 1)
    return (value, math.sqrt(var / BATCHES), per_batch * BATCHES,
            sum(r[1] for r in results))


# ---------------------------------------------------------------------------
# public estimation API


def compute_weight(g: Graph, kind: str, samples: int, seed: int,
                   threads: Optional[int] = None) -> WeightEstimate:
    """Estimate the weight of a graph.

    A graph whose edge count differs from the slice dimension has weight
    exactly zero (the integral of a non-top form); the empty top-degree
    case is exactly one.  Otherwise the value is the deterministic QMC
    estimate at the requested sample budget, rounded up so the 16 batches
    are balanced powers of two.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown propagator kind {kind!r}")
    # the exact cases below never reach the QMC seed check
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    enc = encode_graph(g)
    d_top = 2 * g.n + g.m - 2
    if len(g.edges) != d_top:
        return WeightEstimate(0.0 + 0j, 0.0, 0, seed, kind, enc, exact=True)
    if d_top == 0:
        return WeightEstimate(1.0 + 0j, 0.0, 0, seed, kind, enc, exact=True)
    if not gauge_supported(g.n, g.m):
        raise ValueError(f"no gauge slice for (n, m) = ({g.n}, {g.m})")

    value, stderr, total, rejected = _qmc_batches(
        lambda U: integrand_batch(g, kind, U), gauge_dim(g.n, g.m), samples, seed, threads)
    return WeightEstimate(value, stderr, total, seed, kind, enc, rejected=rejected)


def qmc_mean(func, dim: int, samples: int, seed: int,
             threads: Optional[int] = None) -> Tuple[complex, float, int]:
    """Batched scrambled-QMC mean of ``func(U) -> values`` over the hypercube.

    Same batching, seeding and reduction rules as :func:`compute_weight`;
    returns (value, stderr, actual sample count).
    """
    return _qmc_batches(lambda U: (func(U), 0), dim, samples, seed, threads)[:3]


_cache: Dict[tuple, WeightEstimate] = {}
_cache_lock = threading.Lock()


def cached_weight(g: Graph, kind: str, samples: int, seed: int,
                  threads: Optional[int] = None) -> WeightEstimate:
    """Weight estimate deduplicated across graphs isomorphic up to aerial
    relabelling and edge reordering (sign restored from the edge parity)."""
    key, parity = canonical_key(g)
    cache_key = (key, kind, samples, seed)
    with _cache_lock:
        hit = _cache.get(cache_key)
    if hit is None:
        hit = compute_weight(canonical_graph(key), kind, samples, seed, threads)
        with _cache_lock:
            _cache[cache_key] = hit
    if parity == 1:
        return hit
    return WeightEstimate(-hit.value, hit.stderr, hit.samples, hit.seed, kind,
                          encode_graph(g), rejected=hit.rejected, exact=hit.exact)


def clear_weight_cache() -> None:
    with _cache_lock:
        _cache.clear()


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
                    tol: float = 5e-3, threads: Optional[int] = None):
    """Measure the weight of a pattern-bearing graph and test it against 0.

    Returns (passed, estimate, pattern).  Raises when no structural pattern
    is present.
    """
    pattern = detect_vanishing_pattern(g)
    if pattern is None:
        raise ValueError("graph exhibits none of the structural vanishing patterns")
    est = cached_weight(g, kind, samples, seed, threads)
    ok = abs(est.value) < max(tol, 3.0 * est.stderr)
    return ok, est, pattern
