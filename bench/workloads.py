"""The benchmark's three seeded workloads.

Each workload is carved out of one of the three suite checks that take
most of the default ``kwl suite`` time:

* ``weights_large`` -- from ``structural_vanishing``: a few large QMC
  weights, so the batched integrand kernel does nearly all the work.
* ``stokes_sweep`` -- from ``stokes_identities``: thousands of boundary
  identities over small cached weights, so contraction, canonical keys,
  strata, orientation signs and the per-call cost of small weights carry
  the run, not the kernel.
* ``star_assoc`` -- from ``star_product``: order-2 star products and the
  associativity test on monomial triples, so the graph operators carry
  the run.

All kwl calls go through module attributes (``weights.compute_weight``,
never a name bound at import), so a tracer that rebinds those attributes
sees every call the workload makes.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from kwl import graphs, operators, stokes, weights
from kwl.forms import ANGLE, LOG

KINDS = (ANGLE, LOG)

#: the structural_vanishing budget, rounded to a power of two
WEIGHT_SAMPLES = 1 << 20
IDENTITY_SAMPLES = 1 << 14
STAR_SAMPLES = 1 << 17
#: absolute floor of the vanishing bound, as in ``weights.vanishing_check``
VANISH_TOL = 5e-3

NAMES = ("weights_large", "stokes_sweep", "star_assoc")


@dataclass(frozen=True)
class Inputs:
    """Everything one workload round needs, generated from the workload seed."""

    name: str
    graphs: Tuple[graphs.Graph, ...] = ()
    qmc_seeds: Tuple[int, ...] = ()
    # star_assoc: (bivector, monomials of degree 1..2 in its dimension)
    brackets: Tuple[tuple, ...] = ()
    expected_ops: int = 0


def stolen_s() -> float:
    """CPU time the hypervisor has taken from this machine for other guests
    since boot, averaged over its CPUs (0 where /proc/stat is missing)."""
    try:
        with open("/proc/stat") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0.0
    ncpu = sum(1 for line in lines if line.startswith("cpu") and line[3:4].isdigit())
    return int(lines[0].split()[8]) / os.sysconf("SC_CLK_TCK") / max(1, ncpu)


@dataclass
class Round:
    """Timings and outputs of one pass over a workload's inputs."""

    wall_s: float = 0.0
    stolen_s: float = 0.0  # ``stolen_s()`` over the same interval
    op_s: List[float] = field(default_factory=list)
    # one tuple of output numbers per operation (None when it raised)
    outputs: List[Optional[tuple]] = field(default_factory=list)
    failed: int = 0
    verdicts: int = 0
    verdict_fails: int = 0
    stderr_max: float = 0.0

    def op(self, fn: Callable, *args, **kwargs):
        """Time one unit operation; count it as failed when it raises."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, the run goes on
            self.op_s.append(time.perf_counter() - t0)
            self.outputs.append(None)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.op_s.append(time.perf_counter() - t0)
        return out

    @property
    def guest_s(self) -> float:
        """Wall time minus the time the hypervisor took from the CPUs."""
        return self.wall_s - self.stolen_s

    def record(self, numbers: tuple, stderr: float, passed: Optional[bool]) -> None:
        """Store an operation's output numbers and its verdict, if it has one."""
        self.outputs.append(numbers)
        if not all(math.isfinite(x) for x in numbers):
            self.failed += 1
        self.stderr_max = max(self.stderr_max, stderr)
        if passed is not None:
            self.verdicts += 1
            self.verdict_fails += not passed


# ---------------------------------------------------------------------------
# input generation


def _canonical_top_graphs(n: int, m: int) -> List[graphs.Graph]:
    """One graph per isomorphism class of top-degree (n, m) graphs, in key order."""
    keys = {graphs.canonical_key(g)[0]
            for g in graphs.enumerate_graphs(n, m, 2 * n + m - 2)}
    return [graphs.canonical_graph(k) for k in sorted(keys)]


def _identity_graphs(max_vertices: int = 4) -> List[graphs.Graph]:
    """Every identity-degree graph on at most ``max_vertices`` vertices,
    the set the suite's ``stokes_identities`` check sweeps."""
    out = []
    for n in range(max_vertices + 1):
        for m in range(max_vertices + 1 - n):
            e = 2 * n + m - 3
            if 0 <= e <= n * (n + m - 1) and 2 * n + m - 2 >= 1:
                out.extend(graphs.enumerate_graphs(n, m, e))
    return out


def _monomials(dim: int) -> List[Dict]:
    """All monomials of degree 1 and 2 in ``dim`` variables."""
    out = []
    for degree in (1, 2):
        for combo in itertools.combinations_with_replacement(range(dim), degree):
            exps = [0] * dim
            for v in combo:
                exps[v] += 1
            out.append({tuple(exps): Fraction(1)})
    return out


def _brackets() -> Tuple[tuple, ...]:
    x_dx_dy = operators.bivector(2, [(0, 1, (1, 0), 1)])
    xy_dx_dy = operators.bivector(2, [(0, 1, (1, 1), 1)])
    # so(3): {x, y} = z, {y, z} = x, {z, x} = y
    so3 = operators.bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1),
                                 (0, 2, (0, 1, 0), -1)])
    return tuple((pi, _monomials(pi.dim)) for pi in (x_dx_dy, xy_dx_dy, so3))


def _qmc_seeds(rng: np.random.Generator, count: int) -> Tuple[int, ...]:
    return tuple(int(s) for s in rng.integers(0, 2**31, size=count))


def make_inputs(name: str, seed: int) -> Inputs:
    """Generate a workload's inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if name == "weights_large":
        pool40 = _canonical_top_graphs(4, 0)
        pool31 = _canonical_top_graphs(3, 1)
        if (len(pool40), len(pool31)) != (48, 24):
            raise RuntimeError(f"expected 48 and 24 canonical top graphs, "
                               f"got {len(pool40)} and {len(pool31)}")
        picks = ([pool40[i] for i in sorted(rng.choice(48, 4, replace=False))]
                 + [pool31[i] for i in sorted(rng.choice(24, 2, replace=False))])
        return Inputs(name, graphs=tuple(picks), qmc_seeds=_qmc_seeds(rng, 1),
                      expected_ops=len(picks) * len(KINDS))
    if name == "stokes_sweep":
        idg = _identity_graphs()
        if len(idg) != 973:
            raise RuntimeError(f"expected 973 identity graphs, got {len(idg)}")
        seeds = _qmc_seeds(rng, 3)
        return Inputs(name, graphs=tuple(idg), qmc_seeds=seeds,
                      expected_ops=len(idg) * len(KINDS) * len(seeds))
    if name == "star_assoc":
        brackets = _brackets()
        triples = sum(len(monos) ** 3 for _, monos in brackets)
        return Inputs(name, qmc_seeds=_qmc_seeds(rng, 1), brackets=brackets,
                      expected_ops=triples * len(KINDS))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# one round of each workload


def _weights_large(inp: Inputs, threads: int, rnd: Round) -> None:
    (qseed,) = inp.qmc_seeds
    for g in inp.graphs:
        for kind in KINDS:
            est = rnd.op(weights.compute_weight, g, kind, WEIGHT_SAMPLES, qseed,
                         threads=threads)
            if est is None:
                continue
            passed = None
            if kind == LOG and weights.detect_vanishing_pattern(g) is not None:
                passed = abs(est.value) < max(VANISH_TOL, 3.0 * est.stderr)
            rnd.record((est.value.real, est.value.imag, est.stderr), est.stderr, passed)


def _stokes_sweep(inp: Inputs, threads: int, rnd: Round) -> None:
    for qseed in inp.qmc_seeds:
        for kind in KINDS:
            for g in inp.graphs:
                rep = rnd.op(stokes.verify_identity, g, kind, IDENTITY_SAMPLES,
                             qseed, threads=threads)
                if rep is not None:
                    rnd.record((rep.residual.real, rep.residual.imag, rep.stderr),
                               rep.stderr, rep.passed)


def _star_assoc(inp: Inputs, threads: int, rnd: Round) -> None:
    (qseed,) = inp.qmc_seeds
    for kind in KINDS:
        for pi, monos in inp.brackets:
            star = operators.star_product(pi, 2, kind, STAR_SAMPLES, qseed, threads)
            rnd.stderr_max = max(rnd.stderr_max, *(e.max_abs() for e in star.errs))
            for f, g, h in itertools.product(monos, repeat=3):
                rep = rnd.op(operators.check_associativity, pi, f, g, h, 2, kind,
                             STAR_SAMPLES, qseed, threads=threads, star=star)
                if rep is not None:
                    rnd.record(rep.residuals, 0.0, rep.passed)


_ROUNDS = {"weights_large": _weights_large, "stokes_sweep": _stokes_sweep,
           "star_assoc": _star_assoc}


def clear_caches() -> None:
    """Empty the weight cache and the orientation-sign cache, so that every
    round does the same work as the first round of a fresh process."""
    weights.clear_weight_cache()
    with stokes._orient_lock:
        stokes._orient_cache.clear()


def run_round(inp: Inputs, threads: int) -> Round:
    """One timed pass over the inputs, starting from cold caches."""
    clear_caches()
    rnd = Round()
    s0, t0 = stolen_s(), time.perf_counter()
    _ROUNDS[inp.name](inp, threads, rnd)
    rnd.wall_s = time.perf_counter() - t0
    rnd.stolen_s = stolen_s() - s0
    return rnd


def recompute_weight(inp: Inputs, index: int):
    """Recompute the ``index``-th weights_large operation at one thread,
    returning the same output tuple :func:`run_round` records for it."""
    g = inp.graphs[index // len(KINDS)]
    kind = KINDS[index % len(KINDS)]
    est = weights.compute_weight(g, kind, WEIGHT_SAMPLES, inp.qmc_seeds[0], threads=1)
    return (est.value.real, est.value.imag, est.stderr)
