"""Boundary strata, regularized boundary terms, and quadratic identities.

For a graph with one edge less than the slice dimension, the exterior
derivative of its form vanishes, so the sum of the regularized boundary
terms over all codimension-one strata is zero.  Each term factorizes into
weights of the inner and outer graphs of the stratum's contraction:

* interior (type I) collapse of two points joined by a single edge
  contributes the outer-graph weight (the collapse circle integrates the
  rotation-contracted form to one);
* interior collapse of three or more points contributes exactly zero;
* collapse onto the real line (type II) contributes the product of the
  inner and outer weights;
* strata whose outer graph is inadmissible contribute exactly zero.

Signs have two factors: the parity of sorting the edge list into
inner-then-outer blocks, and the orientation of the stratum chart against
the slice orientation, a closed-form function of the stratum's layout.

The strata, their rules, their terms' signs and their factors' weight
classes depend on the graph alone: :func:`verify_identity` keeps them in an
identity row per graph.
A stratum is a plain ``(layout, rule)`` record, kept once per value in a
class store, so rows and reports share it and a warm call builds none.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .forms import KINDS, contracted_integrand, integrand
from .graphs import (CollapseLayout, Contraction, Graph, TYPE_I, TYPE_II, collapse_layout,
                     contract, edge_sort_parity, encode_graph)
from .halfplane import config_from_coords, degenerating_family, gauge_dim, slice_columns
from .weights import cached_weight, check_request, class_store, weight_class

TWO_POINT_I = "two-point-I"
MULTI_POINT_I = "multi-point-I-zero"
TYPE_II_PRODUCT = "type-II-product"
ZERO_BY_FLAG = "zero-by-flag"

#: points on the collapse circle averaged by :func:`counterterm_probe`
FIBER_POINTS = 16
#: absolute floor of the bound on an identity residual; bound on a
#: probe's relative deviation from its expected limit
IDENTITY_TOL = PROBE_TOL = 1e-3


class BoundaryStratum(NamedTuple):
    """A stratum of a graph: its layout and the term's rule."""

    layout: CollapseLayout
    rule: str

    def describe(self) -> str:
        return f"{self.layout.label()}:{self.rule}"


#: each slice's stratum table under (n, m) (the benchmark clears it by name)
_orient_cache: Dict[Tuple[int, int], List[CollapseLayout]] = {}
_orient_lock = threading.Lock()
_strata = class_store("stokes strata")  # each BoundaryStratum value, kept once
_rows = class_store("stokes identity rows")  # by labelled graph, see _identity_row


def _strata_table(n: int, m: int) -> List[CollapseLayout]:
    """The layout of every codimension-one stratum of the (n, m) slice, in
    report order.

    Candidates are the aerial subsets of size >= 2 (type I), then for each
    aerial subset ``P``: ``P`` at every ground gap and ``P`` plus every
    gap-free ground run (type II).  :func:`collapse_layout` applies the
    collapse rule once per candidate and places the survivors.
    """
    runs = [tuple(range(n + a, n + b + 1)) for a in range(m) for b in range(a, m)]
    cands = [(B, TYPE_I, None) for size in range(2, n + 1)
             for B in itertools.combinations(range(n), size)]
    for psize in range(n + 1):
        for P in itertools.combinations(range(n), psize):
            cands.extend((P, TYPE_II, pos) for pos in range(m + 1))
            cands.extend((P + run, TYPE_II, None) for run in runs)
    table = []
    for S, kind, pos in cands:
        try:
            table.append(collapse_layout(n, m, S, kind, pos))
        except ValueError:  # the collapse rule rejects the candidate
            continue
    return table


def boundary_strata(g: Graph) -> List[Tuple[BoundaryStratum, Contraction]]:
    """All codimension-one strata of the configuration space of ``g``, each
    with its contraction of ``g``.

    Requires the identity degree (one edge less than the slice dimension).
    The layouts come from the (n, m) slice's table, built once per slice
    and kept in ``_orient_cache``; the graph only splits its edges.
    """
    if len(g.edges) != gauge_dim(g.n, g.m) - 1:
        raise ValueError("boundary analysis needs edge count = slice dimension - 1")
    with _orient_lock:
        if (g.n, g.m) not in _orient_cache:
            _orient_cache[g.n, g.m] = _strata_table(g.n, g.m)
        table = _orient_cache[g.n, g.m]
    out = []
    for layout in table:
        con = contract(g, layout)
        if layout.kind == TYPE_I and len(layout.subset) > 2:
            rule = MULTI_POINT_I
        elif not con.outer_ok:
            rule = ZERO_BY_FLAG
        else:
            rule = TWO_POINT_I if layout.kind == TYPE_I else TYPE_II_PRODUCT
        st = BoundaryStratum(layout, rule)
        out.append((_strata.setdefault(st, st), con))
    return out


def shuffle_sign(g: Graph, layout: CollapseLayout) -> int:
    """Parity of sorting the edge list into inner-edges-then-outer-edges."""
    idx = layout.inner_index
    return edge_sort_parity([0 if idx[s] >= 0 and idx[t] >= 0 else 1 for s, t in g.edges])


# ---------------------------------------------------------------------------
# orientation signs


def orientation_sign(layout: CollapseLayout) -> int:
    """Sign comparing the stratum chart orientation with the slice orientation.

    The stratum chart has coordinates ``(r, q_in, q_out)``: the collapse
    scale, the inner factor's ``d_in`` slice coordinates (the rotation angle
    of an interior pair, ``d_in = 1``) and the outer factor's.  The inner
    block ``(r, q_in)`` of ``1 + d_in`` columns takes the place of the fresh
    vertex's coordinate, so the sign is ``(-1)^((k + 1)(d_in + 1))`` with
    ``k`` the fresh vertex's outer ground index: +1 for every interior pair
    and every inner factor with an odd ``d_in``.  ``tests/chart_oracle.py``
    checks the rule against chart-map Jacobians.  The boundary term carries
    the opposite sign (the outward normal is the decreasing collapse scale).
    """
    if layout.kind == TYPE_I:
        if len(layout.subset) != 2:
            raise ValueError("orientation sign only needed for two-point interior collapses")
        return 1
    d_in = gauge_dim(layout.inner_n, layout.inner_m)
    k = layout.new_vertex - layout.outer_n
    return -1 if (k + 1) * (d_in + 1) % 2 else 1


# ---------------------------------------------------------------------------
# boundary terms and the quadratic identity


def _identity_row(g: Graph):
    """The graph's strata and, per stratum whose term takes weights, its
    index, its sign (:func:`shuffle_sign` times the boundary's
    ``-orientation_sign``) and the :func:`weights.weight_class` of its inner
    and outer factors: the boundary relation.  A row holds no contraction."""
    pairs = boundary_strata(g)
    weighted = []
    for i, (st, con) in enumerate(pairs):
        if st.rule == TYPE_II_PRODUCT:
            inner = weight_class(con.inner)
        elif st.rule == TWO_POINT_I and len(con.inner.edges) == 1:
            inner = (1, None, 0)  # the collapse circle's integral; an int keeps sign * outer
        else:  # flagged, three or more points, or an edgeless or doubly-edged pair
            continue
        sign = shuffle_sign(g, st.layout) * -orientation_sign(st.layout)
        weighted.append((i, sign, inner, weight_class(con.outer)))
    return tuple(st for st, _ in pairs), tuple(weighted)


@dataclass(frozen=True)
class IdentityReport:
    graph: str
    kind: str
    terms: Tuple[Tuple[BoundaryStratum, complex, float], ...]
    residual: complex
    stderr: float
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph, "kind": self.kind,
            "residual": [self.residual.real, self.residual.imag],
            "stderr": self.stderr, "tol": self.tol, "passed": self.passed,
            "terms": [
                {"stratum": st.describe(), "value": [v.real, v.imag], "stderr": e}
                for st, v, e in self.terms
            ],
        }


def verify_identity(g: Graph, kind: str, samples: int, seed: int,
                    threads: Optional[int] = None,
                    kinds: Tuple[str, ...] = KINDS) -> IdentityReport:
    """Sum the regularized boundary terms; the residual must vanish.

    Passes when |residual| <= 3 * combined stderr + IDENTITY_TOL.  Factors
    sharing a class's weight estimate carry fully correlated errors, so
    each factor's sensitivity is summed per class representative, both
    factors of a term included, before the classes are combined in
    quadrature.  A class missing from
    the cache is estimated under ``kind`` and ``kinds``, by default both,
    in one pass, so their identities at this budget and seed weigh nothing.
    """
    check_request(kind, samples, seed)  # a warm row may need no weight
    row = _rows.get(g)
    if row is None:
        row = _rows[g] = _identity_row(g)
    strata, weighted = row
    terms = [(st, 0.0 + 0j, 0.0) for st in strata]
    sens: Dict[Graph, List[float]] = {}  # representative -> [sum |d term / d w|, stderr of w]
    for i, sign, *factors in weighted:
        ws = []  # (value, stderr, representative) of the inner and the outer factor
        for exact, rep, parity in factors:
            w = None if rep is None else cached_weight(rep, kind, samples, seed, threads, kinds)
            ws.append((exact, 0.0, None) if w is None else  # parity never makes a -0.0
                      (w.value if parity == 1 or w.value == 0 else -w.value, w.stderr, rep))
        (v_in, e_in, _), (v_out, e_out, _) = ws
        terms[i] = (strata[i], sign * v_in * v_out,
                    abs(v_in) * e_out + abs(v_out) * e_in + e_in * e_out)
        for (_, e, rep), (v_other, e_other, _) in zip(ws, ws[::-1]):
            if e:  # each factor counts, even when both share a class
                sens.setdefault(rep, [0.0, e])[0] += abs(v_other) + e_other
    residual = sum(v for _, v, _ in terms)
    stderr = math.sqrt(sum((coef * err) ** 2 for coef, err in sens.values()))
    passed = abs(residual) <= 3.0 * stderr + IDENTITY_TOL
    return IdentityReport(encode_graph(g), kind, tuple(terms), residual,
                          stderr, IDENTITY_TOL, passed)


# ---------------------------------------------------------------------------
# counterterm and regularity probes


def richardson_limit(values: Sequence[complex], ratio: float) -> complex:
    """Extrapolate a sequence sampled at scales decreasing by ``ratio``.

    Values must be ordered from the largest scale to the smallest; repeated
    elimination of the leading power of the scale is exact for polynomial
    error terms.
    """
    level = list(values)
    if not level:
        raise ValueError("no values to extrapolate")
    k = 1
    while len(level) > 1:
        mult = ratio ** k
        level = [(mult * high - low) / (mult - 1.0)
                 for low, high in zip(level, level[1:])]
        k += 1
    return level[0]


@dataclass(frozen=True)
class CountertermReport:
    graph: str
    kind: str
    subset: Tuple[int, ...]
    scales: Tuple[float, ...]
    values: Tuple[complex, ...]
    limit: complex
    expected: complex
    cauchy_decreasing: bool

    @property
    def deviation(self) -> float:
        return abs(self.limit - self.expected)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph, "kind": self.kind, "subset": list(self.subset),
            "scales": list(self.scales), "values": [[v.real, v.imag] for v in self.values],
            "limit": [self.limit.real, self.limit.imag],
            "expected": [self.expected.real, self.expected.imag],
            "deviation": self.deviation, "cauchy_decreasing": self.cauchy_decreasing,
        }


# probe coordinate ranges: angle of the circle-pinned point, then x and y of
# free aerial points; free ground points step right from 1 by 0.5 to 1.5
_PROBE_RANGE = {"phi": (0.8, 2.3), "x": (-1.5, 1.5), "y": (0.7, 2.2)}


def probe_family(layout: CollapseLayout, seed: int):
    """Deterministic outer configuration and cluster shape for a probe of a
    type I collapse.

    Aerial points are drawn with height at least 0.7 and pairwise
    separation at least 0.3, so every cluster at the probe scales stays
    inside the upper half-plane and away from collisions.
    """
    k, n_out, m = len(layout.subset), layout.outer_n, layout.outer_m
    rng = np.random.default_rng(np.random.SeedSequence([seed, layout.n, m, k]))
    cols = slice_columns(n_out, m)
    for _ in range(64):
        coords = []
        gval = 1.0
        for _, mode in cols:
            if mode == "g":
                gval += rng.uniform(0.5, 1.5)
                coords.append(gval)
            else:
                coords.append(rng.uniform(*_PROBE_RANGE[mode]))
        try:
            outer_cfg = config_from_coords(n_out, m, np.array(coords))
        except ValueError:
            continue
        pts = [outer_cfg.point(v) for v in range(n_out + m)]
        sep = min((abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]),
                  default=1.0)
        if sep > 0.3:
            break
    else:
        raise RuntimeError("could not draw a well-separated probe configuration")
    raw = rng.normal(size=k) + 1j * rng.normal(size=k)
    raw -= raw.mean()
    return outer_cfg, tuple(raw / math.sqrt(float(np.sum(np.abs(raw) ** 2))))


def counterterm_probe(g: Graph, subset, kind: str,
                      scales: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
                      seed: int = 0) -> CountertermReport:
    """Convergence of the rotation-contracted integrand along a collapse.

    The probe value is the collapse-circle average of
    :func:`kwl.forms.contracted_integrand` at each scale; the scales must
    decrease by one common ratio, which Richardson extrapolation assumes.
    The limit is compared against ``1/(2 pi)`` times the outer-graph
    integrand at the collapsed configuration when the cluster carries a
    single edge and the outer graph has top degree on its own slice (one
    degree below the top for ``g``), and against zero otherwise, which
    includes every cluster of three or more points.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if len(scales) < 2 or not all(math.isfinite(r) and r > 0 for r in scales):
        raise ValueError("scales must be at least two positive finite numbers")
    ratio = scales[0] / scales[1]
    if not 1.0 < ratio < math.inf or any(abs(a / b - ratio) > 1e-9 * ratio
                                         for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must decrease by one common ratio")
    layout = collapse_layout(g.n, g.m, subset, TYPE_I)
    con = contract(g, layout)
    outer_cfg, shape = probe_family(layout, seed)

    values = []
    for r in scales:
        acc = 0.0 + 0j
        for k in range(FIBER_POINTS):
            rot = cmath.exp(2j * math.pi * k / FIBER_POINTS)
            cfg = degenerating_family(outer_cfg, layout, [rot * s for s in shape], r)
            acc += contracted_integrand(g, kind, cfg, layout)
        values.append(acc / FIBER_POINTS)

    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    cauchy = all(d2 <= d1 * 1.2 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    limit = richardson_limit(values, ratio=ratio)

    expected = 0.0 + 0j
    if len(layout.subset) == 2 and len(con.inner.edges) == 1 and con.outer_ok:
        outer_d = gauge_dim(con.outer.n, con.outer.m)
        if len(con.outer.edges) == outer_d:
            expected = (shuffle_sign(g, layout) / (2.0 * math.pi)
                        * integrand(con.outer, kind, outer_cfg))
    return CountertermReport(encode_graph(g), kind, layout.subset, tuple(scales),
                             tuple(values), limit, expected, cauchy)
