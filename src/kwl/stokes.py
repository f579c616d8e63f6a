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
the slice orientation, which is measured once per stratum shape as the
sign of a numerical chart-map Jacobian.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import forms
from .forms import contracted_integrand, integrand
from .graphs import (Contraction, Graph, TYPE_I, TYPE_II, canonical_key,
                     contract)
from .halfplane import (coords_of_config, config_from_coords,
                        degenerating_family, gauge_dim, regauge,
                        sample_configuration, slice_columns)
from .weights import cached_weight

TWO_POINT_I = "two-point-I"
MULTI_POINT_I = "multi-point-I-zero"
TYPE_II_PRODUCT = "type-II-product"
ZERO_BY_FLAG = "zero-by-flag"


@dataclass(frozen=True)
class BoundaryStratum:
    subset: frozenset
    kind: str  # TYPE_I or TYPE_II
    position: Optional[int]  # ground gap for aerial-only type II subsets
    contraction: Contraction
    rule: str

    def describe(self) -> str:
        names = ",".join(str(v) for v in sorted(self.subset))
        pos = "" if self.position is None else f"@{self.position}"
        return f"{self.kind}{{{names}}}{pos}:{self.rule}"


def _ground_runs(n: int, m: int) -> List[Tuple[int, ...]]:
    runs = []
    for a in range(m):
        for b in range(a, m):
            runs.append(tuple(range(n + a, n + b + 1)))
    return runs


def boundary_strata(g: Graph) -> List[BoundaryStratum]:
    """All codimension-one strata of the configuration space of ``g``.

    Requires the identity degree (one edge less than the slice dimension).
    """
    d = 2 * g.n + g.m - 2
    if len(g.edges) != d - 1:
        raise ValueError("boundary analysis needs edge count = slice dimension - 1")
    out: List[BoundaryStratum] = []

    # interior collapses: aerial subsets of size >= 2
    aerials = list(range(g.n))
    for size in range(2, g.n + 1):
        for combo in _combinations(aerials, size):
            B = frozenset(combo)
            con = contract(g, B, TYPE_I)
            if size > 2:
                rule = MULTI_POINT_I
            elif not con.outer_ok:
                rule = ZERO_BY_FLAG
            else:
                rule = TWO_POINT_I
            out.append(BoundaryStratum(B, TYPE_I, None, con, rule))

    # collapses onto the real line: aerial subset plus a gap-free ground run
    total = g.num_vertices
    for psize in range(0, g.n + 1):
        for pcombo in _combinations(aerials, psize):
            P = frozenset(pcombo)
            if psize > 0:
                remaining_grounds = g.m
                for pos in range(remaining_grounds + 1):
                    if len(P) == total:
                        continue
                    con = contract(g, P, TYPE_II, position=pos)
                    rule = TYPE_II_PRODUCT if con.outer_ok else ZERO_BY_FLAG
                    out.append(BoundaryStratum(P, TYPE_II, pos, con, rule))
            for run in _ground_runs(g.n, g.m):
                S = P | set(run)
                if 2 * psize + len(run) < 2 or len(S) == total:
                    continue
                con = contract(g, S, TYPE_II)
                rule = TYPE_II_PRODUCT if con.outer_ok else ZERO_BY_FLAG
                out.append(BoundaryStratum(frozenset(S), TYPE_II, None, con, rule))
    return out


def _combinations(items, size):
    import itertools
    return itertools.combinations(items, size)


def shuffle_sign(g: Graph, subset) -> int:
    """Parity of sorting the edge list into inner-edges-then-outer-edges."""
    B = set(subset)
    mask = [1 if (s in B and t in B) else 0 for s, t in g.edges]
    inversions = 0
    inner_seen_right = 0
    for flag in reversed(mask):
        if flag == 1:
            inner_seen_right += 1
        else:
            inversions += inner_seen_right
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# stratum chart maps and orientation signs


def _chart_map(n: int, m: int, stratum: BoundaryStratum):
    """Map (r, inner coords, outer coords) -> full slice coordinates.

    The inner and outer coordinates are the standard slice coordinates of
    the factor configuration spaces; for an interior two-point collapse the
    inner coordinate is the rotation angle of the pair.
    """
    con = stratum.contraction
    inner, outer = con.inner, con.outer
    d_out = gauge_dim(outer.n, outer.m)
    if stratum.kind == TYPE_I:
        if len(stratum.subset) != 2:
            raise ValueError("chart map only needed for two-point interior collapses")
        d_in = 1
    else:
        d_in = gauge_dim(inner.n, inner.m)

    members = sorted(stratum.subset)

    def phi(x: np.ndarray) -> np.ndarray:
        r = x[0]
        q_in = x[1:1 + d_in]
        q_out = x[1 + d_in:]
        cfg_out = config_from_coords(outer.n, outer.m, q_out)
        beta = cfg_out.point(con.new_vertex)
        aerial = [0j] * n
        ground = [0.0] * m
        for v in range(n + m):
            if v in stratum.subset:
                continue
            p = cfg_out.point(con.vertex_map[v])
            if v < n:
                aerial[v] = p
            else:
                ground[v - n] = p.real
        if stratum.kind == TYPE_I:
            psi = q_in[0]
            b1, b2 = members
            offs = cmath.exp(1j * psi) / math.sqrt(2.0)
            aerial[b1] = beta + r * offs
            aerial[b2] = beta - r * offs
        else:
            cfg_in = config_from_coords(inner.n, inner.m, q_in)
            for v in members:
                w = cfg_in.point(con.inner_index[v])
                if v < n:
                    aerial[v] = beta + r * w
                else:
                    ground[v - n] = beta.real + r * w.real
        cfg = regauge(aerial, ground)
        return coords_of_config(cfg)

    return phi, d_in, d_out


_orient_cache: Dict[tuple, int] = {}
_orient_lock = threading.Lock()


def orientation_sign(n: int, m: int, stratum: BoundaryStratum) -> int:
    """Sign comparing the stratum chart orientation with the slice orientation.

    Measured as the sign of the Jacobian determinant of the chart map at
    generic base points; the boundary term carries the opposite sign (the
    outward normal is the decreasing collapse scale).
    """
    key = (n, m, stratum.kind, frozenset(stratum.subset), stratum.position)
    with _orient_lock:
        hit = _orient_cache.get(key)
    if hit is not None:
        return hit
    phi, d_in, d_out = _chart_map(n, m, stratum)
    d = 1 + d_in + d_out
    signs = []
    stable = [n, m, 1 if stratum.kind == TYPE_II else 0,
              0 if stratum.position is None else stratum.position + 1,
              len(stratum.subset), min(stratum.subset)]
    for attempt in range(6):
        rng = np.random.default_rng(np.random.SeedSequence([101 + attempt] + stable))
        con = stratum.contraction
        u_out = rng.uniform(0.3, 0.7, gauge_dim(con.outer.n, con.outer.m))
        cfg_out, _ = sample_configuration(con.outer.n, con.outer.m, u_out)
        q_out = coords_of_config(cfg_out)
        if stratum.kind == TYPE_I:
            q_in = np.array([rng.uniform(0.5, 5.5)])
        else:
            u_in = rng.uniform(0.3, 0.7, gauge_dim(con.inner.n, con.inner.m))
            cfg_in, _ = sample_configuration(con.inner.n, con.inner.m, u_in)
            q_in = coords_of_config(cfg_in)
        x0 = np.concatenate([[0.01], q_in, q_out])
        try:
            J = _numeric_jacobian(phi, x0)
        except ValueError:
            continue
        det = float(np.linalg.det(J))
        if abs(det) > 1e-10:
            signs.append(1 if det > 0 else -1)
        if len(signs) >= 3:
            break
    if not signs or any(s != signs[0] for s in signs):
        raise RuntimeError(f"could not determine a stable orientation sign for {stratum.describe()}")
    with _orient_lock:
        _orient_cache[key] = signs[0]
    return signs[0]


def _numeric_jacobian(phi, x0: np.ndarray) -> np.ndarray:
    d = len(x0)
    J = np.empty((d, d))
    for k in range(d):
        h = 1e-6 * max(1.0, abs(x0[k]))
        xp = x0.copy(); xp[k] += h
        xm = x0.copy(); xm[k] -= h
        J[:, k] = (phi(xp) - phi(xm)) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# boundary terms and the quadratic identity


def _term_full(g: Graph, stratum: BoundaryStratum, kind: str, samples: int,
               seed: int, threads: Optional[int] = None):
    """Boundary term with its error decomposed per cached weight.

    Returns (value, stderr, sensitivities) where sensitivities maps the
    canonical key of each weight entering the term to
    (|d term / d weight|, stderr of that weight); terms sharing a cached
    estimate are fully correlated and must be combined linearly.
    """
    if stratum.rule in (ZERO_BY_FLAG, MULTI_POINT_I):
        return 0.0 + 0j, 0.0, {}
    con = stratum.contraction
    sign = shuffle_sign(g, stratum.subset) * (-orientation_sign(g.n, g.m, stratum))
    if stratum.rule == TWO_POINT_I:
        if len(con.inner.edges) != 1:
            return 0.0 + 0j, 0.0, {}  # edgeless or doubly-edged pair: zero by degree
        west = cached_weight(con.outer, kind, samples, seed, threads)
        sens = {}
        if west.stderr:
            sens[canonical_key(con.outer)[0]] = (1.0, west.stderr)
        return sign * west.value, west.stderr, sens
    # type II: product of the factor weights
    w_in = cached_weight(con.inner, kind, samples, seed, threads)
    w_out = cached_weight(con.outer, kind, samples, seed, threads)
    value = sign * w_in.value * w_out.value
    stderr = (abs(w_in.value) * w_out.stderr + abs(w_out.value) * w_in.stderr
              + w_in.stderr * w_out.stderr)
    sens = {}
    if w_in.stderr:
        sens[canonical_key(con.inner)[0]] = (abs(w_out.value) + w_out.stderr, w_in.stderr)
    if w_out.stderr:
        sens[canonical_key(con.outer)[0]] = (abs(w_in.value) + w_in.stderr, w_out.stderr)
    return value, stderr, sens


def regularized_term(g: Graph, stratum: BoundaryStratum, kind: str,
                     samples: int, seed: int,
                     threads: Optional[int] = None) -> Tuple[complex, float]:
    """Regularized boundary term of a stratum: (value, propagated stderr)."""
    value, stderr, _ = _term_full(g, stratum, kind, samples, seed, threads)
    return value, stderr


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
                    tol: float = 1e-3, threads: Optional[int] = None) -> IdentityReport:
    """Sum the regularized boundary terms; the residual must vanish.

    Passes when |residual| <= 3 * combined stderr + tol.  Terms sharing a
    cached weight estimate carry fully correlated errors, so their
    sensitivities are summed before the independent pieces are combined in
    quadrature.
    """
    terms = []
    coeff_by_key: Dict[tuple, float] = {}
    err_by_key: Dict[tuple, float] = {}
    for st in boundary_strata(g):
        value, err, sens = _term_full(g, st, kind, samples, seed, threads)
        terms.append((st, value, err))
        for key, (coef, werr) in sens.items():
            coeff_by_key[key] = coeff_by_key.get(key, 0.0) + coef
            err_by_key[key] = werr
    residual = sum(v for _, v, _ in terms)
    stderr = math.sqrt(sum((coeff_by_key[k] * err_by_key[k]) ** 2
                           for k in coeff_by_key))
    passed = abs(residual) <= 3.0 * stderr + tol
    from .graphs import encode_graph
    return IdentityReport(encode_graph(g), kind, tuple(terms), residual,
                          stderr, tol, passed)


# ---------------------------------------------------------------------------
# counterterm and regularity probes


def richardson_limit(values: Sequence[complex], ratio: float = 10.0) -> complex:
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


# probe coordinate ranges: angle of the circle-pinned point, then x and y of
# free aerial points; free ground points step right from 1 by 0.5 to 1.5
_PROBE_RANGE = {"phi": (0.8, 2.3), "x": (-1.5, 1.5), "y": (0.7, 2.2)}


def _probe_family(g: Graph, subset, seed: int):
    """Deterministic outer configuration and cluster shape for a probe.

    Aerial points are drawn with height at least 0.7 and pairwise
    separation at least 0.3, so every cluster at the probe scales stays
    inside the upper half-plane and away from collisions.
    """
    B = sorted(set(subset))
    rng = np.random.default_rng(np.random.SeedSequence([seed, g.n, g.m, len(B)]))
    n_out = g.n - len(B) + 1
    m = g.m
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
    raw = rng.normal(size=len(B)) + 1j * rng.normal(size=len(B))
    raw -= raw.mean()
    shape = tuple(raw / math.sqrt(float(np.sum(np.abs(raw) ** 2))))
    anchor = forms.outer_anchor_slot(g.n, B)
    return outer_cfg, anchor, shape


def counterterm_probe(g: Graph, subset, kind: str,
                      scales: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
                      seed: int = 0, fiber_points: int = 16) -> CountertermReport:
    """Convergence of the rotation-contracted integrand along a collapse.

    For the top degree the probe value is the collapse-circle average of
    :func:`kwl.forms.contracted_integrand`; the extrapolated limit is
    compared against ``1/(2 pi)`` times the outer-graph integrand at the
    collapsed configuration when the cluster carries a single edge (zero
    whenever the outer graph is not of top degree on its own slice, which
    includes every such probe at full degree).  One degree lower the same
    comparison uses the stratum-restricted evaluation and the outer factor
    is an honest top-degree integrand.

    For clusters of three or more points the expected limit is zero.
    """
    if (len(scales) < 2 or len(set(scales)) != len(scales)
            or not all(math.isfinite(r) and r > 0 for r in scales)):
        raise ValueError("scales must be at least two distinct positive finite numbers")
    B = sorted(set(subset))
    d = gauge_dim(g.n, g.m)
    top = len(g.edges) == d
    if not top and len(g.edges) != d - 1:
        raise ValueError("graph degree must be the slice dimension or one less")
    outer_cfg, anchor, shape = _probe_family(g, B, seed)

    evaluate = contracted_integrand if top else forms.restricted_contracted_integrand

    values = []
    for r in scales:
        acc = 0.0 + 0j
        for k in range(fiber_points):
            rot = cmath.exp(2j * math.pi * k / fiber_points)
            cfg = degenerating_family(outer_cfg, [rot * s for s in shape], anchor, r)
            acc += evaluate(g, kind, cfg, range(anchor, anchor + len(B)))
        values.append(acc / fiber_points)

    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    cauchy = all(d2 <= d1 * 1.2 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    limit = richardson_limit(values, ratio=scales[0] / scales[1])

    con = contract(g, B, TYPE_I)
    expected = 0.0 + 0j
    if len(B) == 2 and len(con.inner.edges) == 1 and con.outer_ok:
        outer_d = gauge_dim(con.outer.n, con.outer.m)
        if len(con.outer.edges) == outer_d:
            expected = (shuffle_sign(g, B) / (2.0 * math.pi)
                        * integrand(con.outer, kind, outer_cfg))
    from .graphs import encode_graph
    return CountertermReport(encode_graph(g), kind, tuple(B), tuple(scales),
                             tuple(values), limit, expected, cauchy)
