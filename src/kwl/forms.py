"""Edge propagators and top-degree integrands.

Every edge ``(s, t)`` of a graph carries a one-form built from the ratio
``(z_s - z_t) / (conj(z_s) - z_t)``: its argument for the ``angle``
propagator, its logarithm for the ``log`` propagator, both normalized so a
source circling a real target picks up one unit.  The integrand of a graph
whose edge count matches the slice dimension is the determinant of the
matrix pairing each edge one-form with each slice coordinate direction, in
the graph's fixed edge order.  :func:`pairing_entry` is the one formula
for these pairings.

Row ``(s, t)`` of a pairing matrix is non-zero only in the frame columns
that move ``s`` or ``t``.  :func:`pairing_plan` turns that sparsity into a
column-subset recursion, and :func:`plan_det` evaluates it on scalars or
row arrays straight from :func:`edge_terms`, with no pairing matrix, for a
tuple of kinds in one pass.  This is the one determinant:
:func:`frame_integrand` takes it on gauge slices, cluster frames and the
contour of :mod:`kwl.operators`, with plans cached until
:func:`clear_plans`.  Only the QMC kernel's slices below dimension 4 still
take a dense determinant of :func:`pairing_matrices`.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import TYPE_I, CollapseLayout, Graph
from .halfplane import Configuration, gauge_dim, gauge_frame, normalized_shape, slice_columns

ANGLE = "angle"
LOG = "log"
KINDS = (ANGLE, LOG)

TWO_PI = 2.0 * math.pi

# a tangent vector is a sparse map: vertex index -> complex velocity
Velocity = Dict[int, complex]


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown propagator kind {kind!r}")


def edge_terms(zs, zt):
    """Terms ``a = 1/(zs - zt)`` and ``b = 1/(conj(zs) - zt)`` of an edge
    ``(s, t)``, whose pairings combine them (:func:`pairing_entry`).  A
    real ``zt`` gives ``b = conj(a)``, as Smith's division (numpy's and
    CPython's) commutes with conjugation up to the sign of a zero."""
    a = 1.0 / (zs - zt)
    return a, a.conjugate() if np.isrealobj(zt) else 1.0 / (zs.conjugate() - zt)


def pairing_entry(a, b, vs, vt):
    """Pairing of the one-form of an edge with terms ``a``, ``b`` with the
    frame vector moving its source by ``vs`` and target by ``vt`` (None if
    fixed, not both): ``-vt*(a - b) + vs*a - conj(vs)*b``.  A ground target
    moves with real velocity; the angle kind keeps the imaginary part."""
    if vt is None:
        return vs * a - vs.conjugate() * b
    entry = -vt * (a - b)
    return entry if vs is None else entry + vs * a - vs.conjugate() * b


def pairing_matrices(edges: Sequence[Tuple[int, int]], points: Sequence,
                     frame: Sequence[Velocity]) -> np.ndarray:
    """Unscaled complex pairings of edge one-forms with frame vectors,
    shape (rows, E, d).

    ``points[v]`` is the position of vertex ``v`` and each frame column a
    sparse ``{vertex: velocity}`` map; positions and velocities are scalars
    or row arrays.  Entries come from :func:`pairing_entry`: the log kind's
    matrix, whose imaginary part is the angle kind's.  Multiply
    determinants by :func:`pairing_scale`.
    """
    rows = max((len(p) for p in points if isinstance(p, np.ndarray)), default=1)
    M = np.zeros((rows, len(edges), len(frame)), dtype=complex)
    for ei, (s, t) in enumerate(edges):
        a, b = edge_terms(points[s], points[t])
        for ci, col in enumerate(frame):
            vs, vt = col.get(s), col.get(t)
            if vs is not None or vt is not None:
                M[:, ei, ci] = pairing_entry(a, b, vs, vt)
    return M


def pairing_plan(edges: Sequence[Tuple[int, int]], frame: Sequence[Velocity]) -> tuple:
    """Column-subset recursion for the determinant of :func:`pairing_matrices`.

    Entry ``(e, c)`` can be non-zero only when column ``c`` moves an
    endpoint of edge ``e``.  The minor of the first ``k + 1`` rows on the
    columns ``T`` (a bit mask) sums, over ``c`` in ``T``, the minor of the
    first ``k`` rows on ``T - {c}`` times entry ``(k, c)``, negated when
    an odd number of columns of ``T - {c}`` lie right of ``c``.  Returns,
    per edge, the links ``(T, T - {c}, c, negative)`` between sets that
    earlier edges can fill and later ones complete, in a fixed order; ``()``
    when no bijection from edges to columns exists (a zero determinant), and
    for no edges on no columns (a determinant of one).  A frame column may
    be any container of the vertices it moves.
    """
    d = len(frame)
    if len(edges) != d:
        raise ValueError(f"{len(edges)} edges against {d} frame columns: the form"
                         " degree must be the frame dimension")
    support = [[c for c, col in enumerate(frame) if s in col or t in col] for s, t in edges]
    filled = _fill(support)
    plan: List[tuple] = []
    targets = {(1 << d) - 1} & filled[-1]
    for k in reversed(range(d)):
        plan.insert(0, tuple((target, target & ~(1 << c), c, (target >> c).bit_count() % 2 == 0)
                             for target in sorted(targets) for c in support[k]
                             if target >> c & 1 and target & ~(1 << c) in filled[k]))
        targets = {source for _, source, _, _ in plan[0]}
    return tuple(plan) if targets else ()


def _fill(support: Sequence[Sequence[int]]) -> List[set]:
    """Per k, the column sets (bit masks) the first k edges fill one to one."""
    filled = [{0}]
    for cols in support:
        filled.append({used | 1 << c for used in filled[-1] for c in cols
                       if not used >> c & 1})
    return filled


def log_support(edges: Sequence[Tuple[int, int]], columns) -> List[List[int]]:
    """Per edge ``(s, t)``, the :func:`halfplane.slice_columns` its log form
    pairs with, a free aerial point's ``x``, ``y`` read as ``dz``, ``dz-bar``
    (a constant change of basis): every column of ``s``, none of ``t``'s
    ``dz-bar``, as the form reaches its target only through ``dz_t``."""
    return [[c for c, (v, mode) in enumerate(columns) if v == s or (v == t and mode != "y")]
            for s, t in edges]


def log_vanishes(n: int, m: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Whether the log integrand of a top-degree (n, m) graph vanishes
    identically: no bijection from its edges to their :func:`log_support`."""
    columns = slice_columns(n, m)
    return (1 << len(columns)) - 1 not in _fill(log_support(edges, columns))[-1]


def plan_det(plan, edges: Sequence[Tuple[int, int]], points: Sequence,
             frame: Sequence[Velocity], kinds: Tuple[str, ...],
             terms: Optional[dict] = None) -> tuple:
    """Determinants of :func:`pairing_matrices` by a :func:`pairing_plan`,
    one per kind in ``kinds``, for scalar or row-array ``points``.  One
    pass takes each used entry once from :func:`pairing_entry`, the angle
    kind reading its imaginary part, and each kind sums its links in the
    plan's order row by row, so a row's value depends neither on the batch
    nor on the other kinds.  ``terms`` memoizes :func:`edge_terms` by
    ordered vertex pair and may be shared by every graph on the same
    ``points``; a reversed edge ``(t, s)`` takes the terms of ``(s, t)`` as
    ``(-a, -conj(b))``, equal up to the sign of a zero.  An empty plan
    gives exact zeros, or ones when there are no edges."""
    if not plan:
        shape = next((p.shape for p in points if isinstance(p, np.ndarray)), ())
        return tuple(np.full(shape, 0.0 if edges else 1.0,
                             dtype=float if k == ANGLE else complex) for k in kinds)
    minors: List[Dict[int, np.ndarray]] = [{} for _ in kinds]
    if terms is None:
        terms = {}
    for (s, t), links in zip(edges, plan):
        ab = terms.get((s, t))
        if ab is None:
            rev = terms.get((t, s))
            ab = terms[s, t] = (edge_terms(points[s], points[t]) if rev is None
                                else (-rev[0], -rev[1].conjugate()))
        a, b = ab
        entries: Dict[int, np.ndarray] = {}
        for i, k in enumerate(kinds):
            prev, level = minors[i], {}
            for target, source, c, negative in links:
                x = entries.get(c)
                if x is None:
                    x = entries[c] = pairing_entry(a, b, frame[c].get(s), frame[c].get(t))
                if k == ANGLE:
                    x = x.imag
                term = prev[source] * x if source else x
                acc = level.get(target)
                if acc is None:
                    level[target] = -term if negative else term
                else:
                    level[target] = acc - term if negative else acc + term
            minors[i] = level
    return tuple(level[(1 << len(frame)) - 1] for level in minors)


def pairing_scale(kind: str, num_edges: int) -> complex:
    """Normalization of a pairing determinant: ``(2 pi)^-E`` for the angle
    propagator, ``(2 pi i)^-E`` for the log propagator."""
    return TWO_PI ** -num_edges if kind == ANGLE else (2j * math.pi) ** -num_edges


_plan = functools.lru_cache(maxsize=None)(pairing_plan)
#: :func:`log_vanishes` cached on (n, m, edges), read on class representatives
class_log_vanishes = functools.lru_cache(maxsize=None)(log_vanishes)


def frame_plan(edges: Sequence[Tuple[int, int]], frame: Sequence[Velocity]) -> tuple:
    """:func:`pairing_plan` cached on the edges and the vertices each frame
    column moves, until :func:`clear_plans`."""
    return _plan(tuple(edges), tuple(tuple(col) for col in frame))


def clear_plans() -> None:
    _plan.cache_clear()
    class_log_vanishes.cache_clear()


def frame_integrand(edges: Sequence[Tuple[int, int]], points: Sequence,
                    frame: Sequence[Velocity], kinds: Tuple[str, ...],
                    terms: Optional[dict] = None) -> tuple:
    """Normalized pairing determinants of ``edges`` with ``frame``, one per
    kind in ``kinds``: the :func:`plan_det` of their :func:`frame_plan`
    (sharing the edge-term memo ``terms``) times :func:`pairing_scale`, for
    scalar or row-array ``points`` and any sparse frame columns."""
    dets = plan_det(frame_plan(edges, frame), edges, points, frame, kinds, terms)
    return tuple(d * pairing_scale(k, len(edges)) for d, k in zip(dets, kinds))


def integrand(g: Graph, kind: str, cfg: Configuration) -> complex:
    """Top-degree integrand: determinant of edge pairings with the slice frame."""
    check_kind(kind)
    if (cfg.n, cfg.m) != (g.n, g.m):
        raise ValueError("configuration does not match the graph")
    points = [cfg.point(v) for v in range(cfg.n + cfg.m)]
    return complex(frame_integrand(g.edges, points, gauge_frame(g.n, g.m, points[0]), (kind,))[0])


# ---------------------------------------------------------------------------
# boundary-adapted frames


def shape_tangent_basis(shape: Sequence[complex]) -> List[Tuple[complex, ...]]:
    """Orthonormal non-rotation tangent basis of the normalized-shape manifold.

    Tangent vectors u satisfy sum(u) = 0 and Re<u, shape> = 0, and the
    direction i*shape (rigid rotation) is removed as well, leaving 2k - 4
    directions for a k-point shape.
    """
    s = [complex(z) for z in shape]
    k = len(s)

    def inner(a, b) -> float:
        return sum((x * y.conjugate()).real for x, y in zip(a, b))

    unit = 1.0 / math.sqrt(k)
    constraints = [[complex(unit)] * k, [1j * unit] * k, s, [1j * z for z in s]]
    basis: List[Tuple[complex, ...]] = []
    want = 2 * k - 4
    for b in range(k):
        for direction in (1.0, 1j):
            cand = [0j] * k
            cand[b] = complex(direction)
            for con in constraints + basis:
                p = inner(cand, con)
                cand = [x - p * y for x, y in zip(cand, con)]
            norm = math.sqrt(inner(cand, cand))
            if norm > 1e-9:
                basis.append(tuple(x / norm for x in cand))
            if len(basis) == want:
                return basis
    raise ValueError("failed to build a shape tangent basis")


def cluster_frames(cfg: Configuration, layout: CollapseLayout) -> List[Velocity]:
    """Boundary-adapted tangent frame for a type I layout's aerial cluster.

    Columns, in order: the cluster rotation generator (period 2pi), the
    radial direction of the cluster scale, the non-rotation shape
    directions at chart scale, and the slice frame of the collapsed
    configuration transported to the full one through the collapse's
    ``vertex_map`` (cluster points inherit the velocity of the collapsed
    vertex).
    """
    if layout.kind != TYPE_I or (layout.n, len(layout.vertex_map)) != (cfg.n, cfg.n + cfg.m):
        raise ValueError("cluster frames need a type I layout that fits the configuration")
    B = layout.subset
    zeta, r, shape = normalized_shape([cfg.aerial[v] for v in B])
    columns: List[Velocity] = []
    columns.append({v: 1j * (cfg.aerial[v] - zeta) for v in B})
    columns.append({v: (cfg.aerial[v] - zeta) / r for v in B})
    if len(B) > 2:
        for u in shape_tangent_basis(shape):
            columns.append({v: r * u[i] for i, v in enumerate(B)})
    # outer point 0 is the cluster centre when the cluster takes vertex 0
    z0 = zeta if layout.new_vertex == 0 else cfg.point(0)
    for col in gauge_frame(layout.outer_n, layout.outer_m, z0):
        columns.append({v: col[w] for v, w in enumerate(layout.vertex_map) if w in col})
    return columns


def contracted_integrand(g: Graph, kind: str, cfg: Configuration,
                         layout: CollapseLayout) -> complex:
    """Rotation-contracted integrand near a type I layout's cluster collapse.

    At top degree the form is evaluated on the boundary-adapted frame:
    cluster rotation, radial, shape and outer slice directions.  Along a
    degenerating family the log value converges as the scale tends to
    zero, and its magnitude doubles as the chart-coefficient boundedness
    probe.  One degree lower the radial direction is dropped, so the edges
    pair with stratum-tangent directions only; with a single-edge cluster
    the values converge to ``1/(2 pi)`` times the contracted graph's
    integrand at the collapsed configuration, up to the edge-reordering
    sign.
    """
    check_kind(kind)
    columns = cluster_frames(cfg, layout)
    if len(g.edges) < gauge_dim(g.n, g.m):
        del columns[1]  # the radial direction
    points = [cfg.point(v) for v in range(cfg.n + cfg.m)]
    return complex(frame_integrand(g.edges, points, columns, (kind,))[0])
