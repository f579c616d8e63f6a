"""Edge propagators and top-degree integrands.

Every edge ``(s, t)`` of a graph carries a one-form built from the ratio
``(z_s - z_t) / (conj(z_s) - z_t)``: its argument for the ``angle``
propagator, its logarithm for the ``log`` propagator, both normalized so a
source circling a real target picks up one unit.  The integrand of a graph
whose edge count matches the slice dimension is the determinant of the
matrix pairing each edge one-form with each slice coordinate direction, in
the graph's fixed edge order.  :func:`pairing_matrices` is the one place
these pairings are built, for one configuration or for a batch of rows;
the QMC kernel, the collapse probes and the contour integral all call it.

Each frame column moves one point, so row ``(s, t)`` of a slice pairing
matrix is non-zero only in the columns that move ``s`` or ``t``, and its
determinant is a signed sum over the bijections from edges to columns
inside that support (the wedge of the edge one-forms).
:func:`pairing_matchings` lists those bijections once per graph, and
:func:`matching_det` sums them over a batch of rows; the QMC kernel takes
its determinants this way on slices of dimension 4 and up, and with
``np.linalg.det`` otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import TYPE_I, CollapseLayout, Graph, edge_sort_parity
from .halfplane import Configuration, gauge_dim, gauge_frame, normalized_shape

ANGLE = "angle"
LOG = "log"
KINDS = (ANGLE, LOG)

TWO_PI = 2.0 * math.pi

# a tangent vector is a sparse map: vertex index -> complex velocity
Velocity = Dict[int, complex]


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown propagator kind {kind!r}")


def edge_function(kind: str, z: complex, w: complex) -> complex:
    """Value of the edge potential at source ``z`` (aerial) and target ``w``.

    ``angle``: arg((z-w)/(conj(z)-w)) / 2pi with the argument in (-pi, pi].
    ``log``:   principal log of the same ratio, divided by 2*pi*i.
    """
    check_kind(kind)
    if abs(z - w) < 1e-15:
        raise ValueError("coincident points")
    ratio = (z - w) / (z.conjugate() - w)
    if kind == ANGLE:
        return complex(cmath.phase(ratio) / TWO_PI, 0.0)
    return cmath.log(ratio) / (2j * math.pi)


def pairing_matrices(edges: Sequence[Tuple[int, int]], points: Sequence,
                     frame: Sequence[Velocity], kind: str) -> np.ndarray:
    """Unscaled pairings of edge one-forms with frame vectors, shape (rows, E, d).

    ``points[v]`` is the position of vertex ``v`` and each frame column a
    sparse ``{vertex: velocity}`` map; positions and velocities are scalars
    or row arrays.  Moving the edge ``(s, t)`` with velocities ``vs`` and
    ``vt`` pairs to ``-vt*(a - b) + vs*a - conj(vs)*b``, where
    ``a = 1/(zs - zt)`` and ``b = 1/(conj(zs) - zt)``; a ground target must
    carry a real velocity.  The angle kind keeps only the imaginary parts,
    as a real matrix.  Multiply determinants by :func:`pairing_scale`.
    """
    check_kind(kind)
    angle = kind == ANGLE
    rows = max((len(p) for p in points if isinstance(p, np.ndarray)), default=1)
    M = np.zeros((rows, len(edges), len(frame)), dtype=float if angle else complex)
    for ei, (s, t) in enumerate(edges):
        zs, zt = points[s], points[t]
        a = 1.0 / (zs - zt)
        b = 1.0 / (zs.conjugate() - zt)
        diff = a - b
        for ci, col in enumerate(frame):
            vs, vt = col.get(s), col.get(t)
            if vt is not None:
                entry = -vt * diff
                if vs is not None:
                    entry = entry + vs * a - vs.conjugate() * b
            elif vs is not None:
                entry = vs * a - vs.conjugate() * b
            else:
                continue
            M[:, ei, ci] = entry.imag if angle else entry
    return M


def pairing_matchings(edges: Sequence[Tuple[int, int]], frame: Sequence[Velocity],
                      max_terms: int) -> Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """Signed bijections from edges to frame columns inside the pairing support.

    Entry ``(e, c)`` of :func:`pairing_matrices` can be non-zero only when
    column ``c`` moves an endpoint of edge ``e``, so the determinant is the
    sum over these bijections ``cols`` (edge ``e`` to column ``cols[e]``)
    of their sign times the product of their entries.  Returns the pairs
    ``(sign, cols)`` in lexicographic order of ``cols``, an empty tuple
    when there are none (the determinant vanishes identically) and None
    when there are more than ``max_terms``.  The bijections are counted
    over column subsets first, so only complete ones are ever built.
    """
    d = len(frame)
    if len(edges) != d:
        raise ValueError(f"{len(edges)} edges against {d} frame columns")
    support = [[c for c, col in enumerate(frame) if s in col or t in col] for s, t in edges]
    # ways[k][used]: bijections from the first k edges onto the column set ``used``
    ways: List[Dict[int, int]] = [{0: 1}]
    for cols in support:
        layer: Dict[int, int] = {}
        for used, count in ways[-1].items():
            for c in cols:
                if not used >> c & 1:
                    layer[used | 1 << c] = layer.get(used | 1 << c, 0) + count
        ways.append(layer)
    full = (1 << d) - 1
    if ways[-1].get(full, 0) > max_terms:
        return None
    found: List[Tuple[int, ...]] = []

    def assign_last(k: int, used: int, tail: Tuple[int, ...]) -> None:
        if k == 0:
            found.append(tail)
            return
        for c in support[k - 1]:
            if used >> c & 1 and ways[k - 1].get(used & ~(1 << c)):
                assign_last(k - 1, used & ~(1 << c), (c,) + tail)

    assign_last(d, full, ())
    return tuple((edge_sort_parity(cols), cols) for cols in sorted(found))


def matching_det(M: np.ndarray, matchings) -> np.ndarray:
    """Row determinants of ``M`` (rows, E, E) as the sum over ``matchings``
    (from :func:`pairing_matchings`) of ``sign * prod_e M[:, e, cols[e]]``.

    The entries the matchings use are copied out as contiguous rows first.
    Terms are added in the given order, each product taken edge by edge,
    and every row is reduced on its own, so a row's value does not depend
    on the batch.
    """
    used = sorted({(e, c) for _, cols in matchings for e, c in enumerate(cols)})
    picked = np.ascontiguousarray(M[:, [e for e, _ in used], [c for _, c in used]].T)
    entry = dict(zip(used, picked))
    det = np.zeros(len(M), dtype=M.dtype)
    for sign, cols in matchings:
        term = functools.reduce(operator.mul, [entry[ec] for ec in enumerate(cols)])
        if sign > 0:
            det += term
        else:
            det -= term
    return det


def pairing_scale(kind: str, num_edges: int) -> complex:
    """Normalization of a pairing determinant: ``(2 pi)^-E`` for the angle
    propagator, ``(2 pi i)^-E`` for the log propagator."""
    return TWO_PI ** -num_edges if kind == ANGLE else (2j * math.pi) ** -num_edges


def _frame_integrand(g: Graph, kind: str, cfg: Configuration,
                     frame: Sequence[Velocity]) -> complex:
    points = [cfg.point(v) for v in range(cfg.n + cfg.m)]
    det = np.linalg.det(pairing_matrices(g.edges, points, frame, kind))[0]
    return complex(det * pairing_scale(kind, len(g.edges)))


def _check_degree(g: Graph, kind: str) -> None:
    check_kind(kind)
    d = gauge_dim(g.n, g.m)
    if len(g.edges) != d:
        raise ValueError(f"graph has {len(g.edges)} edges but needs {d}"
                         f" on a slice of dimension {d}")


def integrand(g: Graph, kind: str, cfg: Configuration) -> complex:
    """Top-degree integrand: determinant of edge pairings with the slice frame."""
    _check_degree(g, kind)
    if (cfg.n, cfg.m) != (g.n, g.m):
        raise ValueError("configuration does not match the graph")
    return _frame_integrand(g, kind, cfg, gauge_frame(cfg.n, cfg.m, cfg.point(0)))


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
    d = gauge_dim(g.n, g.m)
    if len(g.edges) not in (d, d - 1):
        raise ValueError(f"graph degree {len(g.edges)} must be the slice dimension"
                         f" {d} or one less")
    columns = cluster_frames(cfg, layout)
    if len(g.edges) < d:
        del columns[1]  # the radial direction
    return _frame_integrand(g, kind, cfg, columns)
