"""Edge propagators and top-degree integrands.

Every edge ``(s, t)`` of a graph carries a one-form built from the ratio
``(z_s - z_t) / (conj(z_s) - z_t)``: its argument for the ``angle``
propagator, its logarithm for the ``log`` propagator, both normalized so a
source circling a real target picks up one unit.  The integrand of a graph
whose edge count matches the slice dimension is the determinant of the
matrix pairing each edge one-form with each slice coordinate direction, in
the graph's fixed edge order.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graphs import Graph
from .halfplane import (Configuration, cluster_coordinates, gauge_dim,
                        gauge_frame, make_configuration)

ANGLE = "angle"
LOG = "log"
KINDS = (ANGLE, LOG)

TWO_PI = 2.0 * math.pi

# a tangent vector is a sparse map: vertex index -> complex velocity
Velocity = Dict[int, complex]


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown propagator kind {kind!r}")


def edge_function(kind: str, z: complex, w: complex) -> complex:
    """Value of the edge potential at source ``z`` (aerial) and target ``w``.

    ``angle``: arg((z-w)/(conj(z)-w)) / 2pi with the argument in (-pi, pi].
    ``log``:   principal log of the same ratio, divided by 2*pi*i.
    """
    _check_kind(kind)
    if abs(z - w) < 1e-15:
        raise ValueError("coincident points")
    ratio = (z - w) / (z.conjugate() - w)
    if kind == ANGLE:
        return complex(cmath.phase(ratio) / TWO_PI, 0.0)
    return cmath.log(ratio) / (2j * math.pi)


def propagator_pairing(kind: str, zs: complex, zt: complex,
                       vs: complex, vt: complex) -> complex:
    """Derivative of the edge potential for source/target velocities.

    The conjugate of the source moves with the conjugate velocity; a ground
    target must carry a real velocity.
    """
    num = zs - zt
    den = zs.conjugate() - zt
    if abs(num) < 1e-15 or abs(den) < 1e-15:
        raise ValueError("coincident points")
    w = (vs - vt) / num - (vs.conjugate() - vt) / den
    if kind == ANGLE:
        return complex(w.imag / TWO_PI, 0.0)
    return w / (2j * math.pi)


def edge_pairing(kind: str, cfg: Configuration, edge: Tuple[int, int],
                 velocity: Velocity) -> complex:
    """Derivative of the edge potential along a sparse tangent vector."""
    s, t = edge
    return propagator_pairing(kind, cfg.point(s), cfg.point(t),
                              velocity.get(s, 0.0 + 0j), velocity.get(t, 0.0 + 0j))


def edge_covector(kind: str, cfg: Configuration, edge: Tuple[int, int]) -> np.ndarray:
    """Coefficients of the edge one-form against the gauge coordinate frame.

    Real-valued for the angle propagator, complex for the log propagator.
    """
    _check_kind(kind)
    frame = gauge_frame(cfg)
    vals = [edge_pairing(kind, cfg, edge, {p: v}) for p, v in frame]
    if kind == ANGLE:
        return np.array([v.real for v in vals], dtype=float)
    return np.array(vals, dtype=complex)


def _det(matrix: List[List[complex]], kind: str) -> complex:
    if not matrix:
        return 1.0 + 0j
    if kind == ANGLE:
        arr = np.array([[v.real for v in row] for row in matrix], dtype=float)
        return complex(np.linalg.det(arr))
    return complex(np.linalg.det(np.array(matrix, dtype=complex)))


def _pair_matrix(g: Graph, kind: str, cfg: Configuration,
                 columns: Sequence[Velocity]) -> List[List[complex]]:
    return [[edge_pairing(kind, cfg, e, col) for col in columns] for e in g.edges]


def integrand(g: Graph, kind: str, cfg: Configuration) -> complex:
    """Top-degree integrand: determinant of edge pairings with the slice frame."""
    _check_kind(kind)
    d = gauge_dim(g.n, g.m)
    if len(g.edges) != d:
        raise ValueError(f"graph has {len(g.edges)} edges but the slice has dimension {d}")
    if (cfg.n, cfg.m) != (g.n, g.m):
        raise ValueError("configuration does not match the graph")
    columns = [{p: v} for p, v in gauge_frame(cfg)]
    return _det(_pair_matrix(g, kind, cfg, columns), kind)


# ---------------------------------------------------------------------------
# boundary-adapted frames


def shape_tangent_basis(shape: Sequence[complex], drop_rotation: bool = True
                        ) -> List[Tuple[complex, ...]]:
    """Orthonormal tangent basis of the normalized-shape manifold at ``shape``.

    Tangent vectors u satisfy sum(u) = 0 and Re<u, shape> = 0; when
    ``drop_rotation`` the direction i*shape (rigid rotation) is removed as
    well, leaving 2k - 4 directions for a k-point shape.
    """
    s = np.array(shape, dtype=complex)
    k = len(s)

    def inner(a, b):
        return float(np.sum(a * b.conjugate()).real)

    constraints = [np.ones(k, dtype=complex) / math.sqrt(k),
                   1j * np.ones(k, dtype=complex) / math.sqrt(k),
                   s]
    if drop_rotation:
        constraints.append(1j * s)
    basis: List[np.ndarray] = []
    want = 2 * k - 3 - (1 if drop_rotation else 0)
    for b in range(k):
        for unit in (1.0, 1j):
            cand = np.zeros(k, dtype=complex)
            cand[b] = unit
            for con in constraints:
                cand = cand - inner(cand, con) * con
            for prev in basis:
                cand = cand - inner(cand, prev) * prev
            norm = math.sqrt(inner(cand, cand))
            if norm > 1e-9:
                basis.append(cand / norm)
            if len(basis) == want:
                return [tuple(v) for v in basis]
    if len(basis) != want:
        raise ValueError("failed to build a shape tangent basis")
    return [tuple(v) for v in basis]


def outer_anchor_slot(n: int, subset) -> int:
    """Aerial slot of the collapsed vertex in the contracted configuration."""
    B = set(subset)
    return sum(1 for v in range(min(B)) if v not in B)


def collapse_cluster(cfg: Configuration, subset) -> Tuple[Configuration, int]:
    """Configuration with the aerial cluster replaced by its center of mass."""
    B = sorted(set(subset))
    zeta, _, _ = cluster_coordinates(cfg, B)
    slot = outer_anchor_slot(cfg.n, B)
    aerial = [z for v, z in enumerate(cfg.aerial) if v not in set(B)]
    aerial.insert(slot, zeta)
    return make_configuration(aerial, cfg.ground), slot


def cluster_frames(cfg: Configuration, subset) -> List[Velocity]:
    """Boundary-adapted tangent frame for an aerial cluster.

    Columns, in order: the cluster rotation generator (period 2pi), the
    radial direction of the cluster scale, the non-rotation shape
    directions at chart scale, and the slice frame of the collapsed
    configuration transported to the full one (cluster points inherit the
    anchor velocity).
    """
    B = sorted(set(subset))
    Bset = set(B)
    zeta, r, shape = cluster_coordinates(cfg, B)
    columns: List[Velocity] = []
    columns.append({v: 1j * (cfg.aerial[v] - zeta) for v in B})
    columns.append({v: (cfg.aerial[v] - zeta) / r for v in B})
    if len(B) > 2:
        for u in shape_tangent_basis(shape):
            columns.append({v: r * u[i] for i, v in enumerate(B)})
    outer_cfg, slot = collapse_cluster(cfg, B)

    def lift_vertex(w: int) -> List[int]:
        # outer vertex index -> vertices of the full configuration it moves
        if w == slot:
            return list(B)
        if w < outer_cfg.n:
            kept = [v for v in range(cfg.n) if v not in Bset]
            aer = kept[w] if w < slot else kept[w - 1]
            return [aer]
        return [w - outer_cfg.n + cfg.n]

    for p, vel in gauge_frame(outer_cfg):
        columns.append({v: vel for v in lift_vertex(p)})
    return columns


def contracted_integrand(g: Graph, kind: str, cfg: Configuration, subset) -> complex:
    """Rotation-contracted integrand near a cluster collapse.

    Evaluates the top-degree form on the boundary-adapted frame whose first
    vector is the cluster rotation generator; the remaining vectors are the
    chart directions (radial, shape, outer slice).  Along a degenerating
    family the log value converges as the scale tends to zero, and its
    magnitude doubles as the chart-coefficient boundedness probe.
    """
    _check_kind(kind)
    d = gauge_dim(g.n, g.m)
    if len(g.edges) != d:
        raise ValueError(f"graph has {len(g.edges)} edges but the slice has dimension {d}")
    columns = cluster_frames(cfg, subset)
    if len(columns) != d:
        raise ValueError("frame size mismatch; unsupported outer gauge")
    return _det(_pair_matrix(g, kind, cfg, columns), kind)


def restricted_contracted_integrand(g: Graph, kind: str, cfg: Configuration,
                                    subset) -> complex:
    """Rotation-contracted form evaluated on stratum-tangent directions only.

    For a graph with one edge less than the slice dimension this pairs the
    edges with the cluster rotation, the non-rotation shape directions and
    the transported outer slice frame (no radial direction).  Along a
    degenerating family with a single-edge cluster the values converge to
    ``1/(2 pi)`` times the contracted graph's integrand at the collapsed
    configuration, up to the edge-reordering sign.
    """
    _check_kind(kind)
    d = gauge_dim(g.n, g.m)
    if len(g.edges) != d - 1:
        raise ValueError("graph must have one edge less than the slice dimension")
    columns = cluster_frames(cfg, subset)
    del columns[1]  # drop the radial direction; keep rotation, shape, outer
    if len(columns) != d - 1:
        raise ValueError("frame size mismatch")
    return _det(_pair_matrix(g, kind, cfg, columns), kind)
