"""Gauge-fixed configurations of points in the upper half-plane.

A configuration has ``n`` aerial points in the open upper half-plane and
``m`` ground points on the real line in strictly increasing order.  The
scaling-and-real-translation group acts freely; we work on explicit gauge
slices:

* ``m >= 2``: ground 1 pinned to 0, ground 2 pinned to 1;
* ``m == 1``: ground 1 pinned to 0, first aerial point pinned to the unit
  upper half-circle (one angular coordinate);
* ``m == 0``: first aerial point pinned to ``i``.

The slice has ``2n + m - 2`` free real coordinates; their fixed order
(defined by :func:`slice_columns`) also fixes the orientation used by every
integral in this package.

Free aerial points map from the unit square by ``x = tan(pi(u - 1/2))``
and ``y = s^2 exp(-1/s)`` with ``s = v/(1-v)``.  The exponential factor
makes the sampling density vanish fast enough at the real line that edge
integrands stay square-integrable there.  Near an aerial-aerial collision an
edge integrand grows like ``1/rho`` and its variance diverges, so there the
batch-based error estimates are not calibrated.

Cluster placement is owned here: :func:`expand_cluster` lays a collapsed
subset out around its outer point by the vertex labelling of a
:class:`kwl.graphs.CollapseLayout`; :func:`degenerating_family` is its
aerial case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import TYPE_I, TYPE_II, CollapseLayout, check_collapse

_MIN_SEPARATION = 1e-15


@dataclass(frozen=True)
class Configuration:
    """Point configuration; aerial points complex, ground points real."""

    aerial: Tuple[complex, ...]
    ground: Tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.aerial)

    @property
    def m(self) -> int:
        return len(self.ground)

    def point(self, v: int) -> complex:
        """Position of vertex ``v`` (aerial indices first, then ground)."""
        if v < self.n:
            return self.aerial[v]
        return complex(self.ground[v - self.n])


def make_configuration(aerial: Iterable[complex], ground: Iterable[float]) -> Configuration:
    """Validate and build a configuration."""
    aer = tuple(complex(z) for z in aerial)
    grd = tuple(float(g) for g in ground)
    for z in aer:
        if not z.imag > 0:
            raise ValueError(f"aerial point {z} not in the open upper half-plane")
    for a, b in zip(grd, grd[1:]):
        if not a < b:
            raise ValueError("ground points must be strictly increasing")
    pts = list(aer) + [complex(g) for g in grd]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < _MIN_SEPARATION:
                raise ValueError(f"points {i} and {j} coincide")
    return Configuration(aer, grd)


def center_of_mass(points: Sequence[complex]) -> complex:
    """Arithmetic mean of a nonempty point set."""
    if len(points) == 0:
        raise ValueError("empty point set")
    return sum(points) / len(points)


# ---------------------------------------------------------------------------
# gauge slices


def gauge_dim(n: int, m: int) -> int:
    """Number of free coordinates on the gauge slice; fewer than two ground
    points need an aerial point to pin ((1, 0) is a zero-dimensional slice)."""
    if m < 2 and n < 1:
        raise ValueError(f"no gauge slice for (n, m) = ({n}, {m})")
    return 2 * n + m - 2


def slice_columns(n: int, m: int) -> List[Tuple[int, str]]:
    """Ordered slice coordinates as ``(vertex, mode)`` pairs.

    Modes: ``phi`` is the angle of the circle-pinned aerial point 0
    (``m == 1``), ``x`` and ``y`` are the real and imaginary parts of a free
    aerial point, ``g`` is a free ground point.  This order fixes the slice
    coordinates and orientation.
    """
    gauge_dim(n, m)
    cols = [(0, "phi")] if m == 1 else []
    for a in range(0 if m >= 2 else 1, n):
        cols += [(a, "x"), (a, "y")]
    return cols + [(n + k, "g") for k in range(2, m)]


def _pinned_points(n: int, m: int) -> Tuple[List[complex], List[float]]:
    """Aerial and ground points with the gauge-pinned entries set; the
    entries of free coordinates are placeholders."""
    aerial = [1j if m == 0 and a == 0 else 0j for a in range(n)]
    return aerial, [0.0, 1.0][:m] + [0.0] * (m - 2)


def slice_map(n: int, m: int, U: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map rows of the open unit hypercube to the gauge slice.

    Returns aerial points ``(B, n)``, ground points ``(B, m)`` and the
    (positive) Jacobians ``(B,)``, so that integrating ``integrand *
    jacobian`` over the hypercube equals the integral of the integrand over
    the slice in its coordinate orientation.  ``U`` is read column-major
    (:class:`qmc.Sobol`'s draws with no copy) and each point column is
    written once, in place, so the values do not depend on ``U``'s layout.
    """
    cols = slice_columns(n, m)
    B, d = U.shape
    if d != len(cols):
        raise ValueError(f"expected {len(cols)} hypercube coordinates per row, got {d}")
    U = np.asfortranarray(U)
    Z = np.empty((B, n), dtype=complex, order="F")
    G = np.empty((B, m), dtype=float, order="F")
    aerial, ground = _pinned_points(n, m)
    free = {v for v, _ in cols}
    for v, p in enumerate(aerial + ground):
        if v not in free:
            (Z[:, v] if v < n else G[:, v - n])[:] = p
    jac = np.ones(B, dtype=float)
    for pos, (v, mode) in enumerate(cols):
        u = U[:, pos]
        if mode == "phi":
            t = math.pi * u
            np.cos(t, out=Z[:, v].real)
            np.sin(t, out=Z[:, v].imag)
            jac *= math.pi
        elif mode == "x":
            x = np.tan(math.pi * (u - 0.5))
            jac *= math.pi * (1.0 + x * x)
            Z[:, v] = x
        elif mode == "y":  # follows the "x" column of the same point
            s = u / (1.0 - u)
            e = np.exp(-1.0 / s)
            np.maximum(s * s * e, 1e-300, out=Z[:, v].imag)
            jac *= e * (2.0 * s + 1.0) / (1.0 - u) ** 2
        else:
            G[:, v - n] = G[:, v - n - 1] + u / (1.0 - u)
            jac *= 1.0 / (1.0 - u) ** 2
    return Z, G, jac


_VELOCITY = {"x": 1.0 + 0j, "y": 1j, "g": 1.0 + 0j}


def gauge_frame(n: int, m: int, z0) -> List[Dict[int, complex]]:
    """Coordinate tangent frame of the gauge slice, in :func:`slice_columns` order.

    Each column is a sparse ``{vertex: velocity}`` map moving exactly one
    point.  Ground vertices move with real velocity; ``phi`` moves the
    circle-pinned aerial point 0, at ``z0`` (a scalar or a row array),
    along its circle with velocity ``1j * z0``.
    """
    return [{v: 1j * z0 if mode == "phi" else _VELOCITY[mode]}
            for v, mode in slice_columns(n, m)]


def config_from_coords(n: int, m: int, q: Sequence[float]) -> Configuration:
    """The in-gauge configuration whose slice coordinates, in
    :func:`slice_columns` order, take the values ``q``."""
    cols = slice_columns(n, m)
    q = np.asarray(q, dtype=float)
    if q.shape != (len(cols),):
        raise ValueError(f"expected {len(cols)} coordinates, got {q.shape}")
    aerial, ground = _pinned_points(n, m)
    for (v, mode), c in zip(cols, q):
        if mode == "phi":
            aerial[v] = cmath.exp(1j * c)
        elif mode == "x":
            aerial[v] = complex(c, 0.0)
        elif mode == "y":
            aerial[v] = complex(aerial[v].real, c)
        else:
            ground[v - n] = c
    return make_configuration(aerial, ground)


# ---------------------------------------------------------------------------
# nested families


def _upstairs(n: int, members, closed: bool) -> frozenset:
    """Doubled points ``(v, s)`` of a cluster: ``s = +1`` for an aerial
    member, ``-1`` for its mirror (in a cluster closed under the mirror
    only) and ``0`` for a ground member."""
    signs = (1, -1) if closed else (1,)
    return frozenset((v, s) for v in members for s in (signs if v < n else (0,)))


def _mirror(points: frozenset) -> frozenset:
    return frozenset((v, -s) for v, s in points)


class NestedFamily:
    """Rooted tree of collapsing subsets of the point index set.

    Internal nodes carry a type marker: type I is a set of aerial points
    collapsing to an interior point (its mirror collapses simultaneously),
    type II is a set closed under conjugation (aerial points plus a gap-free
    run of ground points) collapsing onto the real line.

    The tree lives on the doubled plane, where each aerial point comes with
    its mirror image: the root and type II nodes are closed under the
    mirror, each type I node has a mirror node, the leaves are the doubled
    points, and a node's parent is its smallest strict superset.
    """

    def __init__(self, n: int, m: int, internal: Sequence[Tuple[frozenset, str]]):
        self.n = n
        self.m = m
        self.internal = tuple((frozenset(s), k) for s, k in internal)
        for i, (s, k) in enumerate(self.internal):
            check_collapse(n, m, s, k)
            if (s, k) in self.internal[:i]:
                raise ValueError("duplicate family node")
        clusters = [_upstairs(n, s, k == TYPE_II) for s, k in self.internal]
        nodes = clusters + [_mirror(b) for b, (_, k) in zip(clusters, self.internal)
                            if k == TYPE_I]
        for i, a in enumerate(nodes):
            if any(a & b and not (a <= b or b <= a) for b in nodes[:i]):
                raise ValueError("family is not nested")
        self._points = sorted(_upstairs(n, range(n + m), True))
        index = {p: i for i, p in enumerate(self._points)}
        leaves = [frozenset([p]) for p in self._points]
        tree = [frozenset(self._points)] + nodes + leaves
        parent = {b: min((a for a in tree if b < a), key=len) for b in nodes + leaves}
        children: Dict[frozenset, List[frozenset]] = {}
        for b, a in parent.items():
            children.setdefault(a, []).append(b)

        def ids(b):
            return sorted(index[p] for p in b)

        # per cluster: its doubled points, its children's and its siblings'
        self._charts = tuple(
            (ids(b), [ids(ch) for ch in children[b]],
             [ids(sib) for sib in children[parent[b]] if sib != b])
            for b in clusters)

    @staticmethod
    def top(n: int, m: int) -> "NestedFamily":
        return NestedFamily(n, m, [])


def gcd_families(i: NestedFamily, j: NestedFamily) -> Optional[NestedFamily]:
    """Union of two nested families when that union is nested, else None."""
    if (i.n, i.m) != (j.n, j.m):
        raise ValueError("families live on different point sets")
    merged = list(dict.fromkeys(list(i.internal) + list(j.internal)))
    try:
        return NestedFamily(i.n, i.m, merged)
    except ValueError:
        return None


def chart_membership(cfg: Configuration, fam: NestedFamily, c: float) -> bool:
    """Test the defining inequalities of the chart of ``fam`` at ratio ``c``.

    For every cluster ``B``, every child of ``B`` must sit within ``c``
    times the distance from ``B``'s center to each sibling of ``B``, all on
    the doubled plane.  A node's center is the mean of its doubled points,
    ``(v, -1)`` standing for ``conj(z_v)``, summed in sorted ``(v, s)``
    order so that a closed node's center is exactly real.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if (cfg.n, cfg.m) != (fam.n, fam.m):
        raise ValueError(f"configuration has (n, m) = ({cfg.n}, {cfg.m}) but the family"
                         f" has ({fam.n}, {fam.m})")
    z = cfg.aerial + tuple(map(complex, cfg.ground))
    pts = [z[v].conjugate() if s < 0 else z[v] for v, s in fam._points]

    def center(ids):
        return pts[ids[0]] if len(ids) == 1 else sum([pts[i] for i in ids]) / len(ids)

    # a mirror node meets the inequalities exactly when its cluster does
    for ids, children, siblings in fam._charts:
        zb = center(ids)
        if (max([abs(center(ch) - zb) for ch in children])
                > c * min([abs(center(sib) - zb) for sib in siblings])):
            return False
    return True


# ---------------------------------------------------------------------------
# torus actions and degenerating families


def torus_rotate(cfg: Configuration, subset, theta: float) -> Configuration:
    """Rigidly rotate the aerial points of ``subset`` about their mean."""
    B = sorted(set(subset))
    if len(B) < 2 or any(v >= cfg.n for v in B):
        raise ValueError("subset must contain >= 2 aerial points")
    zeta = center_of_mass([cfg.aerial[v] for v in B])
    rot = cmath.exp(1j * theta)
    aerial = list(cfg.aerial)
    for v in B:
        aerial[v] = rot * (aerial[v] - zeta) + zeta
    try:
        return make_configuration(aerial, cfg.ground)
    except ValueError as exc:
        raise ValueError(f"rotation leaves the configuration space: {exc}") from exc


def normalized_shape(points: Sequence[complex]) -> Tuple[complex, float, Tuple[complex, ...]]:
    """Split points into (center, scale, shape) with the shape normalized to
    zero mean and unit sum of squared moduli."""
    zeta = center_of_mass(points)
    r = math.sqrt(sum(abs(z - zeta) ** 2 for z in points))
    if r == 0.0:
        raise ValueError("degenerate cluster has no shape")
    return zeta, r, tuple((z - zeta) / r for z in points)


def check_shape(shape: Sequence[complex]) -> Tuple[complex, ...]:
    shape = tuple(complex(s) for s in shape)
    if abs(sum(shape)) > 1e-9 or abs(sum(abs(s) ** 2 for s in shape) - 1.0) > 1e-9:
        raise ValueError("shape must have zero mean and unit squared-modulus sum")
    return shape


def expand_cluster(outer_cfg: Configuration, layout: CollapseLayout,
                   inner_points: Sequence[complex], r: float
                   ) -> Tuple[List[complex], List[float]]:
    """Aerial and ground points of the full configuration at collapse scale ``r``.

    Each vertex outside the subset sits at its outer point
    ``vertex_map[v]``; each member ``v`` sits at
    ``beta + r * inner_points[inner_index[v]]``, where ``beta`` is the outer
    point at ``new_vertex``, and a ground member takes the real part.
    """
    beta = outer_cfg.point(layout.new_vertex)
    pts = [outer_cfg.point(w) if i < 0 else beta + r * inner_points[i]
           for w, i in zip(layout.vertex_map, layout.inner_index)]
    return pts[:layout.n], [p.real for p in pts[layout.n:]]


def degenerating_family(outer_cfg: Configuration, layout: CollapseLayout,
                        inner_shape: Sequence[complex], r: float) -> Configuration:
    """Expand the outer point of the type I ``layout``'s collapsed cluster
    at scale ``r``: :func:`expand_cluster` with the ``i``-th member of
    ``layout.subset`` at ``beta + r * inner_shape[i]``."""
    shape = check_shape(inner_shape)
    if layout.kind != TYPE_I or (layout.outer_n, layout.outer_m) != (outer_cfg.n, outer_cfg.m):
        raise ValueError("degenerating family needs a type I layout that fits the configuration")
    if len(shape) != len(layout.subset):
        raise ValueError("shape needs one point per cluster member")
    if not r > 0:
        raise ValueError("scale must be positive on the open stratum")
    return make_configuration(*expand_cluster(outer_cfg, layout, shape, r))
