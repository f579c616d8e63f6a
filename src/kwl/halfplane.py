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
integrands stay square-integrable against the map, which keeps the
batch-based error estimates calibrated near point collisions.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import TYPE_I, TYPE_II

ROOT = "root"
LEAF = "leaf"

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

    def to_json(self) -> str:
        return json.dumps({"aerial": [[z.real, z.imag] for z in self.aerial],
                           "ground": list(self.ground)})

    @staticmethod
    def from_json(text: str) -> "Configuration":
        data = json.loads(text)
        return make_configuration([complex(x, y) for x, y in data["aerial"]],
                                  data["ground"])


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


def gauge_supported(n: int, m: int) -> bool:
    if m >= 2:
        return True
    if m == 1:
        return n >= 1
    return n >= 1  # (1, 0) is a zero-dimensional slice


def gauge_dim(n: int, m: int) -> int:
    """Number of free coordinates on the gauge slice."""
    if not gauge_supported(n, m):
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
    the slice in its coordinate orientation.
    """
    cols = slice_columns(n, m)
    B, d = U.shape
    if d != len(cols):
        raise ValueError(f"expected {len(cols)} hypercube coordinates per row, got {d}")
    aerial, ground = _pinned_points(n, m)
    Z = np.empty((B, n), dtype=complex)
    G = np.empty((B, m), dtype=float)
    Z[:] = aerial
    G[:] = ground
    jac = np.ones(B, dtype=float)
    for pos, (v, mode) in enumerate(cols):
        u = U[:, pos]
        if mode == "phi":
            Z[:, v] = np.exp(1j * (math.pi * u))
            jac *= math.pi
        elif mode == "x":
            x = np.tan(math.pi * (u - 0.5))
            jac *= math.pi * (1.0 + x * x)
            Z[:, v] = x
        elif mode == "y":  # follows the "x" column of the same point
            s = u / (1.0 - u)
            e = np.exp(-1.0 / s)
            Z[:, v] += 1j * np.maximum(s * s * e, 1e-300)
            jac *= e * (2.0 * s + 1.0) / (1.0 - u) ** 2
        else:
            G[:, v - n] = G[:, v - n - 1] + u / (1.0 - u)
            jac *= 1.0 / (1.0 - u) ** 2
    return Z, G, jac


def sample_configuration(n: int, m: int, u: Sequence[float]) -> Tuple[Configuration, float]:
    """One point of :func:`slice_map`: configuration and Jacobian."""
    d = gauge_dim(n, m)
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError(f"expected {d} hypercube coordinates, got shape {u.shape}")
    if d and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("hypercube point must be strictly interior")
    Z, G, jac = slice_map(n, m, u[None, :])
    return make_configuration(Z[0], G[0]), float(jac[0])


_VELOCITY = {"x": 1.0 + 0j, "y": 1j, "g": 1.0 + 0j}
_COORDINATE = {"phi": cmath.phase, "x": lambda z: z.real, "y": lambda z: z.imag,
               "g": lambda z: z.real}


def gauge_frame(cfg: Configuration) -> List[Tuple[int, complex]]:
    """Coordinate tangent frame of the gauge slice at ``cfg``.

    Each frame vector moves exactly one point; entries are
    ``(vertex index, complex velocity)``, in :func:`slice_columns` order.
    Ground vertices move with real velocity; ``phi`` moves the pinned point
    along its circle.
    """
    return [(v, 1j * cfg.aerial[0] if mode == "phi" else _VELOCITY[mode])
            for v, mode in slice_columns(cfg.n, cfg.m)]


def coords_of_config(cfg: Configuration) -> np.ndarray:
    """Slice coordinate values of an in-gauge configuration."""
    return np.array([_COORDINATE[mode](cfg.point(v))
                     for v, mode in slice_columns(cfg.n, cfg.m)], dtype=float)


def config_from_coords(n: int, m: int, q: Sequence[float]) -> Configuration:
    """Inverse of :func:`coords_of_config`."""
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


def regauge(aerial: Sequence[complex], ground: Sequence[float]) -> Configuration:
    """Apply the unique scaling/translation putting raw points in gauge."""
    n, m = len(aerial), len(ground)
    gauge_dim(n, m)
    if m >= 2:
        shift = ground[0]
        scale = ground[1] - ground[0]
    elif m == 1:
        shift = ground[0]
        scale = abs(aerial[0] - ground[0])
    else:
        shift = aerial[0].real
        scale = aerial[0].imag
    if not scale > 0:
        raise ValueError("degenerate configuration cannot be gauged")
    new_aer = [(z - shift) / scale for z in aerial]
    new_grd = [(g - shift) / scale for g in ground]
    # remove roundoff on pinned points
    if m >= 2:
        new_grd[0], new_grd[1] = 0.0, 1.0
    elif m == 1:
        new_grd[0] = 0.0
    else:
        new_aer[0] = 1j
    return make_configuration(new_aer, new_grd)


# ---------------------------------------------------------------------------
# nested families


@dataclass(frozen=True)
class FamilyNode:
    members: frozenset
    kind: str  # TYPE_I, TYPE_II, ROOT or LEAF


def _signed(node: FamilyNode, n: int) -> frozenset:
    """Upstairs incarnation of a node.

    Conjugation-closed nodes (type II and the root) contain both mirror
    copies of their aerial members; type I nodes and aerial leaves are the
    upper-half-plane incarnation only (their mirrors live in the mirrored
    subtree, which is not represented).
    """
    if node.kind == TYPE_I:
        return frozenset((v, +1) for v in node.members)
    if node.kind == LEAF:
        v = next(iter(node.members))
        return frozenset({(v, +1 if v < n else 0)})
    out = set()
    for v in node.members:
        if v < n:
            out.add((v, +1))
            out.add((v, -1))
        else:
            out.add((v, 0))
    return frozenset(out)


class NestedFamily:
    """Rooted tree of collapsing subsets of the point index set.

    Internal nodes carry a type marker: type I is a set of aerial points
    collapsing to an interior point (its mirror collapses simultaneously),
    type II is a set closed under conjugation (aerial points plus a gap-free
    run of ground points) collapsing onto the real line.  The root is the
    full set; leaves are singletons.
    """

    def __init__(self, n: int, m: int, internal: Sequence[Tuple[frozenset, str]]):
        self.n = n
        self.m = m
        self.internal = tuple((frozenset(s), k) for s, k in internal)
        self._validate()
        self._build_tree()

    @staticmethod
    def top(n: int, m: int) -> "NestedFamily":
        return NestedFamily(n, m, [])

    def _validate(self) -> None:
        n, m = self.n, self.m
        full = frozenset(range(n + m))
        seen = set()
        for s, k in self.internal:
            if not s <= full:
                raise ValueError("subset out of range")
            if (s, k) in seen:
                raise ValueError("duplicate family node")
            seen.add((s, k))
            aer = {v for v in s if v < n}
            grd = sorted(v for v in s if v >= n)
            if k == TYPE_I:
                if grd:
                    raise ValueError("type I subsets are purely aerial")
                if len(aer) < 2:
                    raise ValueError("type I subsets need >= 2 points")
            elif k == TYPE_II:
                if 2 * len(aer) + len(grd) < 2:
                    raise ValueError("type II subset too small")
                if grd and grd[-1] - grd[0] != len(grd) - 1:
                    raise ValueError("ground members must form a gap-free run")
                if s == full:
                    raise ValueError("the full set is the root, not an internal node")
            else:
                raise ValueError(f"unknown node kind {k!r}")
        # pairwise nested-or-disjoint upstairs (type I nodes come with mirrors)
        sets = []
        for s, k in self.internal:
            node = FamilyNode(s, k)
            sets.append(_signed(node, n))
            if k == TYPE_I:
                sets.append(frozenset((v, -1) for v in s))
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i], sets[j]
                if not (a <= b or b <= a or not (a & b)):
                    raise ValueError("family is not nested")

    def _build_tree(self) -> None:
        n, m = self.n, self.m
        nodes = [FamilyNode(frozenset(range(n + m)), ROOT)]
        nodes += [FamilyNode(s, k) for s, k in self.internal]
        nodes += [FamilyNode(frozenset([v]), LEAF) for v in range(n + m)]
        signed = {node: _signed(node, n) for node in nodes}
        parent = {}
        for node in nodes:
            if node.kind == ROOT:
                continue
            best = None
            for other in nodes:
                if other is node:
                    continue
                if signed[node] < signed[other]:
                    if best is None or len(signed[other]) < len(signed[best]):
                        best = other
            parent[node] = best
        children: dict = {node: [] for node in nodes}
        for node, p in parent.items():
            children[p].append(node)
        self.root = nodes[0]
        self.nodes = nodes
        self.parent = parent
        self.children = {k: tuple(sorted(v, key=lambda nd: (sorted(nd.members), nd.kind)))
                         for k, v in children.items()}

    def internal_nodes(self) -> List[FamilyNode]:
        return [nd for nd in self.nodes if nd.kind in (TYPE_I, TYPE_II)]

    def node_center(self, node: FamilyNode, cfg: Configuration) -> complex:
        """Center of mass of a node's points (upstairs, so type II is real)."""
        if node.kind == TYPE_I:
            return center_of_mass([cfg.point(v) for v in node.members])
        if node.kind == LEAF:
            return cfg.point(next(iter(node.members)))
        total = 0.0
        count = 0
        for v in node.members:
            z = cfg.point(v)
            if v < self.n:
                total += 2.0 * z.real
                count += 2
            else:
                total += z.real
                count += 1
        return complex(total / count, 0.0)


def gcd_families(i: NestedFamily, j: NestedFamily) -> Optional[NestedFamily]:
    """Union of two nested families when that union is nested, else None."""
    if (i.n, i.m) != (j.n, j.m):
        raise ValueError("families live on different point sets")
    merged = list(dict.fromkeys(list(i.internal) + list(j.internal)))
    try:
        return NestedFamily(i.n, i.m, merged)
    except ValueError:
        return None


def _incarnation_centers(fam: NestedFamily, node: FamilyNode, cfg: Configuration,
                         parent_closed: bool) -> List[complex]:
    """Centers of a node's upstairs incarnations seen from a closed parent."""
    z = fam.node_center(node, cfg)
    mirrored = parent_closed and (
        node.kind == TYPE_I
        or (node.kind == LEAF and next(iter(node.members)) < fam.n))
    if mirrored:
        return [z, z.conjugate()]
    return [z]


def chart_membership(cfg: Configuration, fam: NestedFamily, c: float) -> bool:
    """Test the defining inequalities of the chart of ``fam`` at ratio ``c``.

    For every internal node ``B``, every child cluster of ``B`` must sit
    within ``c`` times the distance from ``B``'s center to each sibling
    cluster of ``B`` (siblings taken upstairs, so the mirror of a type I
    node counts among its siblings under a conjugation-closed parent).
    """
    if not 0.0 < c < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    for node in fam.internal_nodes():
        zb = fam.node_center(node, cfg)
        child_d = [abs(fam.node_center(ch, cfg) - zb)
                   for ch in fam.children[node]]
        if not child_d:
            continue
        parent = fam.parent[node]
        parent_closed = parent.kind in (TYPE_II, ROOT)
        sib_d: List[float] = []
        for sib in fam.children[parent]:
            if sib is node:
                continue
            for zc in _incarnation_centers(fam, sib, cfg, parent_closed):
                sib_d.append(abs(zc - zb))
        if parent_closed and node.kind == TYPE_I:
            sib_d.append(abs(zb.conjugate() - zb))
        if not sib_d:
            continue
        if max(child_d) > c * min(sib_d):
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


def degenerating_family(outer_cfg: Configuration, inner_shape: Sequence[complex],
                        anchor: int, r: float) -> Configuration:
    """Replace outer aerial point ``anchor`` by a cluster at scale ``r``.

    The cluster points ``center + r * shape`` are spliced into the aerial
    sequence at the anchor position, so vertex indices of the other points
    shift by ``len(shape) - 1`` past the anchor.
    """
    shape = check_shape(inner_shape)
    if not 0 <= anchor < outer_cfg.n:
        raise ValueError("anchor must be an aerial point of the outer configuration")
    if not r > 0:
        raise ValueError("scale must be positive on the open stratum")
    zeta = outer_cfg.aerial[anchor]
    cluster = [zeta + r * s for s in shape]
    aerial = list(outer_cfg.aerial[:anchor]) + cluster + list(outer_cfg.aerial[anchor + 1:])
    return make_configuration(aerial, outer_cfg.ground)


def cluster_coordinates(cfg: Configuration, subset) -> Tuple[complex, float, Tuple[complex, ...]]:
    """Scale and normalized shape of an aerial cluster of ``cfg``."""
    B = sorted(set(subset))
    if any(v >= cfg.n for v in B) or len(B) < 2:
        raise ValueError("cluster must contain >= 2 aerial points")
    return normalized_shape([cfg.aerial[v] for v in B])
