"""Reference for :func:`kwl.forms.cluster_frames`: the cluster frame with
its shape directions built by Gram-Schmidt.

kwl takes the shape directions from one complex QR of (1, d), with ``d``
the offsets of the cluster points from their centre.  Here they come
from a Gram-Schmidt of the unit vectors against 1, i, the normalized
shape ``d / |d|`` and ``i d / |d|``.  The rotation,
radial and outer columns are built as in kwl, so a two-point frame, which
has no shape directions, is the same in both.
"""

import math
from typing import List, Sequence, Tuple

from kwl.forms import Velocity
from kwl.graphs import TYPE_I
from kwl.halfplane import center_of_mass, gauge_frame


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


def gram_schmidt_frames(cfg, layout) -> List[Velocity]:
    """The cluster frame of :func:`kwl.forms.cluster_frames`, its shape
    columns ``r u`` for ``u`` in :func:`shape_tangent_basis` of the
    normalized cluster shape."""
    if layout.kind != TYPE_I or (layout.n, len(layout.vertex_map)) != (cfg.n, cfg.n + cfg.m):
        raise ValueError("cluster frames need a type I layout that fits the configuration")
    B = layout.subset
    points = [cfg.aerial[v] for v in B]
    zeta = center_of_mass(points)
    r = math.sqrt(sum(abs(z - zeta) ** 2 for z in points))
    shape = tuple((z - zeta) / r for z in points)
    columns: List[Velocity] = []
    columns.append({v: 1j * (cfg.aerial[v] - zeta) for v in B})
    columns.append({v: (cfg.aerial[v] - zeta) / r for v in B})
    if len(B) > 2:
        for u in shape_tangent_basis(shape):
            columns.append({v: r * u[i] for i, v in enumerate(B)})
    z0 = zeta if layout.new_vertex == 0 else cfg.point(0)
    for col in gauge_frame(layout.outer_n, layout.outer_m, z0):
        columns.append({v: col[w] for v, w in enumerate(layout.vertex_map) if w in col})
    return columns
