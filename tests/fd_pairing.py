"""Finite-difference reference for edge pairings.

Each entry is a central difference of :func:`edge_function` along one
frame vector, so it checks :func:`kwl.forms.pairing_matrices` (and every
integrand built on it) against the edge potential itself.
"""

import cmath
import math

import numpy as np

from kwl.forms import ANGLE, TWO_PI, check_kind
from kwl.halfplane import gauge_frame


def edge_function(kind, z, w):
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


def slice_points_and_frame(cfg):
    """Vertex positions of ``cfg`` and its slice coordinate frame."""
    points = [cfg.point(v) for v in range(cfg.n + cfg.m)]
    return points, gauge_frame(cfg.n, cfg.m, cfg.point(0))


def fd_pairing(kind, points, edges, frame, rel_step=1e-5):
    """Derivatives of the edge potentials along the frame, shape (E, d).

    The step of each edge is ``rel_step`` times the distance from its
    target to the source and to the source's mirror image, so close points
    get small steps; the real part (the angle) is unwrapped across its
    branch cut.  Real for the angle propagator, complex for the log one.
    """
    M = np.zeros((len(edges), len(frame)), dtype=complex)
    for ei, (s, t) in enumerate(edges):
        zs, zt = complex(points[s]), complex(points[t])
        dist = min(abs(zs - zt), abs(zs.conjugate() - zt))
        for ci, col in enumerate(frame):
            vs, vt = complex(col.get(s, 0.0)), complex(col.get(t, 0.0))
            if vs == 0 and vt == 0:
                continue
            h = rel_step * dist / max(abs(vs), abs(vt))
            step = (edge_function(kind, zs + h * vs, zt + h * vt)
                    - edge_function(kind, zs - h * vs, zt - h * vt))
            unwrapped = (step.real + 0.5) % 1.0 - 0.5
            M[ei, ci] = complex(unwrapped, step.imag) / (2.0 * h)
    return M.real if kind == ANGLE else M


def fd_integrand(g, kind, cfg):
    """Finite-difference integrand of ``g`` at ``cfg`` and the Hadamard
    bound of its matrix (the scale of its roundoff)."""
    points, frame = slice_points_and_frame(cfg)
    F = fd_pairing(kind, points, g.edges, frame)
    return np.linalg.det(F), float(np.prod(np.linalg.norm(F, axis=1)))
