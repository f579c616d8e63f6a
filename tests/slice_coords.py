"""Single configurations of a gauge slice, for tests and oracles: one
point of :func:`kwl.halfplane.slice_map`, and the slice coordinate values
that :func:`kwl.halfplane.config_from_coords` takes back."""

import cmath

import numpy as np

from kwl.halfplane import gauge_dim, make_configuration, slice_columns, slice_map

_COORDINATE = {"phi": cmath.phase, "x": lambda z: z.real, "y": lambda z: z.imag,
               "g": lambda z: z.real}


def sample_configuration(n, m, u):
    """One point of :func:`kwl.halfplane.slice_map`: configuration and Jacobian."""
    d = gauge_dim(n, m)
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError(f"expected {d} hypercube coordinates, got shape {u.shape}")
    if d and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("hypercube point must be strictly interior")
    Z, G, jac = slice_map(n, m, u[None, :])
    return make_configuration(Z[0], G[0]), float(jac[0])


def coords_of_config(cfg):
    """Slice coordinate values of an in-gauge configuration."""
    return np.array([_COORDINATE[mode](cfg.point(v))
                     for v, mode in slice_columns(cfg.n, cfg.m)], dtype=float)
