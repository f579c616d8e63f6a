"""Numerical reference for stratum orientation signs.

Each sign is measured as the sign of the Jacobian determinant of a stratum
chart map at generic base points, so it checks the closed-form
:func:`kwl.stokes.orientation_sign` against the slice coordinates
themselves.

Run ``PYTHONPATH=src python tests/chart_oracle.py`` to compare the two on
every two-point type I and every type II layout up to
``graphs.MAX_VERTICES`` vertices; it prints the layout, mismatch and raise
counts.
"""

import cmath
import math

import numpy as np

from kwl import graphs, stokes
from kwl.graphs import TYPE_I, TYPE_II
from kwl.halfplane import config_from_coords, expand_cluster, gauge_dim, make_configuration

from slice_coords import coords_of_config, sample_configuration


def regauge(aerial, ground):
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


def chart_map(layout):
    """Map (r, inner coords, outer coords) -> full slice coordinates.

    The inner and outer coordinates are the standard slice coordinates of
    the factor configuration spaces; for an interior two-point collapse the
    inner coordinate is the rotation angle of the pair.
    """
    if layout.kind == TYPE_I:
        if len(layout.subset) != 2:
            raise ValueError("chart map only needed for two-point interior collapses")
        d_in = 1
    else:
        d_in = gauge_dim(layout.inner_n, layout.inner_m)

    def phi(x):
        r = x[0]
        q_in = x[1:1 + d_in]
        cfg_out = config_from_coords(layout.outer_n, layout.outer_m, x[1 + d_in:])
        if layout.kind == TYPE_I:
            offs = cmath.exp(1j * q_in[0]) / math.sqrt(2.0)
            w = (offs, -offs)
        else:
            cfg_in = config_from_coords(layout.inner_n, layout.inner_m, q_in)
            w = [cfg_in.point(v) for v in range(layout.inner_n + layout.inner_m)]
        return coords_of_config(regauge(*expand_cluster(cfg_out, layout, w, r)))

    return phi


def numeric_jacobian(phi, x0):
    d = len(x0)
    J = np.empty((d, d))
    for k in range(d):
        h = 1e-6 * max(1.0, abs(x0[k]))
        xp = x0.copy(); xp[k] += h
        xm = x0.copy(); xm[k] -= h
        J[:, k] = (phi(xp) - phi(xm)) / (2.0 * h)
    return J


def measured_sign(layout):
    """Sign of the chart-map Jacobian determinant at up to six seeded base
    points, stopping at three signs that clear the threshold.

    Raises RuntimeError when no base point gives a sign or the signs
    disagree.
    """
    phi = chart_map(layout)
    signs = []
    stable = [layout.n, len(layout.vertex_map) - layout.n, 1 if layout.kind == TYPE_II else 0,
              0 if layout.position is None else layout.position + 1,
              len(layout.subset), layout.subset[0]]
    for attempt in range(6):
        rng = np.random.default_rng(np.random.SeedSequence([101 + attempt] + stable))
        u_out = rng.uniform(0.3, 0.7, gauge_dim(layout.outer_n, layout.outer_m))
        cfg_out, _ = sample_configuration(layout.outer_n, layout.outer_m, u_out)
        q_out = coords_of_config(cfg_out)
        if layout.kind == TYPE_I:
            q_in = np.array([rng.uniform(0.5, 5.5)])
        else:
            u_in = rng.uniform(0.3, 0.7, gauge_dim(layout.inner_n, layout.inner_m))
            cfg_in, _ = sample_configuration(layout.inner_n, layout.inner_m, u_in)
            q_in = coords_of_config(cfg_in)
        x0 = np.concatenate([[0.01], q_in, q_out])
        try:
            J = numeric_jacobian(phi, x0)
        except ValueError:  # the chart map left the configuration space
            continue
        det = float(np.linalg.det(J))
        # relative to the column norms: the collapse scale shrinks the inner
        # columns, so |det| scales like r^d_in
        if abs(det) > 1e-10 * float(np.prod(np.linalg.norm(J, axis=0))):
            signs.append(1 if det > 0 else -1)
        if len(signs) >= 3:
            break
    if not signs or any(s != signs[0] for s in signs):
        raise RuntimeError(f"no stable orientation sign for {layout.label()}: signs seen {signs}")
    return signs[0]


def signed_layouts(n, m):
    """The two-point type I and the type II layouts of the (n, m) slice."""
    return [lay for lay in stokes._strata_table(n, m)
            if lay.kind == TYPE_II or len(lay.subset) == 2]


def slices(max_vertices):
    """Every (n, m) with a gauge slice on at most ``max_vertices`` vertices."""
    return [(n, m) for n in range(max_vertices + 1) for m in range(max_vertices + 1 - n)
            if m >= 2 or n >= 1]


def compare(max_vertices):
    """(layouts, mismatches, raises) of the rule against the measured sign."""
    count = mismatches = raises = 0
    for n, m in slices(max_vertices):
        for lay in signed_layouts(n, m):
            count += 1
            try:
                mismatches += measured_sign(lay) != stokes.orientation_sign(lay)
            except RuntimeError:
                raises += 1
    return count, mismatches, raises


if __name__ == "__main__":
    count, mismatches, raises = compare(graphs.MAX_VERTICES)
    print(f"{count} layouts on at most {graphs.MAX_VERTICES} vertices:"
          f" {mismatches} mismatches, {raises} raises")
