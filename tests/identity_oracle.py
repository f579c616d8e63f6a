"""Reference for :func:`kwl.stokes.verify_identity`: the identity as one
loop over the graph's strata, with every labelled factor graph weighed by
``cached_weight``.

It contracts each stratum and weighs each labelled factor on every call,
and keys correlated errors by each factor's canonical class key, so it
reads no identity row and no class store; a report from either must print
the same.
"""

import math

from kwl import stokes, weights
from kwl.graphs import canonical_key, encode_graph
from kwl.stokes import (IDENTITY_TOL, MULTI_POINT_I, TWO_POINT_I, ZERO_BY_FLAG,
                        IdentityReport, boundary_strata, shuffle_sign)


def term(g, stratum, con, kind, samples, seed, threads=None):
    """(value, stderr, sensitivities) of the boundary term of a stratum
    with contraction ``con``, the last mapping the class key of each
    estimated weight in the term to (|d term / d weight|, stderr of that
    weight)."""
    if stratum.rule in (ZERO_BY_FLAG, MULTI_POINT_I):
        return 0.0 + 0j, 0.0, {}
    sign = shuffle_sign(g, con.layout) * (-stokes.orientation_sign(con.layout))
    if stratum.rule == TWO_POINT_I:
        if len(con.inner.edges) != 1:
            return 0.0 + 0j, 0.0, {}  # edgeless or doubly-edged pair: zero by degree
        west = weights.cached_weight(con.outer, kind, samples, seed, threads)
        sens = {}
        if west.stderr:
            sens[canonical_key(con.outer)[0]] = (1.0, west.stderr)
        return sign * west.value, west.stderr, sens
    w_in = weights.cached_weight(con.inner, kind, samples, seed, threads)
    w_out = weights.cached_weight(con.outer, kind, samples, seed, threads)
    value = sign * w_in.value * w_out.value
    stderr = (abs(w_in.value) * w_out.stderr + abs(w_out.value) * w_in.stderr
              + w_in.stderr * w_out.stderr)
    sens = {}
    if w_in.stderr:
        sens[canonical_key(con.inner)[0]] = (abs(w_out.value) + w_out.stderr, w_in.stderr)
    if w_out.stderr:
        sens[canonical_key(con.outer)[0]] = (abs(w_in.value) + w_in.stderr, w_out.stderr)
    return value, stderr, sens


def verify_identity(g, kind, samples, seed, threads=None):
    """The identity report of ``g``, summed term by term."""
    terms = []
    coeff_by_key, err_by_key = {}, {}
    for st, con in boundary_strata(g):
        value, err, sens = term(g, st, con, kind, samples, seed, threads)
        terms.append((st, value, err))
        for key, (coef, werr) in sens.items():
            coeff_by_key[key] = coeff_by_key.get(key, 0.0) + coef
            err_by_key[key] = werr
    residual = sum(v for _, v, _ in terms)
    stderr = math.sqrt(sum((coeff_by_key[k] * err_by_key[k]) ** 2 for k in coeff_by_key))
    passed = abs(residual) <= 3.0 * stderr + IDENTITY_TOL
    return IdentityReport(encode_graph(g), kind, tuple(terms), residual,
                          stderr, IDENTITY_TOL, passed)
