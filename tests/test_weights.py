import json

import numpy as np
import pytest
from scipy import integrate

from kwl import forms, halfplane
from kwl.forms import ANGLE, LOG
from kwl.graphs import make_graph, parse_graph
from kwl.weights import (CHUNK_ROWS, COLLISION_EPS, NO_OUTGOING,
                         ONE_IN_ONE_OUT, UNIVALENT, WHEEL, cached_weight,
                         clear_weight_cache, compute_weight,
                         detect_vanishing_pattern, integrand_batch, qmc_mean,
                         vanishing_check)

WEDGE = make_graph(1, 2, [(0, 1), (0, 2)])
G40 = parse_graph("4 0 ; a1>a2 a1>a3 a2>a3 a2>a4 a3>a4 a4>a1")
G31 = parse_graph("3 1 ; a1>a2 a1>a3 a2>a1 a2>g1 a3>a1")


def wedge_quadrature_oracle():
    """Nested adaptive quadrature of the wedge integrand over the raw
    half-plane coordinates; independent of the sampling map."""
    def f_xy(x, y):
        try:
            cfg = halfplane.make_configuration([complex(x, y)], [0.0, 1.0])
        except ValueError:
            return 0.0
        return float(np.real(forms.integrand(WEDGE, ANGLE, cfg)))

    def inner(y):
        v, _ = integrate.quad(lambda x: f_xy(x, y), -np.inf, np.inf, limit=200)
        return v

    return integrate.quad(inner, 0, np.inf, limit=200)


def test_wedge_quadrature_oracle_is_half():
    val, err = wedge_quadrature_oracle()
    assert err < 1e-6
    assert abs(val - 0.5) < 1e-6


def test_wedge_weight_matches_oracle():
    est = compute_weight(WEDGE, ANGLE, 10 ** 6, seed=7)
    assert abs(est.value - 0.5) <= 3 * est.stderr
    assert est.stderr < 0.005 / 3


def test_wedge_log_equals_angle():
    a = compute_weight(WEDGE, ANGLE, 10 ** 5, seed=7)
    l = compute_weight(WEDGE, LOG, 10 ** 5, seed=7)
    assert abs(a.value - l.value) <= 3 * (a.stderr + l.stderr) + 1e-12


def test_empty_graph_weight_exact_one():
    for kind in (ANGLE, LOG):
        est = compute_weight(make_graph(0, 2, []), kind, 10, 1)
        assert est.value == 1.0 and est.stderr == 0.0 and est.exact


def test_degree_rule_exact_zero():
    est = compute_weight(make_graph(1, 2, [(0, 1)]), LOG, 10, 1)
    assert est.value == 0.0 and est.stderr == 0.0 and est.exact


def test_single_edge_one_one_graph_weight_is_one():
    # the slice is the half-circle and the edge potential is the angle/pi,
    # so the integrand is constant and the estimate exact
    est = compute_weight(make_graph(1, 1, [(0, 1)]), ANGLE, 10 ** 4, 3)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr < 1e-12


def test_determinism_bit_identical_across_threads():
    a = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=5, threads=4)
    b = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=5, threads=1)
    assert (a.value, a.stderr, a.samples) == (b.value, b.stderr, b.samples)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_determinism_bit_identical_across_threads_multi_chunk():
    # 2^17 samples are 8,192-row batches, more than one kernel chunk each
    for kind in (ANGLE, LOG):
        a = compute_weight(G31, kind, 1 << 17, seed=9, threads=1)
        b = compute_weight(G31, kind, 1 << 17, seed=9, threads=2)
        assert a.samples // 16 > CHUNK_ROWS
        assert (a.value, a.stderr, a.rejected) == (b.value, b.stderr, b.rejected)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_seed_changes_estimate():
    a = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=5)
    b = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=6)
    assert a.value != b.value


def test_stderr_scaling():
    coarse = compute_weight(WEDGE, ANGLE, 25 * 10 ** 4, seed=5)
    fine = compute_weight(WEDGE, ANGLE, 10 ** 6, seed=5)
    assert fine.stderr <= 0.6 * coarse.stderr


def test_sample_budget_zero_rejected():
    with pytest.raises(ValueError, match="positive"):
        compute_weight(WEDGE, ANGLE, 0, 1)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        compute_weight(WEDGE, ANGLE, 10, -1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        compute_weight(WEDGE, "harmonic", 10, 1)


def _assert_rows_match_scalar(g, kind, U, vals, rows):
    for k in rows:
        cfg, jac = halfplane.sample_configuration(g.n, g.m, U[k])
        want = forms.integrand(g, kind, cfg) * jac
        assert abs(vals[k] - want) < 1e-10 * max(1.0, abs(want)), (g, kind, k)


def test_vectorized_kernel_matches_scalar():
    # (1,3) has a ground-vertex frame column; (4,0) the m = 0 frame with a
    # 6 x 6 determinant; in (3,1) edges also enter the circle-pinned vertex
    # a1, and those phi entries reach the determinant.  The long batches
    # span three kernel chunks and are checked on both sides of each
    # chunk boundary.
    rng = np.random.default_rng(0)
    C = CHUNK_ROWS
    boundary_rows = [0, 1, C - 1, C, 2 * C - 1, 2 * C, 2 * C + 4]
    cases = [(WEDGE, 8, range(8)),
             (parse_graph("2 1 ; a1>a2 a1>g1 a2>g1"), 8, range(8)),
             (parse_graph("2 0 ; a1>a2 a2>a1"), 8, range(8)),
             (parse_graph("1 3 ; a1>g1 a1>g2 a1>g3"), 8, range(8)),
             (G40, 2 * C + 5, boundary_rows), (G31, 2 * C + 5, boundary_rows)]
    for g, B, rows in cases:
        d = halfplane.gauge_dim(g.n, g.m)
        U = rng.uniform(0.1, 0.9, size=(B, d))
        for kind in (ANGLE, LOG):
            vals, rejected = integrand_batch(g, kind, U)
            assert vals.shape == (B,) and rejected == 0
            _assert_rows_match_scalar(g, kind, U, vals, rows)


def test_kernel_zeroes_near_collision_rows():
    rng = np.random.default_rng(2)
    B = CHUNK_ROWS + 3
    U = rng.uniform(0.1, 0.9, size=(B, 5))
    bad = CHUNK_ROWS + 1
    # aerial vertex a2 at x = 0, height ~1e-47: on top of ground vertex g1
    U[bad, 1:3] = [0.5, 0.01]
    Z, G, _ = halfplane.slice_map(3, 1, U[bad:bad + 1])
    assert abs(Z[0, 1] - G[0, 0]) < COLLISION_EPS
    for kind in (ANGLE, LOG):
        vals, rejected = integrand_batch(G31, kind, U)
        assert rejected == 1
        assert vals[bad] == 0
        _assert_rows_match_scalar(G31, kind, U, vals, [bad - 1, bad + 1])


def test_cached_weight_consistent_under_relabelling():
    clear_weight_cache()
    g = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a3>g1")
    relabeled = parse_graph("3 1 ; a2>a1 a2>a3 a1>a3 a1>g1 a3>g1")
    a = cached_weight(g, ANGLE, 10 ** 4, 5)
    b = cached_weight(relabeled, ANGLE, 10 ** 4, 5)
    full_a = compute_weight(g, ANGLE, 10 ** 4, 5)
    full_b = compute_weight(relabeled, ANGLE, 10 ** 4, 5)
    # the cache may only differ from the direct estimate by QMC noise of the
    # canonical representative; signs must agree with the direct estimates
    assert abs(a.value - full_a.value) <= 4 * (a.stderr + full_a.stderr) + 1e-4
    assert abs(b.value - full_b.value) <= 4 * (b.stderr + full_b.stderr) + 1e-4


def test_edge_swap_flips_cached_weight():
    g = parse_graph("2 1 ; a1>a2 a2>g1 a1>g1")
    h = parse_graph("2 1 ; a2>g1 a1>a2 a1>g1")
    a = cached_weight(g, ANGLE, 10 ** 4, 5)
    b = cached_weight(h, ANGLE, 10 ** 4, 5)
    assert a.value == -b.value


def test_pattern_detection():
    assert detect_vanishing_pattern(parse_graph("2 1 ; a1>a2 a2>a1 a1>g1")) == ONE_IN_ONE_OUT
    assert detect_vanishing_pattern(parse_graph("2 2 ; a1>a2 a1>g1 a1>g2")) == UNIVALENT
    g_noout = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a1>g1")
    assert detect_vanishing_pattern(g_noout) == NO_OUTGOING
    wheel = parse_graph("3 0 ; a1>a2 a2>a1 a1>a3 a2>a3")
    assert detect_vanishing_pattern(wheel) == WHEEL
    assert detect_vanishing_pattern(WEDGE) is None
    # single aerial vertex: the degree argument needs a second interior point
    assert detect_vanishing_pattern(parse_graph("1 1 ; a1>g1")) is None


def test_vanishing_check_examples():
    ok, est, pattern = vanishing_check(
        parse_graph("2 1 ; a1>a2 a2>a1 a1>g1"), LOG, 10 ** 5, 3)
    assert ok and pattern == ONE_IN_ONE_OUT

    ok, est, pattern = vanishing_check(
        parse_graph("2 2 ; a1>a2 a1>g1 a1>g2"), LOG, 10 ** 5, 3)
    assert ok and pattern == UNIVALENT

    ok, est, pattern = vanishing_check(
        parse_graph("2 2 ; a1>a2 a1>g1 a1>g2"), ANGLE, 10 ** 5, 3)
    assert ok  # degree-based vanishing holds for the angle propagator too

    with pytest.raises(ValueError, match="pattern"):
        vanishing_check(WEDGE, LOG, 10 ** 4, 3)


def test_qmc_mean_constant():
    val, err, ns = qmc_mean(lambda U: np.full(len(U), 2.5), 3, 10 ** 4, 1)
    assert val == pytest.approx(2.5, abs=1e-12)
    assert err < 1e-12
    assert ns >= 10 ** 4


def test_qmc_mean_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        qmc_mean(lambda U: np.ones(len(U)), 2, 100, -1)


def test_weight_json_shape():
    est = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=5)
    d = est.to_json_dict()
    assert set(d) == {"graph", "kind", "samples", "seed", "value", "stderr",
                      "rejected"}
    assert d["rejected"] == est.rejected
    assert d["value"] == [est.value.real, est.value.imag]
