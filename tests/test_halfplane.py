import cmath
import math

import numpy as np
import pytest

from kwl.graphs import TYPE_I, TYPE_II
from kwl.halfplane import (Configuration, NestedFamily, center_of_mass,
                           chart_membership, cluster_coordinates,
                           config_from_coords, coords_of_config,
                           degenerating_family, gauge_dim, gauge_frame,
                           gcd_families, make_configuration, regauge,
                           sample_configuration, slice_map, torus_rotate)


def test_sample_zero_dimensional():
    cfg, jac = sample_configuration(0, 2, [])
    assert cfg.ground == (0.0, 1.0)
    assert jac == 1.0


def test_sample_one_aerial_two_ground():
    cfg, jac = sample_configuration(1, 2, [0.3, 0.4])
    assert cfg.ground == (0.0, 1.0)
    assert cfg.aerial[0].imag > 0
    assert 0 < jac < float("inf")


def test_sample_dimension_mismatch():
    with pytest.raises(ValueError, match="hypercube"):
        sample_configuration(1, 2, [0.3])


def test_sample_covers_gauges():
    rng = np.random.default_rng(0)
    for n, m in [(1, 1), (2, 1), (2, 0), (0, 3), (1, 3), (3, 0)]:
        d = gauge_dim(n, m)
        cfg, jac = sample_configuration(n, m, rng.uniform(0.1, 0.9, d))
        assert cfg.n == n and cfg.m == m and jac > 0
        # pinned points exactly in gauge
        if m >= 2:
            assert cfg.ground[:2] == (0.0, 1.0)
        elif m == 1:
            assert cfg.ground == (0.0,)
            assert abs(abs(cfg.aerial[0]) - 1.0) < 1e-12
        else:
            assert cfg.aerial[0] == 1j


def test_slice_map_jacobian_matches_finite_differences():
    # the Jacobian is checked against the map it claims to measure:
    # |det d coords / d u| by central differences, one gauge case at a time
    rng = np.random.default_rng(8)
    h = 1e-6
    for n, m in [(1, 1), (2, 1), (2, 0), (0, 3), (1, 3), (3, 0), (2, 2)]:
        d = gauge_dim(n, m)
        for _ in range(5):
            u = rng.uniform(0.2, 0.8, d)
            _, jac = sample_configuration(n, m, u)
            J = np.empty((d, d))
            for k in range(d):
                step = np.zeros(d)
                step[k] = h
                hi = coords_of_config(sample_configuration(n, m, u + step)[0])
                lo = coords_of_config(sample_configuration(n, m, u - step)[0])
                J[:, k] = (hi - lo) / (2 * h)
            assert abs(abs(np.linalg.det(J)) - jac) < 1e-6 * jac, (n, m, u)


def test_infinite_area_probe_running_mean_grows():
    # integrating the bare Jacobian diverges: the sampler must only be used
    # under an integrable integrand
    rng = np.random.default_rng(123)
    totals = []
    block = 10_000
    for k in range(3):
        u = rng.uniform(1e-9, 1 - 1e-9, size=(block * 10 ** k, 2))
        _, _, jac = slice_map(1, 2, u)
        totals.append(jac.mean())
    assert totals[0] < totals[1] < totals[2]


def test_center_of_mass():
    assert center_of_mass([1j, 2j]) == 1.5j
    assert center_of_mass([0, 1]) == 0.5
    rng = np.random.default_rng(5)
    for _ in range(100):
        pts = rng.normal(size=4) + 1j * rng.uniform(0.5, 2, size=4)
        rot = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        lhs = center_of_mass([rot * p for p in pts])
        assert abs(lhs - rot * center_of_mass(list(pts))) < 1e-12


def test_coords_round_trip():
    rng = np.random.default_rng(2)
    for n, m in [(2, 2), (2, 1), (3, 0), (1, 3)]:
        cfg, _ = sample_configuration(n, m, rng.uniform(0.15, 0.85, gauge_dim(n, m)))
        q = coords_of_config(cfg)
        back = config_from_coords(n, m, q)
        assert max(abs(a - b) for a, b in zip(cfg.aerial, back.aerial)) < 1e-12 if n else True
        assert all(abs(a - b) < 1e-12 for a, b in zip(cfg.ground, back.ground))


def test_regauge_restores_pins():
    cfg = regauge([2 + 2j, 5 + 1j], [1.0, 3.0])
    assert cfg.ground == (0.0, 1.0)
    cfg1 = regauge([2 + 2j], [1.0])
    assert cfg1.ground == (0.0,)
    assert abs(abs(cfg1.aerial[0]) - 1) < 1e-12
    cfg0 = regauge([2 + 2j, 4 + 1j], [])
    assert cfg0.aerial[0] == 1j


def test_frame_matches_dimension():
    rng = np.random.default_rng(1)
    for n, m in [(1, 2), (2, 1), (2, 0), (1, 1), (0, 4)]:
        cfg, _ = sample_configuration(n, m, rng.uniform(0.2, 0.8, gauge_dim(n, m)))
        assert len(gauge_frame(cfg)) == gauge_dim(n, m)


# ---------------------------------------------------------------------------
# nested families


def three_point_family():
    return NestedFamily(3, 0, [(frozenset({0, 1}), TYPE_I)])


def test_top_family_always_member():
    fam = NestedFamily.top(2, 1)
    rng = np.random.default_rng(0)
    cfg, _ = sample_configuration(2, 1, rng.uniform(0.2, 0.8, 3))
    assert chart_membership(cfg, fam, 0.01)


def test_chart_membership_cluster_example():
    fam = three_point_family()
    eps = 1e-3
    cfg = make_configuration([1j, 1j + eps, 1j + 1.0], [])
    assert chart_membership(cfg, fam, 0.1)
    far = make_configuration([1j, 1j + 0.5, 1j + 1.0], [])
    assert not chart_membership(far, fam, 0.1)


def test_chart_membership_monotone_in_c():
    fam = three_point_family()
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(400):
        r = 10.0 ** rng.uniform(-4, -0.5)
        phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        base = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        third = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        if abs(third - base) < 0.3:
            continue
        cfg = make_configuration([base + r * phase, base - r * phase, third], [])
        if chart_membership(cfg, fam, 0.01):
            hits += 1
            assert chart_membership(cfg, fam, 0.1)
    assert hits > 10


def test_membership_sees_mirror_of_interior_cluster():
    # a cluster close to the real line fails the chart inequality against its
    # own mirror even with no other point nearby
    fam = NestedFamily(2, 0, [(frozenset({0, 1}), TYPE_I)])
    low = make_configuration([0.05j + 0.01, 0.05j - 0.01], [])
    assert not chart_membership(low, fam, 0.05)
    high = make_configuration([1j + 0.01, 1j - 0.01], [])
    assert chart_membership(high, fam, 0.05)


def test_gcd_union_when_nested():
    i = NestedFamily(4, 0, [(frozenset({0, 1}), TYPE_I)])
    j = NestedFamily(4, 0, [(frozenset({2, 3}), TYPE_I)])
    k = gcd_families(i, j)
    assert k is not None
    assert set(k.internal) == set(i.internal) | set(j.internal)


def test_gcd_absent_when_crossing():
    i = NestedFamily(4, 0, [(frozenset({0, 1}), TYPE_I)])
    j = NestedFamily(4, 0, [(frozenset({1, 2}), TYPE_I)])
    assert gcd_families(i, j) is None


def test_gcd_with_top_is_identity():
    i = NestedFamily(4, 0, [(frozenset({0, 1}), TYPE_I)])
    top = NestedFamily.top(4, 0)
    k = gcd_families(i, top)
    assert k is not None and set(k.internal) == set(i.internal)


def test_family_validation():
    with pytest.raises(ValueError, match="nested"):
        NestedFamily(3, 0, [(frozenset({0, 1}), TYPE_I), (frozenset({1, 2}), TYPE_I)])
    with pytest.raises(ValueError, match="purely aerial"):
        NestedFamily(1, 2, [(frozenset({0, 1}), TYPE_I)])
    with pytest.raises(ValueError, match="gap-free"):
        NestedFamily(0, 3, [(frozenset({0, 2}), TYPE_II)])


def test_type_ii_membership_with_ground_run():
    fam = NestedFamily(1, 2, [(frozenset({0, 1}), TYPE_II)])
    near = make_configuration([0.01j + 0.002], [0.0, 1.0])
    far = make_configuration([0.5j + 0.3], [0.0, 1.0])
    assert chart_membership(near, fam, 0.05)
    assert not chart_membership(far, fam, 0.05)


# ---------------------------------------------------------------------------
# torus action


def test_rotation_full_turn_identity():
    cfg = make_configuration([1j, 1 + 1j, 2 + 2j], [])
    out = torus_rotate(cfg, [0, 1], 2 * math.pi)
    assert max(abs(a - b) for a, b in zip(out.aerial, cfg.aerial)) < 1e-12


def test_rotation_preserves_center():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(1.0, 2.0)) for _ in range(3)]
        cfg = make_configuration(pts, [])
        theta = rng.uniform(0, 2 * math.pi)
        out = torus_rotate(cfg, [0, 2], theta)
        before = center_of_mass([pts[0], pts[2]])
        after = center_of_mass([out.aerial[0], out.aerial[2]])
        assert abs(before - after) < 1e-12


def test_rotation_commutes_nested():
    rng = np.random.default_rng(10)
    for _ in range(50):
        base = complex(rng.uniform(-1, 1), rng.uniform(1.5, 2.5))
        pts = [base + 0.02 * cmath.exp(1j * rng.uniform(0, 7)),
               base + 0.02 * cmath.exp(1j * rng.uniform(0, 7)),
               base + 0.25 * cmath.exp(1j * rng.uniform(0, 7))]
        cfg = make_configuration(pts, [])
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        one = torus_rotate(torus_rotate(cfg, [0, 1], t1), [0, 1, 2], t2)
        two = torus_rotate(torus_rotate(cfg, [0, 1, 2], t2), [0, 1], t1)
        assert max(abs(a - b) for a, b in zip(one.aerial, two.aerial)) < 1e-12


def test_rotation_disjoint_exactly_commutes():
    cfg = make_configuration([1j, 0.1 + 1j, 5 + 1j, 5.1 + 1j], [])
    one = torus_rotate(torus_rotate(cfg, [0, 1], 0.7), [2, 3], 1.3)
    two = torus_rotate(torus_rotate(cfg, [2, 3], 1.3), [0, 1], 0.7)
    assert one.aerial == two.aerial


def test_rotation_rejects_exit():
    cfg = make_configuration([0.05j, 0.3 + 0.05j], [])
    with pytest.raises(ValueError, match="configuration space"):
        torus_rotate(cfg, [0, 1], math.pi / 2)


# ---------------------------------------------------------------------------
# degenerating families


def test_degenerating_family_round_trip():
    outer = make_configuration([1j, 1 + 2j], [])
    shape = (cmath.exp(0.3j) / math.sqrt(2), -cmath.exp(0.3j) / math.sqrt(2))
    r = 1e-3
    cfg = degenerating_family(outer, shape, 0, r)
    assert cfg.n == 3
    zeta, rr, ss = cluster_coordinates(cfg, [0, 1])
    assert abs(zeta - outer.aerial[0]) < 1e-12
    assert abs(rr - r) < 1e-10
    assert max(abs(a - b) for a, b in zip(ss, shape)) < 1e-9


def test_degenerating_family_rejects_zero_scale():
    outer = make_configuration([1j], [0.0, 1.0])
    shape = (1 / math.sqrt(2), -1 / math.sqrt(2))
    with pytest.raises(ValueError, match="positive"):
        degenerating_family(outer, shape, 0, 0.0)


def test_two_point_cluster_positions():
    outer = make_configuration([2j], [0.0, 1.0])
    phi = 0.77
    s = cmath.exp(1j * phi) / math.sqrt(2)
    cfg = degenerating_family(outer, (s, -s), 0, 0.01)
    assert abs(cfg.aerial[0] - (2j + 0.01 * s)) < 1e-15
    assert abs(cfg.aerial[1] - (2j - 0.01 * s)) < 1e-15


def test_shape_normalization_enforced():
    outer = make_configuration([2j], [0.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        degenerating_family(outer, (1.0, -0.5), 0, 0.01)


def test_configuration_json_round_trip():
    cfg = make_configuration([0.25 + 1.5j], [0.0, 1.0, 2.5])
    back = Configuration.from_json(cfg.to_json())
    assert back == cfg


def test_make_configuration_validation():
    with pytest.raises(ValueError, match="upper half-plane"):
        make_configuration([1 - 1j], [])
    with pytest.raises(ValueError, match="increasing"):
        make_configuration([], [1.0, 0.0])
    with pytest.raises(ValueError, match="coincide"):
        make_configuration([1j, 1j], [])
