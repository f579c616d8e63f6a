import cmath
import math

import numpy as np
import pytest

from kwl.forms import (ANGLE, LOG, contracted_integrand, edge_covector,
                       edge_function, integrand,
                       restricted_contracted_integrand, shape_tangent_basis)
from kwl.graphs import contract, make_graph, parse_graph
from kwl.halfplane import (degenerating_family, gauge_dim, gauge_frame,
                           make_configuration, sample_configuration)

WEDGE = make_graph(1, 2, [(0, 1), (0, 2)])


def test_edge_function_angle_real_target():
    assert abs(edge_function(ANGLE, 1j, 0.0) - 0.5) < 1e-15


def test_edge_function_log_imaginary_pair():
    got = edge_function(LOG, 1j, 2j)
    assert abs(got - 1j * math.log(3.0) / (2 * math.pi)) < 1e-12


def test_edge_function_log_equals_angle_on_real_target():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        w = rng.uniform(-2, 2)
        assert abs(edge_function(LOG, z, w) - edge_function(ANGLE, z, w)) < 1e-12


def test_edge_function_rejects_coincident():
    with pytest.raises(ValueError, match="coincident"):
        edge_function(ANGLE, 1j, 1j)


def test_wedge_covector_hand_value():
    cfg = make_configuration([1j], [0.0, 1.0])
    got = edge_covector(ANGLE, cfg, (0, 1))
    assert np.allclose(got, [-1.0 / math.pi, 0.0], atol=1e-12)
    got2 = edge_covector(ANGLE, cfg, (0, 2))
    assert np.allclose(got2, [-1 / (2 * math.pi), -1 / (2 * math.pi)], atol=1e-12)


def fd_covector(cfg, edge, h=1e-6):
    """Finite-difference oracle for the angle covector, branch-unwrapped."""
    n = cfg.n
    out = []
    s, t = edge
    for p, vel in gauge_frame(cfg):
        def shifted(sign):
            aerial = list(cfg.aerial)
            ground = list(cfg.ground)
            if p < n:
                aerial[p] += sign * h * vel
            else:
                ground[p - n] += sign * h * vel.real
            return make_configuration(aerial, ground)
        fp = edge_function(ANGLE, shifted(+1).point(s), shifted(+1).point(t))
        fm = edge_function(ANGLE, shifted(-1).point(s), shifted(-1).point(t))
        diff = (fp.real - fm.real + 0.5) % 1.0 - 0.5
        out.append(diff / (2 * h))
    return np.array(out)


def test_covector_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for n, m in [(1, 2), (2, 1), (2, 2), (2, 0)]:
        for _ in range(25):
            u = rng.uniform(0.15, 0.85, gauge_dim(n, m))
            cfg, _ = sample_configuration(n, m, u)
            pool = [(s, t) for s in range(n) for t in range(n + m) if t != s]
            edge = pool[int(rng.integers(len(pool)))]
            exact = edge_covector(ANGLE, cfg, edge)
            approx = fd_covector(cfg, edge)
            scale = max(1.0, np.abs(exact).max())
            assert np.allclose(exact, approx, atol=2e-6 * scale), (n, m, edge)
            checked += 1
    assert checked == 100


def test_log_covector_fd_components():
    # check both components of the log pairing by finite differences of the
    # potential's real and imaginary parts
    rng = np.random.default_rng(5)
    for _ in range(30):
        cfg, _ = sample_configuration(2, 1, rng.uniform(0.2, 0.8, 3))
        edge = (0, 1)
        exact = edge_covector(LOG, cfg, edge)
        h = 1e-6
        for k, (p, vel) in enumerate(gauge_frame(cfg)):
            aerial_p = list(cfg.aerial); aerial_m = list(cfg.aerial)
            ground = list(cfg.ground)
            aerial_p[p] += h * vel
            aerial_m[p] -= h * vel
            cp = make_configuration(aerial_p, ground)
            cm = make_configuration(aerial_m, ground)
            def val(c):
                return edge_function(LOG, c.point(edge[0]), c.point(edge[1]))
            vp, vm = val(cp), val(cm)
            dim = (vp.imag - vm.imag) / (2 * h)
            dre = ((vp.real - vm.real + 0.5) % 1.0 - 0.5) / (2 * h)
            assert abs(complex(dre, dim) - exact[k]) < 4e-6 * max(1.0, abs(exact[k]))


def test_log_covector_equals_angle_for_real_target():
    rng = np.random.default_rng(1)
    cfg, _ = sample_configuration(1, 2, rng.uniform(0.2, 0.8, 2))
    a = edge_covector(ANGLE, cfg, (0, 1))
    l = edge_covector(LOG, cfg, (0, 1))
    assert np.allclose(a, l.real, atol=1e-14)
    assert np.allclose(l.imag, 0, atol=1e-14)


def test_integrand_empty_graph():
    cfg = make_configuration([], [0.0, 1.0])
    assert integrand(make_graph(0, 2, []), ANGLE, cfg) == 1.0


def test_integrand_wedge_hand_value():
    cfg = make_configuration([1j], [0.0, 1.0])
    want = 1.0 / (2 * math.pi ** 2)
    assert abs(integrand(WEDGE, ANGLE, cfg) - want) < 1e-12
    assert abs(integrand(WEDGE, LOG, cfg) - want) < 1e-12


def test_integrand_antisymmetric_under_edge_swap():
    rng = np.random.default_rng(2)
    g = make_graph(2, 1, [(0, 1), (0, 2), (1, 2)])
    h = make_graph(2, 1, [(0, 2), (0, 1), (1, 2)])
    for _ in range(10):
        cfg, _ = sample_configuration(2, 1, rng.uniform(0.2, 0.8, 3))
        assert abs(integrand(g, LOG, cfg) + integrand(h, LOG, cfg)) < 1e-12


def test_integrand_log_equals_angle_all_ground_targets():
    rng = np.random.default_rng(3)
    g = make_graph(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    for _ in range(10):
        cfg, _ = sample_configuration(2, 2, rng.uniform(0.2, 0.8, 4))
        la = integrand(g, ANGLE, cfg)
        ll = integrand(g, LOG, cfg)
        assert abs(la - ll) < 1e-12


def test_integrand_requires_top_degree():
    cfg = make_configuration([1j], [0.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        integrand(make_graph(1, 2, [(0, 1)]), ANGLE, cfg)


def test_shape_tangent_basis_properties():
    rng = np.random.default_rng(8)
    for k in (3, 4, 5):
        raw = rng.normal(size=k) + 1j * rng.normal(size=k)
        raw -= raw.mean()
        shape = tuple(raw / math.sqrt(float(np.sum(np.abs(raw) ** 2))))
        basis = shape_tangent_basis(shape)
        assert len(basis) == 2 * k - 4
        for u in basis:
            assert abs(sum(u)) < 1e-9
            assert abs(sum((a * b.conjugate()).real for a, b in zip(u, shape))) < 1e-9
            rot = [1j * s for s in shape]
            assert abs(sum((a * b.conjugate()).real for a, b in zip(u, rot))) < 1e-9


def probe_family(n, m, seed):
    rng = np.random.default_rng(seed)
    outer, _ = sample_configuration(n, m, rng.uniform(0.25, 0.75, gauge_dim(n, m)))
    return outer


def test_contracted_integrand_converges_log():
    g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    outer = probe_family(1, 1, 7)
    s = cmath.exp(0.4j) / math.sqrt(2)
    vals = []
    for r in (1e-2, 1e-3, 1e-4):
        cfg = degenerating_family(outer, (s, -s), 0, r)
        vals.append(contracted_integrand(g, LOG, cfg, [0, 1]))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1 * 0.5


def test_contracted_integrand_bounded_angle():
    g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    outer = probe_family(1, 1, 7)
    s = cmath.exp(0.4j) / math.sqrt(2)
    vals = [abs(contracted_integrand(g, ANGLE, degenerating_family(outer, (s, -s), 0, r), [0, 1]))
            for r in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert max(vals) < 10 * max(vals[0], 1e-6)


def test_restricted_contraction_hits_outer_integrand():
    # one degree below top, a single-edge pair collapse factorizes through
    # 1/(2 pi) times the contracted graph's integrand
    g = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
    outer = probe_family(1, 2, 9)
    con = contract(g, {0, 1}, "I")
    s = cmath.exp(1.1j) / math.sqrt(2)
    cfg = degenerating_family(outer, (s, -s), 0, 1e-5)
    got = restricted_contracted_integrand(g, LOG, cfg, [0, 1])
    want = integrand(con.outer, LOG, outer) / (2 * math.pi)
    assert abs(got - want) < 1e-4 * max(1.0, abs(want))
