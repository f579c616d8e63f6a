import cmath
import itertools
import math

import numpy as np
import pytest

from kwl.forms import (ANGLE, LOG, cluster_frames, contracted_integrand, edge_function,
                       frame_integrand, integrand, pairing_matrices, pairing_plan,
                       pairing_scale, plan_det, shape_tangent_basis)
from kwl.graphs import (TYPE_I, canonical_graph, canonical_key, collapse_layout,
                        contract, edge_sort_parity, enumerate_graphs, make_graph,
                        parse_graph)
from kwl.halfplane import (degenerating_family, gauge_dim, gauge_frame,
                           make_configuration, sample_configuration)

from fd_pairing import fd_integrand, fd_pairing, slice_points_and_frame

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


def covector(kind, cfg, edge):
    """One-edge pairing with the slice frame, normalized like the potential."""
    points, frame = slice_points_and_frame(cfg)
    return pairing_matrices([edge], points, frame, kind)[0, 0] * pairing_scale(kind, 1)


def fd_covector(kind, cfg, edge):
    points, frame = slice_points_and_frame(cfg)
    return fd_pairing(kind, points, [edge], frame)[0]


def test_wedge_covector_hand_value():
    cfg = make_configuration([1j], [0.0, 1.0])
    got = covector(ANGLE, cfg, (0, 1))
    assert np.allclose(got, [-1.0 / math.pi, 0.0], atol=1e-12)
    got2 = covector(ANGLE, cfg, (0, 2))
    assert np.allclose(got2, [-1 / (2 * math.pi), -1 / (2 * math.pi)], atol=1e-12)
    for edge in ((0, 1), (0, 2)):
        assert np.allclose(covector(ANGLE, cfg, edge), fd_covector(ANGLE, cfg, edge),
                           atol=1e-9)


def test_covector_matches_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    for n, m in [(1, 2), (2, 1), (2, 2), (2, 0)]:
        for _ in range(25):
            u = rng.uniform(0.15, 0.85, gauge_dim(n, m))
            cfg, _ = sample_configuration(n, m, u)
            pool = [(s, t) for s in range(n) for t in range(n + m) if t != s]
            edge = pool[int(rng.integers(len(pool)))]
            exact = covector(ANGLE, cfg, edge)
            approx = fd_covector(ANGLE, cfg, edge)
            assert exact.dtype == float
            scale = max(1.0, np.abs(exact).max())
            assert np.allclose(exact, approx, atol=2e-8 * scale), (n, m, edge)
            checked += 1
    assert checked == 100


def test_log_covector_fd_components():
    # both components of the log pairing: the real part is the angle, the
    # imaginary part the log-modulus of the edge ratio
    rng = np.random.default_rng(5)
    for n, m in [(2, 1), (3, 0), (2, 2)]:
        for _ in range(10):
            cfg, _ = sample_configuration(n, m, rng.uniform(0.2, 0.8, gauge_dim(n, m)))
            for edge in [(0, 1), (1, 0), (1, n + m - 1)]:
                exact = covector(LOG, cfg, edge)
                approx = fd_covector(LOG, cfg, edge)
                assert exact.dtype == complex
                assert np.allclose(exact, approx, atol=4e-8 * max(1.0, np.abs(exact).max()))


def test_log_covector_equals_angle_for_real_target():
    rng = np.random.default_rng(1)
    cfg, _ = sample_configuration(1, 2, rng.uniform(0.2, 0.8, 2))
    a = covector(ANGLE, cfg, (0, 1))
    l = covector(LOG, cfg, (0, 1))
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
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                assert abs(sum((a * b.conjugate()).real for a, b in zip(u, v))
                           - (i == j)) < 1e-12


def probe_family(n, m, seed):
    rng = np.random.default_rng(seed)
    outer, _ = sample_configuration(n, m, rng.uniform(0.25, 0.75, gauge_dim(n, m)))
    return outer


def test_contracted_integrand_converges_log():
    g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    outer = probe_family(1, 1, 7)
    s = cmath.exp(0.4j) / math.sqrt(2)
    vals = []
    pair = collapse_layout(2, 1, [0, 1], TYPE_I)
    for r in (1e-2, 1e-3, 1e-4):
        cfg = degenerating_family(outer, pair, (s, -s), r)
        vals.append(contracted_integrand(g, LOG, cfg, pair))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1 * 0.5


def test_contracted_integrand_bounded_angle():
    g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    outer = probe_family(1, 1, 7)
    s = cmath.exp(0.4j) / math.sqrt(2)
    pair = collapse_layout(2, 1, [0, 1], TYPE_I)
    vals = [abs(contracted_integrand(g, ANGLE, degenerating_family(outer, pair, (s, -s), r), pair))
            for r in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert max(vals) < 10 * max(vals[0], 1e-6)


def test_restricted_contraction_hits_outer_integrand():
    # one degree below top, a single-edge pair collapse factorizes through
    # 1/(2 pi) times the contracted graph's integrand
    g = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
    outer = probe_family(1, 2, 9)
    pair = collapse_layout(2, 2, {0, 1}, TYPE_I)
    con = contract(g, pair)
    s = cmath.exp(1.1j) / math.sqrt(2)
    cfg = degenerating_family(outer, pair, (s, -s), 1e-5)
    got = contracted_integrand(g, LOG, cfg, pair)
    want = integrand(con.outer, LOG, outer) / (2 * math.pi)
    assert abs(got - want) < 1e-4 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# determinants by the column-subset recursion


def _top_classes():
    """One graph per canonical top-degree class on at most four vertices."""
    keys = {}
    for n in range(1, 5):
        for m in range(0, 5 - n):
            d = gauge_dim(n, m)
            if 0 < d <= n * (n + m - 1):
                for g in enumerate_graphs(n, m, d):
                    keys.setdefault(canonical_key(g)[0], None)
    return [canonical_graph(key) for key in keys]


TOP_CLASSES = _top_classes()
#: the five-vertex classes with the most bijections (80) and the most links (103)
HEAVY_CLASSES = [parse_graph("5 0 ; a1>a2 a1>a3 a2>a3 a2>a4 a3>a4 a3>a5 a4>a5 a5>a4"),
                 parse_graph("4 1 ; a1>a2 a1>a3 a1>a4 a2>a3 a2>a4 a3>a2 a4>a3")]


def _plan(g):
    return pairing_plan(g.edges, gauge_frame(g.n, g.m, 1.0))


def _support(g):
    frame = gauge_frame(g.n, g.m, 1.0)
    return np.array([[s in col or t in col for col in frame] for s, t in g.edges])


def _plan_paths(plan):
    """Every path through the plan, as (negated, column of each edge)."""
    paths = {0: [(False, ())]} if plan else {}
    for links in plan:
        level = {}
        for target, source, c, negative in links:
            level.setdefault(target, []).extend(
                (neg != negative, cols + (c,)) for neg, cols in paths[source])
        paths = level
    return [path for tails in paths.values() for path in tails]


def test_top_classes_on_four_vertices():
    sizes = {}
    for g in TOP_CLASSES:
        sizes[g.n, g.m] = sizes.get((g.n, g.m), 0) + 1
    assert (sizes[4, 0], sizes[3, 1], sizes[2, 2]) == (48, 24, 9)


def test_plan_paths_are_the_signed_support_bijections():
    for g in TOP_CLASSES + HEAVY_CLASSES:
        support = _support(g)
        d = len(support)
        want = [(edge_sort_parity(cols) < 0, cols)
                for cols in itertools.permutations(range(d))
                if all(support[e, c] for e, c in enumerate(cols))]
        assert sorted(_plan_paths(_plan(g)), key=lambda p: p[1]) == want, g
    counts = [(len(_plan_paths(_plan(g))), sum(map(len, _plan(g)))) for g in HEAVY_CLASSES]
    assert counts == [(80, 50), (64, 103)]


def _random_frame(g, rng, rows):
    """The slice frame's sparsity with random complex velocities per row,
    so every term of the determinant is generic."""
    return [{v: rng.normal(size=rows) + 1j * rng.normal(size=rows) for v in col}
            for col in gauge_frame(g.n, g.m, 1.0)]


def test_plan_matches_dense_det_on_each_class_pattern():
    # a flipped link sign or a dropped link moves a generic sum
    rng = np.random.default_rng(20)
    rows = 16
    for g in TOP_CLASSES + HEAVY_CLASSES:
        plan = _plan(g)
        points = [rng.normal(size=rows) + 1j * rng.uniform(0.1, 2.0, rows)
                  for _ in range(g.n + g.m)]
        frame = _random_frame(g, rng, rows)
        for kind in (ANGLE, LOG):
            M = pairing_matrices(g.edges, points, frame, kind)
            scale = np.prod(np.abs(M).max(axis=2), axis=1)
            got = plan_det(plan, g.edges, points, frame, kind)
            assert got.dtype == M.dtype and got.shape == (rows,)
            assert np.all(np.abs(got - np.linalg.det(M)) <= 1e-13 * scale), (g, kind)


def test_plan_matches_the_finite_difference_oracle():
    rng = np.random.default_rng(21)
    for g in TOP_CLASSES:
        plan = _plan(g)
        for _ in range(2):
            cfg, _ = sample_configuration(g.n, g.m, rng.uniform(0.1, 0.9, len(g.edges)))
            points, frame = slice_points_and_frame(cfg)
            points = [np.array([z]) for z in points]
            for kind in (ANGLE, LOG):
                got = plan_det(plan, g.edges, points, frame, kind)[0]
                got *= pairing_scale(kind, len(g.edges))
                want, bound = fd_integrand(g, kind, cfg)
                assert abs(got - want) < 1e-8 * bound, (g, kind)


def test_empty_plan_gives_zeros_of_the_kind_dtype():
    # no edge moves a4, so its two columns stay unmatched
    g = parse_graph("4 0 ; a1>a2 a1>a3 a2>a1 a2>a3 a3>a1 a3>a2")
    frame = gauge_frame(4, 0, 1.0)
    assert pairing_plan(g.edges, frame) == ()
    points = [np.full(3, 1j * (v + 1)) for v in range(4)]
    for kind, dtype in ((ANGLE, float), (LOG, complex)):
        got = plan_det((), g.edges, points, frame, kind)
        assert got.dtype == dtype and got.shape == (3,) and not got.any()
    with pytest.raises(ValueError, match="frame columns"):
        pairing_plan(g.edges[:5], frame)


def test_no_edges_on_no_columns_is_a_determinant_of_one():
    assert pairing_plan((), []) == ()
    points = [np.zeros(3), np.ones(3)]
    for kind, dtype in ((ANGLE, float), (LOG, complex)):
        got = frame_integrand((), points, [], kind)
        assert got.dtype == dtype and got.shape == (3,) and np.all(got == 1)
        assert frame_integrand((), [0.0, 1.0], [], kind) == 1
    cfg = make_configuration([], [0.0, 1.0])
    assert integrand(parse_graph("0 2 ;"), ANGLE, cfg) == 1


def _dense_agrees(edges, points, frame, kind, got):
    """``got`` is the determinant of the (one-configuration) pairing matrix
    within 1e-13 of the product of its row maxima."""
    M = pairing_matrices(edges, points, frame, kind)[0]
    scale = np.prod(np.abs(M).max(axis=1))
    return abs(got - np.linalg.det(M)) <= 1e-13 * scale


def test_scalar_points_match_one_row_arrays_and_the_dense_det():
    # scalar sums must accumulate into their level like row arrays do
    rng = np.random.default_rng(23)
    for g in TOP_CLASSES + HEAVY_CLASSES:
        cfg, _ = sample_configuration(g.n, g.m, rng.uniform(0.1, 0.9, len(g.edges)))
        points, frame = slice_points_and_frame(cfg)
        rows = [np.array([z]) for z in points]
        for kind in (ANGLE, LOG):
            scalar = plan_det(_plan(g), g.edges, points, frame, kind)
            row = plan_det(_plan(g), g.edges, rows, frame, kind)
            assert np.shape(scalar) == () and row.shape == (1,)
            assert _dense_agrees(g.edges, points, frame, kind, scalar), (g, kind)
            assert _dense_agrees(g.edges, points, frame, kind, row[0]), (g, kind)


def _cluster_cases():
    """(graph, configuration, layout) for every top class on at most four
    vertices and every type I layout, the cluster at scale 1e-3."""
    rng = np.random.default_rng(22)
    for g in TOP_CLASSES:
        for size in range(2, g.n + 1):
            for B in itertools.combinations(range(g.n), size):
                layout = collapse_layout(g.n, g.m, B, TYPE_I)
                outer = probe_family(layout.outer_n, layout.outer_m, int(rng.integers(1 << 31)))
                raw = rng.normal(size=size) + 1j * rng.normal(size=size)
                raw -= raw.mean()
                shape = tuple(raw / np.linalg.norm(raw))
                yield g, degenerating_family(outer, layout, shape, 1e-3), layout


def test_plan_matches_dense_det_on_cluster_frames():
    # cluster columns move several points at once; one degree below the
    # top the radial column goes, as in contracted_integrand
    cases = 0
    for g, cfg, layout in _cluster_cases():
        points = [cfg.point(v) for v in range(cfg.n + cfg.m)]
        columns = cluster_frames(cfg, layout)
        for edges, frame in ((g.edges, columns), (g.edges[:-1], columns[:1] + columns[2:])):
            for kind in (ANGLE, LOG):
                got = plan_det(pairing_plan(edges, frame), edges, points, frame, kind)
                assert _dense_agrees(edges, points, frame, kind, got), (g, layout.subset, kind)
                cases += 1
    assert cases == 4 * 652
