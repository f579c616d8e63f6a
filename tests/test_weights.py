import itertools
import json
import math
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import qmc as scipy_qmc

from kwl import forms, halfplane, operators, qmc, suite, weights
from kwl.forms import ANGLE, LOG, frame_plan
from kwl.graphs import (TYPE_I, canonical_graph, canonical_key, collapse_layout,
                        encode_graph, enumerate_graphs, make_graph, parse_graph)
from kwl.halfplane import gauge_dim, gauge_frame
from kwl.stokes import verify_identity
from kwl.weights import (BATCHES, CHUNK_ROWS, COLLISION_EPS, MIN_EXPANDED_DIM,
                         NO_OUTGOING, ONE_IN_ONE_OUT, UNIVALENT, VANISHING_TOL,
                         WeightEstimate, cached_weight, clear_weight_cache,
                         compute_weight, detect_vanishing_pattern,
                         integrand_batch, qmc_mean, vanishing_check)

from fd_pairing import fd_integrand
from slice_coords import sample_configuration

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
    # 2^18 samples are 16,384-row batches, more than one kernel chunk each
    for kind in (ANGLE, LOG):
        a = compute_weight(G31, kind, 1 << 18, seed=9, threads=1)
        b = compute_weight(G31, kind, 1 << 18, seed=9, threads=2)
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


def test_thread_count_below_one_rejected(monkeypatch):
    for threads in (0, -3):
        with pytest.raises(ValueError, match="thread count"):
            compute_weight(WEDGE, ANGLE, 10, 1, threads=threads)
    monkeypatch.setenv("KWL_THREADS", "0")
    with pytest.raises(ValueError, match="thread count"):
        compute_weight(WEDGE, ANGLE, 10, 1)
    with pytest.raises(ValueError, match="thread count"):
        qmc_mean(lambda U: ((np.ones(len(U)),), 0), 2, 100, 1)


def test_unknown_kind_rejected():
    for kind in ("harmonic", (ANGLE, "harmonic"), ()):
        with pytest.raises(ValueError, match="kind"):
            compute_weight(WEDGE, kind, 10, 1)
    clear_weight_cache()  # the kinds estimated with ``kind`` are checked on a miss
    with pytest.raises(ValueError, match="kind"):
        cached_weight(WEDGE, ANGLE, 10, 1, kinds=("harmonic",))
    # the single-kind integrands check their kind before the kernel sees it
    with pytest.raises(ValueError, match="kind"):
        forms.integrand(WEDGE, "harmonic", halfplane.make_configuration([1j], [0.0, 1.0]))
    pair = collapse_layout(2, 1, [0, 1], TYPE_I)
    s = 1 / math.sqrt(2)
    cfg = halfplane.degenerating_family(halfplane.make_configuration([1j], [0.0]), pair,
                                        (s, -s), 1e-3)
    with pytest.raises(ValueError, match="kind"):
        forms.contracted_integrand(parse_graph("2 1 ; a1>a2 a1>g1 a2>g1"), "harmonic",
                                   cfg, pair)


def test_default_threads_counts_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv("KWL_THREADS", raising=False)
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(weights.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert weights.default_threads() == 1
    monkeypatch.setattr(weights.os, "sched_getaffinity", lambda pid: set(range(6)))
    assert weights.default_threads() == 4
    monkeypatch.delattr(weights.os, "sched_getaffinity")  # platforms without it
    assert weights.default_threads() == 4


def _assert_rows_match_fd(g, kind, U, vals, rows):
    # reference: determinant of central differences of the edge potentials
    for k in rows:
        cfg, jac = sample_configuration(g.n, g.m, U[k])
        det, bound = fd_integrand(g, kind, cfg)
        want = det * jac
        assert abs(vals[k] - want) < 1e-8 * bound * jac, (g, kind, k)


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
            (vals,), rejected = integrand_batch(g, (kind,), U)
            assert vals.shape == (B,) and rejected == 0
            _assert_rows_match_fd(g, kind, U, vals, rows)


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
        (vals,), rejected = integrand_batch(G31, (kind,), U)
        assert rejected == 1
        assert vals[bad] == 0
        _assert_rows_match_fd(G31, kind, U, vals, [bad - 1, bad + 1])


def _mask_with_mirror_distances(g, U):
    """The collision mask as the kernel once computed it, with the distance
    from each aerial point's mirror image to the other aerial points."""
    Z, G, _ = halfplane.slice_map(g.n, g.m, U)
    mind = np.full(len(U), np.inf)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            mind = np.minimum(mind, np.abs(Z[:, i] - Z[:, j]))
            mind = np.minimum(mind, np.abs(np.conj(Z[:, i]) - Z[:, j]))
        for k in range(g.m):
            mind = np.minimum(mind, np.abs(Z[:, i] - G[:, k]))
    return mind < COLLISION_EPS


def test_kernel_mask_needs_no_mirror_distances():
    # planted rows of G31 (a1 on the circle; a2 and a3 free; g1 at 0):
    # columns 1-2 place a2, columns 3-4 place a3.  The kernel takes exact
    # distances only where a pair's real parts are within COLLISION_EPS;
    # rows 6 and 8-11 have one or both axis separations below it and are
    # no collision
    rng = np.random.default_rng(6)
    U = rng.uniform(0.1, 0.9, size=(64, 5))
    x03 = math.atan(0.3) / math.pi + 0.5  # x = 0.3
    x03_near = math.atan(0.3 + 0.8e-12) / math.pi + 0.5
    s = 0.6 / 0.4  # the y column at u = 0.6, and dy/du there
    y06_near = 0.6 + 0.8e-12 * 0.4 ** 2 / (math.exp(-1.0 / s) * (2.0 * s + 1.0))
    planted = {
        1: [0.5, 0.01], 2: [0.5, 0.02],                        # a2 on g1
        3: [0.4, 0.6, 0.4, 0.6], 4: [0.4, 0.6, 0.4, 0.6 + 1e-14],  # a2 on a3
        5: [x03, 0.01, x03, 0.0101],                           # both near the line
        6: [0.4, 0.6, 0.4, 0.6 + 1e-10],                       # close, not colliding
        7: [x03, 0.05, x03, 0.06],                             # close near the line
        8: [0.4, 0.6, 0.41, 0.6],                              # same y, x apart
        9: [0.5, 0.6],                                         # a2 above g1
        10: [x03, 0.01],                                       # a2 on the line, off g1
        11: [x03, 0.6, x03_near, y06_near],                    # 0.8e-12 on each axis
    }
    for row, cols in planted.items():
        U[row, 1:1 + len(cols)] = cols
    Z, G, _ = halfplane.slice_map(3, 1, U)
    assert Z[9, 1].real == G[9, 0] and Z[10, 1].imag < COLLISION_EPS
    dx, dy = abs(Z[11, 1].real - Z[11, 2].real), abs(Z[11, 1].imag - Z[11, 2].imag)
    assert 0.75e-12 < min(dx, dy) and max(dx, dy) < 0.85e-12
    old = _mask_with_mirror_distances(G31, U)
    assert list(np.flatnonzero(old)) == [1, 2, 3, 4, 5]
    for kind in (ANGLE, LOG):
        (vals,), rejected = integrand_batch(G31, (kind,), U)
        assert rejected == old.sum()
        assert list(np.flatnonzero(vals == 0)) == list(np.flatnonzero(old))


def test_slice_map_and_kernel_ignore_the_layout_of_U():
    rng = np.random.default_rng(7)
    for g in (G40, G31, parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")):
        U = rng.uniform(0.05, 0.95, size=(CHUNK_ROWS + 7, len(g.edges)))
        F = np.asfortranarray(U)
        assert U.flags.c_contiguous and F.flags.f_contiguous
        for c, f in zip(halfplane.slice_map(g.n, g.m, U), halfplane.slice_map(g.n, g.m, F)):
            assert c.shape == f.shape and c.tobytes() == f.tobytes()
        for kind in (ANGLE, LOG):
            (vc,), rc = integrand_batch(g, (kind,), U)
            (vf,), rf = integrand_batch(g, (kind,), F)
            assert rc == rf and vc.tobytes() == vf.tobytes()


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


@pytest.mark.parametrize("text, parity", [
    ("2 1 ; a2>a1 a2>g1 a1>a2", 1),
    ("2 1 ; a2>g1 a2>a1 a1>a2", -1),
], ids=["even", "odd"])
def test_cached_weight_reports_the_input_graph(text, parity):
    g = parse_graph(text)
    canon = parse_graph("2 1 ; a1>a2 a1>g1 a2>a1")
    est = cached_weight(g, ANGLE, 2 ** 10, 5)
    ref = cached_weight(canon, ANGLE, 2 ** 10, 5)
    assert est.graph == text
    assert est.value == parity * ref.value
    direct = compute_weight(canon, ANGLE, 2 ** 10, 5)
    assert ref == direct and ref.to_json_dict() == direct.to_json_dict()


def test_odd_automorphism_weight_exact_zero():
    clear_weight_cache()
    # either labelling of the two-cycle, through the class cache
    for text in ("2 0 ; a1>a2 a2>a1", "2 0 ; a2>a1 a1>a2"):
        g = parse_graph(text)
        for kind in (ANGLE, LOG):
            est = cached_weight(g, kind, 1 << 12, 5)
            assert est.exact and est.stderr == 0 and est.graph == text
            assert est.to_json_dict()["value"] == [0.0, 0.0]
            assert math.copysign(1, est.value.real) == 1  # not -0.0
    # four (4,0) classes carry no vanishing pattern; only the automorphism
    # shows that they vanish
    bare = {canonical_key(g)[0] for g in enumerate_graphs(4, 0, 6)
            if canonical_key(g)[1] == 0 and detect_vanishing_pattern(g) is None}
    assert len(bare) == 4
    for key in bare:
        assert cached_weight(canonical_graph(key), LOG, 1 << 12, 5).exact
    assert not weights._cache  # parity 0 decides without storing a class


def test_degree_decided_weights_skip_the_canonical_search(monkeypatch):
    calls = []
    search = weights.canonical_key
    monkeypatch.setattr(weights, "canonical_key", lambda g: calls.append(g) or search(g))
    # one edge on eleven aerial vertices: the degree decides, an 11! search would not
    est = cached_weight(parse_graph("11 0 ; a1>a2"), LOG, 1 << 10, 5)
    assert est.exact and est.value == 0 and est.graph == "11 0 ; a1>a2"
    assert cached_weight(parse_graph("0 2 ;"), ANGLE, 1 << 10, 5).value == 1
    assert calls == []
    cached_weight(WEDGE, ANGLE, 1 << 10, 5)
    assert calls == [WEDGE]



def test_class_representative_skips_the_canonical_search(monkeypatch):
    g = parse_graph("2 1 ; a2>g1 a2>a1 a1>a2")
    key, parity = canonical_key(g)
    rep = canonical_graph(key)
    assert parity == -1 and rep.edges == key[2]
    calls = []
    search = weights.canonical_key
    monkeypatch.setattr(weights, "canonical_key", lambda g: calls.append(g) or search(g))
    clear_weight_cache()
    ref = cached_weight(rep, LOG, 1 << 10, 5)
    assert calls == [rep] and not ref.exact
    assert cached_weight(rep, LOG, 1 << 10, 5) is ref
    assert calls == [rep]  # found as its own class key
    est = cached_weight(g, LOG, 1 << 10, 5)
    assert calls == [rep, g]
    assert (est.value, est.stderr, est.graph) == (-ref.value, ref.stderr, encode_graph(g))
    # a class estimated at exactly zero keeps +0.0 under an odd relabelling
    monkeypatch.setattr(weights, "compute_weight", lambda h, kinds, samples, seed, threads: tuple(
        WeightEstimate(0.0 + 0j, 0.0, samples, seed, kind, encode_graph(h)) for kind in kinds))
    zero = cached_weight(g, LOG, 1 << 10, 6)
    assert repr(zero.value) == "0j" and repr(cached_weight(rep, LOG, 1 << 10, 6).value) == "0j"
    clear_weight_cache()

def test_even_automorphism_keeps_the_weight():
    # swapping a1 and a2 permutes the edges evenly; the weight is 1/2 squared
    est = compute_weight(parse_graph("2 2 ; a1>g1 a1>g2 a2>g1 a2>g2"), ANGLE, 1 << 16, 5)
    assert not est.exact
    assert abs(est.value - 0.25) <= 3 * est.stderr


def test_class_without_matching_is_an_exact_zero():
    # no edge pairs with a4's two coordinates: the integrand vanishes
    # identically, which the class rule reads off before any sampling and
    # a Sobol batch confirms
    g = parse_graph("4 0 ; a1>a2 a1>a3 a2>a1 a2>a3 a3>a1 a3>a4")
    assert canonical_key(g)[1] != 0 and frame_plan(g.edges, gauge_frame(4, 0, 1.0)) == ()
    U = np.clip(weights._sobol_points(6, 5, 0, 1 << 12), 1e-15, 1.0 - 1e-15)
    values, rejected = integrand_batch(g, (ANGLE, LOG), U)
    assert rejected == 0 and all(not v.any() for v in values)
    clear_weight_cache()
    for kind in (ANGLE, LOG):
        for est in (cached_weight(g, kind, 1 << 12, 5), compute_weight(g, kind, 1 << 12, 5)):
            assert est.exact and est.value == 0 and est.stderr == 0 and est.samples == 0
    assert not weights._cache


#: top-degree slices on at most four vertices
SMALL_SLICES = [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]
#: per slice, the sampled classes whose log integrand has no matching
LOG_DECIDED = {(3, 0): 1, (3, 1): 2, (4, 0): 12}


def _vanishes_pointwise(g, kind, points=128):
    """Whether ``kind``'s integrand of ``g`` stays at or below 1e-9 of the
    angle integrand's largest value at random points of the slice."""
    U = np.random.default_rng(3).uniform(size=(points, gauge_dim(g.n, g.m)))
    values, rejected = integrand_batch(g, (ANGLE, kind), U)
    assert rejected == 0
    return np.max(np.abs(values[1])) <= 1e-9 * np.max(np.abs(values[0]))


def _log_rule_findings():
    """The log rule on every sampled class on at most four vertices: the
    decided count per slice, the decided classes whose log integrand does
    not vanish at sample points, and the classes where an aerial
    relabelling that keeps a1, or any relabelling that the rule decides,
    disagrees with the class representative."""
    decided, unsound, unstable = {}, [], []
    for n, m in SMALL_SLICES:
        for rep in _sampled_classes(n, m):
            zero = forms.log_vanishes(n, m, rep.edges)
            for perm in itertools.permutations(range(n)):
                label = perm + tuple(range(n, n + m))
                edges = [(label[s], label[t]) for s, t in rep.edges]
                if forms.log_vanishes(n, m, edges) != zero and (perm[0] == 0 or not zero):
                    unstable.append(encode_graph(rep))
                    break
            if zero:
                decided[n, m] = decided.get((n, m), 0) + 1
                if not _vanishes_pointwise(rep, LOG):
                    unsound.append(encode_graph(rep))
    return decided, unsound, unstable


def test_log_rule_decides_only_vanishing_log_integrands():
    # the log form reaches its target only through dz_t: a class with no
    # matching of edges to (dz, dz-bar, phi, ground) columns has a log
    # integrand that vanishes at every point.  A relabelling that pins the
    # aerial sink at i (or on the circle) drops its dz-bar column and finds
    # a matching: there only the integral vanishes, so the rule is kept per
    # class and read on the representative
    assert sum(len(_sampled_classes(n, m)) for n, m in SMALL_SLICES) == 71
    assert _log_rule_findings() == (LOG_DECIDED, [], [])


@pytest.mark.parametrize("reach", [
    lambda v, mode, s, t: v in (s, t),  # the target also reaches dz-bar_t
    lambda v, mode, s, t: v == s or (v == t and mode not in ("x", "y")),  # loses dz_t
], ids=["target-reaches-dz-bar", "target-loses-dz"])
def test_log_rule_mutants_fail(monkeypatch, reach):
    monkeypatch.setattr(forms, "log_support", lambda edges, columns: [
        [c for c, (v, mode) in enumerate(columns) if reach(v, mode, s, t)] for s, t in edges])
    assert _log_rule_findings() != (LOG_DECIDED, [], [])


def test_angle_integrand_does_not_vanish_where_the_log_rule_decides():
    # the angle form reaches dz-bar_t too, so no decided class is an angle
    # zero: the pointwise check that passes for U^log fails for the angle
    decided = [rep for n, m in SMALL_SLICES for rep in _sampled_classes(n, m)
               if forms.log_vanishes(n, m, rep.edges)]
    assert len(decided) == 15
    assert not any(_vanishes_pointwise(rep, ANGLE) for rep in decided)


def test_group_pass_samples_only_undecided_weights():
    # a (4,0) group of sampled classes, log-decided classes, a class with an
    # empty plan and one with an odd automorphism, in both kinds: each
    # sampled weight is its one-graph, one-kind pass bit for bit
    samples, seed = 1 << 10, 7
    graphs = _sampled_classes(4, 0)
    graphs.insert(3, parse_graph("4 0 ; a1>a2 a1>a3 a2>a1 a2>a3 a3>a1 a3>a4"))
    graphs.insert(9, next(g for g in enumerate_graphs(4, 0, 6) if canonical_key(g)[1] == 0))
    clear_weight_cache()
    ests = weights.compute_weights(graphs, (ANGLE, LOG), samples, seed, threads=2)
    kinds_sampled = []
    for g, pair in zip(graphs, ests):
        sampled = tuple(e.kind for e in pair if not e.exact)
        kinds_sampled.append(sampled)
        for est in pair:
            if est.exact:
                assert est.value == 0 and est.stderr == 0 and est.samples == 0
                continue
            (value,), (stderr,), total, _ = qmc_mean(
                lambda U: integrand_batch(g, (est.kind,), U), 6, samples, seed)
            assert (repr(est.value), repr(est.stderr), est.samples) == (
                repr(value), repr(stderr), total)
            *_, rejected = qmc_mean(lambda U: integrand_batch(g, sampled, U), 6, samples, seed)
            assert est.rejected == rejected
    assert kinds_sampled.count((ANGLE, LOG)) == 32 - 12
    assert kinds_sampled.count((ANGLE,)) == 12 and kinds_sampled.count(()) == 2
    for g in (G40, G31):
        assert not any(e.exact for e in compute_weight(g, (ANGLE, LOG), samples, seed))
    clear_weight_cache()


def test_clear_weight_cache_empties_the_plan_cache():
    # the kernel and the class rule share the plans of kwl.forms, so a
    # cold cache rebuilds them
    clear_weight_cache()
    compute_weight(G40, LOG, 1 << 10, 5)
    assert forms._plan.cache_info().currsize == 1
    clear_weight_cache()
    assert forms._plan.cache_info().currsize == 0


def test_clear_weight_cache_leaves_no_class_data():
    # a log-decided weight fills the class stores and the log rule's cache,
    # an identity the stokes stores and the plans: clearing empties them all
    clear_weight_cache()
    assert compute_weight(parse_graph("3 0 ; a1>a2 a1>a3 a2>a1 a2>a3"), LOG, 1 << 10, 5).exact
    verify_identity(parse_graph("2 1 ; a1>a2 a2>g1"), LOG, 1 << 10, 5)
    caches = (forms._plan, forms.class_log_vanishes)
    assert all(weights._stores.values()) and all(c.cache_info().currsize for c in caches)
    clear_weight_cache()
    assert not any(weights._stores.values()) and not any(c.cache_info().currsize for c in caches)


def _counted_estimates(monkeypatch):
    """Fake both estimating entry points; returns the list of graphs they
    are asked to sample and the set of kind tuples asked for."""
    calls, asked = [], set()

    def fake(graphs, kinds, samples, seed, threads=None):
        calls.extend(graphs)
        asked.add(kinds)
        return [tuple(WeightEstimate(0j, 0.0, samples, seed, kind, encode_graph(g))
                      for kind in kinds) for g in graphs]

    monkeypatch.setattr(weights, "compute_weights", fake)
    monkeypatch.setattr(weights, "compute_weight",
                        lambda g, kinds, *args: fake([g], kinds, *args)[0])
    return calls, asked


def test_structural_vanishing_samples_only_undecided_classes(monkeypatch):
    # 64 pattern-bearing classes at the default sweep: 7 have an odd
    # automorphism and 9 more no matching, so 48 are left to sample, all
    # by the check's prefetch
    calls, asked = _counted_estimates(monkeypatch)
    clear_weight_cache()
    try:
        report = suite.check_structural_vanishing(suite.SuiteConfig())
    finally:
        clear_weight_cache()
    assert report.details["count"] == 64
    assert len(calls) == len(set(calls)) == 48
    assert asked == {(LOG,)}  # the check pays for the log kind alone


@pytest.mark.parametrize("kind", [ANGLE, LOG])
def test_order_two_star_product_samples_each_class_once(monkeypatch, kind):
    # u_n's prefetch samples each (2,2) class its sum needs once, in its
    # kind alone: the classes of the graphs with a non-zero operator
    so3 = operators.bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1),
                                 (0, 2, (0, 1, 0), -1)])
    clear_weight_cache()
    want = set()
    for g in enumerate_graphs(2, 2, 4):
        if g.out_degree(0) == g.out_degree(1) == 2 and operators.d_gamma(g, [so3] * 2).terms:
            exact, rep, _ = weights.weight_class(g)
            if exact is None:
                want.add(rep)
    calls, asked = _counted_estimates(monkeypatch)
    try:
        operators.star_product(so3, 2, kind, 1 << 10, 5)
    finally:
        clear_weight_cache()
    assert len(calls) == len(set(calls)) == len(want) + 1  # and the wedge at order 1
    assert set(calls) >= want and asked == {(kind,)}


def test_order_two_star_product_searches_each_labelled_graph_once(monkeypatch):
    # u_n's prefetch and its cached_weight reads share one class search per
    # labelled graph; a representative found before is never searched
    so3 = operators.bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1),
                                 (0, 2, (0, 1, 0), -1)])
    _counted_estimates(monkeypatch)
    searched = []
    search = weights.canonical_key
    monkeypatch.setattr(weights, "canonical_key", lambda g: searched.append(g) or search(g))
    clear_weight_cache()
    try:
        operators.star_product(so3, 2, LOG, 1 << 10, 5)
        assert searched and len(searched) == len(set(searched))
        searched.clear()
        operators.star_product(so3, 2, LOG, 1 << 10, 6)  # another seed: no new search
        assert searched == []
    finally:
        clear_weight_cache()
    assert not weights._labelled


def _sampled_classes(n, m):
    """The canonical graph of every class of top-degree (n, m) graphs that
    :func:`cached_weight` samples, in first-seen order."""
    reps = {}
    for g in enumerate_graphs(n, m, gauge_dim(n, m)):
        exact, rep, _ = weights.weight_class(g)
        if exact is None:
            reps.setdefault(rep.edges, rep)
    return list(reps.values())


def _bits(est):
    return repr(est.value), repr(est.stderr), est.samples, est.rejected, est.kind, est.graph


@pytest.mark.parametrize("n, m", [(2, 2), (3, 0), (3, 1), (4, 0)])
def test_group_pass_matches_one_graph_passes(monkeypatch, n, m):
    # every sampled class of the slice in one group, with a class whose
    # plan is empty in the (4,0) group.  Smaller chunks and tasks than the
    # defaults (values do not depend on either) give 2^17 several chunks
    # per batch and split the larger groups into runs
    monkeypatch.setattr(weights, "CHUNK_ROWS", 1 << 11)
    monkeypatch.setattr(weights, "TASK_ROWS", 1 << 12)
    graphs = _sampled_classes(n, m)
    if (n, m) == (4, 0):
        empty = parse_graph("4 0 ; a1>a2 a1>a3 a2>a1 a2>a3 a3>a1 a3>a4")
        assert frame_plan(empty.edges, gauge_frame(4, 0, 1.0)) == ()
        graphs.insert(len(graphs) // 2, empty)
    clear_weight_cache()
    for samples, kinds, threads in ((1 << 10, (LOG,), (1, 2, 4)),
                                    (1 << 10, (ANGLE, LOG), (1, 2, 4)),
                                    (1 << 14, (ANGLE, LOG), (1, 4)), (1 << 17, (LOG,), (2,))):
        want = [tuple(map(_bits, compute_weight(g, kinds, samples, 7, threads=2)))
                for g in graphs]
        for t in threads:
            got = weights.compute_weights(graphs, kinds, samples, 7, threads=t)
            assert [tuple(map(_bits, ests)) for ests in got] == want, (samples, kinds, t)
    clear_weight_cache()


def test_group_pass_keeps_shared_and_own_rejected_rows():
    # G31's rows of test_kernel_zeroes_near_collision_rows: a2 on top of g1
    # in row CHUNK_ROWS + 1 is rejected for every graph of the group
    rng = np.random.default_rng(2)
    U = rng.uniform(0.1, 0.9, size=(CHUNK_ROWS + 3, 5))
    bad = CHUNK_ROWS + 1
    U[bad, 1:3] = [0.5, 0.01]
    graphs = [G31] + _sampled_classes(3, 1)[:6]
    for kinds in ((ANGLE,), (LOG,), (ANGLE, LOG)):
        passes = weights._integrand_group(graphs, kinds, U)
        for g, (vals, rejected) in zip(graphs, passes):
            one, own = integrand_batch(g, kinds, U)
            assert rejected == own == 1
            assert all(v[bad] == 0 and v.tobytes() == w.tobytes() for v, w in zip(vals, one))


def test_compute_weights_takes_one_slice_shape():
    assert weights.compute_weights([], (LOG,), 1 << 10, 5) == []
    with pytest.raises(ValueError, match="share"):
        weights.compute_weights([G31, G40], (LOG,), 1 << 10, 5)
    with pytest.raises(ValueError, match="kind"):
        weights.compute_weights([G31], (), 1 << 10, 5)
    # degree-decided graphs are exact, as compute_weight gives them
    partial = [make_graph(1, 2, [(0, 1)]), make_graph(1, 2, [(0, 2)])]
    assert ([ests[0].exact for ests in weights.compute_weights(partial, (ANGLE,), 10, 1)]
            == [True, True])


def test_prefetch_fills_what_cached_weight_reads(monkeypatch):
    graphs = _sampled_classes(3, 1)[:5]
    relabeled = [make_graph(3, 1, [(p[s], p[t] if t < 3 else t) for s, t in g.edges])
                 for g, p in zip(graphs, itertools.cycle([(1, 2, 0), (2, 0, 1)]))]
    asked = relabeled + graphs + [WEDGE, make_graph(1, 2, [(0, 1)])]
    clear_weight_cache()
    want = [cached_weight(g, LOG, 1 << 10, 5) for g in asked]
    clear_weight_cache()
    weights.prefetch_weights(asked, LOG, 1 << 10, 5)
    assert len(weights._cache) == len(graphs) + 1  # the partial graph is exact
    with monkeypatch.context() as m:
        m.setattr(weights, "compute_weight", None)  # every read below hits
        assert [cached_weight(g, LOG, 1 << 10, 5) for g in asked] == want
    clear_weight_cache()


def test_pairing_roundoff_classes_stay_at_roundoff():
    # both (2,2) classes have plans, but their terms cancel sample by
    # sample; single rows near a collision reach a few 1e-14 with the dense
    # determinant too, so the bound is on the mean size of a sample
    rng = np.random.default_rng(4)
    U = rng.uniform(0.02, 0.98, size=(CHUNK_ROWS, 4))
    for text in ("2 2 ; a1>a2 a1>g1 a2>a1 a2>g1", "2 2 ; a1>a2 a1>g2 a2>a1 a2>g2"):
        g = parse_graph(text)
        assert frame_plan(g.edges, gauge_frame(g.n, g.m, 1.0))
        for kind in (ANGLE, LOG):
            (vals,), _ = integrand_batch(g, (kind,), U)
            assert np.abs(vals).mean() < 1e-15, (text, kind)
            assert abs(compute_weight(g, kind, 1 << 14, 5).value) < 1e-15, (text, kind)


def test_expanded_weight_bit_identical_across_threads():
    assert len(G40.edges) >= MIN_EXPANDED_DIM
    a = compute_weight(G40, LOG, 1 << 16, seed=3, threads=1)
    b = compute_weight(G40, LOG, 1 << 16, seed=3, threads=2)
    assert (a.value, a.stderr, a.rejected) == (b.value, b.stderr, b.rejected)


def test_pattern_detection():
    assert detect_vanishing_pattern(parse_graph("2 1 ; a1>a2 a2>a1 a1>g1")) == ONE_IN_ONE_OUT
    assert detect_vanishing_pattern(parse_graph("2 2 ; a1>a2 a1>g1 a1>g2")) == UNIVALENT
    g_noout = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a1>g1")
    assert detect_vanishing_pattern(g_noout) == NO_OUTGOING
    wheel = parse_graph("3 0 ; a1>a2 a2>a1 a1>a3 a2>a3")
    assert detect_vanishing_pattern(wheel) == NO_OUTGOING  # its hub is an aerial sink
    assert detect_vanishing_pattern(WEDGE) is None
    # single aerial vertex: the degree argument needs a second interior point
    assert detect_vanishing_pattern(parse_graph("1 1 ; a1>g1")) is None


def test_vanishing_check_examples():
    ok, est, pattern, bound = vanishing_check(
        parse_graph("2 1 ; a1>a2 a2>a1 a1>g1"), LOG, 10 ** 5, 3)
    assert ok and pattern == ONE_IN_ONE_OUT
    assert bound == max(5e-3, 3.0 * est.stderr) and abs(est.value) < bound

    ok, est, pattern, bound = vanishing_check(
        parse_graph("2 2 ; a1>a2 a1>g1 a1>g2"), LOG, 10 ** 5, 3)
    assert ok and pattern == UNIVALENT

    ok, est, pattern, bound = vanishing_check(
        parse_graph("2 2 ; a1>a2 a1>g1 a1>g2"), ANGLE, 10 ** 5, 3)
    assert ok  # degree-based vanishing holds for the angle propagator too

    with pytest.raises(ValueError, match="pattern"):
        vanishing_check(WEDGE, LOG, 10 ** 4, 3)


def test_vanishing_check_holds_an_exact_weight_to_zero(monkeypatch):
    # an exact estimate passes only at 0, with bound 0; a sampled one of the
    # same value and no spread passes against the tolerance floor
    g = parse_graph("2 1 ; a1>a2 a2>a1 a1>g1")
    for exact, passed, bound in ((True, False, 0.0), (False, True, VANISHING_TOL)):
        monkeypatch.setattr(weights, "cached_weight", lambda g, kind, samples, seed:
                            WeightEstimate(1e-30 + 0j, 0.0, samples, seed, kind,
                                           encode_graph(g), exact=exact))
        ok, est, _, got = vanishing_check(g, LOG, 1 << 10, 3)
        assert (ok, est.exact, got) == (passed, exact, bound)


#: per (n, m), the top-degree labelled graphs of each pattern on at most four vertices
PATTERN_COUNTS = {NO_OUTGOING: {(3, 0): 3, (3, 1): 12, (4, 0): 186},
                  UNIVALENT: {(3, 1): 15, (4, 0): 144},
                  ONE_IN_ONE_OUT: {(2, 0): 1, (2, 1): 4, (2, 2): 6, (3, 0): 9, (3, 1): 60,
                                   (4, 0): 448}}


def test_weight_rules_decide_every_aerial_sink_and_univalent_graph():
    # the log form reaches its target only through dz_t: with the degree,
    # automorphism and plan rules, the log matching rule decides the log
    # weight of every univalent graph and every graph with an aerial sink (a
    # wheel hub among them) exact.  Only one-in-one-out graphs are sampled
    counts, decided = {}, {}
    clear_weight_cache()
    for n, m in SMALL_SLICES:
        for g in enumerate_graphs(n, m, gauge_dim(n, m)):
            pattern = detect_vanishing_pattern(g)
            if pattern is None:
                continue
            tables = (counts, decided) if weights._decided(g, LOG, 0) else (counts,)
            for table in tables:
                per = table.setdefault(pattern, {})
                per[n, m] = per.get((n, m), 0) + 1
    clear_weight_cache()
    assert counts == PATTERN_COUNTS
    assert decided == {**PATTERN_COUNTS, ONE_IN_ONE_OUT: {(2, 0): 1, (4, 0): 132}}


def test_qmc_mean_constant():
    # every batch of 2^k Sobol points puts exactly half its first
    # coordinates below 1/2: the rejected counts of the 16 batches add up
    (val,), (err,), ns, rejected = qmc_mean(
        lambda U: ((np.full(len(U), 2.5),), int((U[:, 0] < 0.5).sum())), 3, 10 ** 4, 1)
    assert val == pytest.approx(2.5, abs=1e-12)
    assert err < 1e-12
    assert ns == BATCHES * 1024
    assert rejected == ns // 2


def test_qmc_mean_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        qmc_mean(lambda U: ((np.ones(len(U)),), 0), 2, 100, -1)


@pytest.mark.parametrize("samples", [10 ** 400, (BATCHES << qmc.BITS) + 1],
                         ids=["10^400", "2^34+1"])
def test_budget_above_the_sobol_streams_rejected_before_any_draw(samples, monkeypatch):
    # never run a budget near the bound: one batch would take tens of GiB
    builds = _counting_sobol(monkeypatch)
    clear_weight_cache()
    calls = []
    estimators = (lambda: compute_weight(WEDGE, ANGLE, samples, 1),
                  lambda: cached_weight(WEDGE, ANGLE, samples, 1),
                  lambda: cached_weight(parse_graph("0 2 ;"), ANGLE, samples, 1),
                  lambda: qmc_mean(lambda U: calls.append(U), 2, samples, 1))
    for estimate in estimators:
        with pytest.raises(ValueError, match=f"sample budget {samples} exceeds"):
            estimate()
    assert builds[0] == 0 and calls == []


def test_weight_json_shape():
    est = compute_weight(WEDGE, ANGLE, 10 ** 4, seed=5)
    d = est.to_json_dict()
    assert set(d) == {"graph", "kind", "samples", "seed", "value", "stderr",
                      "rejected"}
    assert d["rejected"] == est.rejected
    assert d["value"] == [est.value.real, est.value.imag]


# ---------------------------------------------------------------------------
# the Sobol engine against scipy's, pool tasks and the engine store


def _batch_rng(seed, batch):
    return np.random.default_rng(np.random.SeedSequence([seed, batch]))


def _scipy_points(dim, seed, batch, n):
    """The reference stream: scipy's scrambled Sobol points for batch
    ``batch`` at ``seed``, seeded the way weights seeds kwl's engine."""
    return scipy_qmc.Sobol(dim, scramble=True, seed=_batch_rng(seed, batch)).random(n)


@pytest.mark.parametrize("n", [1, 2, 1 << 16])
@pytest.mark.parametrize("dim", range(1, qmc.MAX_DIM + 1))
def test_sobol_matches_scipy_bit_for_bit(dim, n):
    for seed, batch in ((0, 0), (11, 15)):
        engine = qmc.Sobol(dim, seed=_batch_rng(seed, batch))
        want = _scipy_points(dim, seed, batch, n)
        for _ in range(2):  # a second draw from the same engine repeats the first
            got = engine.random(n)
            assert got.flags.f_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (seed, batch)


def test_qmc_mean_hands_func_column_major_points():
    # the slice map then reads each coordinate without a copy
    layouts = []
    qmc_mean(lambda U: layouts.append(U.flags.f_contiguous) or ((np.ones(len(U)),), 0),
             5, 1 << 12, 1)
    assert layouts == [True] * BATCHES


def test_phi_column_is_the_complex_exponential_bit_for_bit():
    # slice_map writes cos and sin into the circle point's parts
    U = _scipy_points(5, 4, 0, 1 << 16)
    np.clip(U, 1e-15, 1.0 - 1e-15, out=U)
    Z, _, _ = halfplane.slice_map(3, 1, U)
    assert Z[:, 0].tobytes() == np.exp(1j * (math.pi * U[:, 0])).tobytes()


@pytest.mark.parametrize("dim", [0, qmc.MAX_DIM + 1])
def test_sobol_dimension_outside_the_table_rejected(dim):
    with pytest.raises(ValueError, match="dimension"):
        qmc.Sobol(dim, seed=_batch_rng(0, 0))


def test_weight_above_the_sobol_table_rejected():
    # 8 aerial vertices and 2 ground ones: a 16-dimensional slice
    g = make_graph(8, 2, [(v, 8) for v in range(8)] + [(v, 9) for v in range(8)])
    with pytest.raises(ValueError, match="16 dimensions"):
        compute_weight(g, ANGLE, 1 << 10, 1)


def test_weights_load_no_scipy_stats():
    code = ("import sys, kwl\n"
            "kwl.compute_weight(kwl.make_graph(1, 2, [(0, 1), (0, 2)]), 'angle', 1024, 1)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _reference_batches(g, kind, samples, seed):
    """scipy's Sobol points, one batch at a time, no pool: the schedule
    the grouped tasks and stored kwl engines must reproduce."""
    per_batch = 1 << max(0, math.ceil(math.log2(samples / BATCHES)))
    results = []
    for batch in range(BATCHES):
        U = _scipy_points(gauge_dim(g.n, g.m), seed, batch, per_batch)
        U = np.clip(U, 1e-15, 1.0 - 1e-15)
        (vals,), rejected = integrand_batch(g, (kind,), U)
        results.append((complex(np.mean(vals)), rejected))
    means = np.array([r[0] for r in results], dtype=complex)
    value = complex(means.mean())
    var = float(np.sum(np.abs(means - value) ** 2)) / (BATCHES - 1)
    return (value, math.sqrt(var / BATCHES), per_batch * BATCHES,
            sum(r[1] for r in results))


def _counting_pool(monkeypatch):
    """Replace the weights pool; returns the list of per-pool task counts."""
    counts = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(0)

        def submit(self, *args, **kwargs):
            counts[-1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(weights, "ThreadPoolExecutor", CountingPool)
    return counts


def _counting_sobol(monkeypatch, draw_delay=0.0):
    """Replace the Sobol class weights builds; returns the build counter.
    Each draw then sleeps ``draw_delay`` seconds, letting other threads run."""
    builds = [0]

    class CountingSobol(weights.qmc.Sobol):
        def __init__(self, *args, **kwargs):
            builds[0] += 1
            super().__init__(*args, **kwargs)

        def random(self, *args, **kwargs):
            points = super().random(*args, **kwargs)
            time.sleep(draw_delay)
            return points

    monkeypatch.setattr(weights.qmc, "Sobol", CountingSobol)
    return builds


def test_batches_share_pool_tasks_up_to_task_rows(monkeypatch):
    counts = _counting_pool(monkeypatch)
    # one thread runs the same schedule in a pool of one
    for samples, tasks in ((1 << 10, 1), (1 << 14, 1), (1 << 17, 8), (1 << 20, 16)):
        for threads in (1, 2):
            counts.clear()
            compute_weight(WEDGE, ANGLE, samples, seed=5, threads=threads)
            assert counts == [tasks], (samples, threads)


def test_suite_determinism_check_compares_a_split_schedule(monkeypatch):
    counts = _counting_pool(monkeypatch)
    suite.check_determinism(suite.SuiteConfig())
    assert counts[0] == 4  # the four-thread run


@pytest.mark.parametrize("samples", [1 << 14, 1 << 17])
def test_grouped_tasks_match_the_per_batch_loop(samples):
    clear_weight_cache()
    for kind in (ANGLE, LOG):
        ref = _reference_batches(G31, kind, samples, 11)
        for threads in (1, 2, 4):
            est = compute_weight(G31, kind, samples, seed=11, threads=threads)
            assert (est.value, est.stderr, est.samples, est.rejected) == ref, (kind, threads)


def test_same_dim_and_seed_reuse_sobol_engines(monkeypatch):
    builds = _counting_sobol(monkeypatch)
    clear_weight_cache()
    compute_weight(WEDGE, ANGLE, 1 << 10, seed=5, threads=2)
    assert builds[0] == BATCHES
    compute_weight(WEDGE, LOG, 1 << 10, seed=5, threads=1)
    assert builds[0] == BATCHES
    compute_weight(WEDGE, ANGLE, 1 << 10, seed=6, threads=1)
    assert builds[0] == 2 * BATCHES
    clear_weight_cache()
    compute_weight(WEDGE, ANGLE, 1 << 10, seed=5, threads=1)
    assert builds[0] == 3 * BATCHES


def test_stored_engines_draw_like_fresh_ones():
    budgets = (1 << 10, 1 << 14, 1 << 10)
    clear_weight_cache()
    stored = [compute_weight(G31, LOG, s, seed=4, threads=1) for s in budgets]
    fresh = []
    for s in budgets:
        clear_weight_cache()
        fresh.append(compute_weight(G31, LOG, s, seed=4, threads=1))
    assert stored == fresh
    assert stored[0] == stored[2]


def test_concurrent_weights_at_one_seed_match_one_thread(monkeypatch):
    reps = 4
    clear_weight_cache()
    want = {kind: compute_weight(G31, kind, 1 << 10, seed=8, threads=1)
            for kind in (ANGLE, LOG)}
    clear_weight_cache()
    # a draw outlasts the integrand, so both threads draw from the same
    # stored engine at once; engines are read-only, so sharing is safe
    _counting_sobol(monkeypatch, draw_delay=1e-2)
    barrier = threading.Barrier(2)
    got = {ANGLE: [], LOG: []}

    def run(kind):
        barrier.wait()
        for _ in range(reps):
            got[kind].append(compute_weight(G31, kind, 1 << 10, seed=8, threads=1))

    workers = [threading.Thread(target=run, args=(kind,)) for kind in (ANGLE, LOG)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    clear_weight_cache()
    for kind in (ANGLE, LOG):
        assert got[kind] == [want[kind]] * reps, kind
