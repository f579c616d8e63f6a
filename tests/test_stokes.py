import collections
import itertools
import math
import types

import pytest

from kwl import forms, graphs, halfplane, stokes, suite, weights
from kwl.forms import ANGLE, LOG
from kwl.graphs import (TYPE_I, TYPE_II, collapse_fault, collapse_layout,
                        enumerate_graphs, make_graph, parse_graph)
from kwl.stokes import (MULTI_POINT_I, TWO_POINT_I,
                        ZERO_BY_FLAG, boundary_strata, counterterm_probe,
                        orientation_sign, richardson_limit, shuffle_sign,
                        verify_identity)
from kwl.weights import cached_weight

import chart_oracle
import identity_oracle

EXAMPLE = parse_graph("2 1 ; a1>a2 a2>g1")


def test_strata_enumeration_example():
    strata = boundary_strata(EXAMPLE)
    labels = {st.describe() for st, _ in strata}
    assert "I{0,1}:two-point-I" in labels
    layouts = [con.layout for _, con in strata]
    assert any(lay.kind == TYPE_II and lay.subset == (1, 2) for lay in layouts)
    assert any(lay.kind == TYPE_II and lay.subset == (0,) for lay in layouts)
    # the full vertex set never bounds a stratum
    assert all(len(lay.subset) < EXAMPLE.num_vertices for lay in layouts)


def test_strata_edge_additivity():
    for _, con in boundary_strata(EXAMPLE):
        assert len(con.inner.edges) + len(con.outer.edges) == len(EXAMPLE.edges)


def test_type_i_pair_count():
    for n, m, e in [(2, 1, 2), (3, 0, 3), (3, 1, 4)]:
        g = next(iter(enumerate_graphs(n, m, e)))
        strata = boundary_strata(g)
        pairs = [st for st, con in strata if con.layout.kind == TYPE_I
                 and len(con.layout.subset) == 2]
        assert len(pairs) == math.comb(n, 2)


def _reference_strata(n, m):
    """Every subset, both kinds and every ground gap the collapse rule accepts."""
    out = []
    for size in range(1, n + m + 1):
        for S in itertools.combinations(range(n + m), size):
            for kind in (TYPE_I, TYPE_II):
                if collapse_fault(n, m, S, kind) is None:
                    gaps = range(m + 1) if kind == TYPE_II and S[-1] < n else [None]
                    out.extend((S, kind, pos) for pos in gaps)
    return out


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(6 - n)])
def test_strata_table_matches_brute_force(n, m):
    table = stokes._strata_table(n, m)
    got = [(lay.subset, lay.kind, lay.position) for lay in table]
    assert len(set(got)) == len(got)
    assert collections.Counter(got) == collections.Counter(_reference_strata(n, m))
    for lay in table:
        assert lay == collapse_layout(n, m, lay.subset, lay.kind, lay.position)


def test_strata_are_built_once_per_slice(monkeypatch):
    # one pass of verify_identity over the 973 identity graphs on at most 4
    # vertices places each of the 10 slices' 158 candidates once
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graphs, "collapse_fault", counted("fault", graphs.collapse_fault))
    monkeypatch.setattr(stokes, "collapse_layout", counted("layout", collapse_layout))
    weights.clear_weight_cache()  # no identity row left from earlier tests
    monkeypatch.setattr(stokes, "_orient_cache", {})
    monkeypatch.setattr(stokes, "cached_weight",
                        lambda *args, **kwargs: types.SimpleNamespace(value=1.0, stderr=0.0))
    idg = list(suite._swept_graphs(1))
    for g in idg:
        for kind in (ANGLE, LOG):
            verify_identity(g, kind, 1, 0)
    slices = {(g.n, g.m) for g in idg}
    assert (len(idg), len(slices)) == (973, 10)
    assert sum(len(stokes._orient_cache[s]) for s in slices) == 112
    assert calls == {"fault": 158, "layout": 158}


@pytest.mark.parametrize("enc, label", [
    ("4 1 ; a1>a2 a1>a3 a1>a4 a2>a1 a2>a3 a2>a4", "II{0,1,2,3}@0"),
    ("5 0 ; a1>a2 a2>a3 a2>a4 a2>a5 a3>a2 a3>a4 a3>a5", "II{1,2,3,4}@0")])
def test_orientation_sign_stable_from_five_vertices(enc, label):
    # the chart Jacobian scales like r^d_in, below any absolute threshold here
    g = parse_graph(enc)
    (con,) = [con for st, con in boundary_strata(g) if st.describe().startswith(label + ":")]
    assert orientation_sign(con.layout) == -1


@pytest.mark.parametrize("n, m", chart_oracle.slices(6))
def test_orientation_sign_matches_chart_jacobians(n, m):
    for layout in chart_oracle.signed_layouts(n, m):
        assert orientation_sign(layout) == chart_oracle.measured_sign(layout), layout.label()


def test_orientation_sign_needs_a_signed_stratum():
    with pytest.raises(ValueError, match="two-point interior"):
        orientation_sign(collapse_layout(3, 0, [0, 1, 2], TYPE_I))


def test_regauge_restores_pins():
    cfg = chart_oracle.regauge([2 + 2j, 5 + 1j], [1.0, 3.0])
    assert cfg.ground == (0.0, 1.0)
    cfg1 = chart_oracle.regauge([2 + 2j], [1.0])
    assert cfg1.ground == (0.0,)
    assert abs(abs(cfg1.aerial[0]) - 1) < 1e-12
    cfg0 = chart_oracle.regauge([2 + 2j, 4 + 1j], [])
    assert cfg0.aerial[0] == 1j


def test_strata_need_identity_degree():
    with pytest.raises(ValueError, match="dimension"):
        boundary_strata(make_graph(1, 2, [(0, 1), (0, 2)]))


def test_shuffle_sign():
    g = parse_graph("2 1 ; a1>g1 a1>a2 a2>g1")
    # inner edge a1>a2 sits at position 1 with one outer edge before it
    pair = collapse_layout(2, 1, {0, 1}, TYPE_I)
    assert shuffle_sign(g, pair) == -1
    g2 = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    assert shuffle_sign(g2, pair) == 1


def test_multi_point_and_flagged_terms_exact_zero():
    g = parse_graph("3 1 ; a1>a2 a1>a3 a2>g1 a3>g1")
    terms = verify_identity(g, LOG, 10 ** 4, 1).terms
    flagged = [t for t in terms if t[0].rule in (MULTI_POINT_I, ZERO_BY_FLAG)]
    assert {st.rule for st, _, _ in flagged} == {MULTI_POINT_I, ZERO_BY_FLAG}
    for _, value, err in flagged:
        assert value == 0.0 and err == 0.0


def test_two_point_term_magnitude_matches_outer_weight():
    g = parse_graph("2 1 ; a1>a2 a2>g1")
    terms = [t for t in verify_identity(g, ANGLE, 10 ** 4, 5).terms
             if t[0].rule == TWO_POINT_I]
    assert len(terms) == 1
    st, value, err = terms[0]
    (con,) = [con for s, con in boundary_strata(g) if s == st]
    ref = cached_weight(con.outer, ANGLE, 10 ** 4, 5)
    assert abs(abs(value) - abs(ref.value)) < 1e-12
    assert err == ref.stderr


@pytest.mark.parametrize("enc,kind", [
    ("1 1 ;", ANGLE), ("0 3 ;", ANGLE),
    ("2 0 ; a1>a2", ANGLE), ("2 0 ; a2>a1", LOG),
    ("1 2 ; a1>g1", ANGLE), ("1 2 ; a1>g2", LOG),
])
def test_exact_small_identities(enc, kind):
    rep = verify_identity(parse_graph(enc), kind, 10 ** 4, 5)
    assert rep.passed
    assert abs(rep.residual) < 1e-12  # weights here are exact


@pytest.mark.parametrize("kind", [ANGLE, LOG])
def test_identity_example_graph(kind):
    rep = verify_identity(EXAMPLE, kind, 10 ** 5, 5)
    assert rep.passed
    assert abs(rep.residual) <= 3 * rep.stderr + 1e-3


@pytest.mark.parametrize("kind", [ANGLE, LOG])
def test_identity_sweep_three_vertices(kind):
    for n, m in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (1, 3)]:
        e = 2 * n + m - 3
        if e < 0:
            continue
        for g in enumerate_graphs(n, m, e):
            rep = verify_identity(g, kind, 4 * 10 ** 4, seed=5)
            assert rep.passed, (g, kind, rep.residual, rep.stderr)


@pytest.mark.parametrize("kind", [ANGLE, LOG])
def test_relabelled_identities_agree_up_to_parity(kind):
    # a residual is its canonical class's times the relabelling parity;
    # this needs the graphs with an odd automorphism to weigh exactly zero
    g = parse_graph("3 0 ; a1>a2 a2>a1 a3>a1")
    h = parse_graph("3 0 ; a1>a3 a2>a3 a3>a2")
    assert graphs.canonical_key(g) == (graphs.canonical_key(h)[0], -graphs.canonical_key(h)[1])
    assert verify_identity(g, kind, 1 << 12, 5).residual == 0
    assert verify_identity(h, kind, 1 << 12, 5).residual == 0
    first = {}
    slices = [(n, m) for n in range(5) for m in range(5 - n) if 2 * n + m >= 3]
    for n, m in slices:
        for g in enumerate_graphs(n, m, 2 * n + m - 3):
            key, parity = graphs.canonical_key(g)
            residual = verify_identity(g, kind, 1 << 10, 5).residual
            if parity == 0:  # an odd automorphism: the residual is minus itself
                assert residual == 0, g
                continue
            residual *= parity
            assert abs(residual - first.setdefault(key, residual)) < 1e-15, g


@pytest.mark.parametrize("kind", [ANGLE, LOG])
@pytest.mark.parametrize("enc, label", [
    ("2 1 ; a1>a2 a2>g1", "II{1,2}"),  # exact weights
    ("2 2 ; a1>a2 a2>g1 a2>g2", "I{0,1}"),  # estimated weights
])
def test_identity_fails_on_a_flipped_or_dropped_term(enc, label, kind, monkeypatch):
    g = parse_graph(enc)
    rep = verify_identity(g, kind, 1 << 12, 5)
    term = {st.layout.label(): v for st, v, _ in rep.terms}[label]
    assert rep.passed and abs(term) > 0.4
    true_sign = stokes.orientation_sign
    for factor in (-1, 0):  # a wrong orientation sign, then a lost term
        monkeypatch.setattr(stokes, "orientation_sign", lambda layout, factor=factor: (
            factor * true_sign(layout) if layout.label() == label else true_sign(layout)))
        weights.clear_weight_cache()  # the row holds the sign: rebuild it under the mutant
        bad = verify_identity(g, kind, 1 << 12, 5)
        assert not bad.passed, (factor, bad.residual, bad.stderr)
        assert bad.stderr == rep.stderr
        assert abs(bad.residual - (rep.residual + (factor - 1) * term)) < 1e-12
    monkeypatch.undo()
    weights.clear_weight_cache()  # no mutant row outlives the test


def test_identity_all_zero_terms():
    # every stratum is flagged or degree-zero: residual is exactly zero
    g = parse_graph("1 2 ; a1>g1")
    rep = verify_identity(g, LOG, 10 ** 4, 5)
    nonzero = [v for _, v, _ in rep.terms if v != 0]
    assert len(nonzero) == 2  # the two exact product terms cancel
    assert rep.residual == 0.0


@pytest.mark.parametrize("kinds", [(LOG,), (ANGLE, LOG)])
def test_identity_weighs_the_kinds_it_is_given(kinds):
    # a cold identity check estimates its kind and the kinds it names, by
    # default both; no weight of another kind enters the cache
    weights.clear_weight_cache()
    rep = verify_identity(EXAMPLE, LOG, 1 << 10, 3, kinds=kinds)
    assert weights._cache and {key[1] for key in weights._cache} == set(kinds)
    weights.clear_weight_cache()
    assert verify_identity(EXAMPLE, LOG, 1 << 10, 3) == rep
    assert {key[1] for key in weights._cache} == {ANGLE, LOG}


def test_identity_report_json_shape():
    rep = verify_identity(EXAMPLE, LOG, 10 ** 4, 5)
    d = rep.to_json_dict()
    assert d["graph"] == "2 1 ; a1>a2 a2>g1"
    assert {"graph", "kind", "residual", "stderr", "tol", "passed", "terms"} <= set(d)


def test_richardson_limit_polynomial():
    scales = [1e-1, 1e-2, 1e-3, 1e-4]
    values = [2.0 + 3.0 * r + 0.5 * r * r for r in scales]
    got = richardson_limit(values, ratio=10.0)
    assert abs(got - 2.0) < 1e-10


def test_counterterm_probe_top_degree():
    g = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    rep = counterterm_probe(g, [0, 1], LOG, seed=3)
    assert rep.cauchy_decreasing
    assert rep.expected == 0.0  # the contracted graph is not of top degree
    assert abs(rep.limit - rep.expected) < 1e-3


def test_counterterm_probe_places_its_collapse_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return collapse_layout(*args, **kwargs)

    for mod in (stokes, forms, halfplane):
        if hasattr(mod, "collapse_layout"):
            monkeypatch.setattr(mod, "collapse_layout", counted)
    rep = counterterm_probe(parse_graph("2 2 ; a1>a2 a1>g1 a2>g2"), [0, 1], LOG)
    assert len(rep.values) == 4
    assert calls == [(2, 2, [0, 1], TYPE_I)]


def test_counterterm_probe_three_point_vanishes():
    g = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a3>g1")
    rep = counterterm_probe(g, [0, 1, 2], LOG, seed=3)
    assert abs(rep.limit) < 1e-3


def test_counterterm_probe_identity_degree_nonzero_expected():
    g = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
    for kind in (LOG, ANGLE):
        rep = counterterm_probe(g, [0, 1], kind, seed=3)
        assert abs(rep.expected) > 1e-6
        assert rep.deviation <= 1e-3 * abs(rep.expected)


def test_counterterm_probe_collapses_a_non_contiguous_pair():
    g = parse_graph("3 1 ; a1>a3 a1>g1 a2>g1 a2>a3")
    for kind in (LOG, ANGLE):
        rep = counterterm_probe(g, [0, 2], kind)
        assert abs(rep.expected) > 1e-6
        assert rep.deviation <= 1e-3 * abs(rep.expected)


def test_counterterm_probe_rejects_other_degrees():
    with pytest.raises(ValueError, match="degree"):
        counterterm_probe(parse_graph("2 1 ; a1>a2"), [0, 1], LOG)


def test_counterterm_probe_rejects_scales_without_one_ratio():
    g = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
    for scales in ([1e-2, 1e-3, 1e-5], [1e-3, 1e-2], [1e-2, 1e-3, 1e-4 * (1 + 1e-6)]):
        with pytest.raises(ValueError, match="one common ratio"):
            counterterm_probe(g, [0, 1], LOG, scales=scales)
    rep = counterterm_probe(g, [0, 1], LOG, scales=[4e-3, 2e-3, 1e-3, 5e-4])
    assert rep.deviation <= 1e-3 * abs(rep.expected)


def test_identity_rows_match_the_term_by_term_oracle():
    # every swept identity graph and kind: a cold row, the warm row, a row
    # rebuilt after clearing and the oracle print the same report (repr
    # keeps the sign of a zero)
    samples, seed = 1 << 10, 3
    weights.clear_weight_cache()
    first = {}
    for g in suite._swept_graphs(1):
        for kind in (ANGLE, LOG):
            text = repr(verify_identity(g, kind, samples, seed).to_json_dict())
            assert repr(verify_identity(g, kind, samples, seed).to_json_dict()) == text
            first[g, kind] = text
    assert len(first) == 2 * 973
    weights.clear_weight_cache()
    for (g, kind), text in first.items():
        assert repr(verify_identity(g, kind, samples, seed).to_json_dict()) == text, g
        oracle = identity_oracle.verify_identity(g, kind, samples, seed)
        assert repr(oracle.to_json_dict()) == text, g


@pytest.mark.parametrize("enc", [
    "2 3 ; a1>g1 a1>g2 a2>g2 a2>g3",  # both factors of two terms share the wedge's class
    "2 3 ; a1>a2 a1>g1 a2>g2 a2>g3",  # the same, next to a type I term
    "3 2 ; a1>g2 a2>g1 a2>g2 a3>a1 a3>a2",  # five sampled classes
    "3 2 ; a1>g2 a2>g2 a3>a1 a3>a2 a3>g1",  # seven sampled factors
])
def test_five_vertex_identity_rows_match_the_oracle(enc):
    g = parse_graph(enc)
    assert len(g.edges) == halfplane.gauge_dim(g.n, g.m) - 1
    weights.clear_weight_cache()
    for kind in (ANGLE, LOG):
        text = repr(verify_identity(g, kind, 1 << 12, 3).to_json_dict())
        assert repr(identity_oracle.verify_identity(g, kind, 1 << 12, 3).to_json_dict()) == text
    weights.clear_weight_cache()


def test_identity_rows_keep_the_sign_of_zero_weights(monkeypatch):
    # classes estimated at exactly zero: an odd relabelling keeps +0.0 in
    # the rows as in the oracle, which repr tells from -0.0
    monkeypatch.setattr(weights, "compute_weight", lambda h, kinds, samples, seed, threads: tuple(
        weights.WeightEstimate(0.0 + 0j, 0.0, samples, seed, kind, graphs.encode_graph(h))
        for kind in kinds))
    weights.clear_weight_cache()
    for g in suite._swept_graphs(1):
        text = repr(verify_identity(g, LOG, 1 << 10, 3).to_json_dict())
        assert repr(identity_oracle.verify_identity(g, LOG, 1 << 10, 3).to_json_dict()) == text
    weights.clear_weight_cache()

def test_identity_rejects_bad_arguments_on_cold_and_warm_rows(monkeypatch):
    # a warm row may need no weight, so verify_identity checks the
    # arguments itself, with cached_weight's errors
    idg = list(suite._swept_graphs(1))
    bad = [("area", 1 << 10, 5), (ANGLE, 0, 5), (LOG, 1 << 10, -1)]
    expected = []
    for args in bad:
        with pytest.raises(ValueError) as err:
            cached_weight(EXAMPLE, *args)
        expected.append(str(err.value))
    weights.clear_weight_cache()
    for warm in (False, True):
        for g in idg:
            assert (g in stokes._rows) == warm
            for args, message in zip(bad, expected):
                with pytest.raises(ValueError) as err:
                    verify_identity(g, *args)
                assert str(err.value) == message
        with monkeypatch.context() as m:  # build every row without weighing
            m.setattr(stokes, "cached_weight",
                      lambda *args, **kwargs: types.SimpleNamespace(value=1.0, stderr=0.0))
            for g in idg:
                verify_identity(g, ANGLE, 1, 0)
    weights.clear_weight_cache()


def test_warm_identity_contracts_and_searches_nothing(monkeypatch):
    g = parse_graph("2 2 ; a1>a2 a2>g1 a2>g2")  # estimated weights
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    weights.clear_weight_cache()
    rep = verify_identity(g, LOG, 1 << 10, 5)
    for module, name in [(graphs, "contract"), (stokes, "contract"), (weights, "canonical_key"),
                         (stokes, "boundary_strata"), (stokes, "orientation_sign")]:
        counted(module, name)
    again = verify_identity(g, LOG, 1 << 10, 5)
    verify_identity(g, ANGLE, 1 << 10, 7)  # another kind and seed weigh afresh
    assert calls == {}
    assert repr(again.to_json_dict()) == repr(rep.to_json_dict())
    weights.clear_weight_cache()
    rebuilt = verify_identity(g, LOG, 1 << 10, 5)
    assert calls["boundary_strata"] == 1
    assert calls["contract"] == len(rep.terms) and calls["canonical_key"] > 0
    assert calls["orientation_sign"] > 0  # the row holds each term's full sign
    assert repr(rebuilt.to_json_dict()) == repr(rep.to_json_dict())
    assert [st for st, _, _ in rep.terms] == [st for st, _ in boundary_strata(g)]


def test_identity_rows_search_each_labelled_graph_once(monkeypatch):
    # the rows' factor classes come from weight_class's memo: while every
    # swept identity row is built, no labelled graph is searched twice
    searched = []
    search = weights.canonical_key
    monkeypatch.setattr(weights, "canonical_key", lambda g: searched.append(g) or search(g))
    weights.clear_weight_cache()
    try:
        for g in suite._swept_graphs(1):
            stokes._identity_row(g)
    finally:
        weights.clear_weight_cache()
    assert searched and len(searched) == len(set(searched))


@pytest.mark.parametrize("kind", [ANGLE, LOG])
@pytest.mark.parametrize("seed", [5, 7])
def test_warm_identity_reuses_the_stratum_records(kind, seed):
    # the row's records are the report's: a warm call builds no stratum
    g = parse_graph("2 2 ; a1>a2 a2>g1 a2>g2")
    rep = verify_identity(g, kind, 1 << 10, seed)
    again = verify_identity(g, kind, 1 << 10, seed)
    assert len(again.terms) == len(rep.terms) > 0
    for i in range(len(rep.terms)):
        assert rep.terms[i][0] is again.terms[i][0]


def _weighed_classes(monkeypatch, kind, samples, seed):
    """``(graph, kinds)`` of every ``compute_weight`` call one
    ``verify_identity`` pass over the swept graphs makes."""
    calls = []
    compute = weights.compute_weight

    def counted(g, kinds, *args):
        calls.append((g, kinds))
        return compute(g, kinds, *args)
    with monkeypatch.context() as m:
        m.setattr(weights, "compute_weight", counted)
        for g in suite._swept_graphs(1):
            verify_identity(g, kind, samples, seed)
    return calls


def test_identity_checks_weigh_both_kinds_in_one_pass(monkeypatch):
    # the angle pass estimates each missing class under both kinds, so the
    # log pass at the same budget and seed weighs nothing
    weights.clear_weight_cache()
    angle = _weighed_classes(monkeypatch, ANGLE, 1 << 10, 3)
    assert len(angle) == len({g for g, _ in angle}) == 39
    assert {kinds for _, kinds in angle} == {(ANGLE, LOG)}
    assert _weighed_classes(monkeypatch, LOG, 1 << 10, 3) == []
    # a one-kind check pays for its kind alone
    weights.clear_weight_cache()
    assert weights.vanishing_check(parse_graph("2 1 ; a1>a2 a2>a1 a1>g1"), LOG, 1 << 10, 3)["passed"]
    assert weights._cache and {kind for _, kind, _, _ in weights._cache} == {LOG}
    weights.clear_weight_cache()


@pytest.mark.parametrize("seed", [3, 8])
def test_shared_pass_matches_one_kind_estimates(monkeypatch, seed):
    # every class the sweep estimates: each kind of a two-kind pass equals
    # its own one-kind estimate bit for bit, rejected rows included
    weights.clear_weight_cache()
    classes = [g for g, _ in _weighed_classes(monkeypatch, LOG, 1 << 10, seed)]
    weights.clear_weight_cache()
    assert len(classes) == 39
    for threads in (1, 2):
        for g in classes:
            both = weights.compute_weight(g, (ANGLE, LOG), 1 << 10, seed, threads)
            for kind, est in zip((ANGLE, LOG), both):
                one = weights.compute_weight(g, kind, 1 << 10, seed, threads)
                assert ((repr(est.value), repr(est.stderr), est.samples, est.rejected, est.kind)
                        == (repr(one.value), repr(one.stderr), one.samples, one.rejected, kind)), g
