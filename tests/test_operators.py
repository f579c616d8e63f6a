import itertools
import json
from fractions import Fraction

import pytest

from kwl import operators
from kwl.forms import ANGLE, LOG
from kwl.graphs import make_graph, parse_graph
from kwl.operators import (MultiDiffOperator, PolyMultivector, _poly_key, bivector,
                           bivector_from_json_dict,
                           check_associativity, check_globalization, contour_check, d_gamma,
                           jacobi_defect, multiplication_operator,
                           one_in_one_out_integral, operator_arity, p_abs, p_acc,
                           p_add, p_diff, p_diff_multi, p_int, p_max_abs, p_mul, p_sub,
                           poly_from_json_list, poly_from_terms, star_product,
                           u_n, vector_field)

WEDGE = make_graph(1, 2, [(0, 1), (0, 2)])
PI_CONST = bivector(2, [(0, 1, (0, 0), 1)])
PI_LINEAR = bivector(2, [(0, 1, (1, 0), 1)])
X = {(1, 0): Fraction(1)}
Y = {(0, 1): Fraction(1)}


def test_poly_helpers():
    p = p_add({(1, 0): 1}, {(1, 0): 2, (0, 1): 1})
    assert p == {(1, 0): 3, (0, 1): 1}
    assert p_mul(X, Y) == {(1, 1): Fraction(1)}
    assert p_diff({(2, 0): Fraction(1)}, 0) == {(1, 0): Fraction(2)}
    assert p_sub(X, X) == {}


def test_multivector_component_sign():
    assert PI_CONST.component((0, 1)) == {(0, 0): Fraction(1)}
    assert PI_CONST.component((1, 0)) == {(0, 0): Fraction(-1)}
    assert PI_CONST.component((0, 0)) == {}


def test_multivector_validation():
    with pytest.raises(ValueError, match="increasing"):
        PolyMultivector.build(2, 2, [((1, 0), (0, 0), 1)])
    with pytest.raises(ValueError, match="range"):
        PolyMultivector.build(2, 2, [((0, 5), (0, 0), 1)])


def test_d_gamma_wedge_is_contraction():
    D = d_gamma(WEDGE, [PI_CONST])
    assert D.apply([X, Y]) == {(0, 0): Fraction(1)}
    assert D.apply([Y, X]) == {(0, 0): Fraction(-1)}
    assert D.apply([X, X]) == {}


def test_d_gamma_degree_mismatch_zero():
    xi = vector_field(2, [(0, (0, 0), 1)])
    assert d_gamma(WEDGE, [xi]).is_zero()


def test_d_gamma_needs_an_aerial_vertex():
    with pytest.raises(ValueError, match="at least one"):
        d_gamma(make_graph(0, 2, []), [])


def test_d_gamma_edge_transposition_flips_sign():
    swapped = make_graph(1, 2, [(0, 2), (0, 1)])
    D1 = d_gamma(WEDGE, [PI_CONST])
    D2 = d_gamma(swapped, [PI_CONST])
    assert p_add(D1.terms, D2.terms) == {}


def test_d_gamma_aerial_edge_differentiates():
    # two vertices, edge between them: the coefficient of the target is
    # differentiated by the edge index
    g = parse_graph("2 2 ; a1>a2 a1>g1 a2>g1 a2>g2")
    D = d_gamma(g, [PI_LINEAR, PI_LINEAR])
    assert not D.is_zero()  # the linear coefficient survives one derivative
    assert D.apply([{(1, 1): Fraction(1)}, Y]) == {(1, 0): Fraction(1)}
    Dc = d_gamma(g, [PI_CONST, PI_CONST])
    assert Dc.is_zero()  # constant coefficients are killed by the edge


def test_operator_arity_formula():
    assert operator_arity([PI_CONST]) == 2
    assert operator_arity([PI_CONST, PI_CONST]) == 2
    xi = vector_field(2, [(0, (0, 0), 1)])
    assert operator_arity([xi, xi]) == 0
    f = PolyMultivector.build(2, 0, [((), (0, 0), Fraction(1))])
    assert operator_arity([f]) == 0


def test_u1_is_half_contraction():
    U1, _ = u_n(ANGLE, [PI_CONST], 10 ** 5, seed=2)
    val = U1.apply([X, Y])
    assert abs(complex(val[(0, 0)]) - 0.5) < 0.01
    val2 = U1.apply([Y, X])
    assert abs(complex(val2[(0, 0)]) + 0.5) < 0.01


def test_u1_exact_weight_isolates_combinatorics():
    # replacing the wedge weight by its exact 1/2 must reproduce the half
    # contraction with no integration error at all
    D = d_gamma(WEDGE, [PI_CONST]).scaled(Fraction(1, 2))
    assert D.apply([X, Y]) == {(0, 0): Fraction(1, 2)}
    swapped = MultiDiffOperator(2, 2, {((s2, s1), mono): c
                                       for ((s1, s2), mono), c in D.terms.items()})
    anti = MultiDiffOperator(2, 2, p_add(D.terms, swapped.scaled(-1).terms)).scaled(Fraction(1, 2))
    assert anti.apply([X, Y]) == {(0, 0): Fraction(1, 2)}


def test_u1_on_function_is_multiplication():
    f = PolyMultivector.build(2, 0, [((), (2, 0), Fraction(3))])
    U1, _ = u_n(ANGLE, [f], 10 ** 4, seed=2)
    assert U1.arity == 0
    assert U1.apply([]) == {(2, 0): complex(3)}


def test_u2_vanishes_on_vector_fields():
    xi1 = vector_field(2, [(0, (0, 0), 1)])
    xi2 = vector_field(2, [(1, (0, 0), 1)])
    U2, _ = u_n(LOG, [xi1, xi2], 10 ** 5, seed=2)
    assert U2.max_abs() < 5e-3


def test_star_zero_bivector_is_plain_product():
    zero = bivector(2, [])
    star = star_product(zero, 2, ANGLE, 10 ** 4, seed=1)
    out = star.multiply(X, Y)
    assert out[0] == {(1, 1): Fraction(1)}
    assert out[1] == {} and out[2] == {}


def test_star_first_order_commutator():
    star = star_product(PI_CONST, 1, ANGLE, 4 * 10 ** 5, seed=2)
    xy = star.multiply(X, Y)
    yx = star.multiply(Y, X)
    assert abs(complex(xy[1][(0, 0)]) - 0.5) < 5e-3
    assert abs(complex(yx[1][(0, 0)]) + 0.5) < 5e-3


def moyal_order2_oracle(f, g):
    """Brute-force second-order term of the constant-coefficient product."""
    from kwl.operators import p_acc, p_diff_multi
    out = {}
    comps = {(0, 1): 1, (1, 0): -1}
    for (i1, j1), s1 in comps.items():
        for (i2, j2), s2 in comps.items():
            df = [0, 0]; df[i1] += 1; df[i2] += 1
            dg = [0, 0]; dg[j1] += 1; dg[j2] += 1
            for mono, c in p_mul(p_diff_multi(f, tuple(df)),
                                 p_diff_multi(g, tuple(dg))).items():
                p_acc(out, mono, c * s1 * s2 * Fraction(1, 8))
    return out


def test_star_order2_matches_moyal():
    star = star_product(PI_CONST, 2, ANGLE, 4 * 10 ** 5, seed=2)
    for f in [{(2, 0): Fraction(1)}, {(1, 1): Fraction(1)}]:
        for g in [{(0, 2): Fraction(1)}, {(1, 1): Fraction(1)}]:
            got = star.ops[2].apply([f, g])
            want = moyal_order2_oracle(f, g)
            dev = p_max_abs(p_sub(got, want))
            assert dev < 0.02, (f, g, dev)


def test_associativity_order_zero_exact():
    rep = check_associativity(PI_CONST, X, Y, X, 0, ANGLE, 10 ** 4, seed=1)
    assert rep.residuals == (0.0,)
    assert rep.passed


def test_associativity_linear_poisson():
    star = star_product(PI_LINEAR, 2, ANGLE, 2 * 10 ** 5, seed=2)
    rep = check_associativity(PI_LINEAR, X, Y, {(1, 1): Fraction(1)}, 2,
                              ANGLE, 2 * 10 ** 5, seed=2, star=star)
    assert rep.passed


# the brackets of the star_assoc benchmark workload and their test monomials
BRACKETS = (
    bivector(2, [(0, 1, (1, 0), 1)]),
    bivector(2, [(0, 1, (1, 1), 1)]),
    # so(3): {x, y} = z, {y, z} = x, {z, x} = y
    bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1), (0, 2, (0, 1, 0), -1)]),
)


def monomials(dim):
    """All monomials of degree 1 and 2 in ``dim`` variables."""
    out = []
    for degree in (1, 2):
        for combo in itertools.combinations_with_replacement(range(dim), degree):
            exps = [0] * dim
            for v in combo:
                exps[v] += 1
            out.append({tuple(exps): Fraction(1)})
    return out


def reference_apply(op, funcs):
    """Per-term application: every term differentiates its arguments anew."""
    out = {}
    for (slots, mono), c in op.terms.items():
        prod = {mono: c}
        for exps, f in zip(slots, funcs):
            df = p_diff_multi(f, exps)
            if not df:
                prod = {}
                break
            prod = p_mul(prod, df)
        for mm, cc in prod.items():
            p_acc(out, mm, cc)
    return out


def reference_associativity(series, f, g, h, order, tol=1e-3):
    """Residuals and tolerances rebuilding every inner product per (k, a) pair."""
    ops, errs = series.ops, series.errs
    fa, ga, ha = p_abs(f), p_abs(g), p_abs(h)
    residuals, tolerances = [], []
    for k in range(order + 1):
        resid = {}
        noise = 0.0
        for a in range(k + 1):
            b = k - a
            left = reference_apply(ops[b], [reference_apply(ops[a], [f, g]), h])
            right = reference_apply(ops[b], [f, reference_apply(ops[a], [g, h])])
            resid = p_add(resid, p_sub(left, right))
            absA = reference_apply(ops[a].abs_coeffs(), [fa, ga])
            errA = reference_apply(errs[a], [fa, ga])
            noise += p_max_abs(reference_apply(errs[b], [absA, ha]))
            noise += p_max_abs(reference_apply(ops[b].abs_coeffs(), [errA, ha]))
            absAr = reference_apply(ops[a].abs_coeffs(), [ga, ha])
            errAr = reference_apply(errs[a], [ga, ha])
            noise += p_max_abs(reference_apply(errs[b], [fa, absAr]))
            noise += p_max_abs(reference_apply(ops[b].abs_coeffs(), [fa, errAr]))
        residuals.append(p_max_abs(resid))
        tolerances.append(3.0 * noise + tol)
    return tuple(residuals), tuple(tolerances)


def count_calls(monkeypatch):
    """Count MultiDiffOperator.apply and abs_coeffs calls from here on."""
    calls = {"apply": 0, "abs_coeffs": 0}
    for name in calls:
        method = getattr(MultiDiffOperator, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(MultiDiffOperator, name, counted)
    return calls


@pytest.mark.parametrize("kind", [ANGLE, LOG])
@pytest.mark.parametrize("pi", BRACKETS, ids=["x", "xy", "so3"])
def test_associativity_matches_per_pair_reference(pi, kind, monkeypatch):
    star = star_product(pi, 2, kind, 2 ** 10, seed=3)
    triples = list(itertools.product(monomials(pi.dim), repeat=3))[::7]

    def check_all():
        return [check_associativity(pi, f, g, h, 2, kind, 2 ** 10, seed=3, star=star)
                for f, g, h in triples]
    reports = check_all()
    for (f, g, h), rep in zip(triples, reports):
        assert (rep.residuals, rep.tolerances) == reference_associativity(star, f, g, h, 2)
        for op in star.ops + star.errs:
            assert op.apply([f, g]) == reference_apply(op, [f, g])
    # a second pass on the same star takes every inner product from its memo
    calls = count_calls(monkeypatch)
    assert check_all() == reports
    assert calls == {"apply": 36 * len(triples), "abs_coeffs": 0}


def test_associativity_apply_and_abs_counts(monkeypatch):
    pi = BRACKETS[2]
    star = star_product(pi, 2, ANGLE, 2 ** 10, seed=3)
    calls = count_calls(monkeypatch)
    f, g, h = monomials(3)[3:6]
    check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    assert calls == {"apply": 54, "abs_coeffs": 3}


def test_associativity_memo_serves_a_new_h(monkeypatch):
    pi = BRACKETS[2]
    star = star_product(pi, 2, ANGLE, 2 ** 10, seed=3)
    f, g, h, h2 = monomials(3)[3:7]
    check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    calls = count_calls(monkeypatch)
    rep = check_associativity(pi, f, g, h2, 2, ANGLE, 2 ** 10, seed=3, star=star)
    # (f, g) comes from the memo; only (g, h2) and the outer products are new
    assert calls == {"apply": 36 + 9, "abs_coeffs": 0}
    monkeypatch.undo()
    assert rep == check_associativity(pi, f, g, h2, 2, ANGLE, 2 ** 10, seed=3)


def test_associativity_differentiates_a_seen_h_once_per_series(monkeypatch):
    pi = BRACKETS[2]
    star = star_product(pi, 2, ANGLE, 2 ** 10, seed=3)
    f, g, h, f2 = monomials(3)[3:7]
    check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    h_key = _poly_key(p_int(h))
    calls = []
    diff = operators.p_diff_multi
    monkeypatch.setattr(operators, "p_diff_multi",
                        lambda a, exps: calls.append(_poly_key(a)) or diff(a, exps))
    rep = check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    assert calls == []  # every finishing polynomial keeps its derivatives
    rep2 = check_associativity(pi, f2, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    assert calls and h_key not in calls  # a new f; h is differentiated no more
    monkeypatch.undo()
    assert rep == check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3)
    assert rep2 == check_associativity(pi, f2, g, h, 2, ANGLE, 2 ** 10, seed=3)


def poly_items(p):
    """A polynomial's items in order with coefficient types, for bit-for-bit comparison."""
    return [(mono, type(c), c) for mono, c in p.items()]


# a trivector in three dimensions, whose one-vertex graph has three argument slots
TRIVECTOR = PolyMultivector.build(3, 3, [((0, 1, 2), (1, 1, 0), 2), ((0, 1, 2), (0, 0, 2), -1)])
ARGS3 = ({(2, 1, 0): Fraction(1, 3), (0, 1, 1): 2, (1, 0, 0): 1.5},
         {(1, 0, 2): 0.25, (0, 2, 1): Fraction(-5, 7), (0, 0, 1): -3},
         {(1, 1, 1): complex(0.5, 2.0), (3, 0, 0): 1, (0, 2, 0): -0.75})


def partial_cases():
    """(operator, arguments) of arity 0-3 with int, Fraction, float and complex coefficients."""
    tri = d_gamma(parse_graph("1 3 ; a1>g1 a1>g2 a1>g3"), [TRIVECTOR])
    chain = d_gamma(parse_graph("2 2 ; a1>a2 a1>g1 a2>g1 a2>g2"), [PI_LINEAR, PI_LINEAR])
    nullary = MultiDiffOperator(2, 0, {((), (1, 0)): 3, ((), (0, 2)): complex(0.5, -1)})
    unary = MultiDiffOperator(3, 1, {(((1, 0, 0),), (0, 1, 0)): Fraction(2, 3),
                                     (((0, 0, 1),), (0, 0, 0)): 0.125,
                                     (((0, 0, 0),), (1, 0, 0)): -2})
    return [(nullary, []), (unary, [ARGS3[0]]),
            (chain, [{(2, 1): Fraction(1, 3), (0, 1): 1}, {(1, 2): 0.5, (3, 0): -2}]),
            (chain.scaled(complex(0.3, -1.1)), [{(1, 1): 1, (0, 2): 2.5}, {(2, 1): 1}]),
            (tri, list(ARGS3)), (tri.scaled(Fraction(1, 3)), list(ARGS3)),
            (tri.scaled(0.7), list(ARGS3)), (tri.scaled(complex(0.3, -1.1)), list(ARGS3))]


@pytest.mark.parametrize("op, funcs", partial_cases(),
                         ids=["arity0", "arity1", "arity2", "arity2-complex", "arity3-int",
                              "arity3-fraction", "arity3-float", "arity3-complex"])
def test_partial_application_matches_apply_bit_for_bit(op, funcs):
    want = op.apply(funcs)
    assert want and poly_items(want) == poly_items(reference_apply(op, funcs))
    for k in range(op.arity + 1):
        # fill k slots at once, then the rest one slot at a time, then finish
        part = op.fill(funcs[:k])
        assert part[0] == op.arity - k
        for f in funcs[k:]:
            part = op.fill([f], part)
        assert poly_items(op.apply([], part)) == poly_items(want)
        assert poly_items(op.apply(funcs[k:], op.fill(funcs[:k]))) == poly_items(want)


def test_partial_application_drops_a_term_whose_later_slot_derivative_is_empty():
    op = MultiDiffOperator(2, 2, {(((1, 0), (2, 0)), (0, 0)): 5,
                                  (((0, 0), (0, 1)), (1, 0)): 0.5})
    f, g = {(2, 0): 1}, {(0, 1): 3, (1, 0): 1}
    part = op.fill([f])
    assert part == (1, [(((2, 0),), {(1, 0): 10}), (((0, 1),), {(3, 0): 0.5})])
    # d^2/dx^2 of g is empty: only the second term survives the second slot
    assert op.fill([g], part) == (0, [((), {(3, 0): 1.5})])
    assert poly_items(op.apply([f, g])) == poly_items(reference_apply(op, [f, g]))
    assert poly_items(op.apply([g], part)) == poly_items(op.apply([f, g]))


def last_slot_cases():
    """(operator, arguments, the result's items) for the last slot's sum."""
    # 1e-200 * 2e-200 underflows to 0.0 on the monomial of the int 6, which stays an int
    underflow = (MultiDiffOperator(2, 1, {(((0, 0),), (0, 0)): 3, (((0, 1),), (0, 0)): 1e-200}),
                 [{(1, 1): 2, (1, 2): 1e-200}])
    # int products stay int until a float product meets them
    mixed = (MultiDiffOperator(2, 2, {(((0, 0), (0, 0)), (0, 0)): 2,
                                      (((1, 0), (0, 0)), (0, 1)): 0.5}),
             [{(1, 0): 3, (0, 1): 1}, {(0, 1): 2}])
    # f * g puts 1e-16 and -1e-16 on (1, 1), which p_mul cancels before the
    # sum: added one at a time to the 1.0 already there they leave 1 - 2^-53
    colliding = (MultiDiffOperator(2, 2, {(((1, 0), (0, 0)), (1, 1)): 1,
                                          (((0, 0), (0, 0)), (0, 0)): 1}),
                 [{(1, 0): 1.0, (0, 1): 1.0}, {(0, 1): 1e-16, (1, 0): -1e-16, (0, 0): 1.0}])
    return [(*underflow, [((1, 1), int, 6), ((1, 2), float, 3e-200), ((1, 0), float, 2e-200)]),
            (*mixed, [((1, 1), int, 12), ((0, 2), float, 7.0)]),
            (*colliding, [((1, 2), float, 1e-16), ((2, 1), float, -1e-16), ((1, 1), float, 1.0),
                          ((2, 0), float, -1e-16), ((1, 0), float, 1.0),
                          ((0, 2), float, 1e-16), ((0, 1), float, 1.0)])]


@pytest.mark.parametrize("op, funcs, items", last_slot_cases(),
                         ids=["underflow", "int-meets-float", "colliding-products"])
def test_last_slot_sums_as_p_mul_then_sum(op, funcs, items):
    want = reference_apply(op, funcs)
    assert poly_items(want) == items
    assert poly_items(op.apply(funcs)) == items
    assert poly_items(op.apply(funcs[-1:], op.fill(funcs[:-1]))) == items


def test_partial_application_rejects_wrong_argument_counts():
    op = multiplication_operator(2)
    with pytest.raises(ValueError, match="2 open slots, got 3 arguments"):
        op.apply([X, Y, X])
    with pytest.raises(ValueError, match="1 open slots, got 2 arguments"):
        op.fill([X, Y], op.fill([X]))
    with pytest.raises(ValueError, match="1 slots left open"):
        op.apply([X])


def count_builds(monkeypatch):
    """Record the argument keys of MultiDiffOperator.fill calls that start from
    the whole operator: memoized partials and full applications."""
    calls = []
    fill = MultiDiffOperator.fill

    def counted(self, funcs, part=None):
        if part is None:
            calls.append(tuple(_poly_key(f) for f in funcs))
        return fill(self, funcs, part)
    monkeypatch.setattr(MultiDiffOperator, "fill", counted)
    return calls


def test_associativity_second_pass_builds_no_partial(monkeypatch):
    pi = BRACKETS[2]
    star = star_product(pi, 2, ANGLE, 2 ** 10, seed=3)
    triples = list(itertools.product(monomials(3), repeat=3))[::11]

    def check_all():
        return [check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
                for f, g, h in triples]
    builds = count_builds(monkeypatch)
    reports = check_all()
    memo = dict(star._memo)
    assert sum(len(funcs) == 1 for funcs in builds) > 0
    builds.clear()
    assert check_all() == reports
    assert builds == [] and star._memo == memo


def test_associativity_pairs_with_equal_products_share_a_partial(monkeypatch):
    x, y, h = p_int(X), p_int(Y), {(1, 1): 1}
    xy = (_poly_key({(1, 1): 1}),)  # ops[0](x, y) = ops[0](y, x)
    star, fresh = (star_product(PI_LINEAR, 2, ANGLE, 2 ** 10, seed=3) for _ in range(2))
    rep_xy = check_associativity(PI_LINEAR, x, y, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    shared = [key for key in star._memo if key[0] == "fill" and key[3:] == xy]
    assert len(shared) == 3  # ops[b] with xy in its first slot, b = 0, 1, 2
    builds = count_builds(monkeypatch)
    rep_yx = check_associativity(PI_LINEAR, y, x, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    assert xy not in builds
    # on a fresh series the same check builds those three partials
    builds.clear()
    assert rep_yx == check_associativity(PI_LINEAR, y, x, h, 2, ANGLE, 2 ** 10, seed=3,
                                         star=fresh)
    assert builds.count(xy) == 3
    monkeypatch.undo()
    assert rep_xy == check_associativity(PI_LINEAR, x, y, h, 2, ANGLE, 2 ** 10, seed=3)


@pytest.mark.parametrize("pi, order, kind, match", [
    (PI_LINEAR, 1, ANGLE, "order"),
    (bivector(3, []), 2, ANGLE, "dimension"),
    (PI_LINEAR, 2, LOG, "kind"),
    (PI_CONST, 2, ANGLE, "another bivector"),
], ids=["lower-order", "other-dimension", "other-kind", "other-bivector"])
def test_associativity_rejects_mismatched_star(pi, order, kind, match):
    star = star_product(pi, order, kind, 2 ** 10, seed=1)
    with pytest.raises(ValueError, match=match):
        check_associativity(PI_LINEAR, X, Y, X, 2, ANGLE, 2 ** 10, seed=1, star=star)


def test_associativity_rejects_negative_order():
    star = star_product(PI_LINEAR, 2, ANGLE, 2 ** 10, seed=1)
    for kwargs in ({"star": star}, {}):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2, got -1"):
            check_associativity(PI_LINEAR, X, Y, X, -1, ANGLE, 2 ** 10, seed=1, **kwargs)


def test_integer_coefficients_stay_int():
    assert [type(c) for _, _, c in PI_LINEAR.coeffs] == [int]
    assert type(poly_from_terms(2, [((1, 0), 2)])[(1, 0)]) is int
    assert [type(c) for c in multiplication_operator(2).terms.values()] == [int]
    assert [type(c) for c in d_gamma(WEDGE, [PI_CONST]).terms.values()] == [int, int]
    third = Fraction(1, 3)
    assert p_int({(1, 0): Fraction(2), (0, 1): third, (0, 0): 0.5}) == {
        (1, 0): 2, (0, 1): third, (0, 0): 0.5}
    assert [type(c) for c in p_int({(1, 0): Fraction(2), (0, 1): third}).values()] == [
        int, Fraction]


def test_associativity_exact_with_fraction_coefficients():
    pi = BRACKETS[2]
    star = star_product(pi, 2, ANGLE, 2 ** 10, seed=3)
    f = {(1, 0, 0): Fraction(1, 3), (0, 1, 1): Fraction(2)}
    g = {(0, 1, 0): Fraction(1, 3), (0, 0, 2): Fraction(-5, 7)}
    h = {(1, 1, 0): Fraction(-1, 3), (0, 0, 1): 1}
    rep = check_associativity(pi, f, g, h, 2, ANGLE, 2 ** 10, seed=3, star=star)
    assert rep.residuals[0] == 0.0
    assert (rep.residuals, rep.tolerances) == reference_associativity(star, f, g, h, 2)


def chained_p_diff(a, exps):
    """Derivative by a multi-index as one p_diff call per unit of each exponent."""
    out = a
    for var, k in enumerate(exps):
        for _ in range(k):
            out = p_diff(out, var)
    return out


def test_p_diff_multi_matches_chained_p_diff():
    polys = [
        {(5, 2, 0): 0.1, (6, 0, 3): -2.7, (1, 1, 1): 1e-300, (0, 0, 0): 3.0},
        {(5, 3, 1): 0.3 + 0.7j, (7, 2, 2): -1e-5j, (2, 0, 6): complex(1.1, -0.0)},
        {(5, 5, 5): Fraction(1, 3), (6, 1, 2): Fraction(-7, 5), (0, 6, 0): 2},
    ]
    for a in polys:
        for exps in itertools.product(range(8), repeat=3):
            got, want = p_diff_multi(a, exps), chained_p_diff(a, exps)
            assert list(got.items()) == list(want.items()), (a, exps)
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_wrong_monomial_dimension_rejected():
    so3 = bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1), (0, 2, (0, 1, 0), -1)])
    for order in (0, 1):
        with pytest.raises(ValueError, match="3 exponents"):
            check_associativity(so3, X, Y, X, order, ANGLE, 2 ** 10, seed=1)
    star = star_product(so3, 1, ANGLE, 2 ** 10, seed=1)
    with pytest.raises(ValueError, match="3 exponents"):
        star.multiply(X, Y)


def test_zero_coefficients_dropped_like_before():
    # p_acc drops a coefficient exactly when the former test, Fraction == 0
    # or abs(c) == 0.0, said it was zero
    nan, inf = float("nan"), float("inf")
    values = [Fraction(0), Fraction(1, 3), 0, 0.0, -0.0, 5e-324, nan, inf, -inf,
              0j, complex(-0.0, -0.0), complex(0.0, 5e-324), complex(nan, 0.0),
              complex(0.0, nan), complex(inf, 0.0), 1j]
    for c in values:
        was_zero = c == 0 if isinstance(c, Fraction) else abs(c) == 0.0
        out = {}
        p_acc(out, (0, 0), c)
        assert (out == {}) == was_zero, c


def test_non_poisson_rejected():
    if jacobi_defect(bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1)])) > 0:
        with pytest.raises(ValueError, match="Poisson"):
            check_associativity(
                bivector(3, [(0, 1, (0, 0, 1), 1), (1, 2, (1, 0, 0), 1)]),
                {(1, 0, 0): Fraction(1)}, {(0, 1, 0): Fraction(1)},
                {(0, 0, 1): Fraction(1)}, 1, ANGLE, 10 ** 4, 1)


def test_jacobi_defect_two_dim_always_zero():
    assert jacobi_defect(PI_LINEAR) == 0.0
    assert jacobi_defect(PI_CONST) == 0.0


def test_one_in_one_out_integral_vanishes():
    val, err, _ = one_in_one_out_integral(0.3 + 1.1j, -0.4 + 0.8j, 2 * 10 ** 5, 3)
    assert abs(val) < max(1e-2, 3 * err)
    assert contour_check(0.3 + 1.1j, -0.4 + 0.8j, 2 * 10 ** 5, 3)[:3] == (True, val, err)


def test_globalization_log():
    rep = check_globalization(10 ** 5, seed=4)
    assert rep.passed
    assert all(ok for _, _, ok in rep.linear_slot)
    classes = {c for _, c, _ in rep.linear_slot}
    assert "zero-by-linearity" in classes


def test_bivector_json_round_trip():
    d = json.loads('{"dim": 2, "bivector": [{"i": 0, "j": 1, "monomial": [1, 0], "coeff": 1.0}]}')
    back = bivector_from_json_dict(d)
    assert back.dim == 2
    assert back.component((0, 1)) == PI_LINEAR.component((0, 1)) == {(1, 0): 1.0}


def test_poly_json_round_trip():
    rows = json.loads('[{"monomial": [1, 2], "coeff": 1.5}, {"monomial": [0, 0], "coeff": -2}]')
    assert poly_from_json_list(2, rows) == {(1, 2): 1.5, (0, 0): -2}


def test_multiplication_operator():
    mult = multiplication_operator(2)
    assert mult.apply([X, Y]) == {(1, 1): Fraction(1)}


def test_weight_times_operator_order_invariant():
    from kwl.graphs import parse_graph
    from kwl.weights import cached_weight
    g = parse_graph("2 1 ; a1>a2 a2>g1 a1>g1")
    h = parse_graph("2 1 ; a2>g1 a1>a2 a1>g1")
    wg = cached_weight(g, ANGLE, 10 ** 4, 5).value
    wh = cached_weight(h, ANGLE, 10 ** 4, 5).value
    Dg = d_gamma(g, [PI_LINEAR, PI_LINEAR])
    Dh = d_gamma(h, [PI_LINEAR, PI_LINEAR])
    probe = [{(1, 1): Fraction(1)}]
    left = {k: complex(wg) * complex(v) for k, v in Dg.apply(probe).items()}
    right = {k: complex(wh) * complex(v) for k, v in Dh.apply(probe).items()}
    assert set(left) == set(right)
    for k in left:
        assert abs(left[k] - right[k]) < 1e-12
