"""Acceptance criteria, one test per criterion at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a short summary line.
"""

import time

from kwl import suite

CFG = suite.SuiteConfig()
#: the structural_vanishing rows whose aerial sink takes every edge of a directed cycle
FORMER_WHEELS = ["3 0 ; a1>a2 a1>a3 a2>a1 a2>a3", "3 1 ; a1>a2 a1>a3 a1>g1 a2>a1 a2>a3",
                 "4 0 ; a1>a2 a1>a3 a1>a4 a2>a1 a2>a3 a2>a4",
                 "4 0 ; a1>a2 a1>a3 a2>a1 a2>a3 a4>a1 a4>a2",
                 "4 0 ; a1>a2 a1>a3 a2>a3 a2>a4 a4>a1 a4>a3"]


def report(res, extra=""):
    line = f"criterion {res.name}: {'PASS' if res.passed else 'FAIL'} {extra}"
    print(line)
    return res


def test_criterion_01_wedge_weight():
    t0 = time.time()
    res = suite.check_wedge_weight(CFG)
    dt = time.time() - t0
    report(res, f"angle={res.details['angle'][0]:.5f} "
                f"stderr={res.details['angle_stderr']:.2g} runtime={dt:.1f}s")
    assert res.passed
    assert dt < 10.0


def test_criterion_02_structural_vanishing():
    res = suite.check_structural_vanishing(CFG)
    worst = max((abs(complex(*r["value"])) for r in res.details["graphs"]), default=0.0)
    report(res, f"graphs={res.details['count']} worst|value|={worst:.2g}")
    assert res.details["count"] >= 40  # all three patterns are exercised
    patterns = {r["pattern"] for r in res.details["graphs"]}
    assert patterns == {"univalent", "one-in-one-out", "no-outgoing-edge"}
    # a wheel hub is an aerial sink: its graphs are no-outgoing-edge rows, decided exact
    rows = {r["graph"]: r for r in res.details["graphs"]}
    for wheel in FORMER_WHEELS:
        assert (rows[wheel]["pattern"], rows[wheel]["exact"]) == ("no-outgoing-edge", True)
    assert res.passed


def test_criterion_03_contour_identity():
    res = suite.check_contour_identity(CFG)
    worst = max(abs(complex(*r["value"])) for r in res.details["pairs"])
    report(res, f"pairs=5 worst|I|={worst:.2g}")
    assert res.passed


def test_criterion_04_stokes_identities():
    res = suite.check_stokes_identities(CFG)
    report(res, f"angle={res.details['checked_angle']} log={res.details['checked_log']} "
                f"worst|res|={res.details['worst']['residual']:.2g}")
    assert res.details["checked_angle"] > 900
    assert res.passed


def test_criterion_05_counterterm():
    res = suite.check_counterterm(CFG)
    report(res, f"probes={len(res.details['probes'])}")
    assert res.passed


def test_criterion_06_regularity():
    res = suite.check_regularity(CFG)
    report(res, f"families={res.details['families']} "
                f"worst_ratio={res.details['worst_ratio']:.3f}")
    assert res.details["families"] >= 20
    assert res.passed


def test_criterion_07_star_product():
    res = suite.check_star_product(CFG)
    report(res, f"commutator_dev={res.details['commutator']['deviation']:.2g} "
                f"order2_dev={res.details['order2_vs_constant_expansion']['worst_deviation']:.2g} "
                f"assoc_worst={res.details['associativity_linear']['worst_residual']:.2g}")
    assert res.passed


def test_criterion_08_globalization():
    res = suite.check_globalization_suite(CFG)
    report(res, f"linear_slot={res.details['linear_slot_total']}")
    assert res.details["linear_slot_total"] > 0
    assert res.passed


def test_criterion_09_config_properties():
    res = suite.check_config_properties(CFG)
    det = res.details
    report(res, f"monotone_hits={det['monotonicity']['hits']} "
                f"containment_hits={det['gcd_containment']['hits']} "
                f"torus_worst={det['torus_commutation']['worst']:.2g}")
    assert det["monotonicity"]["hits"] > 100         # the property is exercised
    assert det["gcd_containment"]["hits"] > 100
    assert res.passed


def test_criterion_10_determinism():
    res = suite.check_determinism(CFG)
    report(res, f"stderr {res.details['stderr_coarse']:.2g} -> "
                f"{res.details['stderr_fine']:.2g}")
    assert res.details["bit_identical"]
    assert res.passed
