"""The verification suite: one named check per acceptance criterion.

Each check is a pure function of a :class:`SuiteConfig`; the runner
executes them in a fixed order, writes one JSON file per check, and
reports a summary.  Outputs contain no timestamps or timings, so repeated
runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import forms, operators, stokes
from .forms import ANGLE, LOG
from .graphs import (TYPE_I, canonical_key, collapse_layout, encode_graph, enumerate_graphs,
                     make_graph, parse_graph)
from .halfplane import (NestedFamily, chart_membership, degenerating_family,
                        gcd_families, make_configuration, torus_rotate)
from .operators import (STAR_TOL, bivector, check_associativity, check_globalization,
                        contour_check, star_product)
from .stokes import IDENTITY_TOL, PROBE_TOL, counterterm_probe, verify_identity
from .weights import (VANISHING_TOL, check_request, compute_weight, default_threads,
                      detect_vanishing_pattern, prefetch_weights, vanishing_check)

#: the smallest budget; the property check always draws it
MIN_SAMPLES = 10_000
#: the determinism check compares 4 threads with 1 at this budget: 4 pool tasks
DETERMINISM_SAMPLES = 1 << 16
#: the graph-sweeping checks take every graph on at most this many vertices
CHECK_VERTICES = 4


@dataclass(frozen=True)
class SuiteConfig:
    """``samples`` is the budget of the wedge, vanishing, contour and star
    checks; the identity check takes a tenth of it and globalization a
    fifth, neither below ``MIN_SAMPLES``.  The worker count is
    ``KWL_THREADS``'s: no report depends on it."""

    seed: int = 2024
    out_dir: str = "suite-out"
    samples: int = 1_000_000

    def __post_init__(self):
        if self.samples < MIN_SAMPLES:
            raise ValueError("samples must be at least 10^4")
        check_request(LOG, self.samples, self.seed)


_KEYS = {"seed": int, "out_dir": str, "samples": int}


def load_config(path: str) -> SuiteConfig:
    """Flat ``key = value`` text file; unknown or repeated keys are rejected."""
    values: Dict[str, object] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEYS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = _KEYS[key](raw)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return SuiteConfig(**values)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "passed": self.passed,
                           "details": self.details}, sort_keys=True, indent=1)


def _c(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


# ---------------------------------------------------------------------------
# criterion 1: the wedge weight


def check_wedge_weight(cfg: SuiteConfig) -> CheckResult:
    wedge = make_graph(1, 2, [(0, 1), (0, 2)])
    ang, log = compute_weight(wedge, (ANGLE, LOG), cfg.samples, cfg.seed)
    tol = max(VANISHING_TOL, 3.0 * ang.stderr)
    ok_angle = abs(ang.value - 0.5) <= tol
    ok_log = abs(log.value - ang.value) <= 3.0 * (ang.stderr + log.stderr) + 1e-12
    return CheckResult("wedge_weight", ok_angle and ok_log, {
        "angle": _c(ang.value), "angle_stderr": ang.stderr,
        "log": _c(log.value), "log_stderr": log.stderr,
        "tolerance": tol, "samples": ang.samples,
    })


# ---------------------------------------------------------------------------
# criterion 2: structural vanishing of log weights


def _swept_graphs(deficit: int, one_per_class: bool = False):
    """Every graph on at most ``CHECK_VERTICES`` vertices with ``deficit``
    fewer edges than top degree, 2n + m - 2: 0 for the weights, 1 for the
    boundary identities.  ``one_per_class`` keeps the first graph of each
    canonical class."""
    seen = set()
    for n in range(0, CHECK_VERTICES + 1):
        for m in range(0, CHECK_VERTICES + 1 - n):
            e = 2 * n + m - 2 - deficit
            if not 0 <= e <= n * (n + m - 1):
                continue
            for g in enumerate_graphs(n, m, e):
                if one_per_class:
                    key, _ = canonical_key(g)
                    if key in seen:
                        continue
                    seen.add(key)
                yield g


def check_structural_vanishing(cfg: SuiteConfig) -> CheckResult:
    rows = []
    ok = True
    swept = [g for g in _swept_graphs(0, one_per_class=True)
             if detect_vanishing_pattern(g) is not None]
    prefetch_weights(swept, LOG, cfg.samples, cfg.seed)
    for g in swept:
        good, est, pattern, bound = vanishing_check(g, LOG, cfg.samples, cfg.seed)
        ok = ok and good
        rows.append({"graph": encode_graph(g), "pattern": pattern,
                     "value": _c(est.value), "stderr": est.stderr,
                     "bound": bound, "passed": good, "exact": est.exact})
    return CheckResult("structural_vanishing", ok, {
        "graphs": rows, "count": len(rows), "sampled": sum(not r["exact"] for r in rows)})


# ---------------------------------------------------------------------------
# criterion 3: the explicit middle-point contour identity


def check_contour_identity(cfg: SuiteConfig) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    rows = []
    ok = True
    for _ in range(5):
        u = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0))
        v = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0))
        good, val, err, ns = contour_check(u, v, cfg.samples, cfg.seed)
        ok = ok and good
        rows.append({"u": _c(u), "v": _c(v), "value": _c(val),
                     "stderr": err, "passed": good, "samples": ns})
    return CheckResult("contour_identity", ok, {"pairs": rows})


# ---------------------------------------------------------------------------
# criterion 4: regularized boundary identities


def check_stokes_identities(cfg: SuiteConfig) -> CheckResult:
    counts = {ANGLE: 0, LOG: 0}
    failures = []
    worst = {"residual": 0.0}
    for kind in (ANGLE, LOG):
        for g in _swept_graphs(1):
            rep = verify_identity(g, kind, max(cfg.samples // 10, MIN_SAMPLES), cfg.seed)
            counts[kind] += 1
            if abs(rep.residual) > worst["residual"]:
                worst = {"residual": abs(rep.residual), "graph": rep.graph,
                         "kind": kind, "stderr": rep.stderr}
            if not rep.passed:
                failures.append({"graph": rep.graph, "kind": kind,
                                 "residual": _c(rep.residual), "stderr": rep.stderr})
    ok = not failures
    return CheckResult("stokes_identities", ok, {
        "checked_angle": counts[ANGLE], "checked_log": counts[LOG],
        "failures": failures, "worst": worst, "tol": IDENTITY_TOL,
    })


# ---------------------------------------------------------------------------
# criterion 5: counterterm decomposition probes


def check_counterterm(cfg: SuiteConfig) -> CheckResult:
    rows = []
    ok = True

    g21 = parse_graph("2 1 ; a1>a2 a1>g1 a2>g1")
    for kind in (LOG, ANGLE):
        rep = counterterm_probe(g21, [0, 1], kind, seed=cfg.seed)
        dev = rep.deviation / max(1.0, abs(rep.expected))
        good = rep.cauchy_decreasing and dev <= PROBE_TOL
        ok = ok and good
        rows.append({"graph": rep.graph, "kind": kind, "subset": list(rep.subset),
                     "limit": _c(rep.limit), "expected": _c(rep.expected),
                     "relative_deviation": dev, "cauchy": rep.cauchy_decreasing,
                     "passed": good})

    g31 = parse_graph("3 1 ; a1>a2 a1>a3 a2>a3 a2>g1 a3>g1")
    rep = counterterm_probe(g31, [0, 1, 2], LOG, seed=cfg.seed)
    good = abs(rep.limit) < PROBE_TOL
    ok = ok and good
    rows.append({"graph": rep.graph, "kind": LOG, "subset": list(rep.subset),
                 "limit": _c(rep.limit), "expected": [0.0, 0.0],
                 "cauchy": rep.cauchy_decreasing, "passed": good})

    # one degree lower the outer factor is top-degree and nonzero
    g22 = parse_graph("2 2 ; a1>a2 a1>g1 a2>g2")
    for kind in (LOG, ANGLE):
        rep = counterterm_probe(g22, [0, 1], kind, seed=cfg.seed)
        dev = rep.deviation / max(abs(rep.expected), 1e-9)
        good = dev <= PROBE_TOL and abs(rep.expected) > 1e-6
        ok = ok and good
        rows.append({"graph": rep.graph, "kind": kind, "subset": list(rep.subset),
                     "limit": _c(rep.limit), "expected": _c(rep.expected),
                     "relative_deviation": dev, "cauchy": rep.cauchy_decreasing,
                     "passed": good})
    return CheckResult("counterterm", ok, {"probes": rows})


# ---------------------------------------------------------------------------
# criterion 6: boundary regularity of the log form


def check_regularity(cfg: SuiteConfig) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 6]))
    worst_ratio = 0.0
    worst = None
    families = 0
    ok = True
    for g in _swept_graphs(0, one_per_class=True):
        if g.n < 2:
            continue
        for _ in range(20):
            size = int(rng.integers(2, g.n + 1))
            B = sorted(int(v) for v in rng.choice(g.n, size=size, replace=False))
            layout = collapse_layout(g.n, g.m, B, TYPE_I)
            outer_cfg, shape = stokes._probe_family(layout, int(rng.integers(1 << 31)))
            vals = {}
            for r in (1e-3, 1e-5):
                dcfg = degenerating_family(outer_cfg, layout, shape, r)
                vals[r] = abs(forms.contracted_integrand(g, LOG, dcfg, layout))
            families += 1
            if vals[1e-3] < 1e-12 and vals[1e-5] < 1e-12:
                continue
            ratio = vals[1e-5] / max(vals[1e-3], 1e-300)
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst = {"graph": encode_graph(g), "subset": B,
                         "at_1e-3": vals[1e-3], "at_1e-5": vals[1e-5]}
            if ratio > 10.0:
                ok = False
    return CheckResult("regularity", ok, {
        "families": families, "worst_ratio": worst_ratio, "worst": worst,
    })


# ---------------------------------------------------------------------------
# criterion 7: star product versus the constant-coefficient expansion


def _moyal_order2(f, g):
    """(1/2)*(1/2)^2 * pi^{ij} pi^{kl} d_i d_k f d_j d_l g for pi = dx^dy."""
    from .operators import p_acc, p_diff_multi, p_mul
    out = {}
    comps = {(0, 1): 1, (1, 0): -1}
    for (i1, j1), s1 in comps.items():
        for (i2, j2), s2 in comps.items():
            df = [0, 0]; df[i1] += 1; df[i2] += 1
            dg = [0, 0]; dg[j1] += 1; dg[j2] += 1
            ff = p_diff_multi(f, tuple(df))
            gg = p_diff_multi(g, tuple(dg))
            for mono, c in p_mul(ff, gg).items():
                p_acc(out, mono, c * s1 * s2 * 0.125)
    return out


def check_star_product(cfg: SuiteConfig) -> CheckResult:
    from .operators import p_max_abs, p_sub
    details: dict = {}
    ok = True

    pi = bivector(2, [(0, 1, (0, 0), 1)])
    star = star_product(pi, 2, ANGLE, cfg.samples, cfg.seed)
    x = {(1, 0): 1}
    y = {(0, 1): 1}

    # commutator: x*y - y*x = hbar + O(hbar^3)
    xy = star.multiply(x, y)
    yx = star.multiply(y, x)
    comm1 = p_sub(xy[1], yx[1])
    sigma1 = star.errs[1].apply([{(1, 0): 1.0}, {(0, 1): 1.0}])
    tol1 = 3.0 * 2.0 * p_max_abs(sigma1) + STAR_TOL
    dev1 = p_max_abs(p_sub(comm1, {(0, 0): 1.0}))
    comm_ok = dev1 <= tol1 and p_max_abs(xy[2]) <= tol1
    ok = ok and comm_ok
    details["commutator"] = {"deviation": dev1, "tol": tol1, "passed": comm_ok}

    # order-2 term against the constant-coefficient expansion on monomials
    basis = [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}, {(1, 0): 1}, {(0, 1): 1}]
    worst = 0.0
    worst_tol = 0.0
    for f in basis:
        for g in basis:
            got = star.ops[2].apply([f, g])
            want = _moyal_order2(f, g)
            dev = p_max_abs(p_sub(got, want))
            fa = operators.p_abs(f); ga = operators.p_abs(g)
            noise = p_max_abs(star.errs[2].apply([fa, ga]))
            tol = 3.0 * noise + STAR_TOL
            if dev > worst:
                worst, worst_tol = dev, tol
            if dev > tol:
                ok = False
    details["order2_vs_constant_expansion"] = {"worst_deviation": worst, "tol_at_worst": worst_tol}

    # associativity for the linear bivector x dx^dy on low-degree monomials
    pil = bivector(2, [(0, 1, (1, 0), 1)])
    starl = star_product(pil, 2, ANGLE, cfg.samples, cfg.seed)
    monos = [{(1, 0): 1}, {(0, 1): 1}, {(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}]
    worst_assoc = 0.0
    assoc_ok = True
    for f in monos:
        for g in monos:
            for h in monos:
                rep = check_associativity(pil, f, g, h, 2, ANGLE, cfg.samples, cfg.seed,
                                          star=starl)
                worst_assoc = max(worst_assoc, max(rep.residuals))
                assoc_ok = assoc_ok and rep.passed
    ok = ok and assoc_ok
    details["associativity_linear"] = {"worst_residual": worst_assoc, "passed": assoc_ok,
                                       "triples": len(monos) ** 3}
    return CheckResult("star_product", ok, details)


# ---------------------------------------------------------------------------
# criterion 8: globalization conditions


def check_globalization_suite(cfg: SuiteConfig) -> CheckResult:
    rep = check_globalization(max(cfg.samples // 5, MIN_SAMPLES), cfg.seed)
    det = {
        "log": {
            "vector_pair": [{"graph": g, "pattern": p, "value": _c(v),
                             "stderr": e, "passed": okk}
                            for g, p, v, e, okk in rep.vector_pair],
            "linear_slot_total": len(rep.linear_slot),
            "linear_slot_unprotected": [g for g, c, okk in rep.linear_slot if not okk],
            "contour": [{"value": _c(v), "stderr": e, "passed": okk}
                        for _, _, v, e, okk in rep.contour],
        },
    }
    return CheckResult("globalization", rep.passed, det)


# ---------------------------------------------------------------------------
# criterion 9: configuration-space properties


def _random_family_draw(rng) -> Tuple:
    """Two small two-point clusters around a high center.

    The geometry keeps every rotation of any cluster (including the full
    four-point set about its own center) inside the upper half-plane.
    """
    center = complex(rng.uniform(-1, 1), rng.uniform(1.5, 2.5))
    delta = rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    shape2 = (0.5 + 0.5j) / abs(0.5 + 0.5j) / math.sqrt(2)

    def pair(c, scale, phase):
        s = shape2 * np.exp(1j * phase)
        return [c + scale * s, c - scale * s]

    r1 = 10.0 ** rng.uniform(-4, -1.3)
    r2 = 10.0 ** rng.uniform(-4, -1.3)
    pts = pair(center + delta, r1, rng.uniform(0, 2 * math.pi)) + \
        pair(center - delta, r2, rng.uniform(0, 2 * math.pi))
    return make_configuration(pts, [])


def check_config_properties(cfg: SuiteConfig) -> CheckResult:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 9]))
    details: dict = {}

    fam_i = NestedFamily(4, 0, [(frozenset({0, 1}), TYPE_I)])
    fam_j = NestedFamily(4, 0, [(frozenset({2, 3}), TYPE_I)])
    fam_ij = gcd_families(fam_i, fam_j)
    fam_k = NestedFamily(4, 0, [(frozenset({1, 2}), TYPE_I)])
    # disjoint clusters have a gcd; crossing ones have none
    gcd_found = fam_ij is not None
    gcd_absent = gcd_families(fam_i, fam_k) is None
    details["gcd_construction"] = {"disjoint_found": gcd_found, "crossing_absent": gcd_absent}
    ok = gcd_found and gcd_absent

    mono_viol = 0
    mono_hits = 0
    cont_viol = 0
    cont_hits = 0
    empty_viol = 0
    for _ in range(MIN_SAMPLES):
        c = _random_family_draw(rng)
        in_i = chart_membership(c, fam_i, 0.01)
        in_j = chart_membership(c, fam_j, 0.01)
        if in_i:
            mono_hits += 1
            if not chart_membership(c, fam_i, 0.1):
                mono_viol += 1
        if in_i and in_j:
            cont_hits += 1
            if not (gcd_found and chart_membership(c, fam_ij, 0.1)):
                cont_viol += 1
        if in_i and chart_membership(c, fam_k, 0.01):
            empty_viol += 1
    ok = ok and mono_viol == 0 and cont_viol == 0 and empty_viol == 0
    details["monotonicity"] = {"hits": mono_hits, "violations": mono_viol}
    details["gcd_containment"] = {"hits": cont_hits, "violations": cont_viol}
    details["gcd_absent_empty"] = {"violations": empty_viol}

    # torus commutation: nested clusters, composed rotations agree to 1e-12
    worst_comm = 0.0
    for _ in range(200):
        c = _random_family_draw(rng)
        th1 = float(rng.uniform(0, 2 * math.pi))
        th2 = float(rng.uniform(0, 2 * math.pi))
        B, C = [0, 1], [0, 1, 2, 3]
        one = torus_rotate(torus_rotate(c, B, th1), C, th2)
        two = torus_rotate(torus_rotate(c, C, th2), B, th1)
        dev = max(abs(a - b) for a, b in zip(one.aerial, two.aerial))
        worst_comm = max(worst_comm, dev)
    ok = ok and worst_comm <= 1e-12
    details["torus_commutation"] = {"worst": worst_comm, "bound": 1e-12}
    return CheckResult("config_properties", ok, details)


# ---------------------------------------------------------------------------
# criterion 10: determinism and error scaling


def check_determinism(cfg: SuiteConfig) -> CheckResult:
    wedge = make_graph(1, 2, [(0, 1), (0, 2)])
    a = compute_weight(wedge, ANGLE, DETERMINISM_SAMPLES, cfg.seed, threads=4)
    b = compute_weight(wedge, ANGLE, DETERMINISM_SAMPLES, cfg.seed, threads=1)
    same = (json.dumps(a.to_json_dict(), sort_keys=True)
            == json.dumps(b.to_json_dict(), sort_keys=True))

    # four times the samples should halve the error bar
    budget = max(cfg.samples // 4, MIN_SAMPLES)
    coarse = compute_weight(wedge, ANGLE, budget, cfg.seed)
    fine = compute_weight(wedge, ANGLE, 4 * budget, cfg.seed)
    scaling_ok = fine.stderr <= 0.6 * coarse.stderr
    return CheckResult("determinism", same and scaling_ok, {
        "bit_identical": same,
        "stderr_coarse": coarse.stderr, "stderr_fine": fine.stderr,
        "scaling_ok": scaling_ok,
    })


# ---------------------------------------------------------------------------
# runner


ALL_CHECKS: Tuple[Tuple[str, Callable[[SuiteConfig], CheckResult]], ...] = (
    ("wedge_weight", check_wedge_weight),
    ("structural_vanishing", check_structural_vanishing),
    ("contour_identity", check_contour_identity),
    ("stokes_identities", check_stokes_identities),
    ("counterterm", check_counterterm),
    ("regularity", check_regularity),
    ("star_product", check_star_product),
    ("globalization", check_globalization_suite),
    ("config_properties", check_config_properties),
    ("determinism", check_determinism),
)


def run_suite(cfg: SuiteConfig, echo=print) -> List[CheckResult]:
    import time
    default_threads()  # a bad KWL_THREADS exits before out_dir is made
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = []
    for name, fn in ALL_CHECKS:
        t0 = time.time()
        res = fn(cfg)
        dt = time.time() - t0
        results.append(res)
        path = os.path.join(cfg.out_dir, f"check_{name}.json")
        with open(path, "w") as fh:
            fh.write(res.to_json())
            fh.write("\n")
        echo(f"{'PASS' if res.passed else 'FAIL'}  {name:24s} ({dt:6.1f}s)")
    return results
