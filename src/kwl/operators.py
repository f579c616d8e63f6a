"""Graph operators on polynomial multivector fields and star products.

A graph acts on a tuple of multivector fields by placing one field at each
aerial vertex, contracting its antisymmetric indices along the outgoing
edges (in edge order), letting every edge differentiate its target, and
reading the ground vertices as argument slots.  Summing graph operators
against their weights gives the components assembled here into truncated
star products for polynomial bivector fields.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .forms import LOG, check_kind, frame_integrand
from .graphs import Graph, edge_sort_parity, enumerate_graphs, encode_graph
from .halfplane import gauge_frame
from .weights import (cached_weight, detect_vanishing_pattern, prefetch_weights, qmc_mean,
                      vanishing_check)

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, object]  # exponent tuple -> int | Fraction | float | complex
Partial = Tuple[int, List[Tuple[Tuple[Monomial, ...], Poly]]]  # see MultiDiffOperator.fill

#: absolute floors of the bounds on star-product coefficient residuals and
#: on one-in-one-out contour integrals
STAR_TOL = 1e-3
CONTOUR_TOL = 1e-2


# ---------------------------------------------------------------------------
# polynomial helpers


def p_acc(target: Poly, mono: Monomial, coeff) -> None:
    cur = target.get(mono)
    new = coeff if cur is None else cur + coeff
    if new == 0:
        target.pop(mono, None)
    else:
        target[mono] = new


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        p_acc(out, mono, c)
    return out


def p_scale(a: Poly, s) -> Poly:
    if s == 0:
        return {}
    return {mono: c * s for mono, c in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_scale(b, -1))


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    add = operator.add
    for ma, ca in a.items():
        for mb, cb in b.items():
            p_acc(out, tuple(map(add, ma, mb)), ca * cb)
    return out


def p_diff(a: Poly, var: int) -> Poly:
    out: Poly = {}
    for mono, c in a.items():
        e = mono[var]
        if e == 0:
            continue
        lowered = tuple(x - 1 if i == var else x for i, x in enumerate(mono))
        p_acc(out, lowered, c * e)
    return out


def p_diff_multi(a: Poly, exps: Monomial) -> Poly:
    """Derivative of ``a`` by the multi-index ``exps``, one monomial at a time.

    Each coefficient is multiplied by ``e, e - 1, ...`` per variable in
    variable order, the order in which chained :func:`p_diff` calls
    multiply, so float and complex results match theirs bit for bit.
    """
    if not any(exps):
        return a
    out: Poly = {}
    for mono, c in a.items():
        for e, k in zip(mono, exps):
            if e < k:
                break
            for x in range(e, e - k, -1):
                c = c * x
        else:
            # distinct monomials stay distinct, so only p_acc's zero rule applies
            if c != 0:
                out[tuple(map(operator.sub, mono, exps))] = c
    return out


def p_max_abs(a: Poly) -> float:
    return max((abs(complex(c)) for c in a.values()), default=0.0)


def p_abs(a: Poly) -> Poly:
    return {mono: abs(complex(c)) for mono, c in a.items()}


def _check_poly_dim(dim: int, *polys: Poly) -> None:
    """Raise ValueError unless every monomial has ``dim`` exponents."""
    if any(len(mono) != dim for p in polys for mono in p):
        raise ValueError(f"polynomial monomials must have {dim} exponents")


def poly_from_terms(dim: int, terms: Sequence[Tuple[Sequence[int], object]]) -> Poly:
    out: Poly = {}
    for mono, c in terms:
        mono = tuple(int(e) for e in mono)
        if len(mono) != dim:
            raise ValueError("monomial length does not match dimension")
        p_acc(out, mono, c)
    return out


def p_int(a: Poly) -> Poly:
    """``a`` with integer-valued Fractions as ints, which keep the kernels off ``fractions``."""
    return {m: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
            for m, c in a.items()}


# ---------------------------------------------------------------------------
# multivector fields and multidifferential operators


@dataclass(frozen=True)
class PolyMultivector:
    """Antisymmetric multivector field with polynomial coefficients.

    ``degree`` is the number of indices (a bivector has degree 2, a vector
    field 1, a function 0).  Coefficients are stored on strictly increasing
    index tuples.
    """

    dim: int
    degree: int
    coeffs: Tuple[Tuple[Tuple[int, ...], Monomial, object], ...]

    @staticmethod
    def build(dim: int, degree: int, entries) -> "PolyMultivector":
        """entries: iterable of (index tuple, monomial, coefficient)."""
        rows = []
        for idx, mono, c in entries:
            idx = tuple(int(i) for i in idx)
            mono = tuple(int(e) for e in mono)
            if len(idx) != degree or len(mono) != dim:
                raise ValueError("entry shape does not match degree/dimension")
            if any(not 0 <= i < dim for i in idx):
                raise ValueError("index out of range")
            if list(idx) != sorted(set(idx)):
                raise ValueError("indices must be strictly increasing")
            rows.append((idx, mono, c))
        return PolyMultivector(dim, degree, tuple(rows))

    def component(self, idx: Tuple[int, ...]) -> Poly:
        """Coefficient polynomial of an arbitrary index tuple (with sign)."""
        if len(set(idx)) != len(idx):
            return {}
        sign = edge_sort_parity(idx)
        key = tuple(sorted(idx))
        out: Poly = {}
        for kidx, mono, c in self.coeffs:
            if kidx == key:
                p_acc(out, mono, c * sign)
        return out


def bivector(dim: int, entries) -> PolyMultivector:
    """Bivector from (i, j, monomial, coeff) rows with i < j."""
    return PolyMultivector.build(dim, 2, [((i, j), mono, c) for i, j, mono, c in entries])


def vector_field(dim: int, entries) -> PolyMultivector:
    return PolyMultivector.build(dim, 1, [((i,), mono, c) for i, mono, c in entries])


def _slot_derivs(f: Poly, terms) -> Iterator[Tuple[Tuple[Monomial, ...], Poly, Poly]]:
    """``(later slots, coefficient, derivative of f)`` per partial term whose first open
    slot does not kill ``f``; a :class:`_KeyedPoly` keeps its derivatives."""
    derivs = getattr(f, "derivs", {})
    for slots, prod in terms:
        df = derivs.get(slots[0])
        if df is None:  # f's own items are copied: a _KeyedPoly holding itself is a cycle
            df = derivs[slots[0]] = p_diff_multi(f, slots[0]) if any(slots[0]) else dict(f)
        if df:
            yield slots[1:], prod, df


class MultiDiffOperator:
    """Polynomial-coefficient operator acting on ``arity`` polynomials."""

    def __init__(self, dim: int, arity: int, terms: Optional[Dict] = None):
        self.dim = dim
        self.arity = arity
        # (slot derivative exponents, coefficient monomial) -> coefficient
        self.terms: Dict[Tuple[Tuple[Monomial, ...], Monomial], object] = {}
        if terms:
            for key, c in terms.items():
                p_acc(self.terms, key, c)

    def add_term(self, slots: Tuple[Monomial, ...], mono: Monomial, coeff) -> None:
        p_acc(self.terms, (slots, mono), coeff)

    def scaled(self, s) -> "MultiDiffOperator":
        return MultiDiffOperator(self.dim, self.arity,
                                 {k: c * s for k, c in self.terms.items()})

    def abs_coeffs(self) -> "MultiDiffOperator":
        return MultiDiffOperator(self.dim, self.arity,
                                 {k: abs(complex(c)) for k, c in self.terms.items()})

    def fill(self, funcs: Sequence[Poly], part: Optional[Partial] = None) -> Partial:
        """Partial application: ``funcs`` into the leading open slots of ``part``
        (an earlier result; default: every slot open), one slot at a time.  Returns
        the open slot count and the surviving terms as (open slot multi-indices,
        coefficient polynomial), unmerged and in term order, so finishing a partial
        multiplies and sums exactly as one :meth:`apply` call does."""
        n_open, terms = part if part is not None else (
            self.arity, [(slots, {mono: c}) for (slots, mono), c in self.terms.items()])
        if len(funcs) > n_open:
            raise ValueError(f"operator has {n_open} open slots, got {len(funcs)} arguments")
        for f in funcs:
            terms = [(rest, p_mul(prod, df)) for rest, prod, df in _slot_derivs(f, terms)]
        return n_open - len(funcs), terms

    def apply(self, funcs: Sequence[Poly], part: Optional[Partial] = None) -> Poly:
        """``funcs`` in every open slot: :meth:`fill` in slot order, then the sum.  A
        last-slot product with a one-monomial factor has no two terms on one
        monomial, so they go straight into the sum, in ``p_mul``'s order."""
        n_open = self.arity if part is None else part[0]
        if len(funcs) > n_open:
            raise ValueError(f"operator has {n_open} open slots, got {len(funcs)} arguments")
        if len(funcs) < n_open:
            raise ValueError(f"too few arguments: {n_open - len(funcs)} slots left open")
        _, terms = self.fill(funcs[:-1], part)
        out: Poly = {}
        add = operator.add
        for _, prod, df in (_slot_derivs(funcs[-1], terms) if funcs
                            else ((slots, prod, None) for slots, prod in terms)):
            if df is None or len(prod) > 1 and len(df) > 1:  # products may share a monomial
                for mm, cc in (prod if df is None else p_mul(prod, df)).items():
                    p_acc(out, mm, cc)
                continue
            for ma, ca in prod.items():
                for mb, cb in df.items():
                    c = ca * cb
                    if c != 0:  # p_mul drops exact zeros
                        p_acc(out, tuple(map(add, ma, mb)), c)
        return out

    def max_abs(self) -> float:
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def is_zero(self) -> bool:
        return self.max_abs() == 0


def multiplication_operator(dim: int) -> MultiDiffOperator:
    """The bi-differential operator ``(f, g) -> f g``."""
    op = MultiDiffOperator(dim, 2)
    op.add_term(((0,) * dim,) * 2, (0,) * dim, 1)
    return op


# ---------------------------------------------------------------------------
# the graph operator


def d_gamma(g: Graph, multivectors: Sequence[PolyMultivector]) -> MultiDiffOperator:
    """Operator of a graph with one multivector field per aerial vertex.

    Outgoing edges contract the field's indices in edge order, incoming
    edges differentiate the coefficient at their target, and ground
    vertices collect derivatives acting on the argument slots.  Returns the
    zero operator when an out-degree does not match a field's degree.
    """
    if g.n == 0 or len(multivectors) != g.n:
        raise ValueError("need one multivector per aerial vertex, and at least one")
    dim = multivectors[0].dim
    if any(mv.dim != dim for mv in multivectors):
        raise ValueError("multivector dimensions differ")
    op = MultiDiffOperator(dim, g.m)
    for v in range(g.n):
        if g.out_degree(v) != multivectors[v].degree:
            return op

    E = len(g.edges)
    out_edges = {v: [e for e, (s, _) in enumerate(g.edges) if s == v] for v in range(g.n)}
    in_edges = {v: [e for e, (_, t) in enumerate(g.edges) if t == v] for v in range(g.num_vertices)}

    for assign in itertools.product(range(dim), repeat=E):
        coeff: Poly = {tuple([0] * dim): 1}
        for v in range(g.n):
            comp = multivectors[v].component(tuple(assign[e] for e in out_edges[v]))
            if not comp:
                coeff = {}
                break
            dmulti = [0] * dim
            for e in in_edges[v]:
                dmulti[assign[e]] += 1
            comp = p_diff_multi(comp, tuple(dmulti))
            if not comp:
                coeff = {}
                break
            coeff = p_mul(coeff, comp)
            if not coeff:
                break
        if not coeff:
            continue
        slots = [[0] * dim for _ in range(g.m)]
        for e, (_, t) in enumerate(g.edges):
            if t >= g.n:
                slots[t - g.n][assign[e]] += 1
        key = tuple(tuple(s) for s in slots)
        for mono, c in coeff.items():
            op.add_term(key, mono, c)
    return op


# ---------------------------------------------------------------------------
# weighted components and star products


def operator_arity(multivectors: Sequence[PolyMultivector]) -> int:
    n = len(multivectors)
    return sum(mv.degree for mv in multivectors) - 2 * n + 2


def u_n(kind: str, multivectors: Sequence[PolyMultivector], samples: int,
        seed: int, threads: Optional[int] = None
        ) -> Tuple["MultiDiffOperator", "MultiDiffOperator"]:
    """Weighted sum of graph operators over all admissible graphs.

    Returns ``(value, error)``: the weighted sum and the operator of the
    weights' standard errors times the absolute graph-operator coefficients.

    The sum runs over edge sets; summing instead over graphs with ordered
    outgoing stars and dividing by the star-ordering count gives the same
    value because weight times operator is invariant under edge reordering.
    """
    check_kind(kind)
    n = len(multivectors)
    if n < 1:
        raise ValueError("need at least one multivector")
    m = operator_arity(multivectors)
    if m < 0:
        raise ValueError("argument degrees leave no argument slots")
    dim = multivectors[0].dim
    e = 2 * n + m - 2
    value = MultiDiffOperator(dim, m)
    error = MultiDiffOperator(dim, m)
    degs = [mv.degree for mv in multivectors]
    ops = []
    for g in enumerate_graphs(n, m, e):
        if all(g.out_degree(v) == degs[v] for v in range(n)):
            dop = d_gamma(g, multivectors)
            if dop.terms:
                ops.append((g, dop))
    prefetch_weights([g for g, _ in ops], kind, samples, seed, threads)
    for g, dop in ops:
        w = cached_weight(g, kind, samples, seed, threads)
        for key, c in dop.terms.items():
            if w.value != 0:
                p_acc(value.terms, key, c * complex(w.value))
            if w.stderr:
                p_acc(error.terms, key, abs(complex(c)) * w.stderr)
    return value, error


def _poly_key(a: Poly) -> tuple:
    """Memo key of a polynomial: its items in order, coefficient types included."""
    return tuple((mono, type(c), c) for mono, c in a.items())


class _KeyedPoly(dict):
    """A polynomial with its memo key and its derivatives by slot multi-index."""

    def __init__(self, poly: Poly):
        super().__init__(poly)
        self.key, self.derivs = _poly_key(poly), {}


@dataclass
class StarSeries:
    """Truncated star product: one bidifferential operator per order.

    ``pi`` is the bivector the series was built from.  The series memoizes
    what depends only on itself and its arguments: the Jacobi defect of
    ``pi``, the ``|.|`` operators, and what :func:`check_associativity`
    takes: one :class:`_KeyedPoly` per polynomial value it meets (the
    arguments, their ``|.|`` and the inner products), each with its
    derivatives; the inner products on ``(f, g)`` and ``(g, h)``; and outer
    operators with the first slot filled, keyed by that slot's value.
    It is freed only with the series, so a long-lived series checked against
    many different arguments grows with their number (to about 1.9 MB over
    the 729 so(3) triples of the ``star_assoc`` benchmark).
    """

    dim: int
    order: int
    ops: List[MultiDiffOperator]
    errs: List[MultiDiffOperator]
    kind: str
    pi: PolyMultivector
    _memo: Dict[tuple, object] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def multiply(self, f: Poly, g: Poly) -> List[Poly]:
        """Coefficients of f*g per order of the formal parameter."""
        _check_poly_dim(self.dim, f, g)
        f, g = p_int(f), p_int(g)
        return [op.apply([f, g]) for op in self.ops]

    def _memoized(self, key: tuple, build):
        # every caller gets the same object back, so callers only read it
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _abs_ops(self) -> List[MultiDiffOperator]:
        return self._memoized(("abs",), lambda: [op.abs_coeffs() for op in self.ops])

    def _keyed(self, p: Poly) -> _KeyedPoly:
        """The series' one :class:`_KeyedPoly` of ``p``'s value."""
        return self._memoized(("poly", _poly_key(p)), lambda: _KeyedPoly(p))

    def _inner(self, order: int, f: _KeyedPoly, g: _KeyedPoly) -> Tuple[List[_KeyedPoly], ...]:
        """``op(f, g)``, ``|op|(|f|, |g|)`` and ``err(|f|, |g|)`` for orders up to ``order``."""
        def build():
            keyed = self._keyed
            fa, ga = keyed(p_abs(f)), keyed(p_abs(g))
            return ([keyed(op.apply([f, g])) for op in self.ops[:order + 1]],
                    [keyed(op.apply([fa, ga])) for op in self._abs_ops()[:order + 1]],
                    [keyed(err.apply([fa, ga])) for err in self.errs[:order + 1]])
        return self._memoized(("inner", order, f.key, g.key), build)

    def _fill(self, which: str, b: int, f: _KeyedPoly) -> Partial:
        """Operator ``b`` of ``ops``, ``errs`` or ``abs`` with ``f`` in its first slot."""
        return self._memoized(("fill", which, b, f.key), lambda: (
            {"ops": self.ops, "errs": self.errs, "abs": self._abs_ops()}[which][b].fill([f])))


def _check_order(order: int) -> None:
    if not 0 <= order <= 2:
        raise ValueError(f"order must be 0, 1 or 2, got {order}"
                         " (orders above 2 are not supported at full precision)")


def star_product(pi: PolyMultivector, order: int, kind: str, samples: int,
                 seed: int, threads: Optional[int] = None) -> StarSeries:
    """Star product of a bivector field, truncated at the given order.

    Order ``k`` carries ``1/k!`` times the ``k``-th weighted component on
    ``k`` copies of the bivector; order zero is plain multiplication.
    """
    if pi.degree != 2:
        raise ValueError("star product needs a bivector")
    _check_order(order)
    ops = [multiplication_operator(pi.dim)]
    errs = [MultiDiffOperator(pi.dim, 2)]
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        val, err = u_n(kind, [pi] * k, samples, seed, threads)
        ops.append(val.scaled(1.0 / fact))
        errs.append(err.scaled(1.0 / fact))
    return StarSeries(pi.dim, order, ops, errs, kind, pi)


def jacobi_defect(pi: PolyMultivector) -> float:
    """Largest coefficient of the Jacobi identity defect of a bivector."""
    if pi.degree != 2:
        raise ValueError("need a bivector")
    worst = 0.0
    dim = pi.dim
    for i, j, k in itertools.combinations(range(dim), 3):
        total: Poly = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for ell in range(dim):
                term = p_mul(pi.component((a, ell)), p_diff(pi.component((b, c)), ell))
                total = p_add(total, term)
        worst = max(worst, p_max_abs(total))
    return worst


@dataclass(frozen=True)
class AssociativityReport:
    orders: Tuple[int, ...]
    residuals: Tuple[float, ...]   # max |coefficient| of (f*g)*h - f*(g*h) per order
    tolerances: Tuple[float, ...]
    passed: bool


def check_associativity(pi: PolyMultivector, f: Poly, g: Poly, h: Poly,
                        order: int, kind: str, samples: int, seed: int,
                        threads: Optional[int] = None,
                        star: Optional[StarSeries] = None) -> AssociativityReport:
    """Associativity defect of the truncated star product on three polynomials.

    The bivector must satisfy the Jacobi identity (checked symbolically).
    Each order's residual coefficients are compared against three times the
    uncertainty propagated from the weight errors plus ``STAR_TOL``.
    A precomputed ``star`` must be built from ``pi``, be of ``kind`` and
    reach ``order``; its memo carries the Jacobi defect and the inner
    products from one check to the next.
    """
    _check_poly_dim(pi.dim, f, g, h)
    _check_order(order)
    if star is not None:
        if star.order < order:
            raise ValueError(f"star series has order {star.order}, check asks for {order}")
        if star.dim != pi.dim:
            raise ValueError(f"star series has dimension {star.dim}, bivector has {pi.dim}")
        if star.kind != kind:
            raise ValueError(f"star series is of kind {star.kind!r}, check asks for {kind!r}")
        if star.pi != pi:
            raise ValueError("star series was built from another bivector")
        defect = star._memoized(("jacobi",), lambda: jacobi_defect(star.pi))
    else:
        defect = jacobi_defect(pi)
    if defect > 1e-12:
        raise ValueError(f"bivector is not Poisson (Jacobi defect {defect:.3g})")
    series = star if star is not None else star_product(pi, order, kind, samples, seed, threads)
    keyed = series._keyed
    f, g, h = (keyed(p_int(p)) for p in (f, g, h))
    ops, errs = series.ops[:order + 1], series.errs[:order + 1]
    abs_ops = series._abs_ops()[:order + 1]
    fa, ha = keyed(p_abs(f)), keyed(p_abs(h))
    fg, abs_fg, err_fg = series._inner(order, f, g)
    gh, abs_gh, err_gh = series._inner(order, g, h)
    fill = series._fill
    residuals = []
    tolerances = []
    for k in range(order + 1):
        resid: Poly = {}
        noise = 0.0
        for a in range(k + 1):
            b = k - a
            # each outer product finishes its memoized first-slot partial
            left = ops[b].apply([h], fill("ops", b, fg[a]))
            right = ops[b].apply([gh[a]], fill("ops", b, f))
            resid = p_add(resid, p_sub(left, right))
            # propagated uncertainty: err(B(A f g, h)) <= |B| errA + errB |A|
            noise += p_max_abs(errs[b].apply([ha], fill("errs", b, abs_fg[a])))
            noise += p_max_abs(abs_ops[b].apply([ha], fill("abs", b, err_fg[a])))
            noise += p_max_abs(errs[b].apply([abs_gh[a]], fill("errs", b, fa)))
            noise += p_max_abs(abs_ops[b].apply([err_gh[a]], fill("abs", b, fa)))
        residuals.append(p_max_abs(resid))
        tolerances.append(3.0 * noise + STAR_TOL)
    passed = all(r <= t for r, t in zip(residuals, tolerances))
    return AssociativityReport(tuple(range(order + 1)), tuple(residuals),
                               tuple(tolerances), passed)


# ---------------------------------------------------------------------------
# globalization checks


def one_in_one_out_integral(u: complex, v: complex, samples: int,
                            seed: int) -> Tuple[complex, float, int]:
    """Two-dimensional integral of the log form chain through a middle point.

    Integrates d log((u-z)/(conj u - z)) wedge d log((z-v)/(conj z - v))
    over the middle point z in the upper half-plane, with the standard
    1/(2 pi i) normalization per factor; the exact value is zero.
    """
    if not (u.imag > 0 and v.imag > 0):
        raise ValueError("endpoints must lie in the upper half-plane")

    def func(U: np.ndarray) -> Tuple[Tuple[np.ndarray], int]:
        x = np.tan(math.pi * (U[:, 0] - 0.5))
        t = U[:, 1]
        jac = math.pi * (1.0 + x * x) / (1.0 - t) ** 2
        z = x + 1j * (t / (1.0 - t))
        # z is vertex 0 and moves like the free point of a (1, 2) slice;
        # u (vertex 1) -> z and z -> v (vertex 2)
        (det,) = frame_integrand([(1, 0), (0, 2)], [z, u, v], gauge_frame(1, 2, z), (LOG,))
        return (det * jac,), 0

    (value,), (stderr,), total, _ = qmc_mean(func, 2, samples, seed)
    return value, stderr, total


def contour_check(u: complex, v: complex, samples: int, seed: int) -> dict:
    """Test :func:`one_in_one_out_integral` at (u, v) against zero.

    Returns the report row ``{u, v, value, stderr, passed, samples}``,
    points as ``[re, im]``; it passes when |value| < max(CONTOUR_TOL,
    3 stderr).
    """
    val, err, ns = one_in_one_out_integral(u, v, samples, seed)
    return {"u": [u.real, u.imag], "v": [v.real, v.imag], "value": [val.real, val.imag],
            "stderr": err, "passed": abs(val) < max(CONTOUR_TOL, 3.0 * err), "samples": ns}


def check_globalization(samples: int, seed: int) -> dict:
    """Checks that make the log components U^log transferable off flat space.

    Every graph feeding two vector fields at the second component (each
    one-in-one-out) must pass :func:`kwl.weights.vanishing_check`; every
    graph feeding a linear vector field plus bivectors at the third must be
    structurally vanishing or annihilated by the linearity of the
    coefficient.  The middle-point contour integral is measured directly at
    five random endpoint pairs by :func:`contour_check`.  Returns
    ``{vector_pair, linear_slot, contour, passed}``: the rows of the first
    and third, and a ``{graph, class, passed}`` row per linear-slot graph.

    No part depends on the propagator kind: the one vector-pair graph,
    ``2 0 ; a1>a2 a2>a1``, weighs an exact zero in both kinds (an odd
    automorphism), the linear-slot rows are combinatorial and the contour
    is the log form's, so the check runs for U^log alone.
    """
    rows_pair = [vanishing_check(g, LOG, samples, seed) for g in enumerate_graphs(2, 0, 2)
                 if g.out_degree(0) == g.out_degree(1) == 1]

    dim = 2
    xi = vector_field(dim, [(0, (1, 0), 1)])  # linear: x d/dx
    pi = bivector(dim, [(0, 1, (0, 0), 1)])
    rows_lin = []
    for g in enumerate_graphs(3, 1, 5):
        if (g.out_degree(0), g.out_degree(1), g.out_degree(2)) != (1, 2, 2):
            continue
        if g.in_degree(0) >= 2:
            cls, ok = "zero-by-linearity", d_gamma(g, [xi, pi, pi]).is_zero()
        else:
            pattern = detect_vanishing_pattern(g)
            cls, ok = pattern or "unprotected", pattern is not None
        rows_lin.append({"graph": encode_graph(g), "class": cls, "passed": ok})

    rng = np.random.default_rng(np.random.SeedSequence([seed, 777]))
    rows_contour = []
    for k in range(5):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.8))
        v = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 1.8))
        rows_contour.append(contour_check(u, v, samples, seed + k))

    return {"vector_pair": rows_pair, "linear_slot": rows_lin, "contour": rows_contour,
            "passed": all(r["passed"] for r in rows_pair + rows_lin + rows_contour)}


# ---------------------------------------------------------------------------
# JSON decoding of bivectors and polynomials


def _json_int(x, what: str, low: int = 0) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {x!r}")
    return x


def _json_coeff(x):
    # an integer beyond the float range would overflow in the weighted sums
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not abs(x) <= sys.float_info.max):
        raise ValueError(f"coefficient must be a finite number in the float range, got {x!r}")
    return x


def _json_monomial(x) -> Monomial:
    if not isinstance(x, list):
        raise ValueError(f"monomial must be a list of exponents, got {x!r}")
    return tuple(_json_int(e, "exponent") for e in x)


def _json_rows(rows, keys: Tuple[str, ...], what: str) -> list:
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and set(keys) <= r.keys() for r in rows):
        raise ValueError(f"{what} must be a list of objects with keys {', '.join(keys)}")
    return rows


def bivector_from_json_dict(data: dict) -> PolyMultivector:
    if not isinstance(data, dict) or not {"dim", "bivector"} <= data.keys():
        raise ValueError("bivector must be an object with keys dim, bivector")
    dim = _json_int(data["dim"], "dim", low=1)
    rows = [(_json_int(r["i"], "index"), _json_int(r["j"], "index"),
             _json_monomial(r["monomial"]), _json_coeff(r["coeff"]))
            for r in _json_rows(data["bivector"], ("i", "j", "monomial", "coeff"),
                                "bivector rows")]
    return bivector(dim, rows)


def poly_from_json_list(dim: int, rows: list) -> Poly:
    rows = _json_rows(rows, ("monomial", "coeff"), "polynomial")
    return poly_from_terms(dim, [(_json_monomial(r["monomial"]), _json_coeff(r["coeff"]))
                                 for r in rows])
