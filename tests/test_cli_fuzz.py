"""Random arguments for the command line.

Every run must exit 0, exit 1 with a JSON report on stdout, or exit 2 with
one ``error:`` line on stderr; an exception escaping ``main`` fails the
test.  Arguments always have the type argparse expects, so the runs reach
the commands rather than argparse's own usage errors.
"""

import contextlib
import io
import json

import pytest

from kwl.cli import main
from kwl.graphs import Graph, encode_graph, possible_edges

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=200, deadline=None, database=None, derandomize=True)

def _rare(valid, invalid):
    """``valid`` about nine times in ten, else ``invalid`` (an inner value,
    since hypothesis draws the bounds of a range more often)."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 5 else valid)


KIND = st.sampled_from(["log", "angle"])
SAMPLES = _rare(st.integers(1, 2048), st.integers(-2, 0))
SEED = st.integers(-2, 2 ** 40)
VERTEX = st.sampled_from(["a1", "a2", "a3", "a4", "g1", "g2", "g3", "a0", "g0",
                          "b1", "a", "a1x", "a-1"])


@st.composite
def graph_texts(draw, min_aerial=0):
    """Mostly admissible graphs near the identity or top degree, in random
    edge order; otherwise encodings with random vertex names, or text."""
    choice = draw(st.integers(0, 5))
    if choice < 4:
        n, m = draw(st.integers(min_aerial, 3)), draw(st.integers(0, 3))
        pool = possible_edges(n, m)
        d = 2 * n + m - 2
        e = draw(st.sampled_from([d - 1, d, draw(st.integers(0, len(pool)))]))
        edges = draw(st.permutations(pool))[:max(0, min(e, len(pool)))]
        return encode_graph(Graph(n, m, tuple(edges)))
    if choice == 4:
        tokens = draw(st.lists(st.tuples(VERTEX, VERTEX).map(">".join), max_size=6))
        return f"{draw(st.integers(-1, 3))} {draw(st.integers(-1, 3))} ; " + " ".join(tokens)
    return draw(st.text(max_size=12))


@st.composite
def poisson_inputs(draw):
    """JSON of a bivector and three polynomials in one dimension, with rare
    faults: bad indices, negative or huge exponents, monomial lengths,
    coefficients, text."""
    dim = draw(st.integers(2, 3))
    huge = st.lists(st.sampled_from([0, 1, 10 ** 160, 10 ** 400]), min_size=dim, max_size=dim)
    monomial = _rare(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                     st.one_of(st.lists(st.integers(-1, 2), max_size=dim + 1), huge))
    coeff = _rare(st.one_of(st.integers(-2, 2), st.floats(-2, 2)),
                  st.sampled_from(["x", None, True, 1e400]))
    pair = _rare(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)
                 .map(sorted), st.lists(st.integers(-1, dim), min_size=2, max_size=2))
    rows = draw(st.lists(st.tuples(pair, monomial, coeff).map(lambda r: {
        "i": r[0][0], "j": r[0][1], "monomial": r[1], "coeff": r[2]}), max_size=3))
    polys = [json.dumps(draw(st.lists(st.fixed_dictionaries(
        {"monomial": monomial, "coeff": coeff}), max_size=3))) for _ in range(3)]
    texts = [json.dumps({"dim": draw(_rare(st.just(dim), st.integers(-1, 4))),
                         "bivector": rows})] + polys
    return [draw(_rare(st.just(t), st.text(max_size=10))) for t in texts]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        json.loads(out)
    else:
        assert code in (0, 2), code
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return code


def common(kind, samples, seed):
    return [f"--kind={kind}", f"--samples={samples}", f"--seed={seed}", "--threads=1"]


@FUZZ
@given(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 3))
def test_fuzz_enumerate(n, m, e):
    run(["enumerate", str(n), str(m), str(e)])


@FUZZ
@given(graph_texts(), KIND, SAMPLES, SEED)
def test_fuzz_weight(graph, kind, samples, seed):
    run(["weight", f"--graph={graph}"] + common(kind, samples, seed))


@FUZZ
@given(st.sampled_from(["vanish", "verify-identity"]), graph_texts(), KIND, SAMPLES, SEED)
def test_fuzz_vanish_and_verify_identity(command, graph, kind, samples, seed):
    run([command, f"--graph={graph}"] + common(kind, samples, seed))


SCALE = st.one_of(st.floats(1e-6, 1.0), st.sampled_from(["0", "-0.5", "nan", "inf", "1e-2"]))
SUBSET = _rare(st.lists(st.integers(0, 2), min_size=2, max_size=3, unique=True),
               st.lists(st.integers(-1, 4), max_size=4)).map(lambda vs: ",".join(map(str, vs)))


@FUZZ
@given(graph_texts(min_aerial=2), _rare(SUBSET, st.text(max_size=6)),
       _rare(st.just([]), st.lists(SCALE, max_size=4)), KIND, SEED)
def test_fuzz_counterterm(graph, subset, scales, kind, seed):
    argv = ["counterterm", f"--graph={graph}", f"--subset={subset}"]
    if scales:
        argv += ["--scales", *map(str, scales)]
    run(argv + [f"--kind={kind}", f"--seed={seed}"])


@FUZZ
@given(poisson_inputs(), st.integers(-1, 3), KIND, SAMPLES, SEED)
def test_fuzz_star_and_associativity(inputs, order, kind, samples, seed):
    pi, f, g, h = inputs
    argv = [f"--poisson={pi}", f"--f={f}", f"--g={g}", f"--order={order}"]
    run(["star"] + argv + common(kind, samples, seed))
    run(["associativity", f"--h={h}"] + argv + common(kind, samples, seed))
