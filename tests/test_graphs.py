import collections
import itertools

import numpy as np
import pytest

from kwl.graphs import (TYPE_I, TYPE_II, canonical_graph, canonical_key,
                        collapse_fault, collapse_layout, contract, encode_graph,
                        enumerate_graphs,
                        edge_sort_parity, make_graph, parse_graph, possible_edges)
from kwl.halfplane import NestedFamily


def brute_force_count(n, m, e):
    """Independent enumeration: every e-subset of the full edge pool that an
    admissibility predicate accepts."""
    pool = [(s, t) for s in range(n + m) for t in range(n + m) if s != t]
    count = 0
    for combo in itertools.combinations(pool, e):
        if any(s >= n for s, _ in combo):
            continue
        if len({(s, t) for s, t in combo}) != e:
            continue
        count += 1
    return count


def test_make_graph_wedge():
    g = make_graph(1, 2, [(0, 1), (0, 2)])
    assert g.n == 1 and g.m == 2 and len(g.edges) == 2


def test_make_graph_rejects_ground_source():
    with pytest.raises(ValueError, match="ground"):
        make_graph(1, 1, [(1, 0)])


def test_make_graph_rejects_duplicate():
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(2, 0, [(0, 1), (0, 1)])


def test_make_graph_rejects_loop_and_range():
    with pytest.raises(ValueError, match="loop"):
        make_graph(2, 0, [(0, 0)])
    with pytest.raises(ValueError, match="range"):
        make_graph(1, 1, [(0, 5)])


@pytest.mark.parametrize("n,m,e,count", [(1, 2, 2, 1), (0, 2, 0, 1), (2, 0, 2, 1)])
def test_enumerate_small_counts(n, m, e, count):
    got = list(enumerate_graphs(n, m, e))
    assert len(got) == count
    assert len(got) == brute_force_count(n, m, e)


@pytest.mark.parametrize("n,m,e", [(2, 1, 2), (2, 2, 3), (3, 0, 3), (3, 1, 4)])
def test_enumerate_matches_brute_force(n, m, e):
    got = list(enumerate_graphs(n, m, e))
    assert len(got) == brute_force_count(n, m, e)
    for g in got:
        make_graph(g.n, g.m, g.edges)  # all valid
    encs = [encode_graph(g) for g in got]
    assert encs == sorted(set(encs))  # deterministic order, no repeats


def test_enumerate_refuses_large():
    with pytest.raises(ValueError, match="refusing"):
        list(enumerate_graphs(6, 3, 2))


def test_contract_wedge_type_ii_flags_ground_source():
    wedge = make_graph(1, 2, [(0, 1), (0, 2)])
    con = contract(wedge, collapse_layout(1, 2, {0, 1}, TYPE_II))
    assert con.inner.n == 1 and con.inner.m == 1 and len(con.inner.edges) == 1
    assert con.outer.n == 0 and con.outer.m == 2
    assert not con.outer_ok and "sourced at ground vertex" in con.fault


def test_contract_type_i_example():
    g = make_graph(2, 1, [(0, 1), (1, 2)])
    con = contract(g, collapse_layout(2, 1, {0, 1}, TYPE_I))
    assert con.inner.edges == ((0, 1),)
    assert con.outer.n == 1 and con.outer.m == 1
    assert con.outer.edges == ((0, 1),)
    assert con.outer_ok
    with pytest.raises(ValueError, match="layout"):
        contract(g, collapse_layout(3, 0, {0, 1}, TYPE_I))


def test_contract_edge_additivity_random():
    rng = np.random.default_rng(7)
    pool_cases = [(3, 1, 4), (2, 2, 3), (4, 0, 5)]
    checked = 0
    for n, m, e in pool_cases:
        graphs = list(enumerate_graphs(n, m, e))
        for _ in range(34):
            g = graphs[int(rng.integers(len(graphs)))]
            size = int(rng.integers(2, n + 1))
            B = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            con = contract(g, collapse_layout(n, m, B, TYPE_I))
            assert len(con.inner.edges) + len(con.outer.edges) == len(g.edges)
            assert con.outer.num_vertices == g.num_vertices - len(B) + 1
            checked += 1
    assert checked >= 100


def test_contract_type_ii_needs_position_without_ground():
    g = make_graph(2, 1, [(0, 2), (1, 2)])
    with pytest.raises(ValueError, match="position"):
        collapse_layout(2, 1, {0}, TYPE_II)
    con = contract(g, collapse_layout(2, 1, {0}, TYPE_II, position=1))
    assert con.outer.m == 2


def test_contract_rejects_ground_gap():
    g = make_graph(1, 3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match="consecutive"):
        collapse_layout(1, 3, {1, 3}, TYPE_II)


def test_collapse_fault_names_the_reason_without_raising():
    assert collapse_fault(2, 2, {0, 1}, TYPE_I) is None
    assert collapse_fault(2, 2, {0, 2, 3}, TYPE_II) is None
    assert "purely aerial" in collapse_fault(2, 2, {0, 2}, TYPE_I)
    assert "consecutive" in collapse_fault(1, 3, {1, 3}, TYPE_II)
    assert "too small" in collapse_fault(1, 2, {1}, TYPE_II)
    assert "full vertex set" in collapse_fault(1, 1, {0, 1}, TYPE_II)
    assert "out of range" in collapse_fault(1, 1, {5}, TYPE_II)


def test_canonical_key_edge_swap_parity():
    a = make_graph(1, 2, [(0, 1), (0, 2)])
    b = make_graph(1, 2, [(0, 2), (0, 1)])
    ka, pa = canonical_key(a)
    kb, pb = canonical_key(b)
    assert ka == kb
    assert pa == 1 and pb == -1


def test_canonical_key_relabelled_aerials():
    a = make_graph(2, 0, [(0, 1), (1, 0)])
    ka, _ = canonical_key(a)
    assert canonical_key(make_graph(2, 0, [(1, 0), (0, 1)]))[0] == ka


def odd_automorphism(g):
    """Reference: an aerial relabelling that maps the edge set onto itself
    by an odd permutation of the edge sequence, or None; searched on its
    own, independent of the canonical key."""
    index = {e: i for i, e in enumerate(g.edges)}
    ground = tuple(range(g.n, g.num_vertices))
    for perm in itertools.permutations(range(g.n)):
        relabel = perm + ground
        image = [index.get((relabel[s], relabel[t])) for s, t in g.edges]
        if None not in image and edge_sort_parity(image) == -1:
            return perm
    return None


def test_odd_automorphism():
    # swapping a1 and a2 swaps the two edges of the two-cycle
    assert odd_automorphism(parse_graph("2 0 ; a1>a2 a2>a1")) == (1, 0)
    # that swap exchanges two pairs of edges: an even permutation
    assert odd_automorphism(parse_graph("2 2 ; a1>g1 a1>g2 a2>g1 a2>g2")) is None
    assert odd_automorphism(parse_graph("3 0 ; a1>a2 a2>a1 a3>a1")) is None
    assert odd_automorphism(parse_graph("1 2 ; a1>g1 a1>g2")) is None
    # in a (4,0) graph: a1 <-> a2 with a3 <-> a4 swaps three edge pairs
    g = parse_graph("4 0 ; a1>a2 a2>a1 a1>a3 a2>a4 a3>a4 a4>a3")
    assert odd_automorphism(g) == (1, 0, 3, 2)


def test_canonical_parity_zero_iff_odd_automorphism():
    for n in range(5):
        for m in range(5 - n):
            for e in range(max(0, 2 * n + m - 3), 2 * n + m - 1):  # identity, top
                for g in enumerate_graphs(n, m, e):
                    assert (canonical_key(g)[1] == 0) == (odd_automorphism(g) is not None), g
    assert canonical_key(parse_graph("2 0 ; a1>a2 a2>a1")) == ((2, 0, ((0, 1), (1, 0))), 0)
    # an even automorphism leaves the parity nonzero
    assert canonical_key(parse_graph("2 2 ; a1>g2 a1>g1 a2>g1 a2>g2"))[1] == -1
    zero = {canonical_key(g)[0] for n, m in ((2, 0), (2, 2), (3, 1), (4, 0), (3, 2), (4, 1))
            for g in enumerate_graphs(n, m, 2 * n + m - 2) if canonical_key(g)[1] == 0}
    assert sorted(collections.Counter(k[:2] for k in zero).items()) == [
        ((2, 0), 1), ((3, 2), 10), ((4, 0), 10), ((4, 1), 40)]


def test_canonical_key_ground_order_fixed():
    a = make_graph(1, 2, [(0, 1), (0, 2)])
    b = make_graph(1, 2, [(0, 2), (0, 1)])
    # reversing ground labels is NOT an isomorphism: compare against a graph
    # that genuinely uses the other ground vertex
    c = make_graph(1, 2, [(0, 2)])
    d = make_graph(1, 2, [(0, 1)])
    assert canonical_key(a)[0] == canonical_key(b)[0]
    assert canonical_key(c)[0] != canonical_key(d)[0]


def test_parity_flips_under_any_transposition():
    rng = np.random.default_rng(3)
    for g in enumerate_graphs(3, 1, 4):
        edges = list(g.edges)
        if len(edges) < 2:
            continue
        i, j = sorted(rng.choice(len(edges), size=2, replace=False))
        if i == j:
            continue
        swapped = list(edges)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        h = make_graph(g.n, g.m, swapped)
        kg, pg = canonical_key(g)
        kh, ph = canonical_key(h)
        assert kg == kh and pg == -ph


def test_canonical_graph_round_trip():
    for g in enumerate_graphs(2, 2, 3):
        key, _ = canonical_key(g)
        h = canonical_graph(key)
        assert canonical_key(h)[0] == key
        assert canonical_key(h)[1] == 1  # stored sorted


def test_encoding_round_trip_bit_exact():
    for g in enumerate_graphs(2, 2, 3):
        enc = encode_graph(g)
        assert parse_graph(enc) == g
        assert encode_graph(parse_graph(enc)) == enc


def test_parse_rejects_malformed():
    for bad in ["", "1 2", "1 2 ; a1-g1", "1 2 ; a9>g1", "x y ; a1>g1"]:
        with pytest.raises(ValueError):
            parse_graph(bad)


def test_edge_sort_parity_simple():
    assert edge_sort_parity([(0, 1), (0, 2)]) == 1
    assert edge_sort_parity([(0, 2), (0, 1)]) == -1
    assert edge_sort_parity([(0, 2), (0, 1), (0, 3)]) == -1


def _brute_force_sign(seq):
    """Determinant of the permutation matrix of the stable sort of ``seq``."""
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    P = np.zeros((len(seq), len(seq)))
    P[range(len(seq)), order] = 1.0
    return int(round(np.linalg.det(P))) if seq else 1


def test_edge_sort_parity_matches_permutation_sign_with_ties():
    for length in range(7):
        for seq in itertools.product(range(3), repeat=length):
            assert edge_sort_parity(seq) == _brute_force_sign(seq), seq
    for perm in itertools.permutations(range(6)):
        assert edge_sort_parity(perm) == _brute_force_sign(perm)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1), (1, 3)])
def test_contract_and_nested_family_share_the_collapse_rule(n, m):
    empty = make_graph(n, m, [])
    accepted = 0
    for size in range(n + m + 1):
        for subset in itertools.combinations(range(n + m), size):
            for kind in (TYPE_I, TYPE_II):
                try:
                    contract(empty, collapse_layout(n, m, subset, kind, position=0))
                    by_contract = True
                except ValueError:
                    by_contract = False
                try:
                    NestedFamily(n, m, [(frozenset(subset), kind)])
                    by_family = True
                except ValueError:
                    by_family = False
                assert by_contract == by_family, (subset, kind)
                accepted += by_family
    assert 0 < accepted < 2 ** (n + m + 1)


def test_possible_edges_pool():
    assert possible_edges(1, 2) == [(0, 1), (0, 2)]
    assert possible_edges(2, 0) == [(0, 1), (1, 0)]
