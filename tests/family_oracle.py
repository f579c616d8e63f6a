"""Reference for nested families and chart membership.

The tree here is kept on the upper half-plane: a type I node's mirror is
not a node, so the mirror rule is added by hand in ``_signed``, in ``_validate``'s extra mirror sets, in
``node_center``'s type II branch and in ``_incarnation_centers`` with
``chart_membership``'s own-mirror line.  :func:`compare` checks
:mod:`kwl.halfplane`'s doubled-plane tree against it: the same
``NestedFamily`` and ``gcd_families`` errors and the same chart verdicts on
cluster-shaped configurations.

Run ``PYTHONPATH=src python tests/family_oracle.py`` for the full sweep:
every family of up to three internal nodes on at most four points; it
prints the triple, family and mismatch counts.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from kwl import halfplane
from kwl.graphs import TYPE_I, TYPE_II, check_collapse
from kwl.halfplane import Configuration, center_of_mass, make_configuration

ROOT = "root"
LEAF = "leaf"


@dataclass(frozen=True)
class FamilyNode:
    members: frozenset
    kind: str  # TYPE_I, TYPE_II, ROOT or LEAF


def _signed(node: FamilyNode, n: int) -> frozenset:
    """Upstairs incarnation of a node.

    Conjugation-closed nodes (type II and the root) contain both mirror
    copies of their aerial members; type I nodes and aerial leaves are the
    upper-half-plane incarnation only (their mirrors live in the mirrored
    subtree, which is not represented).
    """
    if node.kind == TYPE_I:
        return frozenset((v, +1) for v in node.members)
    if node.kind == LEAF:
        v = next(iter(node.members))
        return frozenset({(v, +1 if v < n else 0)})
    out = set()
    for v in node.members:
        if v < n:
            out.add((v, +1))
            out.add((v, -1))
        else:
            out.add((v, 0))
    return frozenset(out)


class NestedFamily:
    """Rooted tree of collapsing subsets of the point index set.

    Internal nodes carry a type marker: type I is a set of aerial points
    collapsing to an interior point (its mirror collapses simultaneously),
    type II is a set closed under conjugation (aerial points plus a gap-free
    run of ground points) collapsing onto the real line.  The root is the
    full set; leaves are singletons.
    """

    def __init__(self, n: int, m: int, internal: Sequence[Tuple[frozenset, str]]):
        self.n = n
        self.m = m
        self.internal = tuple((frozenset(s), k) for s, k in internal)
        self._validate()
        self._build_tree()

    @staticmethod
    def top(n: int, m: int) -> "NestedFamily":
        return NestedFamily(n, m, [])

    def _validate(self) -> None:
        n = self.n
        seen = set()
        for s, k in self.internal:
            check_collapse(n, self.m, s, k)
            if (s, k) in seen:
                raise ValueError("duplicate family node")
            seen.add((s, k))
        # pairwise nested-or-disjoint upstairs (type I nodes come with mirrors)
        sets = []
        for s, k in self.internal:
            node = FamilyNode(s, k)
            sets.append(_signed(node, n))
            if k == TYPE_I:
                sets.append(frozenset((v, -1) for v in s))
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i], sets[j]
                if not (a <= b or b <= a or not (a & b)):
                    raise ValueError("family is not nested")

    def _build_tree(self) -> None:
        n, m = self.n, self.m
        nodes = [FamilyNode(frozenset(range(n + m)), ROOT)]
        nodes += [FamilyNode(s, k) for s, k in self.internal]
        nodes += [FamilyNode(frozenset([v]), LEAF) for v in range(n + m)]
        signed = {node: _signed(node, n) for node in nodes}
        parent = {}
        for node in nodes:
            if node.kind == ROOT:
                continue
            best = None
            for other in nodes:
                if other is node:
                    continue
                if signed[node] < signed[other]:
                    if best is None or len(signed[other]) < len(signed[best]):
                        best = other
            parent[node] = best
        children: dict = {node: [] for node in nodes}
        for node, p in parent.items():
            children[p].append(node)
        self.root = nodes[0]
        self.nodes = nodes
        self.parent = parent
        self.children = {k: tuple(sorted(v, key=lambda nd: (sorted(nd.members), nd.kind)))
                         for k, v in children.items()}

    def internal_nodes(self) -> List[FamilyNode]:
        return [nd for nd in self.nodes if nd.kind in (TYPE_I, TYPE_II)]

    def node_center(self, node: FamilyNode, cfg: Configuration) -> complex:
        """Center of mass of a node's points (upstairs, so type II is real)."""
        if node.kind == TYPE_I:
            return center_of_mass([cfg.point(v) for v in node.members])
        if node.kind == LEAF:
            return cfg.point(next(iter(node.members)))
        total = 0.0
        count = 0
        for v in node.members:
            z = cfg.point(v)
            if v < self.n:
                total += 2.0 * z.real
                count += 2
            else:
                total += z.real
                count += 1
        return complex(total / count, 0.0)


def gcd_families(i: NestedFamily, j: NestedFamily) -> Optional[NestedFamily]:
    """Union of two nested families when that union is nested, else None."""
    if (i.n, i.m) != (j.n, j.m):
        raise ValueError("families live on different point sets")
    merged = list(dict.fromkeys(list(i.internal) + list(j.internal)))
    try:
        return NestedFamily(i.n, i.m, merged)
    except ValueError:
        return None


def _incarnation_centers(fam: NestedFamily, node: FamilyNode, cfg: Configuration,
                         parent_closed: bool) -> List[complex]:
    """Centers of a node's upstairs incarnations seen from a closed parent."""
    z = fam.node_center(node, cfg)
    mirrored = parent_closed and (
        node.kind == TYPE_I
        or (node.kind == LEAF and next(iter(node.members)) < fam.n))
    if mirrored:
        return [z, z.conjugate()]
    return [z]


def chart_membership(cfg: Configuration, fam: NestedFamily, c: float) -> bool:
    """Test the defining inequalities of the chart of ``fam`` at ratio ``c``.

    For every internal node ``B``, every child cluster of ``B`` must sit
    within ``c`` times the distance from ``B``'s center to each sibling
    cluster of ``B`` (siblings taken upstairs, so the mirror of a type I
    node counts among its siblings under a conjugation-closed parent).
    """
    if not 0.0 < c < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    for node in fam.internal_nodes():
        zb = fam.node_center(node, cfg)
        child_d = [abs(fam.node_center(ch, cfg) - zb)
                   for ch in fam.children[node]]
        if not child_d:
            continue
        parent = fam.parent[node]
        parent_closed = parent.kind in (TYPE_II, ROOT)
        sib_d: List[float] = []
        for sib in fam.children[parent]:
            if sib is node:
                continue
            for zc in _incarnation_centers(fam, sib, cfg, parent_closed):
                sib_d.append(abs(zc - zb))
        if parent_closed and node.kind == TYPE_I:
            sib_d.append(abs(zb.conjugate() - zb))
        if not sib_d:
            continue
        if max(child_d) > c * min(sib_d):
            return False
    return True


# ---------------------------------------------------------------------------
# comparison

#: every (n, m) on two to four points
SHAPES = tuple((n, k - n) for k in range(2, 5) for n in range(k + 1))
RATIOS = (0.01, 0.1, 0.5, 0.9)


def candidates(n: int, m: int) -> List[Tuple[frozenset, str]]:
    """Every nonempty subset with either kind, valid or not."""
    return [(frozenset(s), kind) for r in range(1, n + m + 1)
            for s in itertools.combinations(range(n + m), r) for kind in (TYPE_I, TYPE_II)]


def families(n: int, m: int, max_nodes: int):
    """Every multiset of at most ``max_nodes`` candidates, in a fixed order."""
    cand = candidates(n, m)
    for k in range(max_nodes + 1):
        yield from itertools.combinations_with_replacement(cand, k)


def cluster_draw(n: int, m: int, internal, rng) -> Configuration:
    """Random points with each cluster, outermost first, shrunk about its
    center by a log-uniform factor in [1e-3, 1].  A type II cluster shrinks
    about the mean of its ground members, or the real part of its aerial
    mean when it has none, so the ground order is kept."""
    pts = [complex(rng.uniform(-2, 2), rng.uniform(0.05, 2)) for _ in range(n)]
    pts += [complex(g) for g in np.sort(rng.uniform(-2, 2, m))]
    for s, kind in sorted(internal, key=lambda sk: (-len(sk[0]), sk[1] != TYPE_II)):
        ground = [pts[v] for v in s if v >= n]
        zeta = center_of_mass(ground or [pts[v] for v in s])
        if kind == TYPE_II:
            zeta = complex(zeta.real)
        r = 10.0 ** rng.uniform(-3, 0)
        for v in s:
            pts[v] = zeta + r * (pts[v] - zeta)
    return make_configuration(pts[:n], [z.real for z in pts[n:]])


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def compare(max_nodes: int, draws: int, seed: int = 0,
            shapes: Sequence[Tuple[int, int]] = SHAPES):
    """Compare both implementations on every family of at most
    ``max_nodes`` internal nodes, ``draws`` cluster draws per valid family
    and every ratio of :data:`RATIOS`, and ``gcd_families`` on every pair
    of one-node families.  Returns the (family, configuration, ratio)
    triple count, the family count and the mismatches."""
    rng = np.random.default_rng(seed)
    triples = count = 0
    mismatches = []
    for n, m in shapes:
        singles = []
        for internal in families(n, m, max_nodes):
            count += 1
            ref = _outcome(lambda: NestedFamily(n, m, internal))
            new = _outcome(lambda: halfplane.NestedFamily(n, m, internal))
            if isinstance(ref, str) or isinstance(new, str):
                if ref != new:
                    mismatches.append((n, m, internal, ref, new))
                continue
            if len(internal) == 1:
                singles.append((ref, new))
            for _ in range(draws):
                cfg = cluster_draw(n, m, internal, rng)
                for c in RATIOS:
                    triples += 1
                    want = chart_membership(cfg, ref, c)
                    if halfplane.chart_membership(cfg, new, c) != want:
                        mismatches.append((n, m, internal, cfg, c, want))
        for (ri, ni), (rj, nj) in itertools.combinations(singles, 2):
            want = getattr(gcd_families(ri, rj), "internal", None)
            got = getattr(halfplane.gcd_families(ni, nj), "internal", None)
            if got != want:
                mismatches.append((n, m, ri.internal, rj.internal, want, got))
    return triples, count, mismatches


if __name__ == "__main__":
    triples, count, mismatches = compare(3, 64)
    print(f"{count} families on {len(SHAPES)} shapes, {triples} (family, configuration,"
          f" ratio) triples: {len(mismatches)} mismatches")
    for row in mismatches[:10]:
        print(row)
