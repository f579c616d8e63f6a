"""Directed graphs on aerial and ground vertices.

Vertices are integers: ``0 .. n-1`` are aerial (upper half-plane points),
``n .. n+m-1`` are ground (real-line points, in increasing order).  A graph
is admissible when it has no loops, no repeated oriented edge and no edge
whose source is a ground vertex.  The edge sequence is ordered; the order
is part of the value because it fixes the sign of every derived quantity.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

Edge = Tuple[int, int]

#: enumeration refuses graphs on more vertices than this
MAX_VERTICES = 8

TYPE_I = "I"
TYPE_II = "II"


@dataclass(frozen=True)
class Graph:
    """Admissible directed graph with ``n`` aerial and ``m`` ground vertices."""

    n: int
    m: int
    edges: Tuple[Edge, ...]

    @property
    def num_vertices(self) -> int:
        return self.n + self.m

    def out_degree(self, v: int) -> int:
        return sum(1 for s, _ in self.edges if s == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, t in self.edges if t == v)

    def vertex_name(self, v: int) -> str:
        return f"a{v + 1}" if v < self.n else f"g{v - self.n + 1}"

    def __str__(self) -> str:
        return encode_graph(self)


def edge_fault(n: int, m: int, edges: Sequence[Edge]) -> Optional[str]:
    """First reason an edge list on ``n`` aerial and ``m`` ground vertices is
    inadmissible, or None when it is admissible."""
    seen = set()
    for s, t in edges:
        if not (0 <= s < n + m and 0 <= t < n + m):
            return f"edge ({s},{t}) out of range for {n}+{m} vertices"
        if s == t:
            return f"loop edge at vertex {s}"
        if s >= n:
            return f"edge sourced at ground vertex {s}"
        if (s, t) in seen:
            return f"duplicate oriented edge ({s},{t})"
        seen.add((s, t))
    return None


def make_graph(n: int, m: int, edges: Sequence[Edge]) -> Graph:
    """Validate and build a graph; raises ValueError on any inadmissibility."""
    if n < 0 or m < 0:
        raise ValueError("vertex counts must be nonnegative")
    fault = edge_fault(n, m, edges)
    if fault:
        raise ValueError(fault)
    return Graph(n, m, tuple((int(s), int(t)) for s, t in edges))


def possible_edges(n: int, m: int) -> list[Edge]:
    """All admissible edges in lexicographic order."""
    return [(s, t) for s in range(n) for t in range(n + m) if t != s]


def enumerate_graphs(n: int, m: int, e: int) -> Iterator[Graph]:
    """Yield every admissible graph with exactly ``e`` edges, once per edge set.

    Edge sets are emitted in lexicographic order of their sorted edge tuple,
    and each graph stores its edges in that sorted order.
    """
    if n < 0 or m < 0 or e < 0:
        raise ValueError("arguments must be nonnegative")
    if n + m > MAX_VERTICES:
        raise ValueError(f"refusing to enumerate graphs on {n + m} > {MAX_VERTICES} vertices")
    pool = possible_edges(n, m)
    for combo in itertools.combinations(pool, e):
        yield Graph(n, m, combo)


def collapse_fault(n: int, m: int, subset, kind: str) -> Optional[str]:
    """First reason ``subset`` does not bound a codimension-one stratum of
    the given kind, or None when it does.

    Type I: two or more aerial vertices and nothing else, collapsing into
    the interior.  Type II: aerial vertices plus a gap-free run of ground
    vertices, at least two points once each aerial vertex is counted with
    its mirror image, and not the full vertex set, collapsing onto the line.
    """
    members = sorted(set(subset))
    if members and (members[0] < 0 or members[-1] >= n + m):
        return "subset out of range"
    num_aer = bisect.bisect_left(members, n)
    num_grd = len(members) - num_aer
    if kind == TYPE_I:
        if num_grd:
            return "type I subset must be purely aerial"
        if num_aer < 2:
            return "type I subset needs at least 2 aerial vertices"
    elif kind == TYPE_II:
        if 2 * num_aer + num_grd < 2:
            return "type II subset too small to bound a stratum"
        if num_grd and members[-1] - members[num_aer] != num_grd - 1:
            return ("ground members of a type II subset must be consecutive"
                    " (a gap-free run)")
        if len(members) == n + m:
            return "cannot collapse the full vertex set"
    else:
        return f"unknown contraction kind {kind!r}"
    return None


def check_collapse(n: int, m: int, subset, kind: str) -> None:
    """Raise ValueError with the :func:`collapse_fault` reason, if any."""
    fault = collapse_fault(n, m, subset, kind)
    if fault:
        raise ValueError(fault)


class CollapseLayout(NamedTuple):
    """One collapse: the sorted ``subset`` on ``n`` aerial and some ground
    vertices, its ``kind`` and the ground gap ``position`` (None unless the
    subset is aerial-only type II), with the vertex labelling it induces.

    ``vertex_map`` sends each original vertex to its outer vertex
    (``new_vertex`` for members of the subset), ``inner_index`` each member
    to its inner vertex (members in index order; -1 for non-members).  The
    inner factor has ``inner_n`` aerial and ``inner_m`` ground vertices, the
    outer factor ``outer_n`` and ``outer_m``.
    """

    subset: Tuple[int, ...]
    kind: str
    position: Optional[int]
    n: int
    new_vertex: int
    vertex_map: Tuple[int, ...]
    inner_index: Tuple[int, ...]
    inner_n: int
    inner_m: int
    outer_n: int
    outer_m: int

    def label(self) -> str:
        """``kind{subset}@position``, the position only when there is one."""
        pos = "" if self.position is None else f"@{self.position}"
        return f"{self.kind}{{{','.join(map(str, self.subset))}}}{pos}"


def collapse_layout(n: int, m: int, subset, kind: str,
                    position: Optional[int] = None) -> CollapseLayout:
    """Where a collapsing subset and every other vertex land, for both factors.

    The remaining vertices keep their order.  Type I: the fresh aerial
    vertex takes the slot of the smallest member.  Type II: the fresh ground
    vertex takes the slot of the first ground member; with no ground
    member, ``position`` picks the gap (0..m) among the ground vertices.
    Raises ValueError on a subset :func:`collapse_fault` rejects.
    """
    check_collapse(n, m, subset, kind)
    members = sorted(set(subset))  # aerial members precede ground ones
    num_aer = bisect.bisect_left(members, n)
    if kind == TYPE_I:
        new_vertex = members[0]
    elif num_aer < len(members):
        new_vertex = members[num_aer] - num_aer
    else:
        if position is None:
            raise ValueError("type II subset without ground members needs a position")
        if not 0 <= position <= m:
            raise ValueError("position out of range")
        new_vertex = n - num_aer + position
    inner_index = [-1] * (n + m)
    for i, v in enumerate(members):
        inner_index[v] = i
    vertex_map = [new_vertex] * (n + m)
    for i, v in enumerate([v for v in range(n + m) if inner_index[v] < 0]):
        vertex_map[v] = i + (i >= new_vertex)
    fresh_aerial = kind == TYPE_I
    gap = None if fresh_aerial or num_aer < len(members) else position
    return CollapseLayout(tuple(members), kind, gap, n, new_vertex, tuple(vertex_map),
                          tuple(inner_index), num_aer, len(members) - num_aer,
                          n - num_aer + fresh_aerial,
                          m - len(members) + num_aer + (not fresh_aerial))


@dataclass(frozen=True)
class Contraction:
    """Split of a graph's edges along a :class:`CollapseLayout`.

    ``inner`` lives on the collapsed subset, ``outer`` on the remaining
    vertices plus one fresh vertex.  ``fault`` is the first reason the
    outer edge list is inadmissible (a stratum contributing a zero
    operator), or None.
    """

    inner: Graph
    outer: Graph
    fault: Optional[str]
    layout: CollapseLayout

    @property
    def outer_ok(self) -> bool:
        return self.fault is None


def contract(g: Graph, layout: CollapseLayout) -> Contraction:
    """Split ``g``'s edges along a collapse placed by :func:`collapse_layout`.

    Edges inside the collapsing subset go to ``inner`` (original relative
    order, endpoints through ``inner_index``), the rest to ``outer`` with
    endpoints through ``vertex_map``.  An inadmissible outer edge list is
    recorded in ``fault``, not rejected.
    """
    idx, vmap = layout.inner_index, layout.vertex_map
    if (g.n, g.num_vertices) != (layout.n, len(idx)):
        raise ValueError(f"layout does not fit a graph on {g.n}+{g.m} vertices")
    inner_edges, outer_edges = [], []
    for s, t in g.edges:
        if idx[s] >= 0 and idx[t] >= 0:
            inner_edges.append((idx[s], idx[t]))
        else:
            outer_edges.append((vmap[s], vmap[t]))
    outer_edges = tuple(outer_edges)
    return Contraction(Graph(layout.inner_n, layout.inner_m, tuple(inner_edges)),
                       Graph(layout.outer_n, layout.outer_m, outer_edges),
                       edge_fault(layout.outer_n, layout.outer_m, outer_edges), layout)


def edge_sort_parity(seq: Sequence) -> int:
    """Sign of the permutation that stably sorts ``seq``: -1 to the number of
    strictly out-of-order pairs (equal items keep their relative order)."""
    inversions = sum(itertools.starmap(operator.gt, itertools.combinations(seq, 2)))
    return -1 if inversions % 2 else 1


def canonical_key(g: Graph):
    """Key equal for graphs isomorphic under aerial relabelling, plus parity.

    The key fixes the ground order (ground relabelling is not allowed) and
    minimises the sorted edge tuple over all permutations of the aerial
    labels.  The parity is the sign of the permutation taking the stored
    edge sequence, transported through a minimising relabelling, to the
    canonical sorted order; a graph's weight is the canonical graph's
    weight times this parity.  It is 0 when two minimising relabellings
    give opposite signs: the class then has an odd automorphism, an aerial
    relabelling that permutes its edges oddly, and since relabelling aerial
    points preserves the orientation of the slice its weight equals minus
    itself, which makes it exactly zero.
    """
    best = best_seq = parity = None
    ground = tuple(range(g.n, g.num_vertices))
    for perm in itertools.permutations(range(g.n)):
        relabel = perm + ground
        seq = tuple((relabel[s], relabel[t]) for s, t in g.edges)
        edges = tuple(sorted(seq))
        if best is None or edges < best:
            best, best_seq, parity = edges, seq, None
        elif parity != 0 and edges == best:
            if parity is None:
                parity = edge_sort_parity(best_seq)
            if edge_sort_parity(seq) != parity:
                parity = 0
    return (g.n, g.m, best), edge_sort_parity(best_seq) if parity is None else parity


def canonical_graph(key) -> Graph:
    """Graph realising a canonical key, edges in sorted order."""
    n, m, edges = key
    return make_graph(n, m, list(edges))


def encode_graph(g: Graph) -> str:
    """One-line text encoding ``n m ; s1>t1 s2>t2 ...``."""
    parts = [f"{g.n} {g.m} ;"]
    parts.extend(f"{g.vertex_name(s)}>{g.vertex_name(t)}" for s, t in g.edges)
    return " ".join(parts)


def parse_graph(text: str) -> Graph:
    """Inverse of :func:`encode_graph`; raises ValueError on malformed input."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise ValueError("missing ';' separator")
    try:
        n_str, m_str = head.split()
        n, m = int(n_str), int(m_str)
    except Exception as exc:
        raise ValueError(f"malformed vertex counts in {head!r}") from exc

    def vid(name: str) -> int:
        if len(name) < 2 or name[0] not in "ag":
            raise ValueError(f"bad vertex name {name!r}")
        idx = int(name[1:]) - 1
        if name[0] == "a":
            if not 0 <= idx < n:
                raise ValueError(f"aerial vertex {name!r} out of range")
            return idx
        if not 0 <= idx < m:
            raise ValueError(f"ground vertex {name!r} out of range")
        return n + idx

    edges = []
    for token in tail.split():
        src, sep2, dst = token.partition(">")
        if not sep2:
            raise ValueError(f"bad edge token {token!r}")
        edges.append((vid(src), vid(dst)))
    return make_graph(n, m, edges)
