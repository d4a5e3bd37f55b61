"""Abstract multi-graphs and their correspondence with height-one posets.

An abstract multi-graph is a vertex set plus edges mapped to unordered
endpoint pairs (a loop maps to a singleton).  It carries the same data
as a multi-graph-like poset: vertices at height 0, edges at height 1,
with v < e iff v is an endpoint of e.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .topology import FinPoset, connected_groups, is_multigraph_like


@dataclass(frozen=True)
class Multigraph:
    """Vertices plus edges; each edge id maps to a frozenset of 1 or 2 vertices."""

    vertices: frozenset
    edges: tuple  # pairs (edge id, frozenset of endpoints), sorted by repr

    def __post_init__(self):
        seen = set()
        for eid, ends in self.edges:
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if not 1 <= len(ends) <= 2:
                raise ValueError(f"edge {eid!r} must have 1 or 2 endpoints")
            if not ends <= self.vertices:
                raise ValueError(f"edge {eid!r} references unknown vertices")

    @classmethod
    def build(cls, vertices, edges) -> "Multigraph":
        """Build from any iterable of vertices and mapping/iterable of edges."""
        if hasattr(edges, "items"):
            edge_items = edges.items()
        else:
            edge_items = edges
        norm = tuple(
            sorted(((eid, frozenset(ends)) for eid, ends in edge_items),
                   key=lambda it: repr(it[0]))
        )
        return cls(frozenset(vertices), norm)

    def degree(self, v) -> int:
        """Degree with loops counted twice."""
        d = 0
        for _, ends in self.edges:
            if v in ends:
                d += 2 if len(ends) == 1 else 1
        return d

    def loop_count(self, v) -> int:
        return sum(1 for _, ends in self.edges if ends == frozenset([v]))

    def is_connected(self) -> bool:
        """One connected piece; the empty graph is disconnected."""
        links = (tuple(ends) for _, ends in self.edges if len(ends) == 2)
        return len(connected_groups(self.vertices, links)) == 1

    def to_poset(self) -> FinPoset:
        """The multi-graph-like poset: vertices below their incident edges."""
        elems = {("v", v) for v in self.vertices}
        pairs = []
        for eid, ends in self.edges:
            elems.add(("e", eid))
            for v in ends:
                pairs.append((("v", v), ("e", eid)))
        return FinPoset.from_pairs(elems, pairs)

    @classmethod
    def from_poset(cls, poset: FinPoset) -> "Multigraph":
        """Read a multi-graph off a multi-graph-like poset."""
        ok, witness = is_multigraph_like(poset)
        if not ok:
            raise ValueError(f"poset is not multi-graph-like at {witness!r}")
        vertices = poset.level(0)
        edges = {}
        for e in poset.level(1):
            edges[e] = frozenset(poset.down(e) - {e})
        return cls.build(vertices, edges)


def _vertex_signature(g: Multigraph) -> dict:
    return {v: (g.degree(v), g.loop_count(v)) for v in g.vertices}


def _edge_counter(g: Multigraph, relabel=None) -> Counter:
    c = Counter()
    for _, ends in g.edges:
        if relabel is not None:
            ends = frozenset(relabel[v] for v in ends)
        c[ends] += 1
    return c


def multigraph_isomorphic(g1: Multigraph, g2: Multigraph) -> dict | None:
    """Find a vertex bijection matching edge multiplicities, or None.

    Plain backtracking over vertices ordered by (degree, loop count)
    signature; adequate at the handful-of-vertices scale used here.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    sig1, sig2 = _vertex_signature(g1), _vertex_signature(g2)
    if Counter(sig1.values()) != Counter(sig2.values()):
        return None
    order = sorted(g1.vertices, key=lambda v: (sig1[v], repr(v)))
    target_edges = _edge_counter(g2)

    mapping = {}
    used = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return _edge_counter(g1, mapping) == target_edges
        v = order[i]
        for w in sorted(g2.vertices, key=repr):
            if w in used or sig2[w] != sig1[v]:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if extend(0):
        return dict(mapping)
    return None
