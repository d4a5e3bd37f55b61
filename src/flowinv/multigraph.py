"""Abstract multi-graphs and their correspondence with height-one posets.

An abstract multi-graph is a vertex set plus edges mapped to unordered
endpoint pairs (a loop maps to a singleton).  It carries the same data
as a multi-graph-like poset: vertices at height 0, edges at height 1,
with v < e iff v is an endpoint of e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import FinPoset, connected_groups


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

    def is_connected(self) -> bool:
        """One connected piece; the empty graph is disconnected."""
        links = (tuple(ends) for _, ends in self.edges if len(ends) == 2)
        return len(connected_groups(self.vertices, links)) == 1

    @classmethod
    def from_poset(cls, poset: FinPoset) -> "Multigraph":
        """Read a multi-graph off a multi-graph-like poset, in one pass
        over its up-sets: an element with nothing strictly below it is a
        vertex, and one with one or two vertices below it is an edge on
        them.  Any other element breaks "height <= 1 and |downset| <= 3";
        the ``ValueError`` names the least such by ``repr`` as witness,
        and only a failure reads ``repr``.
        """
        below = {x: [] for x in poset.elements}
        for x, ux in poset.upsets.items():
            for y in ux:
                if y != x:
                    below[y].append(x)
        vertices = {x for x, bx in below.items() if not bx}
        bad = [x for x, bx in below.items()
               if len(bx) > 2 or not vertices.issuperset(bx)]
        if bad:
            raise ValueError(
                f"poset is not multi-graph-like at {min(bad, key=repr)!r}")
        return cls.build(vertices, ((x, bx) for x, bx in below.items() if bx))


def _neighbours(g: Multigraph) -> tuple:
    """Per vertex, the number of its edges to each vertex (a loop once, on
    the diagonal), and its (degree, loop count) signature."""
    adj = {v: {} for v in g.vertices}
    for _, ends in g.edges:
        if len(ends) == 2:
            u, w = ends
            adj[u][w] = adj[u].get(w, 0) + 1
            adj[w][u] = adj[w].get(u, 0) + 1
        else:
            (v,) = ends
            adj[v][v] = adj[v].get(v, 0) + 1
    sig = {v: (sum(row.values()) + row.get(v, 0), row.get(v, 0))
           for v, row in adj.items()}
    return adj, sig


def multigraph_isomorphic(g1: Multigraph, g2: Multigraph) -> dict | None:
    """Find a vertex bijection matching edge multiplicities, or None.

    Each connected piece of ``g1`` is mapped in breadth-first order from
    its least vertex by (degree, loop count) signature.  A vertex is
    offered only the unused images with its signature that are joined to
    the images of its mapped neighbours exactly as it is joined to them,
    so an edge is checked as soon as both its ends are mapped.  A mapped
    piece is then a whole piece of ``g2``; as isomorphism is an
    equivalence, pieces match greedily.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    (adj1, sig1), (adj2, sig2) = _neighbours(g1), _neighbours(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    targets = sorted(g2.vertices, key=repr)
    mapping, used = {}, set()

    def offered(pool, s):
        """The unused images in ``pool`` with signature ``s``, read as they
        are tried.  Whenever it is read only earlier positions are mapped,
        so it offers what a list built up front would, read only as far
        as the image taken."""
        return (w for w in pool if w not in used and sig2[w] == s)

    def joined_alike(v, w) -> bool:
        return ({mapping[u]: c for u, c in adj1[v].items() if u in mapping}
                == {x: c for x, c in adj2[w].items() if x in used})

    for root in sorted(g1.vertices, key=lambda v: (sig1[v], repr(v))):
        if root in mapping:
            continue
        order, parent = [root], {root: None}
        for v in order:
            for u in adj1[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        choices = []  # per position in order, the images not yet tried
        i = 0
        while 0 <= i < len(order):
            v = order[i]
            if i == len(choices):
                p = parent[v]
                pool = targets if p is None else adj2[mapping[p]]
                choices.append(offered(pool, sig1[v]))
            elif v in mapping:
                used.discard(mapping.pop(v))
            for w in choices[i]:
                if joined_alike(v, w):
                    mapping[v] = w
                    used.add(w)
                    i += 1
                    break
            else:
                choices.pop()
                i -= 1
        if i < 0:
            return None
    return mapping
