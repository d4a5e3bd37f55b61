"""Finite posets and finite topological spaces.

A finite topology is the same data as a preorder: the opens of the
Alexandroff topology of a poset are exactly its upsets, and the
specialization order (x <= y iff x lies in the closure of {y}) recovers
the poset.  A space is held by the minimal open U_x of each point, so
building one from a poset, checking it, and reading its closures,
specialization order and separation axioms all cost about the size of
the order relation.  Only ``FinSpace.opens`` enumerates the opens, which
are exponential in the poset's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple


class NotT0Error(ValueError):
    """Raised when a space has two distinct points with identical closures."""


class PosetError(ValueError):
    """Raised when a relation fails to be a partial order."""


class TopologyError(ValueError):
    """Raised when a family of opens or minimal opens is no topology."""


def _successors(elements: Iterable, pairs: Iterable) -> dict:
    """Each element's set of the b with (element, b) among ``pairs``."""
    out = {x: set() for x in elements}
    for a, b in pairs:
        out[a].add(b)
    return out


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: opaque elements plus the full order relation.

    ``order`` holds every pair ``(lesser, greater)`` including the
    reflexive pairs.  Construction rejects anything that is not
    reflexive, antisymmetric and transitive.
    """

    elements: frozenset
    order: frozenset

    def __post_init__(self):
        for pair in self.order:
            if len(pair) != 2:
                raise PosetError(f"order entry {pair!r} is not a pair")
            a, b = pair
            if a not in self.elements or b not in self.elements:
                raise PosetError(f"order pair {pair!r} uses unknown elements")
        up = _successors(self.elements, self.order)
        for x in self.elements:
            if x not in up[x]:
                raise PosetError(f"order is not reflexive at {x!r}")
        for a, b in self.order:
            if a != b and a in up[b]:
                raise PosetError(f"order is not antisymmetric on {a!r}, {b!r}")
        for a in self.elements:
            for b in up[a]:
                if not up[b] <= up[a]:
                    c = next(iter(up[b] - up[a]))
                    raise PosetError(
                        f"order is not transitive: {a!r} <= {b!r} <= {c!r}"
                    )

    @classmethod
    def from_pairs(cls, elements: Iterable, pairs: Iterable) -> "FinPoset":
        """Build a poset from generating strict/weak pairs.

        Takes the reflexive-transitive closure of ``pairs``; antisymmetry
        of the result is still checked.
        """
        elems = frozenset(elements)
        up = {x: {x} for x in elems}
        for a, b in pairs:
            if a not in elems or b not in elems:
                raise PosetError(f"pair ({a!r}, {b!r}) uses unknown elements")
            up[a].add(b)
        changed = True
        while changed:
            changed = False
            for x in elems:
                new = set(up[x])
                for y in up[x]:
                    new |= up[y]
                if new != up[x]:
                    up[x] = new
                    changed = True
        order = frozenset((a, b) for a in elems for b in up[a])
        return cls(elems, order)

    @cached_property
    def _up(self) -> dict:
        up = _successors(self.elements, self.order)
        return {x: frozenset(s) for x, s in up.items()}

    @cached_property
    def _down(self) -> dict:
        down = _successors(self.elements, ((b, a) for a, b in self.order))
        return {x: frozenset(s) for x, s in down.items()}

    def leq(self, a, b) -> bool:
        return (a, b) in self.order

    def up(self, x) -> frozenset:
        """The upset of x: all y with x <= y."""
        return self._up[x]

    def down(self, x) -> frozenset:
        """The downset of x: all y with y <= x."""
        return self._down[x]

    @cached_property
    def heights(self) -> dict:
        """Height of every element: longest chain ending there."""
        h = {}

        def height_of(x):
            if x in h:
                return h[x]
            below = [y for y in self._down[x] if y != x]
            h[x] = 0 if not below else 1 + max(height_of(y) for y in below)
            return h[x]

        for x in self.elements:
            height_of(x)
        return h

    def height(self) -> int | None:
        """Height of the poset; None for the empty poset (undefined)."""
        if not self.elements:
            return None
        return max(self.heights.values())

    def level(self, k: int) -> frozenset:
        """All elements of height exactly k."""
        return frozenset(x for x, h in self.heights.items() if h == k)


class MultigraphLikeness(NamedTuple):
    ok: bool
    witness: Hashable | None


def is_multigraph_like(poset: FinPoset) -> MultigraphLikeness:
    """Check height <= 1 and |downset| <= 3 everywhere.

    On failure the witness is an offending element.
    """
    for x in sorted(poset.elements, key=repr):
        if poset.heights[x] > 1 or len(poset.down(x)) > 3:
            return MultigraphLikeness(False, x)
    return MultigraphLikeness(True, None)


def is_connected_poset(poset: FinPoset) -> bool:
    """Connectivity of the comparability graph; the empty poset is disconnected."""
    return len(connected_groups(poset.elements, poset.order)) == 1


def connected_groups(points: Iterable, links: Iterable) -> list:
    """Classes of the equivalence on ``points`` generated by ``links``.

    ``links`` are pairs of points.  Returns frozensets in the order in
    which ``points`` first reaches them: for sorted points, by least member.
    """
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    groups = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(members) for members in groups.values()]


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space, held by the minimal open U_x of each
    point x (the intersection of the opens containing x); the opens are
    the unions of U_x's.  Construction checks, with one subset test per
    pair (x, y) with y in U_x, that the U_x form a basis: every point has
    one, x lies in U_x, U_x lies in the points, and y in U_x implies U_y
    inside U_x.
    """

    points: frozenset
    minimal_opens: dict = field(hash=False)

    def __post_init__(self):
        u = {x: frozenset(ux) for x, ux in self.minimal_opens.items()}
        object.__setattr__(self, "minimal_opens", u)
        for x in self.points:
            if x not in u:
                raise TopologyError(f"point {x!r} has no minimal open")
        for x, ux in u.items():
            if x not in ux:
                raise TopologyError(f"point {x!r} is not in its minimal open")
            if not ux <= self.points:
                raise TopologyError(
                    f"minimal open of {x!r} is not a subset of the points")
            for y in ux:
                if not u[y] <= ux:
                    raise TopologyError(
                        f"minimal open of {x!r} contains {y!r}"
                        " but not its minimal open")

    @classmethod
    def from_opens(cls, points: frozenset, opens: frozenset) -> "FinSpace":
        """The space with the opens ``opens``, checked in
        O(|opens| * |points|) to be a topology: the empty and whole sets
        are open, every minimal open U_x is open ("intersection"), and so
        is every open joined with any U_x ("union").  That is enough: O,
        O | O' and O & O' are unions of the U_x of their points, so each
        is reached from O or the empty set by joining one U_x at a time.
        """
        for o in opens:
            if not o <= points:
                raise TopologyError(f"open {set(o)!r} is not a subset of the points")
        family = set(opens)
        if len(family) != len(opens):
            raise TopologyError("duplicate opens")
        if frozenset() not in family:
            raise TopologyError("the empty set is not open")
        if points not in family:
            raise TopologyError("the whole set is not open")
        minimal = {x: points.intersection(*(o for o in family if x in o))
                   for x in points}
        if not family.issuperset(minimal.values()):
            raise TopologyError("opens are not closed under intersection")
        if not family.issuperset(o | ux for ux in set(minimal.values())
                                 for o in family):
            raise TopologyError("opens are not closed under union")
        return cls(points, minimal)

    @property
    def opens(self) -> frozenset:
        """Every open: each union of minimal opens, built on demand and
        exponential in the width (an antichain of n points has 2^n)."""
        opens = {frozenset()}
        for ux in set(self.minimal_opens.values()):
            opens |= {o | ux for o in opens}
        return frozenset(opens)

    def closure(self, subset: frozenset) -> frozenset:
        """Smallest closed set containing ``subset``: the points x whose
        least neighbourhood U_x meets it."""
        return frozenset(x for x, ux in self.minimal_opens.items()
                         if not ux.isdisjoint(subset))


class SeparationAxioms(NamedTuple):
    t0: bool
    t1: bool
    t2: bool


def _indistinguishable_pair(u: dict) -> tuple | None:
    """The first two distinct points, in sorted-repr order, each in the
    other's minimal open (so sharing their closure), or None when the
    space is T0."""
    for x in sorted(u, key=repr):
        twins = [y for y in u[x] if y != x and x in u[y]]
        if twins:
            return x, min(twins, key=repr)
    return None


def separation_axioms(space: FinSpace) -> SeparationAxioms:
    """T0/T1/T2 read off the minimal open neighbourhoods U_x.

    Two points are topologically indistinguishable iff each lies in the
    other's U_x, so T0 holds iff no two points do; T1 holds iff every U_x
    is {x}.  A finite T1 space is discrete (every point is closed, hence
    every subset, a finite union of points, is closed), and a discrete
    space is T2; as T2 implies T1, T2 equals T1 on finite spaces.
    """
    u = space.minimal_opens
    t0 = _indistinguishable_pair(u) is None
    t1 = all(len(ux) == 1 for ux in u.values())
    return SeparationAxioms(t0, t1, t1)


def specialization_order(space: FinSpace) -> FinPoset:
    """The specialization order: x <= y iff x lies in the closure of {y}.

    Equivalently, every open containing x contains y, i.e. y lies in U_x.
    Raises NotT0Error when the preorder is not antisymmetric, i.e. two
    points share their closure.
    """
    u = space.minimal_opens
    pair = _indistinguishable_pair(u)
    if pair is not None:
        raise NotT0Error("points %r and %r have identical closures" % pair)
    return FinPoset(space.points,
                    frozenset((x, y) for x in u for y in u[x]))


def alexandroff_space(poset: FinPoset) -> FinSpace:
    """The Alexandroff topology of a poset: the opens are exactly the
    upsets, so U_x is the principal upset of x, read off the order in
    one pass."""
    return FinSpace(poset.elements, _successors(poset.elements, poset.order))
