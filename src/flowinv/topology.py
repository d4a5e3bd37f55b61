"""Finite posets and finite topological spaces.

A finite topology is the same data as a preorder: the opens of the
Alexandroff topology of a poset are exactly its upsets, and the
specialization order (x <= y iff x lies in the closure of {y}) recovers
the poset.  Everything here is exhaustively verified at construction,
which is affordable because every space we build has a handful of
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_
from typing import Hashable, Iterable, NamedTuple


class NotT0Error(ValueError):
    """Raised when a space has two distinct points with identical closures."""


class PosetError(ValueError):
    """Raised when a relation fails to be a partial order."""


class TopologyError(ValueError):
    """Raised when a family of opens fails to be a topology."""


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
        up = {x: set() for x in self.elements}
        for a, b in self.order:
            up[a].add(b)
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
        up = {x: set() for x in self.elements}
        for a, b in self.order:
            up[a].add(b)
        return {x: frozenset(s) for x, s in up.items()}

    @cached_property
    def _down(self) -> dict:
        down = {x: set() for x in self.elements}
        for a, b in self.order:
            down[b].add(a)
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
        if poset.heights[x] > 1:
            return MultigraphLikeness(False, x)
        if len(poset.down(x)) > 3:
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
    """A finite topological space with its full family of opens.

    Construction verifies the family: the empty set and the whole set
    are open, and the opens are closed under union and intersection.
    The check reads each point's minimal open U_x, the intersection of
    the opens containing x, in O(|opens| * |points|): every U_x must be
    open ("intersection"), and so must every open joined with any U_x
    ("union").  That is enough: an open O is the union of the U_x of its
    points, and O & O' the union of the U_x of the points of O & O', so
    both O | O' and O & O' are reached from an open (O, or the empty
    set) by joining one U_x at a time.
    """

    points: frozenset
    opens: frozenset

    # bit index per point, fixed by sorted repr for determinism
    _index: dict = field(init=False, repr=False, compare=False)
    # the mask of each point's minimal open U_x, by bit index
    _minimal: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {p: i for i, p in enumerate(sorted(self.points, key=repr))}
        object.__setattr__(self, "_index", index)
        masks = set()
        for u in self.opens:
            if not u <= self.points:
                raise TopologyError(f"open {set(u)!r} is not a subset of the points")
            masks.add(self._mask(u))
        if len(masks) != len(self.opens):
            raise TopologyError("duplicate opens")
        full = (1 << len(self.points)) - 1
        if 0 not in masks:
            raise TopologyError("the empty set is not open")
        if full not in masks:
            raise TopologyError("the whole set is not open")
        minimal = [reduce(and_, [m for m in masks if m >> i & 1])
                   for i in range(len(index))]
        if not masks.issuperset(minimal):
            raise TopologyError("opens are not closed under intersection")
        if not masks.issuperset({m | u for u in set(minimal) for m in masks}):
            raise TopologyError("opens are not closed under union")
        object.__setattr__(self, "_minimal", minimal)

    def _mask(self, subset: frozenset) -> int:
        m = 0
        for p in subset:
            m |= 1 << self._index[p]
        return m

    @cached_property
    def minimal_opens(self) -> dict:
        """U_x per point x: the intersection of the opens containing x,
        itself open because the family of opens is finite."""
        points = list(self._index)  # by bit index
        return {x: frozenset(p for i, p in enumerate(points) if u >> i & 1)
                for x, u in zip(points, self._minimal)}

    def closure(self, subset: frozenset) -> frozenset:
        """Smallest closed set containing ``subset``."""
        hole = frozenset().union(
            *(u for u in self.opens if not u & subset)
        ) if self.opens else frozenset()
        return self.points - frozenset(hole)


class SeparationAxioms(NamedTuple):
    t0: bool
    t1: bool
    t2: bool


def separation_axioms(space: FinSpace) -> SeparationAxioms:
    """T0/T1/T2 read off the minimal open neighbourhoods U_x.

    Two points are topologically indistinguishable iff each lies in the
    other's U_x, so T0 holds iff no two points do; T1 holds iff every U_x
    is {x}.  A finite T1 space is discrete (every point is closed, hence
    every subset, a finite union of points, is closed), and a discrete
    space is T2; as T2 implies T1, T2 equals T1 on finite spaces.
    """
    u = space.minimal_opens
    t0 = not any(x != y and x in u[y] for x in u for y in u[x])
    t1 = all(len(ux) == 1 for ux in u.values())
    return SeparationAxioms(t0, t1, t1)


def specialization_order(space: FinSpace) -> FinPoset:
    """The specialization order: x <= y iff x lies in the closure of {y}.

    Equivalently, every open containing x contains y, i.e. y lies in U_x.
    Raises NotT0Error when the preorder is not antisymmetric, i.e. two
    points share their closure.
    """
    u = space.minimal_opens
    for x in sorted(u, key=repr):
        for y in sorted(u[x], key=repr):
            if x != y and x in u[y]:
                raise NotT0Error(
                    f"points {x!r} and {y!r} have identical closures"
                )
    return FinPoset(space.points,
                    frozenset((x, y) for x in u for y in u[x]))


def alexandroff_space(poset: FinPoset) -> FinSpace:
    """The Alexandroff topology of a poset: opens are exactly the upsets.

    Every upset is the union of the principal upsets of its elements, so
    the opens are the closure of {empty set} under union with a principal
    upset, built as bitmasks in O(n * |opens|).
    """
    elems = sorted(poset.elements, key=repr)
    bit = {x: 1 << i for i, x in enumerate(elems)}
    up_mask = dict.fromkeys(elems, 0)
    for a, b in poset.order:
        up_mask[a] |= bit[b]
    up_masks = set(up_mask.values())
    opens, todo = {0}, [0]
    while todo:
        mask = todo.pop()
        for up in up_masks:
            if mask | up not in opens:
                opens.add(mask | up)
                todo.append(mask | up)
    return FinSpace(poset.elements, frozenset(
        frozenset(x for x in elems if mask & bit[x]) for mask in opens))
