"""Finite posets and finite topological spaces.

A finite topology is the same data as a preorder: the opens of the
Alexandroff topology of a poset are exactly its upsets, and the
specialization order (x <= y iff x lies in the closure of {y}) recovers
the poset.  Both are held the same way: a poset by the up-set up(x) of
each element, a space by the minimal open U_x of each point, and for an
Alexandroff space the two are equal.  One check, ``_check_up_closed``,
serves both public constructors.  Each set is checked once: sets that
one ``FinPoset`` or ``FinSpace`` has already passed reach the other
through ``_checked`` unread, in a dict of the receiver's own, and
``graph.to_extended_poset``, which writes its height-one up-sets from
their definition, checks none.  So building either, turning one into
the other, and reading the specialization order and separation axioms
all cost about the size of the order relation.  Only
``FinSpace.opens`` enumerates the opens, which are exponential in the
poset's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple


class NotT0Error(ValueError):
    """Raised when a space has two distinct points with identical closures."""


class PosetError(ValueError):
    """Raised when a relation fails to be a partial order."""


class TopologyError(ValueError):
    """Raised when a family of opens or minimal opens is no topology."""


def _check_up_closed(points: frozenset, sets: dict, error: type,
                     wording: dict) -> dict:
    """``sets`` with its values frozen, checked to give each point x an
    up-closed set S_x, with one subset test per pair (x, y) with y in
    S_x: every point has one ("missing"), x lies in S_x ("own"), S_x lies
    inside the points ("outside"), and y in S_x implies S_y inside S_x
    ("upward").  The first broken rule raises ``error`` with that rule's
    ``wording``, formatted with x, y and some z in S_y but not in S_x.
    """
    s = {x: frozenset(sx) for x, sx in sets.items()}
    for x in points:
        if x not in s:
            raise error(wording["missing"].format(x=x))
    for x, sx in s.items():
        if x not in sx:
            raise error(wording["own"].format(x=x))
        if not sx <= points:
            raise error(wording["outside"].format(x=x))
        for y in sx:
            if not s[y] <= sx:
                z = next(iter(s[y] - sx))
                raise error(wording["upward"].format(x=x, y=y, z=z))
    return s


def _indistinguishable_pair(s: dict) -> tuple | None:
    """The least two distinct points, by repr, each in the other's set
    (for a space: sharing their closure), or None when there are none
    (the space is T0, the preorder antisymmetric)."""
    twins = [(x, y) for x, sx in s.items() for y in sx
             if y != x and x in s[y]]
    return min(twins, key=lambda t: (repr(t[0]), repr(t[1])), default=None)


def _checked(cls, points: frozenset, sets: dict):
    """A ``FinPoset`` or ``FinSpace`` on ``points`` with a copy of
    ``sets``, whose values are frozen and passed the checks of ``cls``
    already, so its constructor's check is skipped.  The copy keeps the
    two objects from sharing one dict."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, (points, dict(sets))))
    return obj


_ORDER_WORDING = {
    "missing": "element {x!r} has no up-set",
    "own": "order is not reflexive at {x!r}",
    "outside": "up-set of {x!r} uses unknown elements",
    "upward": "order is not transitive: {x!r} <= {y!r} <= {z!r}",
}


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: opaque elements plus the up-set up(x) of each
    element x, every y with x <= y.  Construction rejects anything that
    is not reflexive, transitive (the up-sets are up-closed, the check a
    ``FinSpace`` basis passes) and antisymmetric.  ``specialization_order``
    checks only what its sets may still break, and
    ``graph.to_extended_poset`` writes sets that can break nothing.
    """

    elements: frozenset
    upsets: dict = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "upsets", _check_up_closed(
            self.elements, self.upsets, PosetError, _ORDER_WORDING))
        pair = _indistinguishable_pair(self.upsets)
        if pair is not None:
            raise PosetError("order is not antisymmetric on %r, %r" % pair)

    def leq(self, a, b) -> bool:
        return b in self.upsets.get(a, ())


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


_BASIS_WORDING = {
    "missing": "point {x!r} has no minimal open",
    "own": "point {x!r} is not in its minimal open",
    "outside": "minimal open of {x!r} is not a subset of the points",
    "upward": "minimal open of {x!r} contains {y!r} but not its minimal open",
}


@dataclass(frozen=True)
class FinSpace:
    """A finite topological space, held by the minimal open U_x of each
    point x (the intersection of the opens containing x); the opens are
    the unions of U_x's.  Construction checks that the U_x form a basis,
    that is, that they are up-closed as a poset's up-sets are.
    """

    points: frozenset
    minimal_opens: dict = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "minimal_opens", _check_up_closed(
            self.points, self.minimal_opens, TopologyError, _BASIS_WORDING))

    @property
    def opens(self) -> frozenset:
        """Every open: each union of minimal opens, built on demand and
        exponential in the width (an antichain of n points has 2^n)."""
        opens = {frozenset()}
        for ux in set(self.minimal_opens.values()):
            opens |= {o | ux for o in opens}
        return frozenset(opens)


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
    t0 = _indistinguishable_pair(u) is None
    t1 = all(len(ux) == 1 for ux in u.values())
    return SeparationAxioms(t0, t1, t1)


def specialization_order(space: FinSpace) -> FinPoset:
    """The specialization order: x <= y iff x lies in the closure of {y}.

    Equivalently, every open containing x contains y, i.e. y lies in U_x.
    Raises NotT0Error when the preorder is not antisymmetric, i.e. two
    points share their closure.  The U_x passed the space's basis check,
    so antisymmetry is the one check left.
    """
    pair = _indistinguishable_pair(space.minimal_opens)
    if pair is not None:
        raise NotT0Error("points %r and %r have identical closures" % pair)
    return _checked(FinPoset, space.points, space.minimal_opens)


def alexandroff_space(poset: FinPoset) -> FinSpace:
    """The Alexandroff topology of a poset: the opens are exactly the
    upsets, so U_x is the principal upset of x.  The poset's up-sets
    passed the basis check as its order, so they are not checked again."""
    return _checked(FinSpace, poset.elements, poset.upsets)
