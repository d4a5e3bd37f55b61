"""Multi-saddle connection diagrams as combinatorial maps.

A diagram is a set of saddles, each carrying a counterclockwise cyclic
word of darts, plus directed separatrices.  A dart is one end of a
separatrix: ``(sep_id, "out")`` at the source, ``(sep_id, "in")`` at the
target.  Outgoing and incoming darts must alternate strictly around
every saddle; with that in place, the boundary circles of a regular
neighborhood of each polycycle fall out as the orbits of the face
successor, and every circle runs coherently with or against the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .multigraph import Multigraph
from .topology import connected_groups

OUT = "out"
IN = "in"

Dart = tuple  # (separatrix id, OUT | IN)


class FlowIncoherentFaceError(ValueError):
    """A face mixes followed and opposed separatrix directions.

    Unreachable for diagrams that pass validation (strict alternation
    forces every face to one side), kept as a guard.
    """


class _cached_property(cached_property):
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first read (3.12 dropped it): the value is stored in
    the instance dict on a miss.  The values are pure functions of
    immutable models, so a race can only compute an equal value twice."""

    def __get__(self, instance, owner=None):
        if instance is None or self.attrname is None:
            return super().__get__(instance, owner)
        cache = instance.__dict__
        if self.attrname not in cache:
            cache[self.attrname] = self.func(instance)
        return cache[self.attrname]


@dataclass(frozen=True)
class Violation:
    kind: str      # "saddle" | "separatrix" | "vertex" | "annulus" | "model"
    subject: str   # offending id ("" for whole-model rules)
    rule: str      # short rule name
    message: str


class ValidationError(ValueError):
    """Raised when an operation requires a valid diagram or pair and gets
    violations; ``violations`` lists them."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


def flip(dart: Dart) -> Dart:
    sep, end = dart
    return (sep, IN if end == OUT else OUT)


@dataclass(frozen=True)
class Saddle:
    """An interior k-saddle of degree 2k+2 with its rotation word.

    ``kind`` may also be "boundary" in serialized data; such saddles are
    representable but rejected by validation.
    """

    id: str
    k: int
    rotation: tuple
    kind: str = "interior"

    @property
    def degree(self) -> int:
        return 2 * self.k + 2


@dataclass(frozen=True)
class Separatrix:
    """A separatrix directed from its alpha-saddle to its omega-saddle.

    The ``twisted`` flag is a reserved extension point for twisted ribbon
    neighborhoods; validation rejects it.
    """

    id: str
    source: str
    target: str
    twisted: bool = False

    @property
    def out_dart(self) -> Dart:
        return (self.id, OUT)

    @property
    def in_dart(self) -> Dart:
        return (self.id, IN)


@dataclass(frozen=True)
class SaddleDiagram:
    saddles: tuple
    separatrices: tuple

    def __post_init__(self):
        for name in "saddles", "separatrices":
            try:  # records whose ids do not sort stay as given for ``_misfits``
                object.__setattr__(self, name, tuple(sorted(
                    getattr(self, name), key=attrgetter("id"))))
            except (TypeError, AttributeError):
                pass

    @classmethod
    def empty(cls) -> "SaddleDiagram":
        return cls((), ())

    @_cached_property
    def saddle_by_id(self) -> dict:
        return {s.id: s for s in self.saddles}

    @_cached_property
    def sep_by_id(self) -> dict:
        return {e.id: e for e in self.separatrices}

    @_cached_property
    def violations(self) -> tuple:
        """Structural rule violations; empty when the diagram is valid.

        Rules: interior saddles only (v1), untwisted separatrices only (v1),
        unique ids, rotation length equals degree, every dart placed exactly
        once with the out-dart at the separatrix source and the in-dart at
        its target, and strict out/in alternation around each saddle.

        The shape pass (``_misfits``) comes first: while a value is of a
        Python type the rules cannot read, its misfits, all of rule
        ``"type"``, are the violations.  Then each rule is read once, record
        by record, and no rule is worded ``"type"``.
        """
        violations = _misfits(self, _SHAPE)
        if violations:
            return tuple(violations)

        def bad(kind, subject, rule, message):
            violations.append(Violation(kind, subject, rule, message))

        seen = set()
        for s in self.saddles:
            if s.id in seen:
                bad("saddle", s.id, "unique-id", f"duplicate saddle id {s.id!r}")
            seen.add(s.id)
        for e in self.separatrices:
            if e.id in seen:
                bad("separatrix", e.id, "unique-id",
                    f"separatrix id {e.id!r} collides with another id")
            seen.add(e.id)

        known = self.saddle_by_id
        for e in self.separatrices:
            if e.source not in known:
                bad("separatrix", e.id, "dangling-endpoint",
                    f"separatrix {e.id!r} has unknown source {e.source!r}")
            if e.target not in known:
                bad("separatrix", e.id, "dangling-endpoint",
                    f"separatrix {e.id!r} has unknown target {e.target!r}")
            if e.twisted:
                bad("separatrix", e.id, "twist-unsupported",
                    f"separatrix {e.id!r} is twisted; twisted ribbons are not supported")

        sep_by_id, placed = self.sep_by_id, {}  # dart -> the saddle it is read at
        for s in self.saddles:
            if s.kind != "interior":
                bad("saddle", s.id, "boundary-unsupported",
                    f"saddle {s.id!r} has kind {s.kind!r}; only interior saddles are supported")
                continue
            if s.k < 0:
                bad("saddle", s.id, "degree", f"saddle {s.id!r} has negative k")
                continue
            r = s.rotation
            if len(r) != s.degree:
                bad("saddle", s.id, "degree",
                    f"saddle {s.id!r} has rotation length {len(r)}"
                    f" but degree {s.degree} (2k+2 with k={s.k})")
            for pos, dart in enumerate(r):
                sep, end = dart
                if sep not in sep_by_id or end not in (OUT, IN):
                    bad("saddle", s.id, "unknown-dart",
                        f"saddle {s.id!r} rotation slot {pos} references unknown dart {dart!r}")
                    continue
                if dart in placed:
                    bad("saddle", s.id, "dart-pairing",
                        f"dart {dart!r} appears more than once")
                placed[dart] = s.id
            for pos, (here, after) in enumerate(zip(r, r[1:] + r[:1])):
                if here[1] == after[1]:
                    bad("saddle", s.id, "alternation",
                        f"saddle {s.id!r} rotation slots {pos},{(pos + 1) % len(r)}"
                        f" are consecutive {here[1]} darts")

        for e in self.separatrices:
            for dart, home in ((e.out_dart, e.source), (e.in_dart, e.target)):
                at = placed.get(dart)
                if at is None:
                    bad("separatrix", e.id, "dart-pairing",
                        f"dart {dart!r} does not occur in any rotation")
                elif at != home:
                    bad("separatrix", e.id, "source-label",
                        f"dart {dart!r} sits at saddle {at!r} but belongs at {home!r}")

        return tuple(violations)

    @_cached_property
    def components(self) -> tuple:
        """Connected components (polycycles), each keyed by its least saddle id.

        A sorted tuple of ``(component_id, saddle_ids, sep_ids)``.
        """
        known = self.saddle_by_id
        groups = connected_groups(known, (
            (e.source, e.target) for e in self.separatrices
            if e.source in known and e.target in known
        ))
        index = {sid: i for i, saddle_ids in enumerate(groups)
                 for sid in saddle_ids}
        sep_ids = [[] for _ in groups]
        for e in self.separatrices:
            if e.source in index:
                sep_ids[index[e.source]].append(e.id)
        return tuple(
            (min(saddle_ids), saddle_ids, frozenset(ids))
            for saddle_ids, ids in zip(groups, sep_ids)
        )

    @_cached_property
    def component_of(self) -> dict:
        """Each saddle id and separatrix id -> its component id."""
        out = {}
        for comp_id, saddle_ids, sep_ids in self.components:
            for sid in saddle_ids:
                out[sid] = comp_id
            for eid in sep_ids:
                out[eid] = comp_id
        return out

    @_cached_property
    def faces(self) -> tuple:
        """Face cycles sorted by (component, least dart), traced without a
        validity check (``trace_faces`` checks first).

        A face is an orbit of the face permutation of the combinatorial
        map: the face successor of a dart is the rotation successor of
        its separatrix's other dart (Lando and Zvonkin, *Graphs on
        Surfaces and Their Applications*, 2004).  A face keeps to one
        side of the flow when every successor is a dart of the same end,
        which strict alternation gives; a successor that changes end
        raises ``FlowIncoherentFaceError``.  In a valid diagram the darts
        are exactly the separatrices' darts, so taking the separatrices
        in id order, ``IN`` before ``OUT``, takes the darts sorted: each
        face starts at its least dart and comes out by it, and a stable
        sort by component gives the order.
        """
        after = {}
        for s in self.saddles:
            r = s.rotation
            after.update(zip(r, r[1:] + r[:1]))
        step, starts = {}, []
        for e in self.separatrices:
            in_, out = (e.id, IN), (e.id, OUT)
            step[in_], step[out] = after[out], after[in_]
            for dart in in_, out:
                if step[dart][1] != dart[1]:
                    raise FlowIncoherentFaceError(
                        f"face through {dart!r} mixes followed and opposed sides"
                    )
            starts += (in_, out)
        comp = self.component_of
        faces, seen = [], set()
        for start in starts:
            if start in seen:
                continue
            cycle = [start]
            dart = step[start]
            while dart != start:
                cycle.append(dart)
                dart = step[dart]
            seen.update(cycle)
            faces.append(FaceCycle(comp[start[0]], tuple(cycle),
                                   start[1] == OUT))
        faces.sort(key=attrgetter("component"))
        return tuple(faces)

    @_cached_property
    def faces_by_component(self) -> dict:
        """Component id -> tuple of its FaceCycles in face-index order."""
        out = {}
        for f in self.faces:
            out.setdefault(f.component, []).append(f)
        return {comp: tuple(fs) for comp, fs in out.items()}


def _misfits(model, shape) -> list:
    """The shape pass that opens both ``violations``: a ``Violation`` of
    rule ``"type"`` for each value of ``model`` of a Python type its rules
    cannot read.  ``shape`` gives each tuple of records of ``model`` as
    ``(field, kind, record class, ((name, types, what they are), ...))``.
    A pair's misfits follow its diagram's, which are the diagram's
    violations when the first is of rule ``"type"``: no rule words it."""
    misfits = []

    def misfit(kind, subject, message):
        subject = subject if type(subject) is str else repr(subject)
        misfits.append(Violation(kind, subject, "type", message))

    if type(model) is not SaddleDiagram:  # a pair: its diagram and torus count first
        if type(model.diagram) is not SaddleDiagram:
            misfit("model", "", f"diagram {model.diagram!r} is not a SaddleDiagram")
        elif model.diagram.violations and model.diagram.violations[0].rule == "type":
            misfits += model.diagram.violations
        if type(model.tori) is not int:
            misfit("model", "", f"torus count {model.tori!r} is not an integer")
    for field, kind, cls, typed in shape:
        records = getattr(model, field)
        if type(records) is not tuple:
            misfit("model", "", f"{field} {records!r} is not a tuple")
            continue
        for r in records:
            if type(r) is not cls:
                misfit(kind, "", f"{field} holds {r!r}, which is of class"
                       f" {type(r).__name__}, not {cls.__name__}")
                continue
            for name, types, what in typed:
                value = getattr(r, name)
                if type(value) not in types:
                    misfit(kind, r.id, f"{kind} {r.id!r} has {name} {value!r}, which is not {what}")
                elif name == "rotation":
                    for pos, dart in enumerate(value):
                        if not (type(dart) is tuple and len(dart) == 2
                                and type(dart[0]) is str and type(dart[1]) is str):
                            misfit(kind, r.id, f"saddle {r.id!r} rotation slot {pos}"
                                   f" holds {dart!r}, which is not a dart")
                elif name in ("neg", "pos") and (type(value.vertex) is not str or (
                        value.face is not None and type(value.face) is not int)):
                    misfit(kind, r.id, f"annulus {r.id!r} {name} side has vertex"
                           f" {value.vertex!r} and face {value.face!r}, which are not"
                           " a string and an integer or None")
    return misfits


_TEXT = (str,), "a string"
_SHAPE = (
    ("saddles", "saddle", Saddle, (
        ("id", *_TEXT), ("k", (int,), "an integer"), ("rotation", (tuple,), "a tuple"),
        ("kind", *_TEXT))),
    ("separatrices", "separatrix", Separatrix, (
        ("id", *_TEXT), ("source", *_TEXT), ("target", *_TEXT), ("twisted", (bool,), "a bool"))),
)


def check_diagram(d: SaddleDiagram) -> None:
    if d.violations:
        raise ValidationError(d.violations)


def diagram_components(d: SaddleDiagram) -> tuple:
    """Connected components (polycycles): ``d.components``."""
    return d.components


@dataclass(frozen=True)
class FaceCycle:
    """One boundary circle of the regular neighborhood of a polycycle.

    ``sides`` lists the darts in traversal order, starting from the least
    dart.  Traversing dart (e, out) walks along e with the flow,
    (e, in) against it; ``flow_positive`` records which (constant within
    a face once alternation holds).
    """

    component: str
    sides: tuple
    flow_positive: bool


def trace_faces(d: SaddleDiagram) -> list:
    """Face cycles of the diagram, sorted by (component, least dart).

    Requires a valid diagram.  Face count per polycycle satisfies
    V - E + F = 2 - 2g with integer genus g >= 0.
    """
    check_diagram(d)
    return list(d.faces)


def faces_by_component(d: SaddleDiagram) -> dict:
    """Component id -> tuple of its FaceCycles in face-index order:
    ``d.faces_by_component``, shared by every caller (do not mutate).

    Requires a valid diagram.
    """
    check_diagram(d)
    return d.faces_by_component


def diagram_multigraph(d: SaddleDiagram) -> Multigraph:
    """Forget rotations, directions and labels: saddles and separatrices only."""
    return Multigraph.build(
        (s.id for s in d.saddles),
        {e.id: {e.source, e.target} for e in d.separatrices},
    )
