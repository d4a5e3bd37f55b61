"""The labeled invariant graph and the full invariant pair.

Vertices stand for quasi-centers (c), one-sided periodic orbits off the
boundary (n), boundary periodic orbits (b) and polycycles (d, pointing
at a diagram component).  Annulus edges carry the ordered pair of
attachment points (negative side, positive side); a polycycle attachment
also names which boundary circle of its neighborhood the annulus glues
to, by face index.  A valid pair consumes every attachment point exactly
once: each c/n/b vertex has one free boundary circle, and every face
circle of every polycycle bounds exactly one periodic annulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .diagram import (
    _TEXT,
    SaddleDiagram,
    ValidationError,
    Violation,
    _cached_property,
    _misfits,
    faces_by_component,
)
from .multigraph import Multigraph
from .topology import FinPoset, _check_antisymmetric, _checked, connected_groups

C, N, B, D = "c", "n", "b", "d"
LABELS = (C, N, B, D)


@dataclass(frozen=True)
class VertexNode:
    id: str
    label: str
    component: str | None = None  # diagram component id, only for label "d"


@dataclass(frozen=True)
class Attachment:
    vertex: str
    face: int | None = None  # face index within the component, only for "d" vertices


@dataclass(frozen=True)
class AnnulusEdge:
    id: str
    neg: Attachment
    pos: Attachment


@dataclass(frozen=True)
class InvariantPair:
    """The complete invariant: labeled graph cross-referencing the diagram."""

    diagram: SaddleDiagram
    vertices: tuple
    annuli: tuple
    tori: int = 0

    def __post_init__(self):
        for name in "vertices", "annuli":
            try:  # records whose ids do not sort stay as given for ``_misfits``
                object.__setattr__(self, name, tuple(sorted(
                    getattr(self, name), key=attrgetter("id"))))
            except (TypeError, AttributeError):
                pass

    @_cached_property
    def vertex_by_id(self) -> dict:
        return {v.id: v for v in self.vertices}

    @_cached_property
    def violations(self) -> tuple:
        """Rule violations of the whole model; empty when it is valid.

        Beyond diagram validity: unique ids, labels resolve, polycycle
        vertices biject with diagram components, every attachment resolves,
        and the attachment matching is perfect.

        The shape pass (``diagram._misfits``) comes first, over the
        diagram and then the pair's own fields: while a value is of a Python
        type the rules cannot read, its misfits (rule ``"type"``) are the
        violations.  Each rule is read once; the attachment points in use
        are compared with those offered as a whole, and worded one by one
        only where they differ.
        """
        violations = _misfits(self, _SHAPE)
        if violations:
            return tuple(violations)
        violations += self.diagram.violations

        def bad(kind, subject, rule, message):
            violations.append(Violation(kind, subject, rule, message))

        vertices, annuli = self.vertices, self.annuli
        seen = set()
        for v in vertices:
            if v.id in seen:
                bad("vertex", v.id, "unique-id", f"duplicate vertex id {v.id!r}")
            seen.add(v.id)
        for a in annuli:
            if a.id in seen:
                bad("annulus", a.id, "unique-id",
                    f"annulus id {a.id!r} collides with another id")
            seen.add(a.id)

        if self.tori < 0:
            bad("model", "", "tori", f"torus count {self.tori!r} must be a non-negative integer")

        if violations:
            return tuple(violations)  # cross-references below assume a sane diagram

        comp_ids = {c[0] for c in self.diagram.components}
        faces = self.diagram.faces_by_component

        comp_vertex, offered = {}, set()
        for v in vertices:
            if v.label == D:
                if v.component is None:
                    bad("vertex", v.id, "component-ref",
                        f"polycycle vertex {v.id!r} names no diagram component")
                elif v.component not in comp_ids:
                    bad("vertex", v.id, "component-ref",
                        f"vertex {v.id!r} references unknown component {v.component!r}")
                elif v.component in comp_vertex:
                    bad("vertex", v.id, "component-ref",
                        f"components must label exactly one vertex;"
                        f" {v.component!r} labels both {comp_vertex[v.component]!r} and {v.id!r}")
                else:
                    comp_vertex[v.component] = v.id
                    offered.update((v.id, i) for i in range(len(faces[v.component])))
            elif v.label not in LABELS:
                bad("vertex", v.id, "label", f"vertex {v.id!r} has unknown label {v.label!r}")
            elif v.component is not None:
                bad("vertex", v.id, "component-ref",
                    f"vertex {v.id!r} has label {v.label!r} but names a component")
            else:
                offered.add((v.id, None))
        for comp_id in sorted(comp_ids - comp_vertex.keys()):
            bad("model", comp_id, "component-ref",
                f"diagram component {comp_id!r} is the label of no vertex")

        if violations:
            return tuple(violations)

        used = [(att.vertex, att.face) for a in annuli for att in (a.neg, a.pos)]
        if len(used) != len(offered) or set(used) != offered:
            use = {}  # attachment point key -> list of (annulus id, side)
            for a in annuli:
                for side, att in (("neg", a.neg), ("pos", a.pos)):
                    v = self.vertex_by_id.get(att.vertex)
                    if v is None:
                        bad("annulus", a.id, "attachment",
                            f"annulus {a.id!r} {side} side references unknown vertex {att.vertex!r}")
                        continue
                    if v.label == D:
                        if att.face is None:
                            bad("annulus", a.id, "attachment",
                                f"annulus {a.id!r} {side} side attaches to polycycle"
                                f" {v.id!r} without naming a face")
                            continue
                        n_faces = len(faces[v.component])
                        if not 0 <= att.face < n_faces:
                            bad("annulus", a.id, "attachment",
                                f"annulus {a.id!r} {side} side names face {att.face}"
                                f" of component {v.component!r} which has {n_faces} faces")
                            continue
                    elif att.face is not None:
                        bad("annulus", a.id, "attachment",
                            f"annulus {a.id!r} {side} side names a face on"
                            f" non-polycycle vertex {v.id!r}")
                        continue
                    use.setdefault((att.vertex, att.face), []).append((a.id, side))

            for v in vertices:
                if v.label == D:
                    for idx in range(len(faces[v.component])):
                        users = use.get((v.id, idx), [])
                        if not users:
                            bad("vertex", v.id, "matching",
                                f"face {idx} of component {v.component!r} bounds no annulus")
                        elif len(users) > 1:
                            bad("vertex", v.id, "matching",
                                f"face {idx} of component {v.component!r} bounds"
                                f" {len(users)} annuli: {sorted(users)}")
                else:
                    users = use.get((v.id, None), [])
                    if not users:
                        bad("vertex", v.id, "matching",
                            f"{v.label}-vertex {v.id!r} is attached to no annulus")
                    elif len(users) > 1:
                        bad("vertex", v.id, "matching",
                            f"{v.label}-vertex {v.id!r} is attached to {len(users)}"
                            f" annuli: {sorted(users)}")

        if not vertices and not annuli and self.tori == 0:
            bad("model", "", "nonempty", "model has no cells at all")

        return tuple(violations)

    @_cached_property
    def profile(self) -> tuple:
        """A cheap isomorphism invariant; the first gate of the iso search."""
        faces = faces_by_component(self.diagram)
        comp_profiles = {}
        for comp_id, saddle_ids, sep_ids in self.diagram.components:
            ks = tuple(sorted(self.diagram.saddle_by_id[s].k for s in saddle_ids))
            fs = tuple(sorted(
                (len(f.sides), f.flow_positive) for f in faces.get(comp_id, [])
            ))
            comp_profiles[comp_id] = (ks, len(sep_ids), fs)

        def end_descriptor(att: Attachment):
            v = self.vertex_by_id[att.vertex]
            if v.label != D:
                return ("leaf", v.label)
            face = faces[v.component][att.face]
            return ("face", comp_profiles[v.component],
                    len(face.sides), face.flow_positive)

        return (
            self.tori,
            tuple(sorted(v.label for v in self.vertices)),
            tuple(sorted(comp_profiles.values())),
            tuple(sorted(
                (end_descriptor(a.neg), end_descriptor(a.pos)) for a in self.annuli
            )),
        )

    @_cached_property
    def assembly(self) -> tuple:
        """Connected pieces of the model's cells, one per surface component
        other than a periodic torus: ``(vertex_ids, annulus_ids)`` pairs
        sorted by least vertex id.  The tori are the other ``tori``
        components; consumers read that count, so a model with many tori
        costs no more than one with a few.  An annulus side at an unknown
        vertex raises ``ValidationError``; an invalid pair whose sides all
        resolve still gets its assembly.
        """
        try:
            groups = connected_groups(
                (v.id for v in self.vertices),
                ((a.neg.vertex, a.pos.vertex) for a in self.annuli),
            )
        except KeyError:  # a side names no vertex: rule ``attachment``
            raise ValidationError(self.violations) from None
        group_of = {vid: i for i, vids in enumerate(groups) for vid in vids}
        annuli = [[] for _ in groups]
        for a in self.annuli:
            annuli[group_of[a.neg.vertex]].append(a.id)
        return tuple((vids, frozenset(aids))
                     for vids, aids in zip(groups, annuli))


_SHAPE = (
    ("vertices", "vertex", VertexNode, (
        ("id", *_TEXT), ("label", *_TEXT), ("component", (str, type(None)), "a string or None"))),
    ("annuli", "annulus", AnnulusEdge, (
        ("id", *_TEXT), ("neg", (Attachment,), "an Attachment"),
        ("pos", (Attachment,), "an Attachment"))),
)


def validate_pair(p: InvariantPair) -> list:
    """Check the whole model; empty list means valid."""
    return list(p.violations)


def check_pair(p: InvariantPair) -> None:
    if p.violations:
        raise ValidationError(p.violations)


def _check_types(p: InvariantPair) -> None:
    """Reject a pair with misfits; one that only breaks rules passes.  A
    pair not yet validated gets the shape pass alone."""
    v = p.__dict__["violations"] if "violations" in p.__dict__ else _misfits(p, _SHAPE)
    if v and v[0].rule == "type":
        raise ValidationError(v)


def to_extended_poset(p: InvariantPair) -> FinPoset:
    """Vertices at height 0, annuli above their endpoint vertices.

    Each periodic torus contributes one isolated height-0 point.  The
    poset has height at most one, so each up-set is written from that
    definition: a vertex's holds it and the annuli at it, an annulus's or
    a torus's holds it alone.  Each element is one object, shared by its
    key and every up-set that holds it.  Sets so written are up-closed,
    so only antisymmetry is checked.
    """
    check_pair(p)
    upsets = {}
    for v in p.vertices:
        x = ("v", v.id)
        upsets[x] = [x]
    for a in p.annuli:
        x = ("a", a.id)
        upsets[("v", a.neg.vertex)].append(x)
        upsets[("v", a.pos.vertex)].append(x)
        upsets[x] = (x,)
    for i in range(p.tori):
        x = ("t", i)
        upsets[x] = (x,)
    upsets = {x: frozenset(up) for x, up in upsets.items()}
    _check_antisymmetric(upsets)
    return _checked(FinPoset, frozenset(upsets), upsets)


@dataclass(frozen=True)
class SeparationReport:
    sv_t0: bool
    sv_t1: bool
    sv_t2: bool
    svex_t1: bool
    svex_t2: bool


def classify_separation(p: InvariantPair) -> SeparationReport:
    """Separation axioms of the orbit space and the extended orbit space.

    Models here always have every orbit proper, so the orbit space is T0.
    It is T1 exactly when there are no separatrices (empty diagram), and
    T2 when moreover there are at most two singular points (centers plus
    saddles).  The extended orbit space of such a model is always T2:
    polycycles are closed and the singular set is finite.
    """
    check_pair(p)
    sv_t1 = not p.diagram.saddles
    singular = (sum(1 for v in p.vertices if v.label == C)
                + len(p.diagram.saddles))
    return SeparationReport(
        sv_t0=True,
        sv_t1=sv_t1,
        sv_t2=sv_t1 and singular <= 2,
        svex_t1=True,
        svex_t2=True,
    )


def underlying_multigraph(p: InvariantPair) -> Multigraph:
    """Strip all labels: the bare abstract multi-graph of the extended orbit space."""
    return Multigraph.from_poset(to_extended_poset(p))


def assembly_components(p: InvariantPair) -> tuple:
    """Connected pieces of the model's cells, tori left out: ``p.assembly``."""
    return p.assembly
