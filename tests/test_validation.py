"""The validation boundary: one error type, each model validated once."""

import ast
import importlib
import pkgutil
import random
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import flowinv
from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix, \
    ValidationError, Violation, faces_by_component, trace_faces
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, \
    VertexNode, classify_separation, to_extended_poset
from flowinv.isomorphism import REVERSIBLE, canonical_form, pair_isomorphic, \
    relabel_pair, reverse_pair, verify_witness
from flowinv.enumeration import enumerate_pairs
from flowinv.model_io import ParseError, SchemaError, _decode, _Walker, \
    _read_model, export_dot, parse_model, serialize_model
from flowinv.reconstruction import build_cell_model, chi_cells, \
    realize_multigraph, reconstruct

from conftest import FIXTURES, fixture_text, three_centers_eight
from oracles import all_connected_multigraphs, diagram_violations_oracle, \
    pair_violations_oracle, random_graph
from test_enumeration import SMALL_BOUNDS

ENTRY_POINTS = {
    "canonical_form": canonical_form,
    "canonical_form_reversible": lambda p: canonical_form(p, REVERSIBLE),
    "pair_isomorphic": lambda p: pair_isomorphic(p, p),
    "reconstruct": reconstruct,
    "build_cell_model": build_cell_model,
    "chi_cells": chi_cells,
    "classify_separation": classify_separation,
    "to_extended_poset": to_extended_poset,
}


def non_alternating_pair() -> InvariantPair:
    """The three-centers model over a figure eight whose rotation word
    does not alternate: the diagram itself is invalid."""
    p = three_centers_eight()
    diagram = SaddleDiagram(
        (Saddle("s", 1, (("a", OUT), ("b", OUT), ("a", IN), ("b", IN))),),
        (Separatrix("a", "s", "s"), Separatrix("b", "s", "s")),
    )
    return InvariantPair(diagram, p.vertices, p.annuli, p.tori)


def double_face_pair() -> InvariantPair:
    """A valid diagram with two annuli on one boundary circle."""
    p = three_centers_eight()
    annuli = tuple(
        AnnulusEdge("uz", Attachment("z"), Attachment("p", 0)) if a.id == "uz"
        else a
        for a in p.annuli
    )
    return InvariantPair(p.diagram, p.vertices, annuli, p.tori)


@pytest.mark.parametrize("make", [non_alternating_pair, double_face_pair])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_raises_validation_error(name, make):
    p = make()
    with pytest.raises(ValidationError) as err:
        ENTRY_POINTS[name](p)
    assert err.value.violations and err.value.violations == list(p.violations)


def _saddle(p, **fields):
    """The model with its one saddle's fields changed."""
    (s,) = p.diagram.saddles
    return replace(p, diagram=replace(p.diagram,
                                      saddles=(replace(s, **fields),)))


def _diagram(p, **fields):
    return replace(p, diagram=replace(p.diagram, **fields))


def _vertex(p, vertex: VertexNode):
    """The model with the vertex of ``vertex.id`` replaced by it."""
    return replace(p, vertices=tuple(vertex if v.id == vertex.id else v
                                     for v in p.vertices))


def _annulus(p, annulus: AnnulusEdge):
    """The model with the annulus of ``annulus.id`` replaced by it."""
    return replace(p, annuli=tuple(annulus if a.id == annulus.id else a
                                   for a in p.annuli))


# One change to the three-centers model per rule branch: the change, the
# (kind, subject, rule) it breaks, and a phrase of the message.
BROKEN_RULES = {
    "duplicate-saddle-id": (
        lambda p: _diagram(p, saddles=p.diagram.saddles * 2),
        ("saddle", "s", "unique-id"), "duplicate saddle id"),
    "separatrix-id-collides": (
        lambda p: _diagram(p, separatrices=p.diagram.separatrices
                           + (Separatrix("s", "s", "s"),)),
        ("separatrix", "s", "unique-id"), "collides with another id"),
    "negative-k": (
        lambda p: _saddle(p, k=-1),
        ("saddle", "s", "degree"), "has negative k"),
    "slot-not-a-dart": (
        lambda p: _saddle(p, rotation=("a",) + p.diagram.saddles[0].rotation[1:]),
        ("saddle", "s", "type"), "rotation slot 0 holds 'a', which is not a dart"),
    "slot-without-length": (
        lambda p: _saddle(p, rotation=(5,) + p.diagram.saddles[0].rotation[1:]),
        ("saddle", "s", "type"), "rotation slot 0 holds 5, which is not a dart"),
    "duplicate-vertex-id": (
        lambda p: replace(p, vertices=p.vertices + (VertexNode("y", "c"),)),
        ("vertex", "y", "unique-id"), "duplicate vertex id"),
    "annulus-id-collides": (
        lambda p: replace(p, annuli=p.annuli + (
            AnnulusEdge("y", Attachment("y"), Attachment("z")),)),
        ("annulus", "y", "unique-id"), "collides with another id"),
    "negative-tori": (
        lambda p: replace(p, tori=-1),
        ("model", "", "tori"), "must be a non-negative integer"),
    "bool-tori": (
        lambda p: replace(p, tori=True),
        ("model", "", "type"), "torus count True is not an integer"),
    "unknown-label": (
        lambda p: _vertex(p, VertexNode("y", "q")),
        ("vertex", "y", "label"), "unknown label 'q'"),
    "polycycle-without-component": (
        lambda p: _vertex(p, VertexNode("p", "d")),
        ("vertex", "p", "component-ref"), "names no diagram component"),
    "unknown-component": (
        lambda p: _vertex(p, VertexNode("p", "d", "t")),
        ("vertex", "p", "component-ref"), "unknown component 't'"),
    "leaf-names-component": (
        lambda p: _vertex(p, VertexNode("y", "c", "s")),
        ("vertex", "y", "component-ref"), "but names a component"),
    "attachment-unknown-vertex": (
        lambda p: _annulus(p, AnnulusEdge("uy", Attachment("w"),
                                          Attachment("p", 0))),
        ("annulus", "uy", "attachment"), "references unknown vertex 'w'"),
    "unhashable-attachment-vertex": (
        lambda p: _annulus(p, AnnulusEdge("uy", Attachment(["y"]),
                                          Attachment("p", 0))),
        ("annulus", "uy", "type"), "neg side has vertex ['y'] and face None, which"),
    "polycycle-attachment-without-face": (
        lambda p: _annulus(p, AnnulusEdge("uy", Attachment("y"),
                                          Attachment("p"))),
        ("annulus", "uy", "attachment"), "without naming a face"),
    "unhashable-face": (
        lambda p: _annulus(p, AnnulusEdge("ux", Attachment("p", [0]),
                                          Attachment("x"))),
        ("annulus", "ux", "type"), "has vertex 'p' and face [0], which are not"),
    "float-face": (
        lambda p: _annulus(p, AnnulusEdge("ux", Attachment("p", 1.0),
                                          Attachment("x"))),
        ("annulus", "ux", "type"), "has vertex 'p' and face 1.0, which are not"),
    "list-saddle-id": (
        lambda p: _saddle(p, id=["t"]),
        ("saddle", "['t']", "type"), "saddle ['t'] has id ['t'], which is not a string"),
    "list-vertex-id": (
        lambda p: replace(p, vertices=tuple(replace(v, id=["w"]) if v.id == "y" else v
                                            for v in p.vertices)),
        ("vertex", "['w']", "type"), "vertex ['w'] has id ['w'], which is not a string"),
    "list-component": (
        lambda p: _vertex(p, VertexNode("p", "d", ["s"])),
        ("vertex", "p", "type"), "has component ['s'], which is not a string or None"),
    "rotation-none": (
        lambda p: _saddle(p, rotation=None),
        ("saddle", "s", "type"), "has rotation None, which is not a tuple"),
    "list-rotation": (
        lambda p: _saddle(p, rotation=list(p.diagram.saddles[0].rotation)),
        ("saddle", "s", "type"), "which is not a tuple"),
    "str-for-vertex": (
        lambda p: replace(p, vertices=tuple("y" if v.id == "y" else v
                                            for v in p.vertices)),
        ("vertex", "", "type"), "vertices holds 'y', which is of class str, not VertexNode"),
    "str-for-attachment": (
        lambda p: _annulus(p, AnnulusEdge("uy", "y", Attachment("p", 0))),
        ("annulus", "uy", "type"), "has neg 'y', which is not an Attachment"),
    "mixed-saddle-ids": (
        lambda p: _diagram(p, saddles=p.diagram.saddles + (Saddle(1, 0, ()),)),
        ("saddle", "1", "type"), "saddle 1 has id 1, which is not a string"),
    "mixed-vertex-ids": (
        lambda p: replace(p, vertices=(VertexNode(1, "c"),) + p.vertices),
        ("vertex", "1", "type"), "vertex 1 has id 1, which is not a string"),
}


@pytest.mark.parametrize("name", BROKEN_RULES)
def test_broken_rule_is_reported_and_raised(name):
    edit, rule, phrase = BROKEN_RULES[name]
    p = edit(three_centers_eight())
    assert [v for v in p.violations
            if (v.kind, v.subject, v.rule) == rule and phrase in v.message]
    with pytest.raises(ValidationError) as err:
        canonical_form(p)
    assert [v for v in err.value.violations
            if (v.kind, v.subject, v.rule) == rule and phrase in v.message]


def test_trace_faces_raises_validation_error():
    d = non_alternating_pair().diagram
    with pytest.raises(ValidationError) as err:
        trace_faces(d)
    assert err.value.violations and err.value.violations == list(d.violations)


def test_no_unbounded_cache():
    """No function cache at all: derived data lives on the model objects."""
    for info in pkgutil.iter_modules(flowinv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flowinv.{info.name}")
        for name, value in vars(module).items():
            members = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, *members):
                assert not hasattr(fn, "cache_info"), \
                    f"{info.name}.{name} has a function cache"


def test_no_function_cache_in_the_source():
    """No ``functools.lru_cache`` or ``functools.cache`` anywhere in the
    package source, however imported: no cache keyed on every model ever
    seen."""
    banned = {"lru_cache", "cache"}
    for path in sorted(Path(flowinv.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used = banned & {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used = banned & {node.attr}
            else:
                continue
            assert not used, f"{path.name}:{node.lineno} uses functools.{used}"


def test_no_dead_private_helper():
    """Every function, method and class of the package source whose name
    has one leading underscore is named somewhere in the package outside
    its own definition."""
    defined, named = {}, set()

    def visit(node, path, inside):
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in inside:
            named.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, inside)

    for path in sorted(Path(flowinv.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, frozenset())
    assert defined
    dead = sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in named)
    assert not dead, f"never used: {dead}"


def test_readers_reject_a_misfit():
    """A rotation of the wrong type is rejected by every reader that
    writes, reverses or renames a model, not met with a ``TypeError``."""
    p = three_centers_eight()
    q = _saddle(p, rotation=None)
    same = {x: x for x in ("s", "a", "b", "x", "y", "z", "p", "ux", "uy", "uz")}
    witness = pair_isomorphic(p, p)
    for read in (serialize_model, export_dot, lambda m: export_dot(m, "diagram"),
                 reverse_pair, lambda m: relabel_pair(m, same, same, same, same),
                 lambda m: verify_witness(m, p, witness),
                 lambda m: verify_witness(p, m, witness)):
        with pytest.raises(ValidationError) as err:
            read(q)
        assert err.value.violations == list(q.violations)
        assert q.violations[0].rule == "type"


def test_reversing_an_invalid_pair_traces_no_faces():
    dangling = _diagram(three_centers_eight(), separatrices=(
        Separatrix("a", "x", "s"), Separatrix("b", "s", "s")))
    for p in (non_alternating_pair(), dangling):
        assert p.violations and p.diagram.components
        r = reverse_pair(p)
        assert "faces" not in p.diagram.__dict__
        assert "faces" not in r.diagram.__dict__
        assert r.diagram.components == replace(r.diagram).components
        with pytest.raises(ValidationError):
            canonical_form(r)


def test_derived_data_is_kept_on_the_object():
    p = parse_model(fixture_text("three_centers_eight.json"))
    assert faces_by_component(p.diagram) is faces_by_component(p.diagram)
    assert p.diagram.component_of is p.diagram.component_of
    assert reverse_pair(reverse_pair(p)) == p


def test_pair_validation_runs_once_per_pair_object(monkeypatch):
    body = InvariantPair.__dict__["violations"].func
    validated = []

    def counting(self):
        validated.append(self)  # keeps each object alive, so ids stay unique
        return body(self)

    prop = cached_property(counting)
    prop.__set_name__(InvariantPair, "violations")
    monkeypatch.setattr(InvariantPair, "violations", prop)

    p = parse_model(fixture_text("three_centers_eight.json"))
    canonical_form(p)
    canonical_form(p, REVERSIBLE)
    pair_isomorphic(p, p)
    reconstruct(p)
    classify_separation(p)
    assert sum(q is p for q in validated) == 1
    assert len({id(q) for q in validated}) == len(validated)


# ---------------------------------------------------------------------------
# the one validation pass against the rule loops alone


def _unvalidated(text: str):
    """The pair a model document describes, read without validation, or
    None when the document does not parse into one."""
    try:
        return _read_model(_decode(text), _Walker(text))[0]
    except (ParseError, SchemaError):
        return None


def _rotation(p, rng, change):
    """``p`` with the rotation of a random saddle replaced by
    ``change(rotation, rng)``."""
    if not p.diagram.saddles:
        return None
    s = rng.choice(p.diagram.saddles)
    saddles = tuple(replace(t, rotation=tuple(change(list(t.rotation), rng)))
                    if t is s else t for t in p.diagram.saddles)
    return _diagram(p, saddles=saddles)


def _repeat_dart(r, rng):
    i, j = rng.randrange(len(r)), rng.randrange(len(r))
    r[i] = r[j]
    return r


def _drop_dart(r, rng):
    del r[rng.randrange(len(r))]
    return r


def _swap_darts(r, rng):
    i, j = rng.randrange(len(r)), rng.randrange(len(r))
    r[i], r[j] = r[j], r[i]
    return r


def _swap_across_saddles(p, rng):
    if len(p.diagram.saddles) < 2:
        return None
    s, t = rng.sample(p.diagram.saddles, 2)
    i, j = rng.randrange(len(s.rotation)), rng.randrange(len(t.rotation))
    rs, rt = list(s.rotation), list(t.rotation)
    rs[i], rt[j] = rt[j], rs[i]
    others = tuple(u for u in p.diagram.saddles if u not in (s, t))
    return _diagram(p, saddles=others + (replace(s, rotation=tuple(rs)),
                                         replace(t, rotation=tuple(rt))))


def _copy_across_saddles(p, rng):
    """One slot of a saddle overwritten by a dart of another saddle: that
    dart is placed twice, at two saddles, and the one overwritten is
    nowhere."""
    if len(p.diagram.saddles) < 2:
        return None
    s, t = rng.sample(p.diagram.saddles, 2)
    rotation = list(s.rotation)
    rotation[rng.randrange(len(rotation))] = rng.choice(t.rotation)
    return _diagram(p, saddles=tuple(
        replace(u, rotation=tuple(rotation)) if u is s else u
        for u in p.diagram.saddles))


def _retarget(p, rng):
    if not p.diagram.separatrices:
        return None
    e = rng.choice(p.diagram.separatrices)
    to = rng.choice([s.id for s in p.diagram.saddles] + ["elsewhere"])
    moved = replace(e, **{rng.choice(("source", "target")): to})
    return _diagram(p, separatrices=tuple(
        moved if f is e else f for f in p.diagram.separatrices))


def _change_saddle(p, rng):
    if not p.diagram.saddles:
        return None
    s = rng.choice(p.diagram.saddles)
    changed = rng.choice([replace(s, kind="boundary"), replace(s, k=s.k + 1),
                          replace(s, k=s.k - 1), replace(s, k=-1),
                          replace(s, k=2 ** 62), replace(s, k="1"),
                          replace(s, k=1.0), replace(s, k=True)])
    return _diagram(p, saddles=tuple(
        changed if t is s else t for t in p.diagram.saddles))


def _shrink_saddle(p, rng):
    """One saddle with k one less and two neighbouring slots gone: each
    rotation still alternates at its degree, but two darts are nowhere."""
    shrinkable = [s for s in p.diagram.saddles
                  if isinstance(s.k, int) and s.k >= 1
                  and len(s.rotation) == s.degree]
    if not shrinkable:
        return None
    s = rng.choice(shrinkable)
    i = rng.randrange(len(s.rotation) - 1)
    shrunk = replace(s, k=s.k - 1, rotation=s.rotation[:i] + s.rotation[i + 2:])
    return _diagram(p, saddles=tuple(
        shrunk if t is s else t for t in p.diagram.saddles))


def _lone_saddle(p, rng):
    return _diagram(p, saddles=p.diagram.saddles + (
        Saddle("lone", rng.choice((-1, 0)), ()),))


def _twist(p, rng):
    if not p.diagram.separatrices:
        return None
    e = rng.choice(p.diagram.separatrices)
    return _diagram(p, separatrices=tuple(
        replace(f, twisted=True) if f is e else f
        for f in p.diagram.separatrices))


def _duplicate_separatrix(p, rng):
    if not p.diagram.separatrices:
        return None
    return _diagram(p, separatrices=p.diagram.separatrices
                    + (rng.choice(p.diagram.separatrices),))


def _take_an_id(p, rng):
    """A separatrix renamed, darts and all, to a saddle's id, or a vertex
    renamed, attachments and all, to an annulus's: only the uniqueness
    of ids breaks."""
    if p.diagram.saddles and p.diagram.separatrices and rng.random() < 0.5:
        e = rng.choice(p.diagram.separatrices)
        taken = rng.choice(p.diagram.saddles).id
        saddles = tuple(replace(s, rotation=tuple(
            (taken, dart[1]) if isinstance(dart, tuple) and dart[:1] == (e.id,)
            else dart
            for dart in s.rotation)) for s in p.diagram.saddles)
        return _diagram(p, saddles=saddles, separatrices=tuple(
            replace(f, id=taken) if f is e else f
            for f in p.diagram.separatrices))
    if not (p.vertices and p.annuli):
        return None
    v, taken = rng.choice(p.vertices), rng.choice(p.annuli).id

    def moved(att):
        return replace(att, vertex=taken) if att.vertex == v.id else att

    return replace(p, vertices=tuple(
        replace(u, id=taken) if u is v else u for u in p.vertices),
        annuli=tuple(replace(a, neg=moved(a.neg), pos=moved(a.pos))
                     for a in p.annuli))


def _duplicate_annulus(p, rng):
    if not p.annuli:
        return None
    a = rng.choice(p.annuli)
    return replace(p, annuli=p.annuli + (
        replace(a, id=rng.choice((a.id, a.id + "'"))),))


def _drop_annulus(p, rng):
    if not p.annuli:
        return None
    a = rng.choice(p.annuli)
    return replace(p, annuli=tuple(b for b in p.annuli if b is not a))


def _move_face(p, rng):
    if not p.annuli:
        return None
    a = rng.choice(p.annuli)
    side = rng.choice(("neg", "pos"))
    att = getattr(a, side)
    face = rng.choice([None, 0, 1, -1] if type(att.face) is not int
                      else [None, att.face + 1, att.face - 1, 0])
    return _annulus(p, replace(a, **{side: Attachment(att.vertex, face)}))


def _repoint_attachment(p, rng):
    """One annulus side moved to another vertex's attachment point: that
    point is used twice and the one left is unused, while every
    attachment still resolves."""
    if p.violations or not p.annuli:
        return None
    a = rng.choice(p.annuli)
    side = rng.choice(("neg", "pos"))
    faces = p.diagram.faces_by_component
    points = [Attachment(v.id, i) for v in p.vertices
              if v.id != getattr(a, side).vertex
              for i in (range(len(faces[v.component])) if v.label == "d"
                        else (None,))]
    if not points:
        return None
    return _annulus(p, replace(a, **{side: rng.choice(points)}))


def _twin_polycycle(p, rng):
    """A second vertex labeled by a polycycle vertex's component, every
    face of it attached to a center of its own: only the rule that a
    component labels exactly one vertex breaks."""
    polycycles = [v for v in p.vertices if v.label == "d"]
    if p.violations or not polycycles:
        return None
    v = rng.choice(polycycles)
    twin = replace(v, id=v.id + "'")
    faces = range(len(p.diagram.faces_by_component[v.component]))
    centers = tuple(VertexNode(f"{twin.id}c{i}", "c") for i in faces)
    annuli = tuple(
        AnnulusEdge(f"{twin.id}a{i}", Attachment(c.id), Attachment(twin.id, i))
        for i, c in zip(faces, centers))
    return replace(p, vertices=p.vertices + (twin,) + centers,
                   annuli=p.annuli + annuli)


def _relabel_vertex(p, rng):
    if not p.vertices:
        return None
    v = rng.choice(p.vertices)
    label = rng.choice([x for x in ("c", "n", "b", "d", "q") if x != v.label])
    return _vertex(p, replace(v, label=label))


SINGLE_EDITS = {
    "repeat-dart": lambda p, rng: _rotation(p, rng, _repeat_dart),
    "drop-dart": lambda p, rng: _rotation(p, rng, _drop_dart),
    "swap-darts": lambda p, rng: _rotation(p, rng, _swap_darts),
    "swap-across-saddles": _swap_across_saddles,
    "copy-across-saddles": _copy_across_saddles,
    "retarget-separatrix": _retarget,
    "twist-separatrix": _twist,
    "duplicate-separatrix": _duplicate_separatrix,
    "take-an-id": _take_an_id,
    "change-kind-or-k": _change_saddle,
    "shrink-saddle": _shrink_saddle,
    "lone-saddle": _lone_saddle,
    "duplicate-annulus": _duplicate_annulus,
    "drop-annulus": _drop_annulus,
    "move-face-index": _move_face,
    "repoint-attachment": _repoint_attachment,
    "relabel-vertex": _relabel_vertex,
    "twin-polycycle": _twin_polycycle,
}


def _models_to_edit() -> list:
    """Every fixture that parses, the BROKEN_RULES edits, realized
    graphs and the pairs enumerated at SMALL_BOUNDS.  The edits that
    break a record's Python type (rule ``"type"``) are left out: the
    single edits read records' fields, and the shape pass is checked
    against the oracle in ``test_properties``."""
    models = [p for p in map(_unvalidated, (
        path.read_text(encoding="utf-8")
        for path in sorted(FIXTURES.glob("*.json")))) if p is not None]
    models += [edit(three_centers_eight())
               for edit, (_, _, rule), _ in BROKEN_RULES.values() if rule != "type"]
    models += [non_alternating_pair(), double_face_pair(),
               InvariantPair(SaddleDiagram.empty(), (), ())]
    models += map(realize_multigraph, all_connected_multigraphs(4))
    models += (realize_multigraph(random_graph(n)) for n in range(2, 13))
    for bounds in SMALL_BOUNDS:
        models += enumerate_pairs(bounds)
    return models


def _assert_violations_match(p):
    assert p.diagram.violations == diagram_violations_oracle(p.diagram)
    assert p.violations == pair_violations_oracle(p)


def test_violations_equal_the_rule_loops():
    """Whole violation tuples, in order, equal those of the rule loops
    alone: on fixtures, broken rules, realized and enumerated pairs, and
    on seeded single edits of each.  Both the accepted and the rejected
    paths run, and the edits break every dart, id and matching rule."""
    rng = random.Random(24)
    models = _models_to_edit()
    outcomes, rules = set(), set()
    for p in models:
        edited = (edit(p, rng) for edit in SINGLE_EDITS.values()
                  for _ in range(3))
        for q in (p, *(q for q in edited if q is not None)):
            _assert_violations_match(q)
            outcomes.add(not q.violations)
            rules |= {v.rule for v in q.violations}
    assert outcomes == {True, False}
    assert rules >= {"unique-id", "dangling-endpoint", "twist-unsupported",
                     "boundary-unsupported",
                     "degree", "dart-pairing", "alternation", "source-label",
                     "label", "component-ref", "attachment", "matching",
                     "nonempty"}


def test_unhashable_slot_is_a_type_misfit():
    d = SaddleDiagram((Saddle("s", 0, ((["a"], OUT), ("a", IN))),),
                      (Separatrix("a", "s", "s"),))
    assert d.violations == (
        Violation("saddle", "s", "type",
                  "saddle 's' rotation slot 0 holds (['a'], 'out'),"
                  " which is not a dart"),
    )


def test_repeated_separatrix_id_is_placed_at_each_copy_home():
    """Two separatrices share an id, and each saddle's rotation alone
    alternates its own darts: the copy whose ends the darts are not at
    breaks source-label, as the rule loops say."""
    d = SaddleDiagram(
        (Saddle("s", 0, (("b", OUT), ("b", IN))),
         Saddle("t", 0, (("a", OUT), ("a", IN)))),
        (Separatrix("a", "s", "s"), Separatrix("a", "t", "t"),
         Separatrix("b", "s", "s")))
    assert {v.rule for v in d.violations} == {"unique-id", "source-label"}
    assert d.violations == diagram_violations_oracle(d)
