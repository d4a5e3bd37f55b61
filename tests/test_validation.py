"""The validation boundary: one error type, each model validated once."""

import ast
import importlib
import pkgutil
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

import flowinv
from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix, \
    ValidationError, faces_by_component, trace_faces
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, \
    VertexNode, classify_separation, reduced_label, to_extended_poset
from flowinv.isomorphism import REVERSIBLE, canonical_form, pair_isomorphic, \
    reverse_pair
from flowinv.model_io import parse_model
from flowinv.reconstruction import build_cell_model, chi_cells, reconstruct

from conftest import fixture_text, three_centers_eight

ENTRY_POINTS = {
    "canonical_form": canonical_form,
    "canonical_form_reversible": lambda p: canonical_form(p, REVERSIBLE),
    "pair_isomorphic": lambda p: pair_isomorphic(p, p),
    "reconstruct": reconstruct,
    "build_cell_model": build_cell_model,
    "chi_cells": chi_cells,
    "classify_separation": classify_separation,
    "to_extended_poset": to_extended_poset,
    "reduced_label": reduced_label,
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
        ("saddle", "s", "unknown-dart"), "rotation slot 0 is not a dart"),
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
    "polycycle-attachment-without-face": (
        lambda p: _annulus(p, AnnulusEdge("uy", Attachment("y"),
                                          Attachment("p"))),
        ("annulus", "uy", "attachment"), "without naming a face"),
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
