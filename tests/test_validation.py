"""The validation boundary: one error type, each model validated once."""

import importlib
import pkgutil
from functools import cached_property

import pytest

import flowinv
from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix, \
    ValidationError, faces_by_component, trace_faces
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, \
    classify_separation, reduced_label, to_extended_poset
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
