"""Hypothesis properties of relabeled models.

Models come from the enumerated classes at small bounds and from the
valid fixtures.  Each is relabeled with every rotation word stored from a
drawn dart, and optionally reversed twice; the canonical form, the
witnesses of the isomorphism search and the file round trip must not
see the difference.  Realized cycles of seven to ten one-loop flowers
join the pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from flowinv.diagram import Saddle, SaddleDiagram
from flowinv.enumeration import EnumBounds, enumerate_pairs
from flowinv.graph import InvariantPair
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    canonical_form,
    pair_isomorphic,
    relabel_pair,
    reverse_pair,
    verify_witness,
)
from flowinv.model_io import parse_graph, parse_model, serialize_model
from flowinv.reconstruction import realize_multigraph

from conftest import FIXTURES, fixture_text
from oracles import cycle_graph

BOUNDS = EnumBounds(max_saddles=2, max_k_sum=2, max_centers=2, max_n=1,
                    max_b=1, max_annuli=2, max_tori=1)


def _fixture_models():
    models = [realize_multigraph(parse_graph(fixture_text("star_graph.json")))]
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name != "star_graph.json" and not path.name.startswith("bad_"):
            models.append(parse_model(fixture_text(path.name)))
    return models


POOL = (list(enumerate_pairs(BOUNDS)) + _fixture_models()
        + [realize_multigraph(cycle_graph(m)) for m in range(7, 11)])


def _names(draw, ids, prefix):
    order = draw(st.permutations(range(len(ids))))
    return {old: f"{prefix}{i}" for old, i in zip(sorted(ids), order)}


@st.composite
def relabeled(draw):
    """(model, its relabeling with rotated stored words, maybe reversed twice)."""
    p = draw(st.sampled_from(POOL))
    q = relabel_pair(
        p,
        _names(draw, [s.id for s in p.diagram.saddles], "S"),
        _names(draw, [e.id for e in p.diagram.separatrices], "E"),
        _names(draw, [v.id for v in p.vertices], "V"),
        _names(draw, [a.id for a in p.annuli], "A"),
    )
    saddles = []
    for s in q.diagram.saddles:
        shift = draw(st.integers(0, len(s.rotation) - 1))
        saddles.append(Saddle(s.id, s.k, s.rotation[shift:] + s.rotation[:shift],
                              s.kind))
    q = InvariantPair(SaddleDiagram(tuple(saddles), q.diagram.separatrices),
                      q.vertices, q.annuli, q.tori)
    if draw(st.booleans()):
        q = reverse_pair(reverse_pair(q))
    return p, q


@settings(max_examples=150, deadline=None)
@given(models=relabeled())
def test_canonical_form_unchanged(models):
    p, q = models
    for mode in (ORIENTED, REVERSIBLE):
        assert canonical_form(q, mode).blob == canonical_form(p, mode).blob


@settings(max_examples=150, deadline=None)
@given(models=relabeled())
def test_found_witnesses_verify(models):
    p, q = models
    for mode in (ORIENTED, REVERSIBLE):
        for a, b in ((p, q), (q, p)):
            w = pair_isomorphic(a, b, mode)
            assert w is not None and verify_witness(a, b, w)


@settings(max_examples=150, deadline=None)
@given(models=relabeled())
def test_file_round_trip(models):
    _, q = models
    assert parse_model(serialize_model(q)) == q
