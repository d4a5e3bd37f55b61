"""Hypothesis properties of relabeled models.

Models come from the enumerated classes at small bounds and from the
valid fixtures.  Each is relabeled with every rotation word stored from a
drawn dart, and optionally reversed twice; the canonical form, the
witnesses of the isomorphism search and the file round trip must not
see the difference.  Realized cycles of seven to ten one-loop flowers
join the pool.  One arbitrary Python value put into one record field or
tuple slot of a pool model must end as violations, never an exception,
and the readers that write, reverse or rename a model must reject it
with ``ValidationError`` when a value is of the wrong type.
"""

from dataclasses import fields, is_dataclass, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from flowinv.diagram import Saddle, SaddleDiagram, ValidationError
from flowinv.enumeration import EnumBounds, enumerate_pairs
from flowinv.graph import InvariantPair, assembly_components
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    canonical_form,
    pair_isomorphic,
    relabel_pair,
    reverse_pair,
    verify_witness,
)
from flowinv.model_io import export_dot, parse_graph, parse_model, \
    serialize_model
from flowinv.reconstruction import realize_multigraph

from conftest import FIXTURES, fixture_text
from oracles import cycle_graph, pair_violations_oracle

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


def _slots(obj, path=()):
    """The path of every record field and tuple slot below ``obj``."""
    if is_dataclass(obj):
        children = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    elif isinstance(obj, tuple):
        children = list(enumerate(obj))
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _put(obj, path, value):
    """``obj`` with what ``path`` names replaced by ``value``, each record
    on the way built again."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        return obj[:key] + (_put(obj[key], rest, value),) + obj[key + 1:]
    return replace(obj, **{key: _put(getattr(obj, key), rest, value)})


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1),
    st.tuples(st.tuples(st.sampled_from(["a", "e0"]), st.sampled_from(["in", "out"]))),
    st.text(alphabet="\u00fc\u03b1\u2192", min_size=1, max_size=2),
)


@st.composite
def one_odd_value(draw):
    p = draw(st.sampled_from(POOL))
    path = draw(st.sampled_from(list(_slots(p))))
    return p, path, draw(ODD_VALUES)


class _Same(dict):
    """The identity map: every id to itself."""

    def __missing__(self, key):
        return key


READERS = {
    "serialize_model": serialize_model,
    "serialize_model compact": lambda p: serialize_model(p, compact=True),
    "export_dot graph": export_dot,
    "export_dot diagram": lambda p: export_dot(p, "diagram"),
    "reverse_pair": reverse_pair,
    "relabel_pair": lambda p: relabel_pair(p, _Same(), _Same(), _Same(), _Same()),
    "assembly_components": assembly_components,
}


@settings(max_examples=200, deadline=None)
@given(case=one_odd_value())
def test_any_value_in_any_slot_ends_as_violations(case):
    p, path, value = case
    q = _put(p, path, value)
    found = q.violations
    assert found == pair_violations_oracle(q)
    assert all(type(text) is str for v in found
               for text in (v.kind, v.subject, v.rule, v.message))
    for name, read in READERS.items() if found else ():
        try:
            read(q)
        except ValidationError:
            continue
        assert found[0].rule != "type", f"{name} read a misfit"
    if not found:
        hash(q)
        back = parse_model(serialize_model(q))
        assert back == q
        for mode in (ORIENTED, REVERSIBLE):
            assert canonical_form(back, mode).blob == canonical_form(q, mode).blob
