from dataclasses import replace

import pytest

from flowinv.diagram import SaddleDiagram, ValidationError
from flowinv.enumeration import EnumBounds, enumerate_pairs
from flowinv.graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    VertexNode,
    assembly_components,
    classify_separation,
    to_extended_poset,
    underlying_multigraph,
    validate_pair,
)
from flowinv.isomorphism import ORIENTED, REVERSIBLE
from flowinv.model_io import parse_model
from flowinv.multigraph import Multigraph, multigraph_isomorphic
from flowinv.reconstruction import realize_multigraph

from conftest import FIXTURES, eight_diagram, leaf_pair, three_centers_eight, \
    torus_pair
from oracles import extended_poset_oracle


def _extended_poset_pool() -> list:
    """Every fixture model, the classes enumerated at small bounds with
    up to two tori in both modes, a realized graph with a loop and two
    parallel edges, and three tori alone."""
    models = [parse_model(path.read_text(encoding="utf-8"))
              for path in sorted(FIXTURES.glob("*.json"))
              if path.name != "star_graph.json" and not path.name.startswith("bad_")]
    for mode in (ORIENTED, REVERSIBLE):
        models += enumerate_pairs(EnumBounds(
            max_saddles=1, max_k_sum=2, max_centers=3, max_n=1, max_b=1,
            max_annuli=3, max_tori=2, mode=mode))
    models.append(realize_multigraph(Multigraph.build(
        "ab", {"loop": "a", "e1": "ab", "e2": "ab"})))
    models.append(InvariantPair(SaddleDiagram.empty(), (), (), 3))
    return models


class TestValidatePair:
    def test_sphere_rotation_ok(self, sphere):
        assert validate_pair(sphere) == []

    def test_dangling_face(self):
        p = InvariantPair(
            eight_diagram(),
            (VertexNode("p", "d", "s"), VertexNode("x", "c"),
             VertexNode("y", "c")),
            (AnnulusEdge("u0", Attachment("x"), Attachment("p", 0)),
             AnnulusEdge("u1", Attachment("y"), Attachment("p", 1))),
        )
        messages = [v for v in validate_pair(p) if v.rule == "matching"]
        assert any("face 2" in v.message for v in messages)

    def test_center_over_attached(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c"),
             VertexNode("c3", "c")),
            (AnnulusEdge("u0", Attachment("c1"), Attachment("c2")),
             AnnulusEdge("u1", Attachment("c1"), Attachment("c3"))),
        )
        assert any(
            v.rule == "matching" and "c1" in v.message
            for v in validate_pair(p)
        )

    def test_component_without_vertex(self):
        p = InvariantPair(eight_diagram(), (), (), 0)
        assert any(v.rule == "component-ref" for v in validate_pair(p))

    def test_two_vertices_for_one_component(self):
        p = InvariantPair(
            eight_diagram(),
            (VertexNode("p", "d", "s"), VertexNode("q", "d", "s")),
            (),
        )
        assert any(v.rule == "component-ref" for v in validate_pair(p))

    def test_face_on_leaf_vertex_rejected(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c")),
            (AnnulusEdge("u", Attachment("c1", 0), Attachment("c2")),),
        )
        assert any(v.rule == "attachment" for v in validate_pair(p))

    def test_face_index_out_of_range(self):
        p = InvariantPair(
            eight_diagram(),
            (VertexNode("p", "d", "s"), VertexNode("x", "c"),
             VertexNode("y", "c"), VertexNode("z", "c")),
            (AnnulusEdge("u0", Attachment("x"), Attachment("p", 0)),
             AnnulusEdge("u1", Attachment("y"), Attachment("p", 1)),
             AnnulusEdge("u2", Attachment("z"), Attachment("p", 7))),
        )
        assert any(v.rule == "attachment" for v in validate_pair(p))

    def test_empty_model_rejected(self):
        p = InvariantPair(SaddleDiagram.empty(), (), (), 0)
        assert any(v.rule == "nonempty" for v in validate_pair(p))

    def test_torus_alone_ok(self):
        assert validate_pair(torus_pair()) == []


class TestExtendedPoset:
    def test_sphere_rotation(self, sphere):
        g = Multigraph.from_poset(to_extended_poset(sphere))
        assert len(g.vertices) == 2 and len(g.edges) == 1

    def test_torus_isolated_point(self):
        p = to_extended_poset(torus_pair())
        assert p.elements == {("t", 0)}
        assert p.upsets[("t", 0)] == {("t", 0)}

    def test_loop_annulus_downset(self):
        pair = InvariantPair(
            eight_diagram(),
            (VertexNode("p", "d", "s"), VertexNode("x", "c")),
            (AnnulusEdge("u0", Attachment("x"), Attachment("p", 1)),
             AnnulusEdge("u1", Attachment("p", 0), Attachment("p", 2))),
        )
        g = Multigraph.from_poset(to_extended_poset(pair))
        assert dict(g.edges)[("a", "u1")] == {("v", "p")}

    def test_always_multigraph_like(self, three_eight):
        g = Multigraph.from_poset(to_extended_poset(three_eight))
        assert len(g.edges) == len(three_eight.annuli)

    def test_matches_closure_of_generating_pairs(self):
        """The up-sets written from the height-one definition are the
        closure of the generating pairs, and every up-set member is the
        very object that keys its element's up-set."""
        pool = _extended_poset_pool()
        assert len(pool) > 1000
        for pair in pool:
            p = to_extended_poset(pair)
            assert p == extended_poset_oracle(pair)
            key = {x: x for x in p.upsets}
            assert all(y is key[y] for up in p.upsets.values() for y in up)
            assert all(x is key[x] for x in p.elements)

    def test_attachment_counting_identity(self, three_eight):
        from flowinv.diagram import faces_by_component

        p = three_eight
        slots = sum(
            len(fs) for fs in faces_by_component(p.diagram).values()
        ) + sum(1 for v in p.vertices if v.label != "d")
        assert slots == 2 * len(p.annuli)


class TestSeparation:
    def test_sphere_rotation_t2(self, sphere):
        r = classify_separation(sphere)
        assert (r.sv_t0, r.sv_t1, r.sv_t2) == (True, True, True)
        assert r.svex_t1 and r.svex_t2

    def test_three_centers_eight(self, three_eight):
        r = classify_separation(three_eight)
        assert r.sv_t0 and not r.sv_t1 and not r.sv_t2
        assert r.svex_t1 and r.svex_t2

    def test_periodic_torus(self):
        r = classify_separation(torus_pair())
        assert r.sv_t1 and r.sv_t2

    def test_three_centers_no_saddles_not_t2(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c"),
             VertexNode("c3", "c"), VertexNode("c4", "c")),
            (AnnulusEdge("u0", Attachment("c1"), Attachment("c2")),
             AnnulusEdge("u1", Attachment("c3"), Attachment("c4"))),
        )
        r = classify_separation(p)
        assert r.sv_t1 and not r.sv_t2

    def test_implication_chain_everywhere(self, sphere, three_eight):
        for p in (sphere, three_eight, torus_pair(), leaf_pair("c", "n")):
            r = classify_separation(p)
            assert (not r.sv_t2 or r.sv_t1) and (not r.sv_t1 or r.sv_t0)


class TestAssemblyAndStripping:
    def test_components_of_disjoint_model(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c"),
             VertexNode("c3", "c"), VertexNode("c4", "c")),
            (AnnulusEdge("u0", Attachment("c1"), Attachment("c2")),
             AnnulusEdge("u1", Attachment("c3"), Attachment("c4"))),
            tori=1,
        )
        comps = assembly_components(p)
        assert comps == ((frozenset({"c1", "c2"}), frozenset({"u0"})),
                         (frozenset({"c3", "c4"}), frozenset({"u1"})))
        assert p.tori == 1  # the third component, counted, not listed

    def test_side_at_unknown_vertex_raises_validation_error(self):
        p = three_centers_eight()
        moved = InvariantPair(p.diagram, p.vertices, tuple(
            replace(a, pos=Attachment("w")) if a.id == "uy" else a
            for a in p.annuli))
        with pytest.raises(ValidationError) as err:
            assembly_components(moved)
        assert ("annulus", "uy", "attachment") in {
            (v.kind, v.subject, v.rule) for v in err.value.violations}

    def test_invalid_pair_whose_sides_resolve_gets_its_assembly(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c")),
            (AnnulusEdge("u0", Attachment("c1"), Attachment("c2")),
             AnnulusEdge("u1", Attachment("c1"), Attachment("c2"))),
        )
        assert validate_pair(p)
        assert assembly_components(p) == (
            (frozenset({"c1", "c2"}), frozenset({"u0", "u1"})),)

    def test_underlying_multigraph_of_three_eight(self, three_eight):
        g = underlying_multigraph(three_eight)
        star = Multigraph.build(
            "hxyz", {"1": {"h", "x"}, "2": {"h", "y"}, "3": {"h", "z"}}
        )
        assert multigraph_isomorphic(g, star) is not None
