import pytest

from flowinv.diagram import (
    IN,
    OUT,
    Saddle,
    SaddleDiagram,
    Separatrix,
    ValidationError,
    diagram_components,
    diagram_multigraph,
    trace_faces,
)
from flowinv.multigraph import multigraph_isomorphic

from conftest import eight_diagram, loop_diagram
from oracles import face_count_oracle


class TestDegrees:
    @pytest.mark.parametrize("k,expected", [(1, 4), (0, 2), (3, 8)])
    def test_degree_formula(self, k, expected):
        assert Saddle("s", k, ()).degree == expected


class TestValidation:
    def test_figure_eight_valid(self):
        assert eight_diagram().violations == ()

    def test_alternation_violation(self):
        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("b", OUT), ("a", IN), ("b", IN))),),
            (Separatrix("a", "s", "s"), Separatrix("b", "s", "s")),
        )
        rules = {v.rule for v in bad.violations}
        assert "alternation" in rules

    def test_degree_mismatch(self):
        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("a", IN))),),
            (Separatrix("a", "s", "s"),),
        )
        rules = {v.rule for v in bad.violations}
        assert "degree" in rules

    def test_boundary_saddle_rejected(self):
        bad = SaddleDiagram(
            (Saddle("s", 0, (("a", OUT), ("a", IN)), kind="boundary"),),
            (Separatrix("a", "s", "s"),),
        )
        rules = {v.rule for v in bad.violations}
        assert "boundary-unsupported" in rules

    def test_twisted_separatrix_rejected(self):
        bad = SaddleDiagram(
            (Saddle("s", 0, (("a", OUT), ("a", IN))),),
            (Separatrix("a", "s", "s", twisted=True),),
        )
        rules = {v.rule for v in bad.violations}
        assert "twist-unsupported" in rules

    def test_dart_used_twice(self):
        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("a", IN), ("a", OUT), ("a", IN))),),
            (Separatrix("a", "s", "s"),),
        )
        rules = {v.rule for v in bad.violations}
        assert "dart-pairing" in rules

    def test_violations_name_subjects(self):
        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("a", IN))),),
            (Separatrix("a", "s", "s"),),
        )
        assert all(v.subject for v in bad.violations)


class TestFaces:
    def test_lemniscate_has_three_faces(self):
        assert len(trace_faces(eight_diagram())) == 3

    def test_single_loop_has_two_faces(self):
        assert len(trace_faces(loop_diagram())) == 2

    def test_theta_like_planar_rotation(self):
        theta = SaddleDiagram(
            (Saddle("s1", 1, (("e1", OUT), ("e2", IN), ("e3", OUT), ("e4", IN))),
             Saddle("s2", 1, (("e4", OUT), ("e3", IN), ("e2", OUT), ("e1", IN)))),
            (Separatrix("e1", "s1", "s2"), Separatrix("e2", "s2", "s1"),
             Separatrix("e3", "s1", "s2"), Separatrix("e4", "s2", "s1")),
        )
        # frozen from the dart-permutation oracle; V-E+F = 2 (planar)
        assert face_count_oracle(theta) == 4
        assert len(trace_faces(theta)) == 4

    def test_faces_match_permutation_oracle(self):
        for diagram in (eight_diagram(), eight_diagram(aligned=True),
                        loop_diagram()):
            assert len(trace_faces(diagram)) == face_count_oracle(diagram)

    def test_faces_partition_darts(self):
        diagram = eight_diagram()
        darts = [dart for face in trace_faces(diagram) for dart in face.sides]
        assert sorted(darts) == sorted(
            dart for e in diagram.separatrices
            for dart in (e.out_dart, e.in_dart))

    def test_face_flow_flags(self):
        by_len = {}
        for face in trace_faces(eight_diagram()):
            by_len.setdefault(len(face.sides), []).append(face.flow_positive)
        assert by_len[2] == [True]          # outer circle follows the flow
        assert by_len[1] == [False, False]  # loop interiors oppose it

    def test_requires_valid_diagram(self):
        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("a", IN))),),
            (Separatrix("a", "s", "s"),),
        )
        with pytest.raises(ValidationError):
            trace_faces(bad)

    def test_alternation_is_what_keeps_faces_coherent(self):
        # bypass validation: a non-alternating rotation mixes followed and
        # opposed sides in one orbit, which the tracer refuses
        from flowinv.diagram import FlowIncoherentFaceError

        bad = SaddleDiagram(
            (Saddle("s", 1, (("a", OUT), ("b", OUT), ("a", IN), ("b", IN))),),
            (Separatrix("a", "s", "s"), Separatrix("b", "s", "s")),
        )
        with pytest.raises(FlowIncoherentFaceError):
            bad.faces

    def test_euler_formula_per_component(self):
        for diagram in (eight_diagram(), eight_diagram(aligned=True),
                        loop_diagram()):
            faces = trace_faces(diagram)
            for comp_id, saddle_ids, sep_ids in diagram_components(diagram):
                f = sum(1 for face in faces if face.component == comp_id)
                euler = len(saddle_ids) - len(sep_ids) + f
                assert euler % 2 == 0 and euler <= 2


class TestCountingIdentities:
    def test_separatrix_count_from_degrees(self):
        from flowinv.enumeration import EnumBounds, enumerate_diagrams

        for d in enumerate_diagrams(EnumBounds(max_saddles=2, max_k_sum=2)):
            k_sum = sum(s.k for s in d.saddles)
            assert len(d.separatrices) == sum(s.k + 1 for s in d.saddles)
            assert len(d.saddles) - len(d.separatrices) == -k_sum


class TestComponents:
    def test_figure_eight_single_component(self):
        assert len(diagram_components(eight_diagram())) == 1

    def test_two_disjoint_loops(self):
        two = SaddleDiagram(
            (Saddle("s1", 0, (("a", OUT), ("a", IN))),
             Saddle("s2", 0, (("b", OUT), ("b", IN)))),
            (Separatrix("a", "s1", "s1"), Separatrix("b", "s2", "s2")),
        )
        assert len(diagram_components(two)) == 2

    def test_empty_diagram(self):
        assert len(diagram_components(SaddleDiagram.empty())) == 0


class TestDiagramMultigraph:
    def test_eight_variants_same_multigraph(self):
        g1 = diagram_multigraph(eight_diagram())
        g2 = diagram_multigraph(eight_diagram(aligned=True))
        assert multigraph_isomorphic(g1, g2) is not None

    def test_loop_count(self):
        g = diagram_multigraph(eight_diagram())
        assert [ends for _, ends in g.edges] == [frozenset("s")] * 2
