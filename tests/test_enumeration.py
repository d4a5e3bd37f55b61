import random

from flowinv.enumeration import (
    EnumBounds,
    count_classes,
    enumerate_diagrams,
    enumerate_pairs,
)
from flowinv.graph import assembly_components, validate_pair
from flowinv.isomorphism import ORIENTED, REVERSIBLE, canonical_form
from flowinv.reconstruction import reconstruct

from oracles import brute_force_pairs

SMALL = EnumBounds(max_saddles=1, max_k_sum=1, max_centers=2, max_n=1,
                   max_b=1, max_annuli=2, max_tori=1)


class TestDiagrams:
    def test_no_saddles_only_empty_diagram(self):
        ds = list(enumerate_diagrams(EnumBounds()))
        assert len(ds) == 1 and not ds[0].saddles

    def test_single_zero_saddle_class(self):
        ds = list(enumerate_diagrams(EnumBounds(max_saddles=1)))
        assert len(ds) == 2  # empty diagram + the homoclinic loop
        loops = [d for d in ds if d.saddles]
        assert len(loops[0].separatrices) == 1

    def test_one_saddle_degree_four_classes(self):
        ds = [d for d in enumerate_diagrams(EnumBounds(max_saddles=1, max_k_sum=1))
              if d.saddles and d.saddles[0].k == 1]
        # regression value frozen from the exhaustive run: the two
        # rotation types of the figure eight
        assert len(ds) == 2

    def test_no_duplicate_canonical_forms(self):
        from flowinv.isomorphism import canonical_diagram

        bounds = EnumBounds(max_saddles=2, max_k_sum=2)
        seen = set()
        for d in enumerate_diagrams(bounds):
            key = canonical_diagram(d, bounds.mode)
            assert key not in seen
            seen.add(key)

    def test_shuffled_generation_same_classes(self):
        from flowinv.isomorphism import canonical_diagram

        bounds = EnumBounds(max_saddles=2, max_k_sum=2)
        plain = {canonical_diagram(d, bounds.mode)
                 for d in enumerate_diagrams(bounds)}
        shuffled = {canonical_diagram(d, bounds.mode)
                    for d in enumerate_diagrams(bounds, random.Random(3))}
        assert plain == shuffled

    def test_diagram_dedup_agrees_with_pair_backtracking(self):
        """Capping every boundary circle with a fresh center turns a diagram
        into a pair without losing information, so diagram-level canonical
        equality must coincide with the pair-level search on the lifts."""
        from itertools import combinations

        from flowinv.diagram import faces_by_component
        from flowinv.enumeration import _degree_multisets, _diagram_candidates
        from flowinv.graph import AnnulusEdge, Attachment, VertexNode, InvariantPair
        from flowinv.isomorphism import canonical_diagram, pair_isomorphic

        def lift(diagram):
            vertices = []
            annuli = []
            from flowinv.diagram import diagram_components

            comps = diagram_components(diagram)
            of_comp = {}
            for i, (comp_id, _, _) in enumerate(comps):
                of_comp[comp_id] = f"p{i}"
                vertices.append(VertexNode(f"p{i}", "d", comp_id))
            for comp_id, faces in sorted(faces_by_component(diagram).items()):
                for idx in range(len(faces)):
                    cid = f"c_{comp_id}_{idx}"
                    vertices.append(VertexNode(cid, "c"))
                    annuli.append(AnnulusEdge(
                        f"a_{comp_id}_{idx}",
                        Attachment(of_comp[comp_id], idx),
                        Attachment(cid),
                    ))
            return InvariantPair(diagram, tuple(vertices), tuple(annuli))

        candidates = []
        for ks in _degree_multisets(2, 2):
            if ks:  # the empty diagram lifts to an empty (invalid) model
                candidates.extend(_diagram_candidates(ks))
        lifted = [lift(d) for d in candidates]
        keys = [canonical_diagram(d, ORIENTED) for d in candidates]
        for i, j in combinations(range(len(candidates)), 2):
            same = keys[i] == keys[j]
            found = pair_isomorphic(lifted[i], lifted[j], ORIENTED) is not None
            assert same == found, (i, j)


class TestPairs:
    def test_sphere_and_torus_only(self):
        bounds = EnumBounds(max_saddles=0, max_k_sum=0, max_centers=2,
                            max_annuli=1, max_tori=1)
        ps = list(enumerate_pairs(bounds))
        assert len(ps) == 2
        keys = {(len(p.vertices), p.tori) for p in ps}
        assert keys == {(2, 0), (0, 1)}

    def test_adds_projective_and_klein(self):
        bounds = EnumBounds(max_saddles=0, max_k_sum=0, max_centers=2,
                            max_n=2, max_annuli=1, mode=REVERSIBLE)
        labels = sorted(
            "".join(sorted(v.label for v in p.vertices))
            for p in enumerate_pairs(bounds)
        )
        assert labels == ["cc", "cn", "nn"]

    def test_empty_bounds_empty_stream(self):
        assert list(enumerate_pairs(EnumBounds())) == []

    def test_every_emitted_pair_valid_and_connected(self):
        for p in enumerate_pairs(SMALL):
            assert validate_pair(p) == []
            assert len(assembly_components(p)) == 1
            reconstruct(p)

    def test_no_duplicates(self):
        seen = set()
        for p in enumerate_pairs(SMALL):
            key = canonical_form(p, SMALL.mode).blob
            assert key not in seen
            seen.add(key)

    def test_monotone_in_bounds(self):
        small = {canonical_form(p, ORIENTED).blob
                 for p in enumerate_pairs(SMALL)}
        bigger = EnumBounds(max_saddles=1, max_k_sum=1, max_centers=3,
                            max_n=1, max_b=1, max_annuli=3, max_tori=1)
        big = {canonical_form(p, ORIENTED).blob
               for p in enumerate_pairs(bigger)}
        assert small <= big

    def test_matches_brute_force_twin(self):
        brute = brute_force_pairs(SMALL)
        fast = list(enumerate_pairs(SMALL))
        blob = lambda p: canonical_form(p, SMALL.mode).blob
        assert sorted(map(blob, brute)) == sorted(map(blob, fast))

    def test_shuffled_generation_same_classes(self):
        plain = {canonical_form(p, SMALL.mode).blob
                 for p in enumerate_pairs(SMALL)}
        shuffled = {canonical_form(p, SMALL.mode).blob
                    for p in enumerate_pairs(SMALL, random.Random(11))}
        assert plain == shuffled

    def test_connected_models_have_connected_posets(self):
        from flowinv.graph import to_extended_poset
        from flowinv.topology import is_connected_poset

        for p in enumerate_pairs(SMALL):
            poset = to_extended_poset(p)
            # a lone periodic torus is a single point, connected as a poset
            assert is_connected_poset(poset)

    def test_serialization_round_trip_over_enumeration(self):
        from flowinv.model_io import parse_model, serialize_model

        for p in enumerate_pairs(SMALL):
            assert parse_model(serialize_model(p)) == p
            assert parse_model(serialize_model(p, compact=True)) == p


class TestCountClasses:
    def test_sphere_torus_table(self):
        bounds = EnumBounds(max_saddles=0, max_k_sum=0, max_centers=2,
                            max_annuli=1, max_tori=1)
        table = count_classes(bounds)
        assert table.counts() == {
            (True, 0, 0, 0): 1,
            (True, 1, 0, 0): 1,
        }

    def test_three_center_sphere_class_present(self):
        bounds = EnumBounds(max_saddles=1, max_k_sum=1, max_centers=3,
                            max_annuli=3)
        table = count_classes(bounds)
        assert (True, 0, 0, 1) in table.counts()

    def test_determinism_under_shuffle(self):
        t1 = count_classes(SMALL)
        t2 = count_classes(SMALL, random.Random(17))
        t3 = count_classes(SMALL, random.Random(23))
        assert t1 == t2 == t3

    def test_representatives_carried(self):
        table = count_classes(SMALL)
        for key, digests in table.entries:
            assert len(digests) >= 1
            assert all(len(d) == 64 for d in digests)
