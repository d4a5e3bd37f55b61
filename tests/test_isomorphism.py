import random

import pytest

from flowinv.graph import AnnulusEdge, Attachment, InvariantPair
from flowinv.diagram import SaddleDiagram
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    InvalidPairError,
    canonical_form,
    cyclic_equivalent,
    pair_isomorphic,
    reverse_pair,
    verify_witness,
)

from conftest import (
    disk_flow,
    eight_torus_pair,
    fixture_text,
    leaf_pair,
    sphere_rotation,
    three_centers_eight,
    torus_pair,
)
from oracles import random_relabel

MODELS = [
    sphere_rotation,
    torus_pair,
    lambda: leaf_pair("c", "n"),
    lambda: leaf_pair("n", "n"),
    lambda: leaf_pair("c", "b"),
    three_centers_eight,
    eight_torus_pair,
    lambda: disk_flow(aligned=False),
    lambda: disk_flow(aligned=True),
]


class TestCyclicEquivalent:
    def test_shift_found(self):
        w = cyclic_equivalent("abc", "bca")
        assert w == (1, False)

    def test_reflection_only_when_allowed(self):
        assert cyclic_equivalent("abc", "acb") is None
        w = cyclic_equivalent("abc", "acb", allow_reflection=True)
        assert w is not None and w.reflected

    def test_length_mismatch(self):
        assert cyclic_equivalent("ab", "abc") is None

    def test_witness_applies(self):
        w1, w2 = ("x", "y", "z", "y"), ("z", "y", "x", "y")
        witness = cyclic_equivalent(w1, w2, allow_reflection=True)
        base = w1[::-1] if witness.reflected else w1
        shifted = tuple(
            base[(i + witness.shift) % len(base)] for i in range(len(base))
        )
        assert shifted == w2


class TestPairIsomorphic:
    def test_identity(self):
        p = three_centers_eight()
        w = pair_isomorphic(p, p)
        assert w is not None and verify_witness(p, p, w)

    @pytest.mark.parametrize("build", MODELS)
    def test_random_relabeling_found(self, build):
        rng = random.Random(20240809)
        p = build()
        q = random_relabel(p, rng)
        for mode in (ORIENTED, REVERSIBLE):
            w = pair_isomorphic(p, q, mode)
            assert w is not None and verify_witness(p, q, w)

    def test_label_kinds_distinguish(self):
        assert pair_isomorphic(leaf_pair("c", "n"), leaf_pair("c", "b"),
                               REVERSIBLE) is None

    def test_rotation_type_distinguishes_disk_flows(self):
        left, right = disk_flow(aligned=False), disk_flow(aligned=True)
        assert pair_isomorphic(left, right, ORIENTED) is None
        assert pair_isomorphic(left, right, REVERSIBLE) is None

    def test_reversal_mode_required_for_time_reversal(self):
        p = three_centers_eight()
        q = reverse_pair(p)
        assert pair_isomorphic(p, q, ORIENTED) is None
        w = pair_isomorphic(p, q, REVERSIBLE)
        assert w is not None and w.reversed_orientation
        assert verify_witness(p, q, w)

    def test_ordered_label_matters(self):
        p = leaf_pair("c", "n")
        q = InvariantPair(
            p.diagram, p.vertices,
            (AnnulusEdge("u", Attachment("v2"), Attachment("v1")),),
        )
        assert pair_isomorphic(p, q, ORIENTED) is None
        assert pair_isomorphic(p, q, REVERSIBLE) is not None

    def test_face_position_matters(self):
        base = three_centers_eight()
        moved = InvariantPair(
            base.diagram,
            base.vertices,
            (AnnulusEdge("ux", Attachment("p", 0), Attachment("x")),
             AnnulusEdge("uy", Attachment("y"), Attachment("p", 1)),
             AnnulusEdge("uz", Attachment("z"), Attachment("p", 2))),
        )
        # moving the same labels to structurally different circles
        assert pair_isomorphic(base, moved, REVERSIBLE) is None

    def test_invalid_input_raises(self):
        bad = InvariantPair(SaddleDiagram.empty(), (), (), 0)
        with pytest.raises(InvalidPairError):
            pair_isomorphic(bad, bad)

    def test_symmetry_of_witnesses(self):
        rng = random.Random(7)
        p = eight_torus_pair()
        q = random_relabel(p, rng)
        w_pq = pair_isomorphic(p, q)
        w_qp = pair_isomorphic(q, p)
        assert w_pq is not None and w_qp is not None
        assert verify_witness(q, p, w_qp)

    def test_transitivity_of_witnesses(self):
        rng = random.Random(13)
        p = three_centers_eight()
        q = random_relabel(p, rng)
        r = random_relabel(q, rng)
        w1 = pair_isomorphic(p, q)
        w2 = pair_isomorphic(q, r)
        composed = type(w1)(
            {k: w2.saddles[v] for k, v in w1.saddles.items()},
            {k: w2.separatrices[v] for k, v in w1.separatrices.items()},
            {k: w2.vertices[v] for k, v in w1.vertices.items()},
            {k: w2.annuli[v] for k, v in w1.annuli.items()},
        )
        assert verify_witness(p, r, composed)

    def test_rotated_word_isomorphic_by_search(self):
        p = three_centers_eight()
        s = p.diagram.saddles[0]
        rotated = InvariantPair(
            SaddleDiagram(
                (type(s)(s.id, s.k, s.rotation[2:] + s.rotation[:2]),),
                p.diagram.separatrices,
            ),
            p.vertices, p.annuli, p.tori,
        )
        w = pair_isomorphic(p, rotated, ORIENTED)
        assert w is not None and verify_witness(p, rotated, w)

    def test_witness_holds_for_word_stored_from_another_dart(self):
        from flowinv.model_io import parse_model

        p = parse_model(fixture_text("three_centers_eight.json"))
        (s,) = p.diagram.saddles
        shifted = InvariantPair(
            SaddleDiagram(
                (type(s)(s.id, s.k, s.rotation[1:] + s.rotation[:1], s.kind),),
                p.diagram.separatrices,
            ),
            p.vertices, p.annuli, p.tori,
        )
        assert canonical_form(shifted).blob == canonical_form(p).blob
        w = pair_isomorphic(p, shifted, ORIENTED)
        assert w is not None and verify_witness(p, shifted, w)


class TestReversal:
    @pytest.mark.parametrize("build", MODELS)
    def test_double_reversal_identity(self, build):
        p = build()
        assert reverse_pair(reverse_pair(p)) == p

    @pytest.mark.parametrize("build", MODELS)
    def test_reversal_preserves_validity(self, build):
        from flowinv.graph import validate_pair

        assert validate_pair(reverse_pair(build())) == []


class TestCanonicalForm:
    @pytest.mark.parametrize("build", MODELS)
    def test_relabeling_invariance(self, build):
        rng = random.Random(99)
        p = build()
        for mode in (ORIENTED, REVERSIBLE):
            expected = canonical_form(p, mode).blob
            for _ in range(3):
                q = random_relabel(p, rng)
                assert canonical_form(q, mode).blob == expected

    def test_rotating_stored_word_is_invisible(self):
        p = three_centers_eight()
        s = p.diagram.saddles[0]
        rotated = InvariantPair(
            SaddleDiagram(
                (type(s)(s.id, s.k, s.rotation[2:] + s.rotation[:2]),),
                p.diagram.separatrices,
            ),
            p.vertices, p.annuli, p.tori,
        )
        assert canonical_form(rotated).blob == canonical_form(p).blob

    def test_distinguishes_different_models(self):
        blobs = set()
        for build in MODELS:
            blobs.add(canonical_form(build(), ORIENTED).blob)
        assert len(blobs) == len(MODELS)

    def test_chirality_asymmetric_fixture(self):
        p = three_centers_eight()
        q = reverse_pair(p)
        assert canonical_form(p, REVERSIBLE).blob == \
            canonical_form(q, REVERSIBLE).blob
        assert canonical_form(p, ORIENTED).blob != \
            canonical_form(q, ORIENTED).blob

    def test_version_byte(self):
        assert canonical_form(sphere_rotation()).blob[0] == 1

    def test_agrees_with_backtracking_on_model_pairs(self):
        pairs = [build() for build in MODELS]
        for mode in (ORIENTED, REVERSIBLE):
            for i, p in enumerate(pairs):
                for q in pairs[i + 1:]:
                    same_canon = canonical_form(p, mode).blob == \
                        canonical_form(q, mode).blob
                    assert same_canon == (
                        pair_isomorphic(p, q, mode) is not None
                    )
