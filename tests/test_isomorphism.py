import hashlib
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowinv import isomorphism
from flowinv.enumeration import EnumBounds, enumerate_diagrams, enumerate_pairs
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, VertexNode
from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix, \
    ValidationError
from flowinv.isomorphism import (
    CANONICAL_FORMAT_VERSION,
    ORIENTED,
    REVERSIBLE,
    canonical_diagram,
    canonical_form,
    cyclic_equivalent,
    pair_isomorphic,
    reverse_pair,
    verify_witness,
)
from flowinv.model_io import ParseError, SchemaError, SemanticError, \
    parse_graph, parse_model
from flowinv.multigraph import Multigraph
from flowinv.reconstruction import realize_multigraph

from conftest import (
    FIXTURES,
    disk_flow,
    eight_torus_pair,
    fixture_text,
    leaf_pair,
    own_state,
    sphere_rotation,
    three_centers_eight,
    torus_pair,
    within_budget,
)
from oracles import (
    annulus_ends_oracle, component_groups_oracle, cycle_graph, dense_ranks,
    end_ranks_oracle, engine_initial_oracle, full_refine, ordered_cells,
    orientation_oracle, path_graph, random_graph, random_relabel,
    shared_cells_oracle, star_graph)

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
        with pytest.raises(ValidationError):
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
        assert canonical_form(sphere_rotation()).blob[0] == 3

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

    @pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                             ids=["oriented", "reversible"])
    def test_labeling_keeps_only_framed_bytes(self, mode):
        """A pair read from outside compiles its diagram block for the
        search alone: the pair keeps its framed bytes and nothing else,
        and its diagram keeps no more than its cached properties.  REVERSIBLE
        mode keeps the bytes of each orientation it searched: the model's
        unless the orientation byte reads ``>``, the reversal's unless it
        reads ``<``."""
        for name in GOLDEN_DIGESTS:
            p = _fixture_model(name)
            pair_before = set(p.__dict__) | own_state(InvariantPair)
            canonical_form(p, mode)
            byte = canonical_form(_rebuilt(p)).blob[1:2]
            kept = {"oriented_blob"}
            if mode.allow_reversal:
                kept = {b"<": {"oriented_blob"},
                        b"=": {"oriented_blob", "reversed_blob"},
                        b">": {"reversed_blob"}}[byte]
            assert set(p.__dict__) - pair_before == kept
            assert set(p.diagram.__dict__) <= own_state(SaddleDiagram)


# Canonical digests (ORIENTED, REVERSIBLE) of every valid fixture under
# format 3; the graph file is pinned through its realized model.  A change
# to the canonical bytes must bump CANONICAL_FORMAT_VERSION and this table.
GOLDEN_DIGESTS = {
    "disk_eight_aligned.json": (
        "f5d3f9433da1ba69ded9c451eab9eb87a00f78f4bbcd2f5de81bac3c4f1dcdb4",
        "07ee11f84b60121433908f46129e92c90edf6f84f14e98de773394565ca542b0"),
    "disk_eight_opposed.json": (
        "625219e5b981163d64895a99dcd64653f06f9ecab0bb8a5fa4eafb05fea8895c",
        "c659c80f7a7efba9b4b0c4e7e4078c8dc63e66366aede500f67ec728580e88a4"),
    "periodic_torus.json": (
        "6a59b7dc936422574fb36c7351800b7d6547be1feab293fa95e39a51ad7eeb02",
        "6a59b7dc936422574fb36c7351800b7d6547be1feab293fa95e39a51ad7eeb02"),
    "sphere_rotation.json": (
        "1994a74a30023ad13a75fad622efc3392171c921b9a37ae734579fe3308fa109",
        "1994a74a30023ad13a75fad622efc3392171c921b9a37ae734579fe3308fa109"),
    "star_graph.json": (
        "781cd3eefb0b916585396acdb82b033774c768b07f7322b7c8be4e49e7cd39ea",
        "29d6abca3064f99bbf918d06726a3f94412f03999adbde2ca204e624eeaadd49"),
    "three_centers_boundary.json": (
        "625219e5b981163d64895a99dcd64653f06f9ecab0bb8a5fa4eafb05fea8895c",
        "c659c80f7a7efba9b4b0c4e7e4078c8dc63e66366aede500f67ec728580e88a4"),
    "three_centers_eight.json": (
        "7a4a7d19e714d1d9f0ea39a2e421ed6192b58fdbc8b442f279fc85fa642577e9",
        "7a4a7d19e714d1d9f0ea39a2e421ed6192b58fdbc8b442f279fc85fa642577e9"),
    "three_centers_mobius.json": (
        "56eec8797a65c3966fc9476a9e9ec860386c1891f2b001108133ea43d36a6c94",
        "56eec8797a65c3966fc9476a9e9ec860386c1891f2b001108133ea43d36a6c94"),
}


def _fixture_model(name: str):
    """The model a fixture file holds (a graph file: its realization), or None."""
    text = fixture_text(name)
    for read in (parse_model, lambda t: realize_multigraph(parse_graph(t))):
        try:
            return read(text)
        except (ParseError, SchemaError, SemanticError):
            continue
    return None


class TestGoldenDigests:
    def test_every_valid_fixture_is_pinned(self):
        valid = {path.name for path in FIXTURES.glob("*.json")
                 if _fixture_model(path.name) is not None}
        assert valid == set(GOLDEN_DIGESTS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_digests(self, name):
        p = _fixture_model(name)
        oriented, reversible = GOLDEN_DIGESTS[name]
        assert canonical_form(p, ORIENTED).digest() == oriented
        assert canonical_form(p, REVERSIBLE).digest() == reversible


# SHA-256 of the canonical bytes, ORIENTED then REVERSIBLE, each followed
# by a NUL byte, of 150 seeded disjoint unions of two classes at
# SMALL_CLASSES, under format 3.  The orientation byte of a model with
# several components compares their annulus ends with one another, so it
# depends on the initial ranks of each component, which no single-component
# golden pins.
GOLDEN_UNION_DIGEST = \
    "fa0088dc2fb9730fd1e7144865ec773e126654b825c6fce34a48aff19c012f4a"


def test_disjoint_union_digest():
    pairs = list(enumerate_pairs(SMALL_CLASSES))
    rng = random.Random(3)
    h = hashlib.sha256()
    for _ in range(150):
        u = _disjoint_union(rng.choice(pairs), rng.choice(pairs))
        for mode in (ORIENTED, REVERSIBLE):
            h.update(canonical_form(u, mode).blob)
            h.update(b"\0")
    assert h.hexdigest() == GOLDEN_UNION_DIGEST


# SHA-256 of the canonical_diagram bytes of every diagram class with at
# most two saddles and k-sum 2, in emission order, each followed by a NUL
# byte.  Every such diagram is isomorphic to its reversal, so both modes
# agree here.
GOLDEN_DIAGRAM_DIGESTS = {
    "oriented": "857627f830cf13d525acb81080e94730a193af8162860ff87643632b3b095ef8",
    "reversible": "857627f830cf13d525acb81080e94730a193af8162860ff87643632b3b095ef8",
}


def test_pinned_format_is_the_constant():
    """The README's "`CANONICAL_FORMAT_VERSION`, now N" and the first
    byte of every pinned blob follow the constant, so a format bump
    cannot leave the docs or a golden table stale."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = re.findall(r"`CANONICAL_FORMAT_VERSION`,\s+now\s+(\d+)",
                       readme.read_text(encoding="utf-8"))
    assert named and set(named) == {str(CANONICAL_FORMAT_VERSION)}
    for mode in (ORIENTED, REVERSIBLE):
        for name in GOLDEN_DIGESTS:
            blob = canonical_form(_fixture_model(name), mode).blob
            assert blob[0] == CANONICAL_FORMAT_VERSION
        for d in enumerate_diagrams(EnumBounds(max_saddles=2, max_k_sum=2,
                                               mode=mode)):
            assert canonical_diagram(d, mode)[0] == CANONICAL_FORMAT_VERSION


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
def test_canonical_diagram_digest(mode):
    h = hashlib.sha256()
    for d in enumerate_diagrams(EnumBounds(max_saddles=2, max_k_sum=2,
                                           mode=mode)):
        h.update(canonical_diagram(d, mode))
        h.update(b"\0")
    name = "reversible" if mode.allow_reversal else "oriented"
    assert h.hexdigest() == GOLDEN_DIAGRAM_DIGESTS[name]


def _dipole(m):
    return Multigraph.build("uw", {f"e{i}": "uw" for i in range(m)})


def _bouquet(m):
    return Multigraph.build(["hub"], {f"l{i}": ("hub",) for i in range(m)})


# Realized symmetric graphs whose canonical search was factorial before
# refinement followed rotation words and faces.
SYMMETRIC = {
    "star-12": lambda: star_graph(12),
    "star-40": lambda: star_graph(40),
    "dipole-8": lambda: _dipole(8),
    "dipole-16": lambda: _dipole(16),
    "cycle-6": lambda: cycle_graph(6),
    "cycle-10": lambda: cycle_graph(10),
    "cycle-40": lambda: cycle_graph(40),
    "cycle-120": lambda: cycle_graph(120),
    "path-120": lambda: path_graph(120),
    "bouquet-6": lambda: _bouquet(6),
    "bouquet-12": lambda: _bouquet(12),
}


class TestSymmetricSearch:
    # Automorphism pruning leaves a constant number of leaves; the search
    # of the reversed pair in REVERSIBLE mode adds at most twice as many.
    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_leaves_linear_in_separatrices(self, name, monkeypatch):
        p = realize_multigraph(SYMMETRIC[name]())
        serialize = isomorphism._CanonicalEngine.serialize
        leaves = []

        def counting(engine, col):
            leaves.append(col)
            return serialize(engine, col)

        monkeypatch.setattr(isomorphism._CanonicalEngine, "serialize", counting)
        canonical_form(p, ORIENTED)
        oriented = len(leaves)
        assert 1 <= oriented <= 3
        canonical_form(p, REVERSIBLE)
        assert len(leaves) - oriented <= 2 * oriented

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_relabelings_agree(self, name):
        rng = random.Random(31)
        p = realize_multigraph(SYMMETRIC[name]())
        for mode in (ORIENTED, REVERSIBLE):
            expected = canonical_form(p, mode).blob
            for _ in range(3):
                assert canonical_form(random_relabel(p, rng), mode).blob == expected

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_backtracking_search_agrees(self, name):
        rng = random.Random(37)
        p = realize_multigraph(SYMMETRIC[name]())
        for _ in range(3):
            q = random_relabel(p, rng)
            for mode in (ORIENTED, REVERSIBLE):
                assert canonical_form(q, mode).blob == canonical_form(p, mode).blob
                w = within_budget(pair_isomorphic, p, q, mode)
                assert w is not None and verify_witness(p, q, w)


# ---------------------------------------------------------------------------
# the dart-propagation search at scale, and on near misses


def _flipped_annulus(p, annulus_id):
    """``p`` with one annulus's negative and positive sides swapped."""
    annuli = tuple(AnnulusEdge(a.id, a.pos, a.neg) if a.id == annulus_id
                   else a for a in p.annuli)
    return InvariantPair(p.diagram, p.vertices, annuli, p.tori)


def _reflected_word(p, saddle_id):
    """``p`` with one rotation word stored backwards, or None if the
    result does not validate."""
    saddles = tuple(Saddle(s.id, s.k, s.rotation[::-1], s.kind)
                    if s.id == saddle_id else s for s in p.diagram.saddles)
    q = InvariantPair(SaddleDiagram(saddles, p.diagram.separatrices),
                      p.vertices, p.annuli, p.tori)
    return None if q.violations else q


def _near_misses(p):
    for a in p.annuli:
        yield _flipped_annulus(p, a.id)
    for s in p.diagram.saddles:
        q = _reflected_word(p, s.id)
        if q is not None:
            yield q


def _disjoint_union(*parts, tori=0):
    """One model holding a renamed copy of each part."""
    saddles, seps, vertices, annuli = [], [], [], []
    for i, p in enumerate(parts):
        q = isomorphism.relabel_pair(p, *(
            {x: f"{i}{x}" for x in ids} for ids in (
                [s.id for s in p.diagram.saddles],
                [e.id for e in p.diagram.separatrices],
                [v.id for v in p.vertices], [a.id for a in p.annuli])))
        saddles += q.diagram.saddles
        seps += q.diagram.separatrices
        vertices += q.vertices
        annuli += q.annuli
    return InvariantPair(SaddleDiagram(tuple(saddles), tuple(seps)),
                         tuple(vertices), tuple(annuli), tori)


NEAR_MISS_MODELS = {
    "random-20": lambda: [realize_multigraph(random_graph(20))],
    "random-40": lambda: [realize_multigraph(random_graph(40))],
    "cycle-10": lambda: [realize_multigraph(cycle_graph(10))],
    "star-12": lambda: [realize_multigraph(star_graph(12))],
    # one annulus joins two petals of one flower: flipped, it lands on
    # the same polycycle, so only the side check tells the two apart
    "looped-flower": lambda: [realize_multigraph(Multigraph.build(
        "hab", {"e1": "ha", "e2": "hb", "e3": "h"}))],
    "fixtures": lambda: [_fixture_model(f) for f in sorted(GOLDEN_DIGESTS)],
}


class TestPropagationSearch:
    def test_components_matched_in_any_order(self):
        cycle = realize_multigraph(cycle_graph(5))
        parts = [three_centers_eight(), leaf_pair("n", "b"), sphere_rotation(),
                 cycle, disk_flow(True), three_centers_eight()]
        p = _disjoint_union(*parts, tori=1)
        q = random_relabel(_disjoint_union(*parts[::-1], tori=1),
                           random.Random(5))
        # one annulus of the cycle flipped: same profile, no isomorphism
        parts[3] = _flipped_annulus(cycle, "a_e0")
        other = _disjoint_union(*parts, tori=1)
        assert other.profile == p.profile
        for mode in (ORIENTED, REVERSIBLE):
            w = pair_isomorphic(p, q, mode)
            assert w is not None and verify_witness(p, q, w)
            assert pair_isomorphic(p, other, mode) is None

    @pytest.mark.parametrize("n", [20, 40, 80])
    def test_random_realized_graphs(self, n):
        rng = random.Random(n)
        p = realize_multigraph(random_graph(n))
        q = random_relabel(p, rng)
        for mode in (ORIENTED, REVERSIBLE):
            assert canonical_form(q, mode).blob == canonical_form(p, mode).blob
            for a, b in ((p, q), (q, p)):
                w = within_budget(pair_isomorphic, a, b, mode)
                assert w is not None and verify_witness(a, b, w)

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_MODELS))
    def test_near_misses_agree_with_canonical_form(self, name):
        """Each annulus flipped and each rotation word reflected, then
        relabeled: the search finds no map exactly when the canonical
        bytes differ."""
        rng = random.Random(41)
        for p in NEAR_MISS_MODELS[name]():
            canon = {mode: canonical_form(p, mode).blob
                     for mode in (ORIENTED, REVERSIBLE)}
            for near in _near_misses(p):
                q = random_relabel(near, rng)
                for mode in (ORIENTED, REVERSIBLE):
                    w = within_budget(pair_isomorphic, p, q, mode)
                    differ = canonical_form(q, mode).blob != canon[mode]
                    assert (w is None) == differ
                    assert w is None or verify_witness(p, q, w)


# ---------------------------------------------------------------------------
# shortcuts of the canonical engine that must not change a byte

SMALL_CLASSES = EnumBounds(max_saddles=2, max_k_sum=2, max_centers=2,
                           max_n=1, max_b=1, max_annuli=2, max_tori=1)


def _genus_two_closures():
    """A 4-face polycycle on two 1-saddles closed by two face-face annuli,
    and its twin with both sides swapped (each is the other's reversal).

    The oriented search of each meets its first leaf again, records the
    automorphism against it, and only then finds the least leaf.
    """
    diagram = SaddleDiagram(
        (Saddle("s0", 1, (("e0", OUT), ("e2", IN), ("e1", OUT), ("e3", IN))),
         Saddle("s1", 1, (("e2", OUT), ("e0", IN), ("e3", OUT), ("e1", IN)))),
        (Separatrix("e0", "s0", "s1"), Separatrix("e1", "s0", "s1"),
         Separatrix("e2", "s1", "s0"), Separatrix("e3", "s1", "s0")),
    )
    return [
        InvariantPair(diagram, (VertexNode("p", "d", "s0"),), (
            AnnulusEdge("a0", Attachment("p", f0), Attachment("p", f1)),
            AnnulusEdge("a1", Attachment("p", f2), Attachment("p", f3)),
        ))
        for f0, f1, f2, f3 in ((0, 1, 2, 3), (1, 0, 3, 2))
    ]


def _shortcut_models():
    """Every valid fixture, the classes at SMALL_CLASSES, the symmetric
    shapes and the genus-two closures."""
    models = [_fixture_model(name) for name in sorted(GOLDEN_DIGESTS)]
    models += enumerate_pairs(SMALL_CLASSES)
    models += [realize_multigraph(build()) for build in SYMMETRIC.values()]
    models += _genus_two_closures()
    return models


def _engines(p):
    return [e for e in isomorphism._component_engines(p, {}, False)
            if e is not None]


def _rotation_of(w1, w2) -> bool:
    return cyclic_equivalent(w1, w2) is not None


def _is_automorphism(engine, g) -> bool:
    """Whether ``g`` maps every compiled array of ``engine`` onto itself."""
    e, b = engine, engine.block

    def image(word):
        return [(end, g[x]) for end, x in word]

    return (
        all(b.k[g[s]] == b.k[s]
            and _rotation_of(image(b.sad_words[s]), b.sad_words[g[s]])
            for s in range(b.sep_base))
        and all(tuple(g[x] for x in links)
                == b.sep_links[g[b.sep_base + j] - b.sep_base]
                for j, links in enumerate(b.sep_links))
        and all(_rotation_of(image(word),
                             b.face_words[g[e.face_base + j] - e.face_base])
                for j, word in enumerate(b.face_words))
        and all((att and (g[att[0]], att[1]))
                == e.face_att[g[e.face_base + j] - e.face_base]
                for j, att in enumerate(e.face_att))
        and all(e.labels[g[e.vertex_base + j] - e.vertex_base] == label
                and sorted(g[s] for s in e.vertex_members[j])
                == sorted(e.vertex_members[g[e.vertex_base + j] - e.vertex_base])
                for j, label in enumerate(e.labels))
        and all(tuple((g[v], g[f] if f >= 0 else -1) for v, f in ends)
                == e.ann_ends[g[e.annulus_base + j] - e.annulus_base]
                for j, ends in enumerate(e.ann_ends))
    )


class TestEngineShortcuts:
    def test_refine_is_stable(self):
        """The discrete exit returns what one more round would."""
        for p in _shortcut_models():
            for engine in _engines(p):
                root = engine.refine(engine.initial)
                assert engine.refine(root) == root
                if not engine.shared:
                    continue
                for i in min(engine.shared)[1]:
                    out = engine.refine(engine.individualize(root, i))
                    assert engine.refine(out) == out

    @given(st.lists(st.tuples(st.sampled_from(["in", "out"]),
                              st.integers(0, 3)), max_size=12).map(tuple))
    @example((("in", 0), ("out", 1), ("in", 0), ("out", 0)))
    @example((("in", 1),) * 4)
    def test_least_rotation_is_the_least(self, word):
        brute = min((word[i:] + word[:i] for i in range(len(word))),
                    default=word)
        assert isomorphism._least_rotation(word) == brute

    def test_reversal_carries_what_a_fresh_trace_gives(self):
        for p in _shortcut_models():
            assert not p.violations
            p.diagram.faces, p.assembly  # traced before the reversal
            r = reverse_pair(p)
            fresh = _rebuilt(r)
            assert r.diagram.__dict__["components"] == fresh.diagram.components
            assert r.diagram.__dict__["faces"] == fresh.diagram.faces
            assert "assembly" not in r.__dict__

    def test_first_leaf_is_not_the_least(self, monkeypatch):
        serialize = isomorphism._CanonicalEngine.serialize
        leaves = []

        def recording(engine, col):
            leaves.append(serialize(engine, col))
            return leaves[-1]

        monkeypatch.setattr(isomorphism._CanonicalEngine, "serialize",
                            recording)
        for p in _genus_two_closures():
            (engine,) = _engines(p)
            leaves.clear()
            least = engine.canonical()
            assert leaves[0] != least and engine.automorphisms
            assert least == canonical_form(_rebuilt(p)).blob[2:]

    def test_refine_matches_full_refinement(self):
        """Splitting only the shared cells, in place, gives the ordered
        partition of a full refinement, colors each object with its cell's
        start and leaves the shared cells for the search: at the root and
        at every first-level individualization, in both orientations.  An
        object individualized at the end of its type block refines as one
        given the color n, the rule of the dense ranks."""
        def check(engine, col, root=False):
            out = engine.refine(col, root)
            cells = ordered_cells(out)
            assert cells == ordered_cells(full_refine(engine, col))
            start = 0
            for cell in cells:
                assert all(out[i] == start for i in cell)
                start += len(cell)
            assert sorted(engine.shared) == [(out[cell[0]], cell)
                                             for cell in cells if len(cell) > 1]
            return out

        models = _shortcut_models()
        models += enumerate_pairs(replace(SMALL_CLASSES, mode=REVERSIBLE))
        for p in models:
            for engine in _engines(p) + _engines(reverse_pair(p)):
                root = check(engine, engine.initial, root=True)
                if not engine.shared:
                    continue
                for i in min(engine.shared)[1]:
                    out = check(engine, engine.individualize(root, i))
                    dense = list(root)
                    dense[i] = engine.n
                    assert ordered_cells(out) == ordered_cells(
                        full_refine(engine, dense))

    def test_kept_diagram_text_equals_fresh(self, monkeypatch):
        """A leaf serialized on a block that has kept its text gives the
        bytes of the same leaf on a fresh block."""
        serialize = isomorphism._CanonicalEngine.serialize
        leaves = []

        def recording(engine, col):
            leaves.append(col)
            return serialize(engine, col)

        monkeypatch.setattr(isomorphism._CanonicalEngine, "serialize",
                            recording)
        for p in _shortcut_models():
            for engine, fresh in zip(_engines(p), _engines(_rebuilt(p))):
                leaves.clear()
                engine.canonical()
                for col in list(leaves):
                    assert tuple(col[:engine.face_base]) in engine.block.texts
                    assert serialize(engine, col) == serialize(fresh, col)
                    fresh.block.texts.clear()

    def test_recorded_automorphisms_are_automorphisms(self):
        found = 0
        for p in _shortcut_models():
            for e in _engines(p) + _engines(reverse_pair(p)):
                e.canonical()
                found += len(e.automorphisms)
                assert all(_is_automorphism(e, g) for g in e.automorphisms)
        assert found

    def test_compiled_engines_match_oracles(self):
        """What the block and the engine compile in one pass: the
        diagram's dense ranks, the root cells, each annulus end's face
        object, the end ranks the orientation byte compares, and the
        grouping of the pair by assembly component, which gives the
        engines over the filtered components in order."""
        pairs = list(enumerate_pairs(SMALL_CLASSES))
        models = pairs + list(enumerate_pairs(
            replace(SMALL_CLASSES, mode=REVERSIBLE)))
        models += [_fixture_model(name) for name in sorted(GOLDEN_DIGESTS)]
        rng = random.Random(3)  # the unions of test_disjoint_union_digest
        models += [_disjoint_union(rng.choice(pairs), rng.choice(pairs))
                   for _ in range(150)]
        models += _multi_component_models() + _genus_two_closures()
        polycycles = tori = 0
        for p in models:
            groups = component_groups_oracle(p)
            tori += p.tori > 0
            for reversal in (False, True):
                d = isomorphism.reverse_diagram(p.diagram) if reversal \
                    else p.diagram
                engines = list(isomorphism._component_engines(p, {}, reversal))
                assert len(engines) == len(groups)
                for e, (vertices, annuli) in zip(engines, groups):
                    b = e.block
                    polycycles += len(b.face_start) > 1
                    assert b.ranks == dense_ranks(b.initial)
                    assert b.root_cells == shared_cells_oracle(b.initial)
                    assert e.initial == engine_initial_oracle(e)
                    assert e.root_cells == b.root_cells + shared_cells_oracle(
                        e.initial, e.vertex_base)
                    assert e.ann_ends == annulus_ends_oracle(
                        e, d, vertices, annuli, reversal)
                    assert e.end_ranks == end_ranks_oracle(e)
                    fresh = isomorphism._CanonicalEngine(b, vertices, annuli,
                                                         reversal)
                    assert _compiled(e) == _compiled(fresh)
                assert isomorphism._orientation(engines) \
                    == orientation_oracle(engines)
        assert polycycles and tori


def _multi_component_models() -> list:
    """The suites' other disjoint unions, two of them with a torus, and a
    sphere with two tori."""
    chiral, cycle = three_centers_eight(), realize_multigraph(cycle_graph(5))
    return [
        _disjoint_union(chiral, leaf_pair("n", "b"), sphere_rotation(), cycle,
                        disk_flow(True), chiral, tori=1),
        _disjoint_union(chiral, leaf_pair("n", "b"), cycle, tori=1),
        _disjoint_union(chiral, disk_flow(True)),
        _disjoint_union(chiral, reverse_pair(chiral)),
        _disjoint_union(chiral, leaf_pair("c", "n")),
        _disjoint_union(sphere_rotation(), tori=2),
    ]


def _compiled(engine) -> tuple:
    """Every array the engine compiles."""
    e = engine
    return (e.n, e.bounds, e.labels, e.initial, e.root_cells, e.face_att,
            e.vertex_atts, e.ann_ends, e.end_ranks, e.vertex_members,
            e.vertex_names)


# ---------------------------------------------------------------------------
# search results kept on the pair: one search per component and orientation


def _root_searches(monkeypatch) -> list:
    """Collects, from now on, each engine whose search starts at its root."""
    search = isomorphism._CanonicalEngine._search
    roots = []

    def counting(engine, col, fixed):
        if not fixed:
            roots.append(engine)
        return search(engine, col, fixed)

    monkeypatch.setattr(isomorphism._CanonicalEngine, "_search", counting)
    return roots


def _rebuilt(p):
    """An equal pair built from scratch: nothing computed on ``p`` is kept."""
    d = p.diagram
    return InvariantPair(SaddleDiagram(d.saddles, d.separatrices),
                         p.vertices, p.annuli, p.tori)


def _kept_models():
    """The classes at SMALL_CLASSES in both modes, realized symmetric
    shapes and the genus-two closures."""
    models = list(enumerate_pairs(SMALL_CLASSES))
    models += enumerate_pairs(replace(SMALL_CLASSES, mode=REVERSIBLE))
    models += [realize_multigraph(SYMMETRIC[name]())
               for name in ("star-12", "dipole-8", "cycle-10")]
    models += _genus_two_closures()
    return models


class TestKeptSearch:
    def test_one_search_per_component_and_orientation(self, monkeypatch):
        parts = [three_centers_eight(), leaf_pair("n", "b"),
                 realize_multigraph(cycle_graph(5))]
        p = _disjoint_union(*parts, tori=1)
        assert len(p.assembly) == 3  # three parts; the torus is counted
        roots = _root_searches(monkeypatch)
        canonical_form(p, ORIENTED)
        assert len(roots) == 3
        assert p.oriented_blob[1:2] == b">"  # the reversal is the lesser
        canonical_form(p, REVERSIBLE)
        assert len(roots) == 6  # only the reversed pair's, one per component
        for mode in (ORIENTED, REVERSIBLE, ORIENTED):
            canonical_form(p, mode)
        assert len(roots) == 6

    def test_reversible_first_then_oriented(self, monkeypatch):
        p = _disjoint_union(three_centers_eight(), disk_flow(True))
        r = reverse_pair(p)
        roots = _root_searches(monkeypatch)
        canonical_form(p, REVERSIBLE)
        assert len(roots) == 2  # orientation byte "<": its own bytes only
        canonical_form(r, REVERSIBLE)
        assert len(roots) == 4  # byte ">": the reversal's bytes only
        for q in (p, r):
            canonical_form(q, ORIENTED)
            canonical_form(q, REVERSIBLE)
        assert len(roots) == 6  # r's own bytes, searched once asked for
        assert canonical_form(r).blob == canonical_form(_rebuilt(r)).blob

    def test_greater_than_searches_only_the_reversal(self, monkeypatch):
        """A fresh ``>`` pair reads its orientation byte off its compiled
        engines, so REVERSIBLE runs one search, of the reversal; a later
        ORIENTED call still searches the pair and gives its own bytes."""
        p = reverse_pair(three_centers_eight())
        fresh = canonical_form(_rebuilt(p)).blob
        assert fresh[1:2] == b">"
        lesser = canonical_form(three_centers_eight()).blob
        roots = _root_searches(monkeypatch)
        assert canonical_form(p, REVERSIBLE).blob == lesser
        assert len(roots) == 1
        assert "oriented_blob" not in p.__dict__ and "reversed_blob" in p.__dict__
        assert canonical_form(p, ORIENTED).blob == fresh
        assert len(roots) == 2
        for mode in (REVERSIBLE, ORIENTED):
            canonical_form(p, mode)
        assert len(roots) == 2

    @pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                             ids=["oriented", "reversible"])
    def test_enumerated_pairs_carry_their_bytes(self, mode, monkeypatch):
        pairs = list(enumerate_pairs(replace(SMALL_CLASSES, mode=mode)))
        roots = _root_searches(monkeypatch)
        for p in pairs:
            canonical_form(p, mode)
        assert pairs and not roots

    def test_reversible_bytes_are_the_lesser_orientation(self):
        for model in _kept_models():
            fresh = [_rebuilt(q) for q in (model, reverse_pair(model))]
            assert canonical_form(model, REVERSIBLE).blob == min(
                canonical_form(q).blob for q in fresh)
            assert canonical_diagram(model.diagram, REVERSIBLE) == min(
                canonical_diagram(q.diagram) for q in fresh)

    @pytest.mark.parametrize("order", [(ORIENTED, REVERSIBLE),
                                       (REVERSIBLE, ORIENTED)],
                             ids=["oriented-first", "reversible-first"])
    def test_kept_bytes_equal_fresh_search(self, order):
        for model in _kept_models():
            for p in (model, _rebuilt(model)):
                kept = [canonical_form(p, mode).blob for mode in order]
                kept += [canonical_form(p, mode).blob for mode in order]
                fresh = [canonical_form(_rebuilt(model), mode).blob
                         for mode in order]
                assert kept == fresh * 2
