import random
from collections import Counter
from dataclasses import replace
from functools import cached_property
from hashlib import sha256
from itertools import islice, permutations

import pytest

from flowinv import enumeration, isomorphism
from flowinv.enumeration import (
    EnumBounds,
    count_classes,
    enumerate_diagrams,
    enumerate_pairs,
)
from flowinv.diagram import SaddleDiagram
from flowinv.graph import InvariantPair, assembly_components, validate_pair
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    canonical_diagram,
    canonical_form,
    reverse_pair,
)
from flowinv.model_io import serialize_model
from flowinv.reconstruction import reconstruct

from conftest import own_state
from oracles import brute_force_pairs, diagram_automorphisms_oracle, \
    diagram_candidates, diagram_class_count, directed_closures_oracle
from test_acceptance import SMALL_CONFIGS
from test_isomorphism import GOLDEN_DIGESTS, _fixture_model

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
        from flowinv.enumeration import _degree_multisets
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
                candidates.extend(diagram_candidates(ks))
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
            assert len(assembly_components(p)) + p.tori == 1
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
        from flowinv.graph import underlying_multigraph

        for p in enumerate_pairs(SMALL):
            # a lone periodic torus is a single point, connected as a poset
            assert underlying_multigraph(p).is_connected()

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


# Three saddles, one leaf of each kind: the class tables frozen from the
# enumeration that offered every closure and kept the first of each class.
PIN = EnumBounds(max_saddles=3, max_k_sum=3, max_centers=1, max_n=1,
                 max_b=1, max_annuli=2, max_tori=1)
PIN_TABLES = {
    ORIENTED: (3718, {
        (False, 1, 0, 0): 2, (False, 1, 0, 1): 8, (False, 1, 0, 2): 8,
        (False, 1, 0, 3): 8, (False, 1, 1, 0): 2, (False, 1, 1, 1): 8,
        (False, 1, 1, 2): 8, (False, 1, 1, 3): 8, (False, 3, 0, 1): 20,
        (False, 3, 0, 2): 40, (False, 3, 0, 3): 60, (False, 3, 1, 1): 8,
        (False, 3, 1, 2): 16, (False, 3, 1, 3): 24, (False, 5, 0, 1): 36,
        (False, 5, 0, 2): 192, (False, 5, 0, 3): 732, (True, 0, 1, 0): 2,
        (True, 0, 1, 1): 8, (True, 0, 1, 2): 8, (True, 0, 1, 3): 8,
        (True, 1, 0, 0): 1, (True, 1, 0, 1): 14, (True, 1, 0, 2): 31,
        (True, 1, 0, 3): 46, (True, 1, 1, 1): 20, (True, 1, 1, 2): 40,
        (True, 1, 1, 3): 60, (True, 2, 0, 1): 58, (True, 2, 0, 2): 292,
        (True, 2, 0, 3): 990, (True, 2, 1, 1): 36, (True, 2, 1, 2): 192,
        (True, 2, 1, 3): 732}),
    REVERSIBLE: (1862, {
        (False, 1, 0, 0): 1, (False, 1, 0, 1): 4, (False, 1, 0, 2): 4,
        (False, 1, 0, 3): 4, (False, 1, 1, 0): 1, (False, 1, 1, 1): 4,
        (False, 1, 1, 2): 4, (False, 1, 1, 3): 4, (False, 3, 0, 1): 10,
        (False, 3, 0, 2): 20, (False, 3, 0, 3): 30, (False, 3, 1, 1): 4,
        (False, 3, 1, 2): 8, (False, 3, 1, 3): 12, (False, 5, 0, 1): 18,
        (False, 5, 0, 2): 96, (False, 5, 0, 3): 366, (True, 0, 1, 0): 1,
        (True, 0, 1, 1): 4, (True, 0, 1, 2): 4, (True, 0, 1, 3): 4,
        (True, 1, 0, 0): 1, (True, 1, 0, 1): 7, (True, 1, 0, 2): 17,
        (True, 1, 0, 3): 23, (True, 1, 1, 1): 10, (True, 1, 1, 2): 20,
        (True, 1, 1, 3): 30, (True, 2, 0, 1): 29, (True, 2, 0, 2): 147,
        (True, 2, 0, 3): 495, (True, 2, 1, 1): 18, (True, 2, 1, 2): 96,
        (True, 2, 1, 3): 366}),
}


SMALL_BOUNDS = list(dict.fromkeys(
    replace(b, mode=ORIENTED) for b in [SMALL, *(b for b, _, _ in SMALL_CONFIGS)]))


def _rebuilt(p: InvariantPair) -> InvariantPair:
    """``p`` as a fresh pair on a fresh diagram: nothing handed or cached."""
    return InvariantPair(
        SaddleDiagram(p.diagram.saddles, p.diagram.separatrices),
        p.vertices, p.annuli, p.tori)


def _counting(monkeypatch, name: str) -> list:
    """From now on, list every pair whose cached property ``name`` runs
    its body."""
    body = InvariantPair.__dict__[name].func
    ran = []

    def counting(self):
        ran.append(self)  # keeps each object alive, so ids stay unique
        return body(self)

    prop = cached_property(counting)
    prop.__set_name__(InvariantPair, name)
    monkeypatch.setattr(InvariantPair, name, prop)
    return ran


def _watch_offers(monkeypatch) -> list:
    """From now on, list every candidate ``enumerate_pairs`` offers, and
    fail on any canonical key it computes twice."""
    offered, keys = [], set()
    check, blob = enumeration.check_pair, enumeration._canonical_blob

    def counting_check(pair):
        offered.append(pair)
        return check(pair)

    def fresh_blob(pair, mode, *args):
        key = blob(pair, mode, *args)
        assert key not in keys
        keys.add(key)
        return key

    monkeypatch.setattr(enumeration, "check_pair", counting_check)
    monkeypatch.setattr(enumeration, "_canonical_blob", fresh_blob)
    return offered


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
def test_three_saddle_class_tables_pinned(monkeypatch, mode):
    """Also one candidate offered per class at these bounds."""
    classes, counts = PIN_TABLES[mode]
    offered = _watch_offers(monkeypatch)
    table = count_classes(replace(PIN, mode=mode))
    assert sum(len(digests) for _, digests in table.entries) == classes
    assert table.counts() == counts
    assert len(offered) == classes
    for pair in offered:
        fresh = _rebuilt(pair)
        assert fresh.violations == ()
        assert fresh.assembly == pair.assembly


def _group_set(d, image, slot_group):
    found = [(tuple(sorted(face_map.items())), reverses)
             for face_map, reverses in enumeration._symmetries(d, image,
                                                               slot_group)]
    assert len(found) == len(set(found))
    return set(found)


@pytest.mark.parametrize("mode, classes", [(ORIENTED, 440), (REVERSIBLE, 389)],
                         ids=["oriented", "reversible"])
def test_diagram_automorphisms_match_brute_force(mode, classes):
    """The group is exact: every saddle bijection and rotation shift that
    keeps the diagram gives the same face-point actions, each once, in
    both orientations, and the actions compose within the group."""
    bounds = EnumBounds(max_saddles=3, max_k_sum=3, mode=mode)
    checked = 0
    for d, image, slot_group in enumeration._diagram_classes(bounds):
        if not d.saddles:
            continue
        group = _group_set(d, image, slot_group)
        assert group == diagram_automorphisms_oracle(d, mode.allow_reversal)
        maps = [(dict(items), reverses) for items, reverses in group]
        for f, r in maps:
            for g, s in maps:
                composed = tuple(sorted((p, f[g[p]]) for p in g))
                assert (composed, r != s) in group
        checked += 1
    assert checked == classes


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
def test_slot_orbits_are_diagram_classes(mode):
    """Two candidates turn to the same orbit-least image under the slot
    symmetries exactly when they have equal canonical bytes, over every
    candidate with at most three saddles and total k three."""
    candidates = 0
    for ks in enumeration._degree_multisets(3, 3):
        group = enumeration._slot_symmetries(ks, mode.allow_reversal)
        assert all(sorted(sigma) == list(range(len(sigma))) for sigma in group)
        assert group[0] == tuple(range(len(group[0])))
        least_of, bytes_of = {}, {}
        for image in permutations(range(sum(ks) + len(ks))):
            least = min(enumeration._turned(image, sigma) for sigma in group)
            key = canonical_diagram(enumeration._diagram(ks, image), mode)
            assert least_of.setdefault(key, least) == least
            assert bytes_of.setdefault(least, key) == key
            candidates += 1
    assert candidates == 2760


@pytest.mark.parametrize("mode, classes",
                         [(ORIENTED, 11222), (REVERSIBLE, 7871)],
                         ids=["oriented", "reversible"])
def test_diagram_classes_match_burnside_count(mode, classes):
    """The stream keeps one candidate per slot orbit: at every bound up to
    four saddles and total k four, it yields as many diagram classes as
    the Burnside count of the orbits says."""
    classes_of = enumeration._diagram_classes(
        EnumBounds(max_saddles=4, max_k_sum=4, mode=mode))
    streamed = Counter(tuple(s.k for s in d.saddles)
                       for d, _, _ in classes_of)
    for saddles in range(5):
        for k_sum in range(5):
            multisets = enumeration._degree_multisets(saddles, k_sum)
            assert sum(streamed[ks] for ks in multisets) == \
                diagram_class_count(EnumBounds(max_saddles=saddles,
                                               max_k_sum=k_sum, mode=mode))
    assert sum(streamed.values()) == classes


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
@pytest.mark.parametrize("bounds", [
    SMALL_BOUNDS[-1],
    EnumBounds(max_saddles=3, max_k_sum=3, max_centers=1, max_n=1, max_b=1,
               max_annuli=3),
], ids=["two-saddle", "three-saddle"])
def test_closures_match_oracle(bounds, mode):
    """Closure growth keeps, each once, exactly the orbit-least closures
    that fit the bounds and join the components, on every diagram class,
    multi-polycycle ones included."""
    bounds = replace(bounds, mode=mode)
    joined = 0
    for d, image, group in enumeration._diagram_classes(bounds):
        if not d.saddles:
            continue
        comps, faces = d.components, d.faces_by_component
        points = [(comp_id, idx) for comp_id, _, _ in comps
                  for idx in range(len(faces.get(comp_id, [])))]
        moves = enumeration._symmetries(d, image, group)
        grown = enumeration._closures(comps, points, moves, bounds)
        assert len(grown) == len(set(grown))
        assert set(grown) == directed_closures_oracle(comps, points, moves,
                                                      bounds)
        joined += len(comps) > 1 and bool(grown)
    assert joined


def test_diagram_classes_stream_unlabeled(monkeypatch):
    """``enumerate_pairs`` labels no diagram, and diagram classes stream:
    the first three are found without building any diagram after them."""
    def refuse(*args):
        raise AssertionError("canonical_diagram called")

    monkeypatch.setattr(enumeration, "canonical_diagram", refuse)
    for bounds in SMALL_BOUNDS:
        for mode in (ORIENTED, REVERSIBLE):
            assert list(enumerate_pairs(replace(bounds, mode=mode)))

    built, diagram = [], enumeration._diagram

    def counting(ks, image):
        built.append(image)
        return diagram(ks, image)

    monkeypatch.setattr(enumeration, "_diagram", counting)
    classes = enumeration._diagram_classes(EnumBounds(max_saddles=3,
                                                      max_k_sum=3))
    assert len(list(islice(classes, 3))) == 3
    assert len(built) <= 3


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
@pytest.mark.parametrize("bounds", SMALL_BOUNDS, ids=["small", "two-saddle"])
def test_offers_one_candidate_per_class(monkeypatch, bounds, mode):
    """No duplicate closure is ever built: each candidate offered is
    checked once and its canonical key is new (the pinned three-saddle
    tables check the same at their bounds)."""
    offered = _watch_offers(monkeypatch)
    emitted = list(enumerate_pairs(replace(bounds, mode=mode)))
    assert emitted and len(offered) == len(emitted)


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
@pytest.mark.parametrize("bounds", SMALL_BOUNDS, ids=["small", "two-saddle"])
def test_handed_assembly_matches_fresh_pair(monkeypatch, bounds, mode):
    """A diagram-based pair is handed its assembly as it is built, yet
    every emitted pair is still validated in full: its ``violations`` body
    ran, and the same pair built afresh is valid and has that assembly.
    Validation resolves attachments through a map of its own, so no
    emitted pair keeps ``vertex_by_id``."""
    validated = _counting(monkeypatch, "violations")
    assembled = _counting(monkeypatch, "assembly")
    emitted = list(enumerate_pairs(replace(bounds, mode=mode)))
    assert any(p.diagram.saddles for p in emitted)
    checked = {id(q) for q in validated}
    computed = {id(q) for q in assembled}
    for p in emitted:
        assert id(p) in checked and p.violations == ()
        assert "vertex_by_id" not in p.__dict__
        if p.diagram.saddles:
            assert id(p) not in computed and "assembly" in p.__dict__
        fresh = _rebuilt(p)
        assert fresh.violations == ()
        assert fresh.assembly == p.assembly


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
@pytest.mark.parametrize("bounds", SMALL_BOUNDS, ids=["small", "two-saddle"])
def test_shared_blocks_give_fresh_bytes(bounds, mode):
    """The closures of one diagram share one table of compiled blocks,
    reversed blocks included: the same pair on a diagram object of its
    own labels to the same bytes in each orientation, and the reversal
    labeled in place gives the bytes of the reversed pair.  The reversal
    is labeled exactly when the orientation byte does not read ``<``, and
    in REVERSIBLE mode the pair itself unless it reads ``>``."""
    blobs = ("oriented_blob", "reversed_blob")
    for p in enumerate_pairs(replace(bounds, mode=mode)):
        fresh = _rebuilt(p)
        canonical_form(fresh, mode)
        kept = {k: p.__dict__[k] for k in blobs if k in p.__dict__}
        assert kept == {k: fresh.__dict__[k] for k in blobs
                        if k in fresh.__dict__}
        oriented = canonical_form(_rebuilt(p)).blob
        assert kept.get("oriented_blob", oriented) == oriented
        if mode.allow_reversal:
            reversed_blob = canonical_form(reverse_pair(fresh)).blob
            byte = oriented[1:2]
            assert ("oriented_blob" in kept) == (byte != b">")
            assert ("reversed_blob" in kept) == (byte != b"<")
            assert kept.get("reversed_blob", reversed_blob) == reversed_blob
            assert canonical_form(p, mode).blob == min(oriented,
                                                       reversed_blob)


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
def test_emitted_diagrams_keep_no_blocks(mode):
    """No block table or reversed diagram is left on an emitted diagram."""
    for p in enumerate_pairs(replace(SMALL_BOUNDS[-1], mode=mode)):
        assert set(p.diagram.__dict__) <= own_state(SaddleDiagram)


def test_reversal_is_labeled_in_place(monkeypatch):
    """REVERSIBLE labeling never builds the reversed pair: it labels the
    reversed diagram's blocks with every annulus's sides swapped."""
    def refuse(p):
        raise AssertionError("reverse_pair called")

    monkeypatch.setattr(isomorphism, "reverse_pair", refuse)
    for name, (_, reversible) in GOLDEN_DIGESTS.items():
        assert canonical_form(_fixture_model(name),
                              REVERSIBLE).digest() == reversible
    for bounds in SMALL_BOUNDS:
        assert list(enumerate_pairs(replace(bounds, mode=REVERSIBLE)))


# SHA-256 of the lines ``flowinv enumerate`` prints at SMALL_BOUNDS,
# ``digest document``, newline-joined: the digests and the representative
# documents of every class, in order.
PRINTED_SHA256 = {
    ("small", "oriented"):
        "01f170ab9e39e6c7faeef29ee40bb8056b3aecc6eaff76bb3061284a01c2bdc2",
    ("small", "reversible"):
        "96756b95816145984b616f0cab58f4c99abf4d2fc699905a4e3508588a367437",
    ("two-saddle", "oriented"):
        "1b6ce81f6673a8965e40ed289f01032421e46662ef328795218e50b24aa4daae",
    ("two-saddle", "reversible"):
        "3f4a681eb59d27e3321cd2db461e8646f05febe40ca63a844367c17d52549001",
}


@pytest.mark.parametrize("mode", [ORIENTED, REVERSIBLE],
                         ids=["oriented", "reversible"])
@pytest.mark.parametrize(
    "bounds, name, seed",
    [(bounds, name, seed) for seed in (None, 3)
     for bounds, name in zip(SMALL_BOUNDS, ["small", "two-saddle"])],
    ids=["small", "two-saddle", "small-shuffled", "two-saddle-shuffled"])
def test_printed_enumeration_pinned(bounds, name, seed, mode):
    """The same lines with or without ``rng``, which is ignored: each class
    is represented by the least candidate of its orbit."""
    rng = None if seed is None else random.Random(seed)
    lines = [f"{canonical_form(p, mode).digest()} "
             f"{serialize_model(p, compact=True)}"
             for p in enumerate_pairs(replace(bounds, mode=mode), rng)]
    key = name, "reversible" if mode.allow_reversal else "oriented"
    assert sha256("\n".join(lines).encode()).hexdigest() == PRINTED_SHA256[key]
