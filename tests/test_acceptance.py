"""Acceptance suite: one test per criterion, one PASS line each (run -s).

The heavyweight criteria share one enumerated model set.  Where a
criterion quantifies over all unordered model pairs, models are grouped
by the same invariant-profile gate that the isomorphism search applies
first, so cross-group pairs are exactly the ones the search rejects at
the gate; the gate itself is audited end to end on a random sample of
cross-group pairs.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from itertools import combinations

import pytest

from flowinv.diagram import diagram_multigraph
from flowinv.enumeration import EnumBounds, count_classes, enumerate_pairs
from flowinv.graph import (
    classify_separation,
    to_extended_poset,
    underlying_multigraph,
    validate_pair,
)
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    canonical_form,
    pair_isomorphic,
    reverse_pair,
)
from flowinv.model_io import parse_model
from flowinv.multigraph import Multigraph, multigraph_isomorphic
from flowinv.reconstruction import (
    build_cell_model,
    cellmodel_euler,
    chi_cells,
    extract_pair,
    realize_multigraph,
    reconstruct,
)
from flowinv.topology import alexandroff_space, specialization_order

from conftest import fixture_text, sphere_rotation, three_centers_eight, torus_pair
from oracles import (
    all_connected_multigraphs,
    all_labeled_posets,
    brute_force_pairs,
    poset_from_upmasks,
    random_relabel,
)

BOUNDS = EnumBounds(max_saddles=2, max_k_sum=2, max_centers=4, max_n=2,
                    max_b=2, max_annuli=4, max_tori=1)


def report(number: int, name: str, started: float, detail: str = ""):
    suffix = f", {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: PASS"
          f" ({time.time() - started:.1f}s{suffix})")


@pytest.fixture(scope="module")
def models():
    return list(enumerate_pairs(BOUNDS))


def test_criterion_1_reconstruction_round_trip(models):
    started = time.time()
    assert models, "enumeration produced nothing"
    for pair in models:
        cell_model, _ = reconstruct(pair)
        back = extract_pair(cell_model)
        assert canonical_form(back, ORIENTED).blob == \
            canonical_form(pair, ORIENTED).blob
    report(1, "reconstruction round trip", started,
           f"{len(models)} models, 100%")


def _profile_groups(models, mode):
    """Indices grouped so cross-group pairs fail the search's profile gate."""
    if not mode.allow_reversal:
        groups = defaultdict(list)
        for i, p in enumerate(models):
            groups[p.profile].append(i)
        return list(groups.values())
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    membership = []
    for p in models:
        a, b = p.profile, reverse_pair(p).profile
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        membership.append(a)
    groups = defaultdict(list)
    for i, prof in enumerate(membership):
        groups[find(prof)].append(i)
    return list(groups.values())


def test_criterion_2_canonical_form_matches_backtracking(models):
    started = time.time()
    rng = random.Random(20260809)
    checked = 0
    for mode in (ORIENTED, REVERSIBLE):
        canon = [canonical_form(p, mode).blob for p in models]
        groups = _profile_groups(models, mode)
        index_of_group = {}
        for gi, group in enumerate(groups):
            for i in group:
                index_of_group[i] = gi
        for group in groups:
            for i, j in combinations(group, 2):
                agree = (canon[i] == canon[j]) == (
                    pair_isomorphic(models[i], models[j], mode) is not None
                )
                assert agree, f"disagreement on models {i}, {j}"
                checked += 1
        # cross-group pairs fail the profile gate inside the search;
        # audit the gate end to end on a sample
        for _ in range(5000):
            i, j = rng.randrange(len(models)), rng.randrange(len(models))
            if i == j or index_of_group[i] == index_of_group[j]:
                continue
            assert canon[i] != canon[j]
            assert pair_isomorphic(models[i], models[j], mode) is None
            checked += 1
        # positive direction: relabelings are found and canon-equal
        for i in rng.sample(range(len(models)), 50):
            q = random_relabel(models[i], rng)
            assert pair_isomorphic(models[i], q, mode) is not None
            assert canonical_form(q, mode).blob == canon[i]
            checked += 1
    report(2, "canonical form == backtracking oracle", started,
           f"{checked} checked pairs, zero disagreements")


def test_criterion_3_euler_characteristic_identity(models):
    started = time.time()
    for pair in models:
        centers = sum(1 for v in pair.vertices if v.label == "c")
        k_sum = sum(s.k for s in pair.diagram.saddles)
        chis = chi_cells(pair)
        assert sum(chis) == centers - k_sum
        assert cellmodel_euler(build_cell_model(pair)) == chis
    report(3, "Euler characteristic identity", started,
           f"{len(models)} models, each also counted from its cells")


def test_criterion_4_realization_round_trip():
    started = time.time()
    total = 0
    for g in all_connected_multigraphs(6):
        pair = realize_multigraph(g)
        assert validate_pair(pair) == []
        back = Multigraph.from_poset(to_extended_poset(pair))
        assert multigraph_isomorphic(back, g) is not None
        total += 1
    assert total == 44  # connected labeled multigraphs with |V|+|E| <= 6
    report(4, "realization round trip", started, f"{total} graphs, 100%")


def test_criterion_5_disk_flow_regression():
    started = time.time()
    left = parse_model(fixture_text("disk_eight_opposed.json"))
    right = parse_model(fixture_text("disk_eight_aligned.json"))
    for mode in (ORIENTED, REVERSIBLE):
        assert pair_isomorphic(left, right, mode) is None
        assert canonical_form(left, mode).blob != \
            canonical_form(right, mode).blob
    assert multigraph_isomorphic(
        diagram_multigraph(left.diagram), diagram_multigraph(right.diagram)
    ) is not None
    assert multigraph_isomorphic(
        underlying_multigraph(left), underlying_multigraph(right)
    ) is not None
    report(5, "disk flows: same bare graphs, different labeled pairs", started)


def test_criterion_6_collar_variant_regression():
    started = time.time()
    vx = parse_model(fixture_text("three_centers_mobius.json"))
    vy = parse_model(fixture_text("three_centers_boundary.json"))
    px = Multigraph.from_poset(to_extended_poset(vx))
    py = Multigraph.from_poset(to_extended_poset(vy))
    assert multigraph_isomorphic(px, py) is not None
    for mode in (ORIENTED, REVERSIBLE):
        assert pair_isomorphic(vx, vy, mode) is None
    report(6, "collar variants: same orbit space, inequivalent flows", started)


def test_criterion_7_separation_table():
    started = time.time()
    r = classify_separation(sphere_rotation())
    assert r.sv_t0 and r.sv_t1 and r.sv_t2 and r.svex_t1 and r.svex_t2
    r = classify_separation(three_centers_eight())
    assert r.sv_t0 and not r.sv_t1 and not r.sv_t2
    assert r.svex_t1 and r.svex_t2
    r = classify_separation(torus_pair())
    assert r.sv_t1 and r.sv_t2
    report(7, "separation table witnesses", started)


# bounds whose models all have at most six cells, with their class tables
# frozen from the first oracle-verified run
SMALL_CONFIGS = [
    (
        EnumBounds(max_saddles=1, max_k_sum=1, max_centers=2, max_n=1,
                   max_b=1, max_annuli=2, max_tori=1),
        74,
        {(False, 1, 0, 0): 2, (False, 1, 0, 1): 8, (False, 1, 1, 0): 2,
         (False, 1, 1, 1): 8, (False, 3, 0, 1): 12, (True, 0, 0, 0): 1,
         (True, 0, 0, 1): 4, (True, 0, 1, 0): 2, (True, 0, 1, 1): 8,
         (True, 1, 0, 0): 1, (True, 1, 0, 1): 14, (True, 1, 1, 1): 12},
    ),
    (
        EnumBounds(max_saddles=2, max_k_sum=2, max_centers=2, max_annuli=2),
        188,
        {(True, 0, 0, 0): 1, (True, 0, 0, 1): 4, (True, 0, 0, 2): 4,
         (True, 1, 0, 1): 18, (True, 1, 0, 2): 39, (True, 2, 0, 1): 22,
         (True, 2, 0, 2): 100},
    ),
    (
        EnumBounds(max_saddles=1, max_k_sum=1, max_centers=2, max_n=1,
                   max_b=1, max_annuli=2, max_tori=1, mode=REVERSIBLE),
        38,
        {(False, 1, 0, 0): 1, (False, 1, 0, 1): 4, (False, 1, 1, 0): 1,
         (False, 1, 1, 1): 4, (False, 3, 0, 1): 6, (True, 0, 0, 0): 1,
         (True, 0, 0, 1): 2, (True, 0, 1, 0): 1, (True, 0, 1, 1): 4,
         (True, 1, 0, 0): 1, (True, 1, 0, 1): 7, (True, 1, 1, 1): 6},
    ),
]


def test_criterion_8_enumeration_determinism_and_completeness():
    started = time.time()
    for bounds, expected_classes, expected_counts in SMALL_CONFIGS:
        fast = list(enumerate_pairs(bounds))
        assert max(
            len(p.vertices) + len(p.annuli) + p.tori for p in fast
        ) <= 6
        assert len(fast) == expected_classes

        table = count_classes(bounds)
        assert table.counts() == expected_counts
        assert table == count_classes(bounds, random.Random(17))
        assert table == count_classes(bounds, random.Random(23))

        brute = brute_force_pairs(bounds)
        fast_set = sorted(canonical_form(p, bounds.mode).blob for p in fast)
        brute_set = sorted(canonical_form(p, bounds.mode).blob for p in brute)
        assert fast_set == brute_set
    report(8, "enumeration determinism and completeness", started,
           f"{len(SMALL_CONFIGS)} bound sets vs brute force")


def test_criterion_9_alexandroff_round_trip():
    started = time.time()
    total = 0
    for n in range(7):
        for up in all_labeled_posets(n):
            poset = poset_from_upmasks(up)
            assert specialization_order(alexandroff_space(poset)) == poset
            total += 1
    assert total == 1 + 1 + 3 + 19 + 219 + 4231 + 130023
    report(9, "Alexandroff round trip", started, f"{total} posets")
