import random
from collections import Counter

import pytest

from flowinv.multigraph import Multigraph, multigraph_isomorphic

from conftest import within_budget
from oracles import (
    all_labeled_posets,
    cycle_graph,
    multigraph_by_levels,
    multigraph_poset,
    path_graph,
    poset_from_pairs,
    poset_from_upmasks,
    random_graph,
)


def star(leaves: int) -> Multigraph:
    return Multigraph.build(
        ["h"] + [f"l{i}" for i in range(leaves)],
        {f"e{i}": {"h", f"l{i}"} for i in range(leaves)},
    )


class TestBasics:
    def test_connectivity(self):
        assert star(3).is_connected()
        g = Multigraph.build("abcd", {"e": {"a", "b"}, "f": {"c", "d"}})
        assert not g.is_connected()

    def test_empty_graph_not_connected(self):
        assert not Multigraph.build([], {}).is_connected()

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Multigraph.build("ab", {"e": {"a", "b", "c"}})


class TestPosetCorrespondence:
    def test_round_trip_through_poset(self):
        g = star(3)
        back = Multigraph.from_poset(multigraph_poset(g))
        assert multigraph_isomorphic(g, back) is not None

    def test_poset_is_multigraph_like(self):
        back = Multigraph.from_poset(multigraph_poset(star(4)))
        assert len(back.vertices) == 5 and len(back.edges) == 4

    def test_loops_survive(self):
        g = Multigraph.build("v", {"e": {"v"}})
        back = Multigraph.from_poset(multigraph_poset(g))
        assert [ends for _, ends in back.edges] == [back.vertices]

    @pytest.mark.parametrize("poset, witness", [
        (poset_from_pairs(range(3), [(0, 1), (1, 2)]), 2),
        (poset_from_pairs("e123", [("1", "e"), ("2", "e"), ("3", "e")]),
         "e"),
    ], ids=["3-chain", "three-below"])
    def test_rejects_with_witness(self, poset, witness):
        with pytest.raises(ValueError) as err:
            Multigraph.from_poset(poset)
        assert str(err.value) == f"poset is not multi-graph-like at {witness!r}"

    def test_matches_level_oracle_on_small_posets(self):
        """Every labeled poset on at most 5 elements (4 474 of them): the
        read-back equals the one by levels, or fails with the same
        message, whose witness the likeness check defines by chain
        heights and downset sizes."""
        count = 0
        for n in range(6):
            for up in all_labeled_posets(n):
                p = poset_from_upmasks(up)
                try:
                    want = multigraph_by_levels(p)
                except ValueError as exc:
                    want = str(exc)
                try:
                    got = Multigraph.from_poset(p)
                except ValueError as exc:
                    got = str(exc)
                assert got == want
                count += 1
        assert count == 4474


class TestIsomorphism:
    def test_relabeling_found(self):
        g1 = star(3)
        g2 = Multigraph.build(
            "wxyz", {"a": {"w", "x"}, "b": {"w", "y"}, "c": {"w", "z"}}
        )
        mapping = multigraph_isomorphic(g1, g2)
        assert mapping is not None and mapping["h"] == "w"

    def test_multiplicity_matters(self):
        g1 = Multigraph.build("ab", {"e1": {"a", "b"}, "e2": {"a", "b"}})
        g2 = Multigraph.build("ab", {"e1": {"a", "b"}, "e2": {"a"}})
        assert multigraph_isomorphic(g1, g2) is None

    def test_loop_vs_parallel(self):
        g1 = Multigraph.build("ab", {"e1": {"a", "b"}, "e2": {"a"}})
        g2 = Multigraph.build("ab", {"e1": {"a", "b"}, "e2": {"b"}})
        assert multigraph_isomorphic(g1, g2) is not None

    def test_size_mismatch(self):
        assert multigraph_isomorphic(star(3), star(4)) is None


def _relabeled(g: Multigraph, seed: int) -> Multigraph:
    rng = random.Random(seed)
    images = [f"y{i}" for i in range(len(g.vertices))]
    rng.shuffle(images)
    image = dict(zip(sorted(g.vertices), images))
    return Multigraph.build(images, {f"f{eid}": [image[v] for v in ends]
                                     for eid, ends in g.edges})


def _is_isomorphism(g1: Multigraph, g2: Multigraph, mapping: dict) -> bool:
    edges = Counter(frozenset(mapping[v] for v in ends)
                    for _, ends in g1.edges)
    return (set(mapping.values()) == g2.vertices
            and edges == Counter(ends for _, ends in g2.edges))


class TestIsomorphismScale:
    """The map grows in breadth-first order and checks edges as it goes,
    so relabeled graphs no longer cost a factorial."""

    @pytest.mark.parametrize("build", [cycle_graph, random_graph])
    def test_relabeled_graph_of_40(self, build):
        g = build(40)
        h = _relabeled(g, 40)
        mapping = within_budget(multigraph_isomorphic, g, h)
        assert mapping is not None and _is_isomorphism(g, h, mapping)

    def test_relabeled_path_of_3000(self):
        """Vertex signatures come from one pass over the edges, not one
        scan of the edges per vertex (about 20 ms against 2.3 s on 2 vCPUs)."""
        g = path_graph(3000)
        h = _relabeled(g, 3000)
        mapping = within_budget(multigraph_isomorphic, g, h, seconds=0.5)
        assert mapping is not None and _is_isomorphism(g, h, mapping)

    def test_same_degrees_near_miss(self):
        triangles = Multigraph.build("abcdef", {
            "e1": "ab", "e2": "bc", "e3": "ca", "e4": "de", "e5": "ef",
            "e6": "fd"})
        hexagon = cycle_graph(6)
        assert within_budget(multigraph_isomorphic, triangles, hexagon) is None
        assert within_budget(multigraph_isomorphic, hexagon, triangles) is None
