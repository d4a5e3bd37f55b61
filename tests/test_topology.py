from itertools import combinations

import pytest

from flowinv import topology
from flowinv.graph import to_extended_poset
from flowinv.multigraph import Multigraph, multigraph_isomorphic
from flowinv.reconstruction import realize_multigraph
from flowinv.topology import (
    FinPoset,
    FinSpace,
    NotT0Error,
    PosetError,
    TopologyError,
    alexandroff_space,
    separation_axioms,
    specialization_order,
)
from conftest import within_budget
from oracles import (
    all_families,
    all_labeled_posets,
    broken_topology_rules,
    path_graph,
    poset_from_pairs,
    poset_from_upmasks,
    space_from_opens,
    star_graph,
    union_closure_opens,
    upsets_oracle,
)


def sierpinski() -> FinSpace:
    return space_from_opens(
        frozenset("ab"),
        frozenset({frozenset(), frozenset("b"), frozenset("ab")}),
    )


def discrete(points: str) -> FinSpace:
    pts = frozenset(points)
    opens = set()
    for size in range(len(points) + 1):
        for combo in combinations(sorted(pts), size):
            opens.add(frozenset(combo))
    return space_from_opens(pts, frozenset(opens))


def indiscrete(points: str) -> FinSpace:
    pts = frozenset(points)
    return space_from_opens(pts, frozenset({frozenset(), pts}))


def chain(n: int) -> FinPoset:
    return poset_from_pairs(range(n), [(i, i + 1) for i in range(n - 1)])


def edge_poset() -> FinPoset:
    return poset_from_pairs(["v1", "v2", "e"], [("v1", "e"), ("v2", "e")])


class TestFinPoset:
    def test_rejects_missing_reflexivity(self):
        with pytest.raises(PosetError, match="reflexive"):
            FinPoset(frozenset("ab"), {"a": {"a"}, "b": set()})

    def test_rejects_cycle(self):
        with pytest.raises(PosetError, match="antisymmetric"):
            poset_from_pairs("ab", [("a", "b"), ("b", "a")])

    def test_rejects_missing_transitivity(self):
        upsets = {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}}
        with pytest.raises(PosetError, match="transitive"):
            FinPoset(frozenset("abc"), upsets)

    def test_from_pairs_closes_transitively(self):
        p = chain(3)
        assert p.leq(0, 2)

    def test_from_pairs_matches_upmask_oracle(self):
        """Every labeled poset on at most 5 points is the closure of its
        cover pairs."""
        for n in range(6):
            for up in all_labeled_posets(n):
                above = [{j for j in range(n) if up[i] >> j & 1} - {i}
                         for i in range(n)]
                covers = [(i, j) for i in range(n) for j in above[i]
                          if not any(j in above[k] for k in above[i])]
                assert poset_from_pairs(range(n), covers) \
                    == poset_from_upmasks(up)


class TestMultigraphLike:
    def test_two_chain_fails_with_witness(self):
        with pytest.raises(ValueError, match="multi-graph-like at 2$"):
            Multigraph.from_poset(chain(3))

    def test_edge_poset_is_multigraph_like(self):
        g = Multigraph.from_poset(edge_poset())
        assert g == Multigraph.build(["v1", "v2"], {"e": ["v1", "v2"]})

    def test_fat_downset_fails(self):
        p = poset_from_pairs(
            "e123", [("1", "e"), ("2", "e"), ("3", "e")]
        )
        with pytest.raises(ValueError, match="multi-graph-like at 'e'$"):
            Multigraph.from_poset(p)


class TestSpaces:
    def test_topology_must_contain_empty_and_whole(self):
        with pytest.raises(TopologyError):
            space_from_opens(frozenset("a"), frozenset({frozenset("a")}))

    def test_topology_union_closure_enforced(self):
        pts = frozenset("abc")
        opens = {frozenset(), pts, frozenset("a"), frozenset("b")}
        with pytest.raises(TopologyError, match="union"):
            space_from_opens(pts, frozenset(opens))

    def test_topology_intersection_closure_enforced(self):
        pts = frozenset("abc")
        opens = {frozenset(), pts, frozenset("ab"), frozenset("bc")}
        with pytest.raises(TopologyError, match="intersection"):
            space_from_opens(pts, frozenset(opens))

    def test_closure_check_agrees_with_pairwise_oracle(self):
        checked = 0
        for n in range(4):
            pts = frozenset(range(n))
            for opens in all_families(pts):
                broken = broken_topology_rules(pts, opens)
                if not broken:
                    space = space_from_opens(pts, opens)
                    assert space.minimal_opens == {
                        x: frozenset.intersection(*(u for u in opens if x in u))
                        for x in pts}
                    continue
                with pytest.raises(TopologyError) as exc:
                    space_from_opens(pts, opens)
                if len(broken) == 1:  # the message names the broken rule
                    rule = next(iter(broken))
                    assert rule in str(exc.value)
                checked += 1
        assert checked == 278 - 35  # 1 + 1 + 4 + 29 topologies on 0-3 points

    @pytest.mark.parametrize("points, minimal_opens, rule", [
        ("ab", {"a": "a"}, "'b' has no minimal open"),
        ("ab", {"a": "a", "b": "a"}, "'b' is not in its minimal open"),
        ("ab", {"a": "ac", "b": "b"}, "of 'a' is not a subset of the points"),
        ("abc", {"a": "ab", "b": "bc", "c": "c"},
         "of 'a' contains 'b' but not its minimal open"),
    ], ids=["missing", "outside-own", "leaves-points", "not-upward"])
    def test_minimal_opens_must_form_a_basis(self, points, minimal_opens, rule):
        u = {x: frozenset(ux) for x, ux in minimal_opens.items()}
        with pytest.raises(TopologyError, match=rule):
            FinSpace(frozenset(points), u)

    def test_sierpinski_specialization(self):
        p = specialization_order(sierpinski())
        assert p.leq("a", "b") and not p.leq("b", "a")

    def test_discrete_two_points_antichain(self):
        p = specialization_order(discrete("ab"))
        assert not p.leq("a", "b") and not p.leq("b", "a")

    def test_indiscrete_not_t0(self):
        with pytest.raises(NotT0Error):
            specialization_order(indiscrete("ab"))

    def test_separation_sierpinski(self):
        assert separation_axioms(sierpinski()) == (True, False, False)

    def test_separation_discrete(self):
        assert separation_axioms(discrete("abc")) == (True, True, True)

    def test_separation_indiscrete(self):
        assert separation_axioms(indiscrete("ab")) == (False, False, False)

    def test_separation_monotone_on_all_small_spaces(self):
        for up in all_labeled_posets(4):
            space = alexandroff_space(poset_from_upmasks(up))
            t0, t1, t2 = separation_axioms(space)
            assert (not t2 or t1) and (not t1 or t0)

    def test_t1_means_discrete_on_finite_spaces(self):
        for up in all_labeled_posets(4):
            space = alexandroff_space(poset_from_upmasks(up))
            t0, t1, t2 = separation_axioms(space)
            discrete_now = len(space.opens) == 2 ** len(space.points)
            assert t1 == t2 == discrete_now


class TestAlexandroff:
    def test_chain_opens(self):
        space = alexandroff_space(poset_from_pairs("ab", [("a", "b")]))
        assert space.opens == frozenset(
            {frozenset(), frozenset("b"), frozenset("ab")}
        )

    def test_antichain_discrete(self):
        space = alexandroff_space(poset_from_pairs("ab", []))
        assert len(space.opens) == 4

    def test_edge_poset_open_count_matches_upset_oracle(self):
        p = edge_poset()
        space = alexandroff_space(p)
        oracle = upsets_oracle(p)
        assert space.opens == frozenset(oracle)
        assert len(space.opens) == 5

    def test_downsets_closed(self):
        """Every down-set is closed: its complement is open."""
        p = edge_poset()
        space = alexandroff_space(p)
        for x in p.elements:
            down = frozenset(y for y in p.elements if p.leq(y, x))
            assert p.elements - down in space.opens

    def test_round_trip_small(self):
        for up in all_labeled_posets(4):
            p = poset_from_upmasks(up)
            assert specialization_order(alexandroff_space(p)) == p

    def test_opens_and_closures_match_upset_oracle(self):
        """Every labeled poset on at most 5 points: the opens are the
        upsets, the opens give back the space, and the closure of A, the
        points outside every open that misses A, is the down-set of A."""
        for n in range(6):
            subsets = [frozenset(c) for size in range(n + 1)
                       for c in combinations(range(n), size)]
            for up in all_labeled_posets(n):
                p = poset_from_upmasks(up)
                space = alexandroff_space(p)
                upsets = frozenset(upsets_oracle(p))
                assert space.opens == upsets
                assert space_from_opens(p.elements, upsets) == space
                for a in subsets:
                    hole = frozenset().union(*(o for o in upsets if not o & a))
                    assert p.elements - hole == {
                        x for x in p.elements if any(p.leq(x, y) for y in a)}

    def test_minimal_opens_match_union_closure_oracle(self):
        """Every labeled poset on at most 6 points: U_x is the
        intersection of the union-closure oracle's opens containing x."""
        for n in range(7):
            full = (1 << n) - 1
            for up in all_labeled_posets(n):
                meet = [full] * n
                for mask in union_closure_opens(up):
                    for i in range(n):
                        if mask >> i & 1:
                            meet[i] &= mask
                u = alexandroff_space(poset_from_upmasks(up)).minimal_opens
                assert {i: sum(1 << j for j in ux) for i, ux in u.items()} \
                    == dict(enumerate(meet))

    @pytest.mark.parametrize("family, m", [
        (star_graph, 40), (path_graph, 4000), (star_graph, 4000)],
        ids=["star-40", "path-4000", "star-4000"])
    def test_realized_star_costs_its_order_not_its_opens(self, family, m):
        """The extended poset of a realized star-40 has an antichain of 40
        edge points, so about 2^40 opens; its space is built from U_x.  A
        realized path-4000 is long rather than wide: reading its graph and
        space back costs the size of its order.  A realized star-4000 is
        both, and matching its graph back offers each leaf the hub's row
        only as far as the first unused image."""
        graph = family(m)
        pair = realize_multigraph(graph)

        def read_back():
            p = to_extended_poset(pair)
            back = Multigraph.from_poset(p)
            assert multigraph_isomorphic(back, graph) is not None
            return p, alexandroff_space(p)

        p, space = within_budget(read_back, seconds=1)
        assert specialization_order(space) == p
        assert separation_axioms(space) == (True, False, False)

    def test_long_chain_costs_its_opens_not_every_subset(self):
        p = chain(40)
        space = within_budget(alexandroff_space, p)
        assert len(space.opens) == 41
        assert specialization_order(space) == p


class TestCheckedOnce:
    def _counting(self, monkeypatch, name: str) -> list:
        """From now on, one entry per call of ``topology.<name>``."""
        calls, body = [], getattr(topology, name)

        def counting(*args):
            calls.append(args)
            return body(*args)

        monkeypatch.setattr(topology, name, counting)
        return calls

    def test_realize_read_back_checks_each_set_once(self, monkeypatch):
        """One read-back of a realized model: ``to_extended_poset`` writes
        its up-sets from their definition and checks none; the space takes
        the poset's sets, and the order read off the space scans for twins
        once, as the separation axioms do.  Nothing runs the up-closure
        check."""
        pair = realize_multigraph(star_graph(4))
        pair.violations
        closed = self._counting(monkeypatch, "_check_up_closed")
        twins = self._counting(monkeypatch, "_indistinguishable_pair")
        p = to_extended_poset(pair)
        Multigraph.from_poset(p)
        space = alexandroff_space(p)
        assert specialization_order(space) == p
        assert separation_axioms(space) == (True, False, False)
        assert (len(closed), len(twins)) == (0, 2)

    def test_sides_share_no_dict(self):
        """Changing the up-sets of a poset after taking its space, or the
        minimal opens of a space after reading its order, leaves the
        other side as it was."""
        p = edge_poset()
        space = alexandroff_space(p)
        order = specialization_order(space)
        before = dict(p.upsets)
        p.upsets.clear()
        assert space.minimal_opens == before and order.upsets == before
        space.minimal_opens.clear()
        assert order.upsets == before

    def test_long_chain_reads_back_in_its_order_size(self):
        """``poset_from_pairs`` of a chain-1 500 closes about 10^6 pairs;
        with each set checked once the read-back costs that, not the cube."""
        n = 1500

        def read_back():
            p = poset_from_pairs(range(n), [(i, i + 1) for i in range(n - 1)])
            return p, specialization_order(alexandroff_space(p))

        p, order = within_budget(read_back, seconds=1)
        assert order == p and p.upsets[0] == frozenset(range(n))
