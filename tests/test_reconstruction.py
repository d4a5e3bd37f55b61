import random

import pytest

from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, VertexNode
from flowinv.diagram import SaddleDiagram
from flowinv.isomorphism import ORIENTED, canonical_form
from flowinv.multigraph import Multigraph, multigraph_isomorphic
from flowinv.reconstruction import (
    Cell,
    CellModel,
    ComponentSignature,
    NotRealizableError,
    ReconstructionError,
    build_cell_model,
    cellmodel_euler,
    chi_cells,
    extract_pair,
    realize_multigraph,
    reconstruct,
)
from flowinv.graph import underlying_multigraph

from conftest import (
    disk_flow,
    eight_torus_pair,
    leaf_pair,
    sphere_rotation,
    three_centers_eight,
    torus_pair,
)


class TestChi:
    def test_sphere(self):
        assert chi_cells(sphere_rotation()) == [2]

    def test_three_centers_eight(self):
        assert chi_cells(three_centers_eight()) == [2]

    def test_eight_torus(self):
        assert chi_cells(eight_torus_pair()) == [0]

    def test_torus_component(self):
        assert chi_cells(torus_pair()) == [0]

    def test_counting_identity(self):
        for build in (sphere_rotation, three_centers_eight, eight_torus_pair):
            p = build()
            k_sum = sum(s.k for s in p.diagram.saddles)
            centers = sum(1 for v in p.vertices if v.label == "c")
            assert sum(chi_cells(p)) == centers - k_sum


class TestReconstruct:
    def test_sphere(self):
        _, sig = reconstruct(sphere_rotation())
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (True, 0, 0, 2)

    def test_projective_plane(self):
        _, sig = reconstruct(leaf_pair("n", "c"))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (False, 1, 0, 1)

    def test_klein_bottle(self):
        _, sig = reconstruct(leaf_pair("n", "n"))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.euler) == (False, 2, 0)

    def test_mobius_band(self):
        _, sig = reconstruct(leaf_pair("n", "b"))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (False, 1, 1, 0)

    def test_disk(self):
        _, sig = reconstruct(leaf_pair("c", "b"))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (True, 0, 1, 1)

    def test_closed_annulus(self):
        _, sig = reconstruct(leaf_pair("b", "b"))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (True, 0, 2, 0)

    def test_eight_torus(self):
        _, sig = reconstruct(eight_torus_pair())
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (True, 1, 0, 0)

    def test_disk_flow_signature(self):
        _, sig = reconstruct(disk_flow(aligned=False))
        c = sig.components[0]
        assert (c.orientable, c.genus, c.boundary, c.euler) == (True, 0, 1, 1)

    def test_summary_format(self):
        _, sig = reconstruct(sphere_rotation())
        assert sig.summary_lines() == [
            "component=0 orientable=true genus=0 boundary=0 chi=2"
        ]


class TestCellModel:
    def test_gluings_are_perfect_matching(self):
        cm = build_cell_model(three_centers_eight())
        glued = [c for pair in cm.gluings for c in pair]
        assert len(glued) == len(set(glued))
        all_circles = {c for cell in cm.cells for c in cell.circles}
        assert set(glued) | set(cm.boundary) == all_circles

    def test_boundary_only_from_b_vertices(self):
        cm = build_cell_model(disk_flow(aligned=False))
        assert len(cm.boundary) == 1
        assert all(c.startswith("collar:") for c in cm.boundary)

    def test_polycycle_circles_are_faces(self):
        cm = build_cell_model(eight_torus_pair())
        poly = [c for c in cm.cells if c.kind == "polycycle_nbhd"]
        assert len(poly) == 1 and len(poly[0].circles) == 3

    def test_independent_euler_count(self):
        """Möbius and boundary collars included, not only closed
        orientable models."""
        for build in (sphere_rotation, three_centers_eight, eight_torus_pair,
                      torus_pair, lambda: leaf_pair("n", "c"),
                      lambda: leaf_pair("n", "n"), lambda: leaf_pair("b", "c"),
                      lambda: three_centers_eight("n"),
                      lambda: three_centers_eight("b"),
                      lambda: disk_flow(aligned=True),
                      lambda: disk_flow(aligned=False)):
            p = build()
            cm = build_cell_model(p)
            assert cellmodel_euler(cm) == chi_cells(p)

    def test_unknown_cell_kind_raises(self):
        cm = build_cell_model(sphere_rotation())
        odd = CellModel(cm.cells + (Cell("odd:0", "odd", ()),), cm.gluings,
                        cm.boundary, cm.diagram)
        with pytest.raises(ReconstructionError, match="'odd'"):
            cellmodel_euler(odd)
        with pytest.raises(ReconstructionError, match="'odd'"):
            extract_pair(odd)

    def test_disconnected_euler_counts(self):
        p = InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("c1", "c"), VertexNode("c2", "c"),
             VertexNode("c3", "c"), VertexNode("c4", "c")),
            (AnnulusEdge("u0", Attachment("c1"), Attachment("c2")),
             AnnulusEdge("u1", Attachment("c3"), Attachment("c4"))),
            tori=1,
        )
        assert sorted(chi_cells(p)) == [0, 2, 2]
        assert sorted(cellmodel_euler(build_cell_model(p))) == [0, 2, 2]
        _, sig = reconstruct(p)
        assert sorted(c.genus for c in sig.components) == [0, 0, 1]

    def test_tori_come_last_one_each(self):
        """The assembly counts tori instead of listing them; the surface
        still has one torus component per torus, after the others."""
        sphere = sphere_rotation()
        p = InvariantPair(sphere.diagram, sphere.vertices, sphere.annuli,
                          tori=3)
        assert len(p.assembly) == 1
        assert chi_cells(p) == [2, 0, 0, 0]
        _, sig = reconstruct(p)
        assert sig.components == (
            (ComponentSignature(True, 0, 0, 2),)
            + (ComponentSignature(True, 1, 0, 0),) * 3)
        assert len(sig.summary_lines()) == 4

    def test_extract_round_trip(self):
        for build in (sphere_rotation, three_centers_eight, eight_torus_pair,
                      torus_pair, lambda: disk_flow(aligned=True)):
            p = build()
            cm, _ = reconstruct(p)
            back = extract_pair(cm)
            assert canonical_form(back, ORIENTED).blob == \
                canonical_form(p, ORIENTED).blob


class TestRealize:
    def test_path_gives_sphere_rotation(self):
        g = Multigraph.build("uv", {"e": {"u", "v"}})
        p = realize_multigraph(g)
        assert canonical_form(p).blob == canonical_form(sphere_rotation()).blob

    def test_single_loop(self):
        g = Multigraph.build("v", {"e": {"v"}})
        p = realize_multigraph(g)
        back = underlying_multigraph(p)
        assert multigraph_isomorphic(back, g) is not None
        _, sig = reconstruct(p)
        assert sig.components[0].genus == 1  # torus carrying a 0-saddle loop

    def test_star(self):
        g = Multigraph.build(
            "hxyz", {"1": {"h", "x"}, "2": {"h", "y"}, "3": {"h", "z"}}
        )
        p = realize_multigraph(g)
        assert len(p.diagram.saddles) == 1
        assert p.diagram.saddles[0].k == 1  # degree-3 hub: flower with 3 circles
        assert multigraph_isomorphic(underlying_multigraph(p), g) is not None

    def test_rejects_trivial(self):
        with pytest.raises(NotRealizableError):
            realize_multigraph(Multigraph.build("v", {}))

    def test_rejects_empty(self):
        with pytest.raises(NotRealizableError):
            realize_multigraph(Multigraph.build([], {}))

    def test_rejects_disconnected(self):
        g = Multigraph.build("abcd", {"e": {"a", "b"}, "f": {"c", "d"}})
        with pytest.raises(NotRealizableError):
            realize_multigraph(g)

    @pytest.mark.parametrize("vertices, edges, names", [
        ([1, "1", "x"], {"e": {1, "x"}, "f": {"1", "x"}}, "vertex names '1' and 1"),
        (["u", "w"], {2: {"u", "w"}, "2": {"u", "w"}}, "edge names '2' and 2"),
    ])
    def test_rejects_names_that_agree_as_text(self, vertices, edges, names):
        g = Multigraph.build(vertices, edges)
        with pytest.raises(NotRealizableError) as err:
            realize_multigraph(g)
        assert names in str(err.value)

    def test_random_graphs_round_trip(self):
        rng = random.Random(5)
        for _ in range(20):
            nv = rng.randint(1, 4)
            ne = rng.randint(1, 4)
            vertices = [f"v{i}" for i in range(nv)]
            edges = {
                f"e{j}": frozenset(rng.sample(vertices, rng.randint(1, min(2, nv))))
                for j in range(ne)
            }
            g = Multigraph.build(vertices, edges)
            if not g.is_connected():
                continue
            p = realize_multigraph(g)
            assert multigraph_isomorphic(underlying_multigraph(p), g) is not None
