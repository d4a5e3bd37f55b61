"""Surface reconstruction from the invariant, and realization of graphs.

Pasting: every c/n/b vertex becomes a disk, Möbius collar or boundary
collar with one free circle, every polycycle becomes its ribbon
neighborhood with one circle per face, and every annulus edge is an
annulus glued between the circles its attachments name.  The result is
a closed or bounded surface per assembly component, classified by
orientability, genus and boundary count via the Euler characteristic.

Non-orientability enters exactly through n vertices: polycycle ribbons
are untwisted and every other piece is an annulus or disk, so a
component without Möbius collars assembles orientably.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Saddle,
    SaddleDiagram,
    Separatrix,
)
from .graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    VertexNode,
    check_pair,
)
from .multigraph import Multigraph
from .topology import connected_groups

CENTER_DISK = "center_disk"
ANNULUS = "annulus"
MOBIUS_COLLAR = "mobius_collar"
BOUNDARY_COLLAR = "boundary_collar"
POLYCYCLE_NBHD = "polycycle_nbhd"
TORUS = "torus"

# vertex label -> (cell id prefix, cell kind)
_CELLS = {
    "c": ("disk", CENTER_DISK),
    "n": ("mobius", MOBIUS_COLLAR),
    "b": ("collar", BOUNDARY_COLLAR),
    "d": ("poly", POLYCYCLE_NBHD),
}
_LABEL_OF_KIND = {kind: label for label, (_, kind) in _CELLS.items()}

# cell kind -> interior (V, E, F) beyond its circles: an annulus or collar
# is one edge and one face across, a Möbius collar or torus a vertex, two
# edges and a face; a polycycle neighborhood adds its ribbon core plus
# one edge and one face per circle
_INTERIOR = {
    CENTER_DISK: (0, 0, 1),
    ANNULUS: (0, 1, 1),
    BOUNDARY_COLLAR: (0, 1, 1),
    MOBIUS_COLLAR: (1, 2, 1),
    TORUS: (1, 2, 1),
    POLYCYCLE_NBHD: (0, 0, 0),
}


class ReconstructionError(ValueError):
    """Internal consistency failure while assembling a validated pair."""


class NotRealizableError(ValueError):
    """The input graph admits no realization (empty, trivial, disconnected,
    or with two vertex or edge names that agree as text)."""


@dataclass(frozen=True)
class Cell:
    id: str
    kind: str
    circles: tuple  # circle ids; boundary collars list the surface rim first


@dataclass(frozen=True)
class CellModel:
    """The pasted decomposition: cells, a perfect matching on glueable circles,
    and the circles left as actual surface boundary."""

    cells: tuple
    gluings: frozenset      # frozensets of two circle ids
    boundary: frozenset     # circle ids on the surface boundary
    diagram: SaddleDiagram  # ribbon cores of the polycycle neighborhoods


@dataclass(frozen=True)
class ComponentSignature:
    """One surface component; for non-orientable components ``genus`` holds
    the crosscap count."""

    orientable: bool
    genus: int
    boundary: int
    euler: int


@dataclass(frozen=True)
class SurfaceSignature:
    components: tuple

    def summary_lines(self) -> list:
        return [
            f"component={i} orientable={'true' if c.orientable else 'false'}"
            f" genus={c.genus} boundary={c.boundary} chi={c.euler}"
            for i, c in enumerate(self.components)
        ]


def chi_cells(p: InvariantPair) -> list:
    """Euler characteristic per assembly component.

    Disks contribute 1, polycycle neighborhoods V - E, annuli and collars
    0, and each periodic torus, listed after the cell components, 0.
    """
    check_pair(p)
    comp_sizes = {
        comp_id: len(saddle_ids) - len(sep_ids)
        for comp_id, saddle_ids, sep_ids in p.diagram.components
    }
    out = []
    for vertex_ids, _ in p.assembly:
        chi = 0
        for vid in vertex_ids:
            v = p.vertex_by_id[vid]
            if v.label == "c":
                chi += 1
            elif v.label == "d":
                chi += comp_sizes[v.component]
        out.append(chi)
    return out + [0] * p.tori


def _circle_of_attachment(p: InvariantPair, att: Attachment) -> str:
    v = p.vertex_by_id[att.vertex]
    prefix = _CELLS[v.label][0]
    if v.label == "d":
        return f"{prefix}:{v.component}:{att.face}"
    return f"{prefix}:{v.id}:0"


def build_cell_model(p: InvariantPair) -> CellModel:
    check_pair(p)
    cells = []
    boundary = set()
    for v in p.vertices:
        if v.label == "d":
            continue  # polycycle cells come from the diagram components
        prefix, kind = _CELLS[v.label]
        cid = f"{prefix}:{v.id}"
        circles = (f"{cid}:0",)
        if kind == BOUNDARY_COLLAR:
            boundary.add(f"{cid}:rim")
            circles = (f"{cid}:rim",) + circles
        cells.append(Cell(cid, kind, circles))
    prefix, kind = _CELLS["d"]
    faces = p.diagram.faces_by_component
    for comp_id, _, _ in p.diagram.components:
        cid = f"{prefix}:{comp_id}"
        circles = tuple(f"{cid}:{i}" for i in range(len(faces[comp_id])))
        cells.append(Cell(cid, kind, circles))
    gluings = set()
    for a in p.annuli:
        neg, pos = f"ann:{a.id}:neg", f"ann:{a.id}:pos"
        cells.append(Cell(f"ann:{a.id}", ANNULUS, (neg, pos)))
        gluings.add(frozenset((neg, _circle_of_attachment(p, a.neg))))
        gluings.add(frozenset((pos, _circle_of_attachment(p, a.pos))))
    for i in range(p.tori):
        cells.append(Cell(f"torus:{i}", TORUS, ()))
    cells.sort(key=lambda c: c.id)
    return CellModel(tuple(cells), frozenset(gluings), frozenset(boundary),
                     p.diagram)


def extract_pair(cm: CellModel) -> InvariantPair:
    """Re-read the invariant off a cell model: the inverse of pasting.

    Works purely from cells, gluings and the ribbon cores; face indices
    come from the circle names of the polycycle cells.
    """
    partner = {}
    for pair in cm.gluings:
        a, b = tuple(pair)
        partner[a] = b
        partner[b] = a

    vertices = []
    annuli = []
    tori = 0
    circle_to_key = {}
    for cell in cm.cells:
        name = cell.id.split(":", 1)[1] if ":" in cell.id else cell.id
        if cell.kind == TORUS:
            tori += 1
        if cell.kind in (ANNULUS, TORUS):
            continue
        label = _LABEL_OF_KIND.get(cell.kind)
        if label is None:
            raise ReconstructionError(f"unknown cell kind {cell.kind!r}")
        if label == "d":
            vertices.append(VertexNode(cell.id, "d", name))
            for circle in cell.circles:
                idx = int(circle.rsplit(":", 1)[1])
                circle_to_key[circle] = (cell.id, idx)
        else:  # the glued circle; a boundary collar lists its rim first
            vertices.append(VertexNode(name, label))
            circle_to_key[cell.circles[-1]] = (name, None)
    for cell in cm.cells:
        if cell.kind != ANNULUS:
            continue
        aid = cell.id.split(":", 1)[1]
        neg_key = circle_to_key[partner[cell.circles[0]]]
        pos_key = circle_to_key[partner[cell.circles[1]]]
        annuli.append(AnnulusEdge(aid, Attachment(*neg_key), Attachment(*pos_key)))
    return InvariantPair(cm.diagram, tuple(vertices), tuple(annuli), tori)


def _component_signature(p: InvariantPair, vertex_ids,
                         comp_euler: int) -> ComponentSignature:
    labels = [p.vertex_by_id[v].label for v in vertex_ids]
    boundary = labels.count("b")
    orientable = "n" not in labels
    rest = 2 - comp_euler - boundary
    if orientable:
        if rest % 2:
            raise ReconstructionError(
                "non-integer genus: chi + boundary has odd parity"
            )
        genus = rest // 2
    else:
        genus = rest  # crosscap count
    if genus < 0 or (not orientable and genus == 0):
        raise ReconstructionError("impossible genus for assembled component")
    return ComponentSignature(orientable, genus, boundary, comp_euler)


def reconstruct(p: InvariantPair) -> tuple:
    """Paste the cell model and classify each surface component.

    Returns ``(CellModel, SurfaceSignature)``; the periodic tori come
    last, one component each.
    """
    cm = build_cell_model(p)
    sigs = [_component_signature(p, vertex_ids, chi)
            for (vertex_ids, _), chi in zip(p.assembly, chi_cells(p))]
    tori = (ComponentSignature(True, 1, 0, 0),) * p.tori
    return cm, SurfaceSignature(tuple(sigs) + tori)


def cellmodel_euler(cm: CellModel) -> list:
    """Independent Euler count per component: tally actual cells.

    Cells are linked through their gluings; components come ordered by
    least cell id.  Every circle class (a circle, or two glued ones)
    carries one vertex and one edge; each cell adds its interior from
    ``_INTERIOR``.  Reads only cells, gluings and the ribbon cores, so it
    checks ``chi_cells`` rather than repeating it.
    """
    cell_of = {circle: cell.id for cell in cm.cells for circle in cell.circles}
    groups = connected_groups(
        sorted(cell.id for cell in cm.cells),
        ((cell_of[a], cell_of[b]) for a, b in cm.gluings),
    )
    group_of = {cid: i for i, group in enumerate(groups) for cid in group}
    cores = {comp_id: (len(saddle_ids), len(sep_ids))
             for comp_id, saddle_ids, sep_ids in cm.diagram.components}
    tally = [[0, 0, 0] for _ in groups]
    for a, _ in cm.gluings:  # two circles, one class
        t = tally[group_of[cell_of[a]]]
        t[0] -= 1
        t[1] -= 1
    for cell in cm.cells:
        if cell.kind not in _INTERIOR:
            raise ReconstructionError(f"unknown cell kind {cell.kind!r}")
        v, e, f = _INTERIOR[cell.kind]
        n = len(cell.circles)
        if cell.kind == POLYCYCLE_NBHD:
            saddles, seps = cores[cell.id.split(":", 1)[1]]
            v, e, f = v + saddles, e + seps + n, f + n
        t = tally[group_of[cell.id]]
        t[0] += v + n
        t[1] += e + n
        t[2] += f
    return [v - e + f for v, e, f in tally]


def realize_multigraph(g: Multigraph) -> InvariantPair:
    """A model whose extended orbit graph is the given multi-graph.

    Degree-1 vertices become centers.  A vertex of degree d >= 2 becomes
    a homoclinic flower on a (d-2)-saddle, whose neighborhood has exactly
    d boundary circles; every graph edge becomes an annulus between the
    circles reserved at its endpoints.  Requires a connected non-trivial
    graph (at least one edge).  Object ids are built from the vertex and
    edge names as text, so two vertex names or two edge names must not
    agree as text (``1`` and ``"1"``).
    """
    if not g.vertices:
        raise NotRealizableError("empty graph")
    for kind, names in (("vertex", g.vertices),
                        ("edge", [eid for eid, _ in g.edges])):
        by_text = {}
        for name in sorted(names, key=repr):
            other = by_text.setdefault(f"{name}", name)
            if other != name:
                raise NotRealizableError(
                    f"{kind} names {other!r} and {name!r} agree as text;"
                    " realized object ids are built from them")
    if not g.edges:
        raise NotRealizableError("trivial graph: no edges")
    if not g.is_connected():
        raise NotRealizableError("graph is not connected")

    saddles = []
    seps = []
    vertices = []
    slots = {}  # graph vertex -> list of free attachments
    degree = dict.fromkeys(g.vertices, 0)
    for _, ends in g.edges:
        for v in ends:
            degree[v] += 3 - len(ends)  # a loop counts twice
    for v in sorted(g.vertices, key=repr):
        deg = degree[v]
        if deg == 1:
            vertices.append(VertexNode(f"v_{v}", "c"))
            slots[v] = [Attachment(f"v_{v}")]
            continue
        k = deg - 2
        sid = f"s_{v}"
        loop_ids = [f"e_{v}_{j}" for j in range(k + 1)]
        rotation = []
        for eid in loop_ids:
            rotation.append((eid, "out"))
            rotation.append((eid, "in"))
        saddles.append(Saddle(sid, k, tuple(rotation)))
        seps.extend(Separatrix(eid, sid, sid) for eid in loop_ids)
        vertices.append(VertexNode(f"p_{v}", "d", sid))
        # the flower has deg faces; reserve them in face-index order
        slots[v] = [Attachment(f"p_{v}", i) for i in range(deg)]

    annuli = []
    for eid, ends in g.edges:
        if len(ends) == 1:
            (u,) = ends
            neg, pos = slots[u].pop(0), slots[u].pop(0)
        else:
            u, w = sorted(ends, key=repr)
            neg, pos = slots[u].pop(0), slots[w].pop(0)
        annuli.append(AnnulusEdge(f"a_{eid}", neg, pos))

    pair = InvariantPair(SaddleDiagram(tuple(saddles), tuple(seps)),
                         tuple(vertices), tuple(annuli))
    check_pair(pair)
    return pair
