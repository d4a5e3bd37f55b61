"""Enumeration of models up to isomorphism within size bounds.

Each emitted model is connected: one compact surface.  That is either a
bare periodic torus, a single annulus between two fresh c/n/b vertices,
or a diagram-based model in which every boundary circle of every
polycycle neighborhood closes against another circle or a fresh c/n/b
vertex and the annuli join everything into one piece.  (Disconnected
pairs are still valid data; they are just not enumerated.)

Diagrams are generated by choosing a saddle degree multiset, fixing the
alternating out/in slot pattern around each saddle, and running over all
bijections from out-slots to in-slots; every valid diagram is a
relabeling of one of these.  Two candidates are isomorphic exactly when
a slot symmetry (see ``_slot_symmetries``) carries one onto the other.
Only the candidate least in its orbit is kept, and the symmetries that
fix it are the diagram's.  Kept candidates stream in the order they are
tried and are not labeled; only ``enumerate_diagrams`` sorts them by
canonical bytes.

Closures are generated orderly.  Two closures of one diagram
representative are isomorphic exactly when a symmetry of the diagram
carries one onto the other, so only the closure least in its orbit under
those symmetries is built, and every model built is a class of its own
(McKay, "Isomorph-free exhaustive generation", 1998).  A closure grows
directed, face point by face point, in the form ``_assemble`` reads.

The optional ``rng`` argument is accepted and ignored.  Which candidate
represents a class does not depend on the order candidates are tried in:
a class keeps the least candidate of its orbit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import combinations_with_replacement, permutations, product

from .diagram import SaddleDiagram, Saddle, Separatrix
from .graph import AnnulusEdge, Attachment, InvariantPair, VertexNode, \
    check_pair
from .isomorphism import ORIENTED, IsoMode, _canonical_blob, \
    canonical_diagram, canonical_form
from .reconstruction import reconstruct
from .topology import connected_groups


@dataclass(frozen=True)
class EnumBounds:
    max_saddles: int = 0
    max_k_sum: int = 0
    max_centers: int = 0
    max_n: int = 0
    max_b: int = 0
    max_annuli: int = 0
    max_tori: int = 0
    mode: IsoMode = ORIENTED

    def __post_init__(self):
        """Each bound is a non-negative ``int`` (``bool`` is not, as in the
        shape pass) and ``mode`` an ``IsoMode``; otherwise ``ValueError``
        names the field."""
        for name in (f.name for f in fields(self) if f.name != "mode"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"{name} is {value!r}, which is not a non-negative integer")
        if not isinstance(self.mode, IsoMode):
            raise ValueError(f"mode is {self.mode!r}, which is not an IsoMode")


def _degree_multisets(max_saddles: int, max_k_sum: int):
    out = [()]
    for count in range(1, max_saddles + 1):
        for ks in combinations_with_replacement(range(max_k_sum + 1), count):
            if sum(ks) <= max_k_sum:
                out.append(ks)
    return out


def _slots(ks: tuple) -> list:
    """The slots ``(saddle, position)`` of the degree multiset, numbered by
    their place here: out-slots (even positions) first, then in-slots."""
    return sorted(((i, pos) for i, k in enumerate(ks)
                   for pos in range(2 * k + 2)), key=lambda x: x[1] % 2)


def _diagram(ks: tuple, image: tuple) -> SaddleDiagram:
    """The candidate whose separatrix ``e{j}`` joins out-slot ``j`` to
    in-slot ``image[j]``.  Each rotation is pinned to out,in,out,in,...;
    any valid rotation is a cyclic shift of that."""
    slots, n = _slots(ks), len(image)
    rotations = [[None] * (2 * k + 2) for k in ks]
    seps = []
    for j, t in enumerate(image):
        (src, src_pos), (tgt, tgt_pos) = slots[j], slots[n + t]
        eid = f"e{j}"
        seps.append(Separatrix(eid, f"s{src}", f"s{tgt}"))
        rotations[src][src_pos] = (eid, "out")
        rotations[tgt][tgt_pos] = (eid, "in")
    return SaddleDiagram(tuple(Saddle(f"s{i}", k, tuple(rotations[i]))
                               for i, k in enumerate(ks)), tuple(seps))


def _slot_symmetries(ks: tuple, reversal: bool) -> list:
    """The slot symmetries of the degree multiset, identity first, each as
    the permutation of slot numbers it makes: saddles go to saddles of
    equal k and each word turns by an even shift.  With ``reversal`` one
    may first reflect every word (position ``p`` to ``2k+1-p``), which
    swaps out- and in-slots as reversing every separatrix does."""
    slots = _slots(ks)
    index = {x: j for j, x in enumerate(slots)}
    size = [2 * k + 2 for k in ks]
    group = []
    for reflect in ((False, True) if reversal else (False,)):
        start = [size[i] - 1 - pos if reflect else pos for i, pos in slots]
        for to in permutations(range(len(ks))):
            if all(ks[to[i]] == k for i, k in enumerate(ks)):
                for turns in product(*(range(k + 1) for k in ks)):
                    group.append(tuple(
                        index[to[i], (p + 2 * turns[i]) % size[i]]
                        for (i, _), p in zip(slots, start)))
    return group


def _turned(image: tuple, sigma: tuple) -> tuple:
    """The candidate ``sigma`` carries ``image`` onto: the ends of
    separatrix ``j`` go to ``sigma[j]`` and ``sigma[n + image[j]]``, and
    a reflecting ``sigma`` makes the second its new out-slot."""
    n = len(image)
    out = [0] * n
    if sigma and sigma[0] >= n:
        for a, t in zip(sigma, image):
            out[sigma[n + t]] = a - n
    else:
        for a, t in zip(sigma, image):
            out[a] = sigma[n + t] - n
    return tuple(out)


def _diagram_classes(bounds: EnumBounds):
    """``(diagram, image, group)`` for each diagram class in the bounds, as
    soon as its least candidate under its slot symmetries ``group`` is
    found (McKay 1998), so by degree multiset and then lexicographically.
    Nothing is labeled or buffered here."""
    for ks in _degree_multisets(bounds.max_saddles, bounds.max_k_sum):
        group = _slot_symmetries(ks, bounds.mode.allow_reversal)
        others = group[1:]  # the identity keeps every candidate
        for image in permutations(range(sum(ks) + len(ks))):
            for sigma in others:
                if _turned(image, sigma) < image:
                    break
            else:
                yield _diagram(ks, image), image, group


def _symmetries(d: SaddleDiagram, image: tuple, group: list) -> list:
    """The slot symmetries that fix ``image``, as ``(face_map, reverses)``
    on the face points of ``d``: ``e{j}`` goes to the separatrix leaving
    the out-slot its ends go to, each dart keeps its end, and a reversing
    one maps ``reverse_diagram(d)`` (same faces, same indices) onto ``d``.
    Symmetries with the same action appear once."""
    n = len(image)
    faces = d.faces_by_component
    point_of = {dart: (comp, idx) for comp, fs in faces.items()
                for idx, face in enumerate(fs) for dart in face.sides}
    firsts = [face.sides[0] for fs in faces.values() for face in fs]
    found = {}
    for sigma in group:
        if _turned(image, sigma) == image:
            moved = {f"e{j}": f"e{min(sigma[j], sigma[n + t])}"
                     for j, t in enumerate(image)}
            face_map = {point_of[sep, end]: point_of[moved[sep], end]
                        for sep, end in firsts}
            reverses = sigma[0] >= n
            found.setdefault((tuple(sorted(face_map.items())), reverses),
                             (face_map, reverses))
    return list(found.values())


def enumerate_diagrams(bounds: EnumBounds, rng: random.Random | None = None):
    """All diagram classes within the bounds, exactly once per class, by
    (saddle count, total k), then canonical bytes; each is represented by
    its least candidate.  The stream of ``_diagram_classes`` is sorted
    here, the one place diagrams are labeled.  ``rng`` is ignored."""
    def order(d):
        return (len(d.saddles), sum(s.k for s in d.saddles),
                canonical_diagram(d, bounds.mode))

    yield from sorted((d for d, _, _ in _diagram_classes(bounds)), key=order)


def _annulus_only_models(bounds: EnumBounds, leaves: dict):
    """Connected models with no saddles: one annulus between two of the
    shared ``leaves`` (``enumerate_pairs``), which hold one entry per
    unit of each kind's budget."""
    if bounds.max_annuli < 1:
        return
    kinds = [kind for kind in leaves if leaves[kind]]
    # reversal swaps the annulus's sides, so (a, b) and (b, a) are one class
    ends = (combinations_with_replacement(kinds, 2)
            if bounds.mode.allow_reversal else product(kinds, kinds))
    for a, b in ends:
        i = int(a == b)  # two ends of one kind take its leaves 0 and 1
        if i < len(leaves[b]):
            first, second = leaves[a][0], leaves[b][i]
            yield InvariantPair(SaddleDiagram.empty(), (first[0], second[0]),
                                (AnnulusEdge("a0", first[1], second[1]),))


def enumerate_pairs(bounds: EnumBounds, rng: random.Random | None = None):
    """All connected model classes within the bounds, exactly once per class.

    Emitted in increasing cell count and by canonical bytes within a
    bucket; every emitted pair validates and keeps the framed canonical
    bytes that its search placed it by, so ``canonical_form(pair,
    bounds.mode)`` on it runs no search.  ORIENTED pairs keep their own
    bytes.  REVERSIBLE pairs keep the bytes of each orientation searched
    (``isomorphism._canonical_blob``): their own when the orientation
    byte reads ``<``, their reversal's at ``>``, and both at ``=``; an
    ORIENTED call on a ``>`` pair searches it then.  Those keys are
    unique, so no diagram is labeled for an order.

    Each class is offered once: a diagram-based class as the closure of
    its diagram representative that is least in its orbit under the
    diagram's symmetries (``_symmetries``, ``_closures``).  The
    closures of one diagram are labeled from one table of compiled
    diagram blocks, which in REVERSIBLE mode also holds the blocks of the
    reversed diagram (``isomorphism._canonical_blob``).  Only the loop
    over the diagram's closures holds the table, so no emitted pair or
    diagram carries it.  ``rng`` is accepted and ignored.

    The closures of one diagram share its polycycle vertices and one
    ``Attachment`` per face point.  All pairs share one leaf vertex
    and its ``Attachment`` per kind and index up to the leaf budgets, the
    annulus ids, and the set of the first ``n`` of them for each ``n``.
    Beside ``blocks``, the loop over one diagram's closures holds a table
    of ``parts`` (``_assemble``): one ``AnnulusEdge`` per distinct
    annulus and one ``assembly`` value per distinct set of vertices and
    annuli among those closures, so equal pieces of the diagram's pairs
    are one object.  The table goes with the loop; no two calls share a
    part.  Each closure's pair is handed its one-component ``assembly``,
    and ``offer`` still runs ``check_pair`` on it.
    """
    found = []
    leaves = {kind: [(VertexNode(f"{kind}{i}", kind), Attachment(f"{kind}{i}"))
                     for i in range(budget)]
              for kind, budget in (("c", bounds.max_centers),
                                   ("n", bounds.max_n), ("b", bounds.max_b))}
    annulus_ids = [f"a{i}" for i in range(bounds.max_annuli)]
    annulus_sets = [frozenset(annulus_ids[:n])
                    for n in range(bounds.max_annuli + 1)]

    def offer(pair: InvariantPair, blocks: dict | None = None):
        check_pair(pair)
        key = _canonical_blob(pair, bounds.mode, blocks)
        ncells = len(pair.vertices) + len(pair.annuli) + pair.tori
        found.append(((ncells, key), pair))

    if bounds.max_tori >= 1:
        offer(InvariantPair(SaddleDiagram.empty(), (), (), 1))
    for pair in _annulus_only_models(bounds, leaves):
        offer(pair)

    for diagram, image, group in _diagram_classes(bounds):
        if not diagram.saddles:
            continue
        comps = diagram.components
        faces = diagram.faces_by_component
        d_vertices = tuple(
            VertexNode(f"p{i}", "d", comp_id)
            for i, (comp_id, _, _) in enumerate(comps)
        )
        face_att = {(comp_id, idx): Attachment(f"p{i}", idx)
                    for i, (comp_id, _, _) in enumerate(comps)
                    for idx in range(len(faces.get(comp_id, [])))}
        moves = [(face_map, reverses)
                 for face_map, reverses in _symmetries(diagram, image, group)
                 if reverses or any(face_map[p] != p for p in face_map)]

        blocks, parts = {}, {}
        for closure in _closures(comps, list(face_att), moves, bounds):
            offer(_assemble(diagram, d_vertices, face_att, leaves,
                            annulus_ids, annulus_sets, closure, parts), blocks)

    # every offer is a class of its own, so no key repeats
    for _, pair in sorted(found, key=lambda item: item[0]):
        yield pair


def _closures(comps, face_points, moves, bounds: EnumBounds) -> list:
    """The orbit-least closures of one diagram that join its components
    and keep the leaf budgets: the least open face point is joined to a
    later one either way round, or capped by a leaf of a kind with budget
    left on either side, until the open points need more annuli than
    remain.  A closure is its sorted ``(neg face, pos face)`` annuli and
    its sorted ``(face, leaf kind, leaf on the negative side)`` ones."""
    budget = {"c": bounds.max_centers, "n": bounds.max_n, "b": bounds.max_b}
    directed, capped, found = [], [], []

    def grow(open_points, annuli_left):
        if (len(open_points) + 1) // 2 > annuli_left:
            return
        if not open_points:
            closure = tuple(sorted(directed)), tuple(capped)
            if _orbit_least(closure, moves) and (
                    len(comps) == 1 or _joins_components(comps, closure[0])):
                found.append(closure)
            return
        first, rest = open_points[0], open_points[1:]
        for i, other in enumerate(rest):
            for annulus in ((first, other), (other, first)):
                directed.append(annulus)
                grow(rest[:i] + rest[i + 1:], annuli_left - 1)
                directed.pop()
        for kind, left in budget.items():
            if left:
                budget[kind] -= 1
                for leaf_neg in (False, True):
                    capped.append((first, kind, leaf_neg))
                    grow(rest, annuli_left - 1)
                    capped.pop()
                budget[kind] += 1

    grow(sorted(face_points), bounds.max_annuli)
    return found


def _joins_components(comps, pairs) -> bool:
    """True when the face-face pairs connect all diagram components."""
    groups = connected_groups(
        (comp_id for comp_id, _, _ in comps),
        ((c1, c2) for (c1, _), (c2, _) in pairs),
    )
    return len(groups) == 1


def _orbit_least(closure: tuple, moves: list) -> bool:
    """True when no diagram symmetry carries the closure to a lesser one:
    a symmetry moves faces by its face map, and a reversing one also
    swaps every annulus's sides.  Each class has one orbit-least closure."""
    directed, leaves = closure
    for face_map, reverses in moves:
        image = (
            tuple(sorted((face_map[b], face_map[a]) if reverses
                         else (face_map[a], face_map[b])
                         for a, b in directed)),
            tuple(sorted((face_map[p], kind, leaf_neg != reverses)
                         for p, kind, leaf_neg in leaves)),
        )
        if image < closure:
            return False
    return True


def _assemble(diagram, d_vertices, face_att, leaves, annulus_ids,
              annulus_sets, closure, parts) -> InvariantPair:
    """Build the pair of one directed closure of the diagram from shared
    parts: ``face_att`` maps each face point to its ``Attachment``,
    ``leaves[kind][i]`` is the ``i``-th leaf of that kind with its
    ``Attachment``, and ``annulus_sets[n]`` is the set of the first ``n``
    of ``annulus_ids``.  ``parts`` is the diagram's table of the pieces
    its closures have in common, filled here and dropped with the loop
    over its closures: one ``AnnulusEdge`` per ``(annulus index, neg
    face, pos face)`` or ``(annulus index, face, leaf kind, leaf index,
    leaf on the negative side)``, and one ``assembly`` value per ``(leaf
    count per kind, annulus count)``.  The closure joins every component
    and each leaf annulus ties its leaf to a face, so the pair is handed
    its one-component ``assembly``, stored the way ``cached_property``
    stores it.  Its ``violations`` are not handed: ``offer`` checks each
    pair in full."""
    vertices = list(d_vertices)
    annuli = []
    used = dict.fromkeys(leaves, 0)
    directed, singles = closure
    for neg, pos in directed:
        n = len(annuli)
        key = n, neg, pos
        annulus = parts.get(key)
        if annulus is None:
            annulus = parts[key] = AnnulusEdge(annulus_ids[n], face_att[neg],
                                               face_att[pos])
        annuli.append(annulus)
    for point, kind, leaf_neg in singles:
        n, i = len(annuli), used[kind]
        vertex, a = leaves[kind][i]
        used[kind] += 1
        vertices.append(vertex)
        key = n, point, kind, i, leaf_neg
        annulus = parts.get(key)
        if annulus is None:
            b = face_att[point]
            annulus = parts[key] = AnnulusEdge(
                annulus_ids[n], *((a, b) if leaf_neg else (b, a)))
        annuli.append(annulus)
    pair = InvariantPair(diagram, tuple(vertices), tuple(annuli), 0)
    key = tuple(used.values()), len(annuli)
    assembly = parts.get(key)
    if assembly is None:
        assembly = parts[key] = ((frozenset(v.id for v in vertices),
                                  annulus_sets[len(annuli)]),)
    pair.__dict__["assembly"] = assembly
    return pair


@dataclass(frozen=True)
class ClassTable:
    """Counts of enumerated classes keyed by coarse surface data.

    Keys are (orientable, genus, boundary, saddle count); for models with
    several surface components the genus and boundary entries are sums
    over components and orientable means every component is.  Each key
    carries the sorted canonical digests of its classes.
    """

    entries: tuple  # sorted ((key), (digest, ...)) pairs

    def counts(self) -> dict:
        return {key: len(digests) for key, digests in self.entries}


def count_classes(bounds: EnumBounds, rng: random.Random | None = None) -> ClassTable:
    """The classes of ``enumerate_pairs`` by coarse surface data;
    ``rng`` is ignored."""
    table = {}
    for pair in enumerate_pairs(bounds, rng):
        _, sig = reconstruct(pair)
        key = (
            all(c.orientable for c in sig.components),
            sum(c.genus for c in sig.components),
            sum(c.boundary for c in sig.components),
            len(pair.diagram.saddles),
        )
        table.setdefault(key, []).append(
            canonical_form(pair, bounds.mode).digest())
    entries = tuple(sorted(
        (key, tuple(sorted(digests))) for key, digests in table.items()
    ))
    return ClassTable(entries)
