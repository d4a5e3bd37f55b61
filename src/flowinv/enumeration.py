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
relabeling of one of these.  Duplicate diagrams are removed by canonical
form.

Closures are generated orderly.  Two closures of one diagram
representative are isomorphic exactly when a symmetry of the diagram
carries one onto the other, so only the closure least in its orbit under
those symmetries is built, and every model built is a class of its own
(McKay, "Isomorph-free exhaustive generation", 1998).

Generation order is deterministic; the optional ``rng`` argument
scrambles the order of diagram candidates.  The set of classes, their
canonical digests and the output order do not depend on it (the
determinism tests rely on exactly that), but the representative emitted
for a class is a closure of the first diagram candidate of its class to
arrive, so it can.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .diagram import SaddleDiagram, Saddle, Separatrix
from .graph import AnnulusEdge, Attachment, InvariantPair, VertexNode, \
    check_pair
from .isomorphism import ORIENTED, IsoMode, _canonical_blob, \
    canonical_diagram, canonical_form, diagram_automorphisms
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
        for name in ("max_saddles", "max_k_sum", "max_centers", "max_n",
                     "max_b", "max_annuli", "max_tori"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _degree_multisets(max_saddles: int, max_k_sum: int):
    out = [()]
    for count in range(1, max_saddles + 1):
        for ks in combinations_with_replacement(range(max_k_sum + 1), count):
            if sum(ks) <= max_k_sum:
                out.append(ks)
    return out


def _diagram_candidates(ks: tuple):
    """All diagrams over the given degree multiset.

    Each saddle's rotation is pinned to the pattern out,in,out,in,...;
    any valid rotation is a cyclic shift of that.  A diagram is then a
    bijection from out-slots to in-slots, so every valid diagram with
    these degrees is a relabeling of some candidate.
    """
    out_slots = []
    in_slots = []
    for i, k in enumerate(ks):
        for pos in range(2 * k + 2):
            (out_slots if pos % 2 == 0 else in_slots).append((i, pos))
    for image in permutations(in_slots):
        rotations = {i: [None] * (2 * k + 2) for i, k in enumerate(ks)}
        seps = []
        for j, (src, tgt) in enumerate(zip(out_slots, image)):
            eid = f"e{j}"
            seps.append(Separatrix(eid, f"s{src[0]}", f"s{tgt[0]}"))
            rotations[src[0]][src[1]] = (eid, "out")
            rotations[tgt[0]][tgt[1]] = (eid, "in")
        saddles = tuple(
            Saddle(f"s{i}", k, tuple(rotations[i])) for i, k in enumerate(ks)
        )
        yield SaddleDiagram(saddles, tuple(seps))


def enumerate_diagrams(bounds: EnumBounds, rng: random.Random | None = None):
    """All diagram classes within the bounds, exactly once per class.

    Emitted in increasing (saddle count, total k) order and by canonical
    bytes within a bucket.
    """
    found = {}
    for ks in _degree_multisets(bounds.max_saddles, bounds.max_k_sum):
        candidates = _diagram_candidates(ks)
        if rng is not None:
            candidates = list(candidates)
            rng.shuffle(candidates)
        for d in candidates:
            key = canonical_diagram(d, bounds.mode)
            if key not in found:
                found[key] = (((len(ks), sum(ks)), key), d)
    for _, d in sorted(found.values(), key=lambda item: item[0]):
        yield d


def _face_closures(points: list, max_annuli: int):
    """Partition boundary circles into circle-circle pairs and leaf singles."""
    results = []

    def recurse(remaining, pairs, singles):
        if len(pairs) + len(singles) > max_annuli:
            return
        if not remaining:
            results.append((tuple(pairs), tuple(singles)))
            return
        first, rest = remaining[0], remaining[1:]
        for i in range(len(rest)):
            recurse(rest[:i] + rest[i + 1:], pairs + [(first, rest[i])], singles)
        recurse(rest, pairs, singles + [first])

    recurse(points, [], [])
    return results


def _allowed_leaf_kinds(bounds: EnumBounds):
    """The leaf kinds with a positive budget: only b leaves make boundary
    and only n leaves make a surface non-orientable."""
    budgets = (("c", bounds.max_centers), ("n", bounds.max_n),
               ("b", bounds.max_b))
    return [k for k, budget in budgets if budget > 0]


def _leaf_budget_ok(counts: dict, bounds: EnumBounds) -> bool:
    return (counts.get("c", 0) <= bounds.max_centers
            and counts.get("n", 0) <= bounds.max_n
            and counts.get("b", 0) <= bounds.max_b)


def _annulus_only_models(bounds: EnumBounds):
    """Connected models with no saddles: one annulus between two leaves."""
    if bounds.max_annuli < 1:
        return
    kinds = _allowed_leaf_kinds(bounds)
    # reversal swaps the annulus's sides, so (a, b) and (b, a) are one class
    ends = (combinations_with_replacement(kinds, 2)
            if bounds.mode.allow_reversal else product(kinds, kinds))
    for a, b in ends:
        counts = {}
        for k in (a, b):
            counts[k] = counts.get(k, 0) + 1
        if not _leaf_budget_ok(counts, bounds):
            continue
        first = f"{a}0"
        second = f"{b}1" if a == b else f"{b}0"
        yield InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode(first, a), VertexNode(second, b)),
            (AnnulusEdge("a0", Attachment(first), Attachment(second)),),
        )


def enumerate_pairs(bounds: EnumBounds, rng: random.Random | None = None):
    """All connected model classes within the bounds, exactly once per class.

    Emitted in increasing cell count and by canonical bytes within a
    bucket; every emitted pair validates and keeps the framed canonical
    bytes that placed it (of both orientations in REVERSIBLE mode), so
    ``canonical_form(pair, bounds.mode)`` on it runs no search.

    Each class is offered once: a diagram-based class as the closure of
    its diagram representative that is least in its orbit under the
    diagram's symmetries (see ``_orbit_least``).  The closures of one
    diagram are labeled from one table of compiled diagram blocks, which
    in REVERSIBLE mode also holds the blocks of the reversed diagram
    (``isomorphism._canonical_blob``).  Only the loop over the diagram's
    closures holds the table, so no emitted pair or diagram carries it.
    ``rng`` shuffles the diagram candidates only: the classes and their
    order stay the same, but the emitted representative of a class may
    change with the diagram that represents its class.
    """
    found = []

    def offer(pair: InvariantPair, blocks: dict | None = None):
        check_pair(pair)
        key = _canonical_blob(pair, bounds.mode, blocks)
        ncells = len(pair.vertices) + len(pair.annuli) + pair.tori
        found.append(((ncells, key), pair))

    if bounds.max_tori >= 1:
        offer(InvariantPair(SaddleDiagram.empty(), (), (), 1))
    for pair in _annulus_only_models(bounds):
        offer(pair)

    for diagram in enumerate_diagrams(bounds, rng):
        if not diagram.saddles:
            continue
        comps = diagram.components
        faces = diagram.faces_by_component
        face_points = [
            (comp_id, idx)
            for comp_id, _, _ in comps
            for idx in range(len(faces.get(comp_id, [])))
        ]
        d_vertices = tuple(
            VertexNode(f"p{i}", "d", comp_id)
            for i, (comp_id, _, _) in enumerate(comps)
        )
        vertex_of_comp = {comp_id: f"p{i}" for i, (comp_id, _, _) in enumerate(comps)}
        moves = [(face_map, reverses)
                 for face_map, reverses in diagram_automorphisms(diagram,
                                                                 bounds.mode)
                 if reverses or any(face_map[p] != p for p in face_map)]

        blocks = {}
        for closure in _closures(comps, face_points, moves, bounds):
            offer(_assemble(diagram, d_vertices, vertex_of_comp, closure),
                  blocks)

    # every offer is a class of its own, so no key repeats
    for _, pair in sorted(found, key=lambda item: item[0]):
        yield pair


def _closures(comps, face_points, moves, bounds: EnumBounds):
    """The orbit-least directed closures of one diagram that join its
    components into one piece and keep the leaf budgets."""
    single_kinds = _allowed_leaf_kinds(bounds)
    for pairs, singles in _face_closures(face_points, bounds.max_annuli):
        # every component must reach another through face-face annuli
        if len(comps) > 1 and not _joins_components(comps, pairs):
            continue
        for kinds in product(single_kinds, repeat=len(singles)):
            counts = {}
            for k in kinds:
                counts[k] = counts.get(k, 0) + 1
            if not _leaf_budget_ok(counts, bounds):
                continue
            for orient in product((False, True),
                                  repeat=len(pairs) + len(singles)):
                closure = _directed_closure(pairs, singles, kinds, orient)
                if moves and not _orbit_least(closure, moves):
                    continue
                yield closure


def _joins_components(comps, pairs) -> bool:
    """True when the face-face pairs connect all diagram components."""
    groups = connected_groups(
        (comp_id for comp_id, _, _ in comps),
        ((c1, c2) for (c1, _), (c2, _) in pairs),
    )
    return len(groups) == 1


def _directed_closure(pairs, singles, kinds, orient) -> tuple:
    """A closure as its sorted directed annuli: ``(neg face, pos face)``
    for each pair, ``(face, leaf kind, leaf on the negative side)`` for
    each single.  ``orient`` flips pairs first, then singles."""
    directed = tuple(sorted((b, a) if flipped else (a, b)
                            for (a, b), flipped in zip(pairs, orient)))
    leaves = tuple(sorted(zip(singles, kinds, orient[len(pairs):])))
    return directed, leaves


def _orbit_least(closure: tuple, moves: list) -> bool:
    """True when no diagram symmetry carries the closure to a lesser one.

    Two closures of one diagram representative are isomorphic exactly
    when a symmetry of the diagram carries one onto the other: the
    symmetry moves faces by its face map, and a reversed one also swaps
    every annulus's sides (McKay, "Isomorph-free exhaustive generation",
    1998).  So each class has exactly one orbit-least closure.
    """
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


def _assemble(diagram, d_vertices, vertex_of_comp, closure) -> InvariantPair:
    """Build the pair of one directed closure of the diagram."""
    vertices = list(d_vertices)
    annuli = []
    counters = {"c": 0, "n": 0, "b": 0}

    def fresh_leaf(kind: str) -> Attachment:
        vid = f"{kind}{counters[kind]}"
        counters[kind] += 1
        vertices.append(VertexNode(vid, kind))
        return Attachment(vid)

    def face_att(point) -> Attachment:
        comp_id, idx = point
        return Attachment(vertex_of_comp[comp_id], idx)

    directed, leaves = closure
    for neg, pos in directed:
        annuli.append(AnnulusEdge(f"a{len(annuli)}", face_att(neg),
                                  face_att(pos)))
    for point, kind, leaf_neg in leaves:
        a, b = face_att(point), fresh_leaf(kind)
        if leaf_neg:
            a, b = b, a
        annuli.append(AnnulusEdge(f"a{len(annuli)}", a, b))
    return InvariantPair(diagram, tuple(vertices), tuple(annuli), 0)


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
