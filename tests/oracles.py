"""Independent oracles the tests check the library against.

Everything here recomputes results by brute force or by a different
route than the library: chain enumeration for heights, the poset's
levels and downsets by ``leq`` for reading a multi-graph back, subset
filtering for upsets, a bitmask union closure for Alexandroff opens,
explicit permutation composition for faces, filtered set partitions for closures,
pruning-free generation with pairwise isomorphism dedup for enumeration,
the Burnside count of slot orbits for diagram classes, the stdlib's
``json.dumps`` of plain dicts for model documents, one loop per
rule, each read in full, for validation, and, for what the
canonical engine compiles, a face table looked up by polycycle and face
index, shared cells and dense ranks read back off the initial coloring,
and each assembly component filtered from the whole pair.  None of it shares
code with the paths it checks, except that the slot orbits are counted
under the library's own slot symmetries: that count checks the stream's
orbit-least filter, not the group.  Three builders here only tests
need: a poset from generating pairs, a space from a checked family of
opens, and the poset of a multi-graph.  Built from generating pairs, the
extended orbit poset is the oracle for the one the library writes from
its height-one definition.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix, \
    Violation, diagram_components, faces_by_component
from flowinv.enumeration import EnumBounds, _degree_multisets, _diagram, \
    _slot_symmetries
from flowinv.graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    VertexNode,
    assembly_components,
    check_pair,
    validate_pair,
)
from flowinv.isomorphism import pair_isomorphic, relabel_pair, reverse_diagram
from flowinv.model_io import FORMAT_VERSION
from flowinv.multigraph import Multigraph
from flowinv.topology import FinPoset, FinSpace, PosetError, TopologyError, \
    _checked, _indistinguishable_pair


# ---------------------------------------------------------------------------
# posets and spaces


def chain_height_oracle(poset: FinPoset, x) -> int:
    """Longest chain ending at x, by enumerating all chains."""
    best = 0
    elems = sorted(poset.elements, key=repr)
    for size in range(1, len(elems) + 1):
        for chain in permutations(elems, size):
            if chain[-1] != x:
                continue
            if all(poset.leq(chain[i], chain[i + 1]) and chain[i] != chain[i + 1]
                   for i in range(size - 1)):
                best = max(best, size - 1)
    return best


def upsets_oracle(poset: FinPoset) -> set:
    """All upsets, by filtering every subset."""
    elems = sorted(poset.elements, key=repr)
    out = set()
    for size in range(len(elems) + 1):
        for combo in combinations(elems, size):
            subset = frozenset(combo)
            if all(poset.upsets[x] <= subset for x in subset):
                out.add(subset)
    return out


def union_closure_opens(up: list) -> list:
    """The opens of the Alexandroff topology of the poset with up-masks
    ``up``, as bitmasks: every upset is the union of the principal
    upsets of its elements, so the opens are the closure of {empty set}
    under union with a principal upset, in O(n * |opens|)."""
    principal = set(up)
    opens, todo = {0}, [0]
    while todo:
        mask = todo.pop()
        for u in principal:
            if mask | u not in opens:
                opens.add(mask | u)
                todo.append(mask | u)
    return list(opens)


def broken_topology_rules(points: frozenset, opens: frozenset) -> set:
    """The rules a family of subsets of ``points`` breaks, checked over
    every pair of opens: a subset of {"empty", "whole", "union",
    "intersection"}."""
    broken = set()
    if frozenset() not in opens:
        broken.add("empty")
    if points not in opens:
        broken.add("whole")
    for a, b in combinations(opens, 2):
        if a | b not in opens:
            broken.add("union")
        if a & b not in opens:
            broken.add("intersection")
    return broken


def all_families(points: frozenset):
    """Every family of subsets of ``points``."""
    subsets = [frozenset(combo) for size in range(len(points) + 1)
               for combo in combinations(sorted(points), size)]
    for bits in range(1 << len(subsets)):
        yield frozenset(s for i, s in enumerate(subsets) if bits >> i & 1)


def all_labeled_posets(n: int):
    """Every partial order on elements 0..n-1, as up-set bitmask lists.

    Built by extension: the new element is added with a choice of
    downset D (elements below it) and upset U (elements above it),
    subject to D and U disjoint and every member of D already lying
    below every member of U.
    """
    if n == 0:
        yield []
        return
    for up in all_labeled_posets(n - 1):
        yield from _extend_poset(up, n - 1)


def _extend_poset(up, m):
    """All ways to add element m to a poset on 0..m-1 given as up-masks."""
    down_of = [0] * m
    for i in range(m):
        for j in range(m):
            if (up[j] >> i) & 1:
                down_of[i] |= 1 << j
    downsets = [d for d in range(1 << m)
                if all(not (d >> i) & 1 or down_of[i] | d == d
                       for i in range(m))]
    upsets = [u for u in range(1 << m)
              if all(not (u >> i) & 1 or up[i] | u == u for i in range(m))]
    for d in downsets:
        for u in upsets:
            if d & u:
                continue
            if any((d >> i) & 1 and (u & ~up[i]) for i in range(m)):
                continue  # some d-element would not lie below all of U
            new = []
            for i in range(m):
                mask = up[i]
                if (d >> i) & 1:
                    mask |= 1 << m
                new.append(mask)
            new.append(u | (1 << m))
            yield new


def poset_from_pairs(elements, pairs) -> FinPoset:
    """Build a poset from generating strict/weak pairs.

    Takes the reflexive-transitive closure of ``pairs``, one search per
    element.  The closure gives each element an up-closed set inside the
    elements that holds it, so only antisymmetry is checked: the full
    check costs the cube of a long chain's length.
    """
    elems = frozenset(elements)
    succ = {x: [] for x in elems}
    for a, b in pairs:
        if a not in elems or b not in elems:
            raise PosetError(f"pair ({a!r}, {b!r}) uses unknown elements")
        succ[a].append(b)
    upsets = {}
    for x in elems:
        seen, todo = {x}, [x]
        while todo:
            for y in succ[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        upsets[x] = frozenset(seen)
    pair = _indistinguishable_pair(upsets)
    if pair is not None:
        raise PosetError("order is not antisymmetric on %r, %r" % pair)
    return _checked(FinPoset, elems, upsets)


def extended_poset_oracle(p: InvariantPair) -> FinPoset:
    """The extended orbit poset of ``p`` as the closure of its generating
    pairs: each annulus above its two side vertices."""
    check_pair(p)
    elems = [("v", v.id) for v in p.vertices]
    pairs = []
    for a in p.annuli:
        elems.append(("a", a.id))
        pairs.append((("v", a.neg.vertex), ("a", a.id)))
        pairs.append((("v", a.pos.vertex), ("a", a.id)))
    for i in range(p.tori):
        elems.append(("t", i))
    return poset_from_pairs(elems, pairs)


def poset_from_upmasks(up: list) -> FinPoset:
    n = len(up)
    return FinPoset(frozenset(range(n)),
                    {i: {j for j in range(n) if (up[i] >> j) & 1}
                     for i in range(n)})


def multigraph_likeness_oracle(poset: FinPoset) -> tuple:
    """``(ok, witness)`` of "height <= 1 and |downset| <= 3", with heights
    by chain enumeration and downsets by filtering every element."""
    bad = [x for x in poset.elements
           if chain_height_oracle(poset, x) > 1
           or sum(poset.leq(y, x) for y in poset.elements) > 3]
    return not bad, min(bad, key=repr, default=None)


def multigraph_by_levels(poset: FinPoset) -> Multigraph:
    """The multi-graph read off the poset's levels: vertices at chain
    height 0, each height-1 element an edge on what lies strictly below
    it by ``leq``, after ``multigraph_likeness_oracle``, with the error of
    ``Multigraph.from_poset``."""
    ok, witness = multigraph_likeness_oracle(poset)
    if not ok:
        raise ValueError(f"poset is not multi-graph-like at {witness!r}")
    height = {x: chain_height_oracle(poset, x) for x in poset.elements}
    return Multigraph.build(
        (x for x, h in height.items() if h == 0),
        {e: {x for x in poset.elements if x != e and poset.leq(x, e)}
         for e, h in height.items() if h == 1})


def multigraph_poset(g: Multigraph) -> FinPoset:
    """The multi-graph-like poset of ``g``: vertices below their incident
    edges."""
    elems = {("v", v) for v in g.vertices}
    pairs = []
    for eid, ends in g.edges:
        elems.add(("e", eid))
        for v in ends:
            pairs.append((("v", v), ("e", eid)))
    return poset_from_pairs(elems, pairs)


def space_from_opens(points: frozenset, opens: frozenset) -> FinSpace:
    """The space with the opens ``opens``, checked in
    O(|opens| * |points|) to be a topology: the empty and whole sets are
    open, every minimal open U_x is open ("intersection"), and so is
    every open joined with any U_x ("union").  That is enough: O, O | O'
    and O & O' are unions of the U_x of their points, so each is reached
    from O or the empty set by joining one U_x at a time.
    """
    for o in opens:
        if not o <= points:
            raise TopologyError(f"open {set(o)!r} is not a subset of the points")
    family = set(opens)
    if len(family) != len(opens):
        raise TopologyError("duplicate opens")
    if frozenset() not in family:
        raise TopologyError("the empty set is not open")
    if points not in family:
        raise TopologyError("the whole set is not open")
    minimal = {x: points.intersection(*(o for o in family if x in o))
               for x in points}
    if not family.issuperset(minimal.values()):
        raise TopologyError("opens are not closed under intersection")
    if not family.issuperset(o | ux for ux in set(minimal.values())
                             for o in family):
        raise TopologyError("opens are not closed under union")
    return FinSpace(points, minimal)


# ---------------------------------------------------------------------------
# faces


def face_count_oracle(d: SaddleDiagram) -> int:
    """Compose the rotation-successor and end-swap permutations explicitly
    and count the orbits of the product."""
    rotation_successor = {}
    for s in d.saddles:
        n = len(s.rotation)
        for i, dart in enumerate(s.rotation):
            rotation_successor[dart] = s.rotation[(i + 1) % n]
    swap = {}
    for e in d.separatrices:
        swap[(e.id, "out")] = (e.id, "in")
        swap[(e.id, "in")] = (e.id, "out")
    face_perm = {dart: rotation_successor[swap[dart]] for dart in swap}
    seen = set()
    orbits = 0
    for dart in face_perm:
        if dart in seen:
            continue
        orbits += 1
        while dart not in seen:
            seen.add(dart)
            dart = face_perm[dart]
    return orbits


def face_points_oracle(d: SaddleDiagram) -> dict:
    """Dart -> its face point ``(component, face index)``, traced from
    scratch: faces are the orbits of the rotation successor after the
    end swap, a component is keyed by its least saddle id, and its faces
    are indexed in the order of their least darts."""
    succ, home = {}, {}
    for s in d.saddles:
        n = len(s.rotation)
        for i, dart in enumerate(s.rotation):
            succ[dart] = s.rotation[(i + 1) % n]
            home[dart] = s.id
    comp = {s.id: s.id for s in d.saddles}
    changed = True
    while changed:  # every saddle takes the least id it is joined to
        changed = False
        for e in d.separatrices:
            least = min(comp[e.source], comp[e.target])
            for sid in (e.source, e.target):
                if comp[sid] != least:
                    comp[sid], changed = least, True
    orbits = {}
    for start in succ:
        orbit, dart = [], start
        while dart not in orbit:
            orbit.append(dart)
            sep, end = dart
            dart = succ[(sep, "in" if end == "out" else "out")]
        orbits[min(orbit)] = orbit
    point_of = {}
    for c in set(comp.values()):
        leasts = sorted(x for x in orbits if comp[home[x]] == c)
        for idx, least in enumerate(leasts):
            for dart in orbits[least]:
                point_of[dart] = (c, idx)
    return point_of


def diagram_automorphisms_oracle(d: SaddleDiagram, reversal: bool) -> set:
    """Every symmetry of ``d`` as ``(sorted face map items, reversed)``.

    Tries every k-preserving bijection of saddles and every shift of
    every rotation word, keeps the dart maps that carry each separatrix's
    out- and in-dart onto the out- and in-dart of one separatrix, and
    reads off where each face point goes.  With ``reversal`` it also
    maps ``reverse_diagram(d)`` onto ``d`` this way; a face point of the
    reversal is the one ``face_points_oracle`` gives it.
    """
    target = face_points_oracle(d)
    out = set()
    for reversed_ in ((False, True) if reversal else (False,)):
        source = reverse_diagram(d) if reversed_ else d
        points = face_points_oracle(source)
        for image in permutations(d.saddles):
            if any(s.k != t.k for s, t in zip(source.saddles, image)):
                continue
            for shifts in product(*(range(len(s.rotation))
                                    for s in source.saddles)):
                dart_map = {}
                for s, t, shift in zip(source.saddles, image, shifts):
                    n = len(s.rotation)
                    for i, dart in enumerate(s.rotation):
                        dart_map[dart] = t.rotation[(i + shift) % n]
                if not all(dart_map[(e.id, "out")][1] == "out"
                           and dart_map[(e.id, "in")][1] == "in"
                           and dart_map[(e.id, "out")][0]
                           == dart_map[(e.id, "in")][0]
                           for e in source.separatrices):
                    continue
                face_map = {}
                for dart, point in points.items():
                    face_map.setdefault(point, set()).add(
                        target[dart_map[dart]])
                assert all(len(images) == 1 for images in face_map.values())
                out.add((tuple(sorted((p, images.pop())
                                      for p, images in face_map.items())),
                         reversed_))
    return out


# ---------------------------------------------------------------------------
# canonical refinement


def full_refine(engine, col: list) -> list:
    """The canonical engine's refinement with no shortcut: every object is
    re-signed from ``engine``'s compiled arrays in every round, rotation
    words are compared over all their rotations, and the rounds go on
    until the color count stops growing, a discrete coloring included."""
    e, b = engine, engine.block

    def least(word):
        return min((word[i:] + word[:i] for i in range(len(word))),
                   default=word)

    def word_sig(word):
        return least(tuple((end, col[x]) for end, x in word))

    while True:
        sigs = [(0, col[i], word_sig(word))
                for i, word in enumerate(b.sad_words)]
        sigs += [(1, col[b.sep_base + j], *[col[x] for x in links])
                 for j, links in enumerate(b.sep_links)]
        sigs += [(2, col[e.face_base + j], word_sig(word),
                  (col[att[0]], att[1]) if att else ())
                 for j, (word, att) in enumerate(zip(b.face_words, e.face_att))]
        sigs += [(3, col[e.vertex_base + j],
                  tuple(sorted((col[a], side) for a, side in atts)),
                  tuple(sorted(col[s] for s in members)))
                 for j, (atts, members)
                 in enumerate(zip(e.vertex_atts, e.vertex_members))]
        sigs += [(4, col[e.annulus_base + j],
                  tuple((col[v], col[f] if f >= 0 else -1) for v, f in ends))
                 for j, ends in enumerate(e.ann_ends)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if len(rank) == len(set(col)):
            return new
        col = new


def dense_ranks(col: list) -> list:
    """Each color's rank among the distinct colors of ``col``."""
    rank = {c: r for r, c in enumerate(sorted(set(col)))}
    return [rank[c] for c in col]


def component_groups_oracle(p: InvariantPair) -> list:
    """``(vertices, annuli)`` of each assembly component of ``p``, each
    filtered from the whole pair in the pair's order."""
    return [([v for v in p.vertices if v.id in vertex_ids],
             [a for a in p.annuli if a.id in annulus_ids])
            for vertex_ids, annulus_ids in p.assembly]


def engine_initial_oracle(engine) -> list:
    """The engine's initial coloring: the block's colors, then each
    vertex at the vertex base plus the count of smaller labels, then
    every annulus at the annulus base."""
    e, labels = engine, sorted(engine.labels)
    return (e.block.initial
            + [e.vertex_base + labels.index(label) for label in e.labels]
            + [e.annulus_base] * (e.n - e.annulus_base))


def annulus_ends_oracle(engine, diagram: SaddleDiagram, vertices: list,
                        annuli: list, reversal: bool) -> list:
    """Each annulus's ``(vertex, face)`` ends in the engine's numbering
    (face -1 at a leaf; sides swapped under ``reversal``), each face
    looked up by ``(polycycle, face index)`` in a table numbering the
    faces of the polycycles of ``vertices`` in sorted order after the
    block's saddles and separatrices; ``diagram`` is the one the block
    was compiled from."""
    e = engine
    comps = sorted({v.component for v in vertices if v.label == "d"})
    faces = diagram.faces_by_component
    index = {(comp, idx): e.face_base + i
             for i, (comp, idx) in enumerate(
                 (comp, idx) for comp in comps
                 for idx in range(len(faces[comp])))}
    v_of = {v.id: e.vertex_base + i for i, v in enumerate(vertices)}
    component = {v.id: v.component for v in vertices}
    return [tuple((v_of[att.vertex], -1 if att.face is None
                   else index[(component[att.vertex], att.face)])
                  for att in ((a.pos, a.neg) if reversal else (a.neg, a.pos)))
            for a in annuli]


def end_ranks_oracle(engine) -> list:
    """Each annulus end's dense initial ranks of its vertex and face (-1
    at a leaf), ranked over the engine's whole initial coloring."""
    ranks = dense_ranks(engine.initial)
    return [tuple((ranks[v], ranks[f] if f >= 0 else -1) for v, f in ends)
            for ends in engine.ann_ends]


def orientation_oracle(engines) -> bytes:
    """The orientation byte from ``end_ranks_oracle``: each engine sorts
    its ends, the model sorts its engines' lists, and compares them with
    the same with every annulus's ends swapped."""
    model = sorted(sorted(end_ranks_oracle(e)) for e in engines)
    swapped = sorted(sorted((b, a) for a, b in end_ranks_oracle(e))
                     for e in engines)
    return b"<" if model < swapped else b">" if model > swapped else b"="


def ordered_cells(col: list) -> list:
    """The cells of the coloring ``col`` in color order, each the sorted
    list of its members: what a coloring says, whatever its color values."""
    cells = {}
    for i, c in enumerate(col):
        cells.setdefault(c, []).append(i)
    return [cells[c] for c in sorted(cells)]


# ---------------------------------------------------------------------------
# validation: the rule loops alone, each rule read in full


def _shape_misfits_oracle(model) -> list:
    """The misfits of the shape pass that opens ``violations``, written out
    record class by record class: a diagram's records, or a pair's
    diagram, torus count and own records, each value of a Python type the
    rules cannot read, all under rule ``"type"``."""
    misfits = []

    def misfit(kind, subject, message):
        if type(subject) is not str:
            subject = repr(subject)
        misfits.append(Violation(kind, subject, "type", message))

    def field(kind, r, name, allowed, what):
        value = getattr(r, name)
        fits = any(type(value) is t for t in allowed)
        if not fits:
            misfit(kind, r.id,
                   f"{kind} {r.id!r} has {name} {value!r}, which is not {what}")
        return fits

    def records(name, cls, kind):
        held = getattr(model, name)
        if type(held) is not tuple:
            misfit("model", "", f"{name} {held!r} is not a tuple")
            return []
        for r in held:
            if type(r) is not cls:
                misfit(kind, "", f"{name} holds {r!r}, which is of"
                       f" class {type(r).__name__}, not {cls.__name__}")
        return [r for r in held if type(r) is cls]

    if isinstance(model, SaddleDiagram):
        for s in records("saddles", Saddle, "saddle"):
            field("saddle", s, "id", (str,), "a string")
            field("saddle", s, "k", (int,), "an integer")
            if field("saddle", s, "rotation", (tuple,), "a tuple"):
                for pos, dart in enumerate(s.rotation):
                    if not (type(dart) is tuple and len(dart) == 2
                            and all(type(x) is str for x in dart)):
                        misfit("saddle", s.id,
                               f"saddle {s.id!r} rotation slot {pos} holds {dart!r},"
                               f" which is not a dart")
            field("saddle", s, "kind", (str,), "a string")
        for e in records("separatrices", Separatrix, "separatrix"):
            field("separatrix", e, "id", (str,), "a string")
            field("separatrix", e, "source", (str,), "a string")
            field("separatrix", e, "target", (str,), "a string")
            field("separatrix", e, "twisted", (bool,), "a bool")
        return misfits

    if isinstance(model.diagram, SaddleDiagram):
        misfits += _shape_misfits_oracle(model.diagram)
    else:
        misfit("model", "", f"diagram {model.diagram!r} is not a SaddleDiagram")
    if type(model.tori) is not int:
        misfit("model", "", f"torus count {model.tori!r} is not an integer")
    for v in records("vertices", VertexNode, "vertex"):
        field("vertex", v, "id", (str,), "a string")
        field("vertex", v, "label", (str,), "a string")
        field("vertex", v, "component", (str, type(None)), "a string or None")
    for a in records("annuli", AnnulusEdge, "annulus"):
        field("annulus", a, "id", (str,), "a string")
        for side in ("neg", "pos"):
            if not field("annulus", a, side, (Attachment,), "an Attachment"):
                continue
            att = getattr(a, side)
            if type(att.vertex) is not str or not (att.face is None
                                                   or type(att.face) is int):
                misfit("annulus", a.id,
                       f"annulus {a.id!r} {side} side has vertex {att.vertex!r}"
                       f" and face {att.face!r}, which are not a string and an"
                       f" integer or None")
    return misfits


def diagram_violations_oracle(d: SaddleDiagram) -> tuple:
    """The violations of ``d``, in the order and wording of
    ``SaddleDiagram.violations``, by running every rule loop once the
    shape pass finds no misfit."""
    misfits = _shape_misfits_oracle(d)
    if misfits:
        return tuple(misfits)
    violations = []
    saddle_by_id = {s.id: s for s in d.saddles}
    sep_by_id = {e.id: e for e in d.separatrices}

    def bad(kind, subject, rule, message):
        violations.append(Violation(kind, subject, rule, message))

    seen = set()
    for s in d.saddles:
        if s.id in seen:
            bad("saddle", s.id, "unique-id", f"duplicate saddle id {s.id!r}")
        seen.add(s.id)
    for e in d.separatrices:
        if e.id in seen:
            bad("separatrix", e.id, "unique-id",
                f"separatrix id {e.id!r} collides with another id")
        seen.add(e.id)

    for e in d.separatrices:
        if e.source not in saddle_by_id:
            bad("separatrix", e.id, "dangling-endpoint",
                f"separatrix {e.id!r} has unknown source {e.source!r}")
        if e.target not in saddle_by_id:
            bad("separatrix", e.id, "dangling-endpoint",
                f"separatrix {e.id!r} has unknown target {e.target!r}")
        if e.twisted:
            bad("separatrix", e.id, "twist-unsupported",
                f"separatrix {e.id!r} is twisted; twisted ribbons are not supported")

    placements = {}
    for s in d.saddles:
        if s.kind != "interior":
            bad("saddle", s.id, "boundary-unsupported",
                f"saddle {s.id!r} has kind {s.kind!r}; only interior saddles are supported")
            continue
        if s.k < 0:
            bad("saddle", s.id, "degree", f"saddle {s.id!r} has negative k")
            continue
        if len(s.rotation) != s.degree:
            bad("saddle", s.id, "degree",
                f"saddle {s.id!r} has rotation length {len(s.rotation)}"
                f" but degree {s.degree} (2k+2 with k={s.k})")
        for pos, dart in enumerate(s.rotation):
            sep, end = dart
            if sep not in sep_by_id or end not in (OUT, IN):
                bad("saddle", s.id, "unknown-dart",
                    f"saddle {s.id!r} rotation slot {pos} references unknown dart {dart!r}")
                continue
            if dart in placements:
                bad("saddle", s.id, "dart-pairing",
                    f"dart {dart!r} appears more than once")
            placements[dart] = s.id
        n = len(s.rotation)
        for pos in range(n):
            here, after = s.rotation[pos], s.rotation[(pos + 1) % n]
            if here[1] == after[1]:
                bad("saddle", s.id, "alternation",
                    f"saddle {s.id!r} rotation slots {pos},{(pos + 1) % n}"
                    f" are consecutive {here[1]} darts")

    for e in d.separatrices:
        for dart, home in ((e.out_dart, e.source), (e.in_dart, e.target)):
            where = placements.get(dart)
            if where is None:
                bad("separatrix", e.id, "dart-pairing",
                    f"dart {dart!r} does not occur in any rotation")
            elif where != home:
                bad("separatrix", e.id, "source-label",
                    f"dart {dart!r} sits at saddle {where!r} but belongs at {home!r}")

    return tuple(violations)


def pair_violations_oracle(p: InvariantPair) -> tuple:
    """The violations of ``p``, in the order and wording of
    ``InvariantPair.violations``, by running every rule loop.  The
    components and their face counts of a valid diagram come from
    ``face_points_oracle``: every saddle has darts there, so each
    component owns at least one face point.  The shape pass comes first,
    and its misfits, if any, are all the violations."""
    misfits = _shape_misfits_oracle(p)
    if misfits:
        return tuple(misfits)
    violations = list(diagram_violations_oracle(p.diagram))

    def bad(kind, subject, rule, message):
        violations.append(Violation(kind, subject, rule, message))

    seen = set()
    for v in p.vertices:
        if v.id in seen:
            bad("vertex", v.id, "unique-id", f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
    for a in p.annuli:
        if a.id in seen:
            bad("annulus", a.id, "unique-id",
                f"annulus id {a.id!r} collides with another id")
        seen.add(a.id)

    if p.tori < 0:
        bad("model", "", "tori", f"torus count {p.tori!r} must be a non-negative integer")

    if violations:
        return tuple(violations)

    n_faces = {}
    for comp, idx in face_points_oracle(p.diagram).values():
        n_faces[comp] = max(n_faces.get(comp, 0), idx + 1)
    comp_ids = set(n_faces)

    comp_vertex = {}
    for v in p.vertices:
        if v.label not in ("c", "n", "b", "d"):
            bad("vertex", v.id, "label", f"vertex {v.id!r} has unknown label {v.label!r}")
            continue
        if v.label == "d":
            if v.component is None:
                bad("vertex", v.id, "component-ref",
                    f"polycycle vertex {v.id!r} names no diagram component")
            elif v.component not in comp_ids:
                bad("vertex", v.id, "component-ref",
                    f"vertex {v.id!r} references unknown component {v.component!r}")
            elif v.component in comp_vertex:
                bad("vertex", v.id, "component-ref",
                    f"components must label exactly one vertex;"
                    f" {v.component!r} labels both {comp_vertex[v.component]!r} and {v.id!r}")
            else:
                comp_vertex[v.component] = v.id
        elif v.component is not None:
            bad("vertex", v.id, "component-ref",
                f"vertex {v.id!r} has label {v.label!r} but names a component")
    for comp_id in sorted(comp_ids - set(comp_vertex)):
        bad("model", comp_id, "component-ref",
            f"diagram component {comp_id!r} is the label of no vertex")

    if violations:
        return tuple(violations)

    vertex_by_id = {v.id: v for v in p.vertices}
    use = {}
    for a in p.annuli:
        for side, att in (("neg", a.neg), ("pos", a.pos)):
            v = vertex_by_id.get(att.vertex)
            if v is None:
                bad("annulus", a.id, "attachment",
                    f"annulus {a.id!r} {side} side references unknown vertex {att.vertex!r}")
                continue
            if v.label == "d":
                if att.face is None:
                    bad("annulus", a.id, "attachment",
                        f"annulus {a.id!r} {side} side attaches to polycycle"
                        f" {v.id!r} without naming a face")
                    continue
                count = n_faces.get(v.component, 0)
                if not 0 <= att.face < count:
                    bad("annulus", a.id, "attachment",
                        f"annulus {a.id!r} {side} side names face {att.face}"
                        f" of component {v.component!r} which has {count} faces")
                    continue
            elif att.face is not None:
                bad("annulus", a.id, "attachment",
                    f"annulus {a.id!r} {side} side names a face on"
                    f" non-polycycle vertex {v.id!r}")
                continue
            use.setdefault((att.vertex, att.face), []).append((a.id, side))

    for v in p.vertices:
        if v.label == "d":
            for idx in range(n_faces.get(v.component, 0)):
                users = use.get((v.id, idx), [])
                if not users:
                    bad("vertex", v.id, "matching",
                        f"face {idx} of component {v.component!r} bounds no annulus")
                elif len(users) > 1:
                    bad("vertex", v.id, "matching",
                        f"face {idx} of component {v.component!r} bounds"
                        f" {len(users)} annuli: {sorted(users)}")
        else:
            users = use.get((v.id, None), [])
            if not users:
                bad("vertex", v.id, "matching",
                    f"{v.label}-vertex {v.id!r} is attached to no annulus")
            elif len(users) > 1:
                bad("vertex", v.id, "matching",
                    f"{v.label}-vertex {v.id!r} is attached to {len(users)}"
                    f" annuli: {sorted(users)}")

    if not p.vertices and not p.annuli and p.tori == 0:
        bad("model", "", "nonempty", "model has no cells at all")

    return tuple(violations)


# ---------------------------------------------------------------------------
# multigraphs


def all_connected_multigraphs(max_total: int):
    """Every connected multi-graph with >= 1 edge and |V|+|E| <= max_total.

    Vertices are 0..nv-1; exhaustive over edge multisets, not deduped up
    to isomorphism (callers that need classes dedup themselves).
    """
    from itertools import combinations_with_replacement

    for nv in range(1, max_total):
        slots = [frozenset((i, j)) for i in range(nv) for j in range(i, nv)]
        for ne in range(1, max_total - nv + 1):
            for combo in combinations_with_replacement(slots, ne):
                g = Multigraph.build(
                    range(nv),
                    {f"e{i}": ends for i, ends in enumerate(combo)},
                )
                if g.is_connected():
                    yield g


def random_graph(n: int) -> Multigraph:
    """A random tree on n vertices plus n // 2 random extra edges, loops
    allowed, drawn with seed n: connected, so always realizable."""
    rng = random.Random(n)
    edges = {f"t{i}": (f"x{rng.randrange(i)}", f"x{i}") for i in range(1, n)}
    for j in range(n // 2):
        u, w = rng.randrange(n), rng.randrange(n)
        edges[f"r{j}"] = (f"x{u}",) if u == w else (f"x{u}", f"x{w}")
    return Multigraph.build([f"x{i}" for i in range(n)], edges)


def cycle_graph(m: int) -> Multigraph:
    """m vertices on a cycle: realized, a cycle of m one-loop flowers."""
    return Multigraph.build(
        [f"x{i}" for i in range(m)],
        {f"e{i}": (f"x{i}", f"x{(i + 1) % m}") for i in range(m)})


def star_graph(m: int) -> Multigraph:
    """A hub joined to m leaves."""
    return Multigraph.build(
        ["hub"] + [f"x{i}" for i in range(m)],
        {f"e{i}": ("hub", f"x{i}") for i in range(m)})


def path_graph(m: int) -> Multigraph:
    """m vertices on a path."""
    return Multigraph.build(
        [f"x{i}" for i in range(m)],
        {f"e{i}": (f"x{i}", f"x{i + 1}") for i in range(m - 1)})


# ---------------------------------------------------------------------------
# model documents


def document_of(p: InvariantPair) -> dict:
    """The model document of ``p`` as plain values, for ``json.dumps``."""
    return {
        "version": FORMAT_VERSION,
        "diagram": {
            "saddles": [
                {
                    "id": s.id,
                    "kind": s.kind,
                    "k": s.k,
                    "rotation": [
                        {"sep": sep, "end": end} for sep, end in s.rotation
                    ],
                }
                for s in p.diagram.saddles
            ],
            "separatrices": [
                {"id": e.id, "source": e.source, "target": e.target}
                | ({"twisted": True} if e.twisted else {})
                for e in p.diagram.separatrices
            ],
        },
        "graph": {
            "vertices": [
                {"id": v.id, "label": "polycycle" if v.label == "d" else v.label}
                | ({"component": v.component} if v.label == "d" else {})
                for v in p.vertices
            ],
            "annuli": [
                {
                    "id": a.id,
                    "neg": {"vertex": a.neg.vertex}
                    | ({"face": a.neg.face} if a.neg.face is not None else {}),
                    "pos": {"vertex": a.pos.vertex}
                    | ({"face": a.pos.face} if a.pos.face is not None else {}),
                }
                for a in p.annuli
            ],
            "tori": p.tori,
        },
    }


# ---------------------------------------------------------------------------
# relabeling


def random_renaming(p: InvariantPair, rng: random.Random) -> tuple:
    """Seeded maps for ``relabel_pair``: saddles, separatrices, vertices
    and annuli, each onto shuffled ``S0``, ``E0``, ``V0``, ``A0``, ..."""
    def scramble(ids, prefix):
        names = [f"{prefix}{i}" for i in range(len(ids))]
        rng.shuffle(names)
        return dict(zip(sorted(ids), names))

    return (
        scramble([s.id for s in p.diagram.saddles], "S"),
        scramble([e.id for e in p.diagram.separatrices], "E"),
        scramble([v.id for v in p.vertices], "V"),
        scramble([a.id for a in p.annuli], "A"),
    )


def random_relabel(p: InvariantPair, rng: random.Random) -> InvariantPair:
    return relabel_pair(p, *random_renaming(p, rng))


def relabel_oracle(p: InvariantPair, saddles: dict, separatrices: dict,
                   vertices: dict, annuli: dict) -> InvariantPair:
    """``relabel_pair`` by tracing the renamed diagram's faces again: each
    face of ``p`` is found there by its set of renamed darts, and each
    polycycle by where its saddles went."""
    check_pair(p)
    new_diagram = SaddleDiagram(
        tuple(Saddle(saddles[s.id], s.k,
                     tuple((separatrices[sep], end) for sep, end in s.rotation),
                     s.kind)
              for s in p.diagram.saddles),
        tuple(Separatrix(separatrices[e.id], saddles[e.source],
                         saddles[e.target], e.twisted)
              for e in p.diagram.separatrices),
    )
    old_faces = faces_by_component(p.diagram)
    new_face_index = {
        frozenset(f.sides): idx
        for faces in faces_by_component(new_diagram).values()
        for idx, f in enumerate(faces)
    }

    def remap(att: Attachment) -> Attachment:
        v = p.vertex_by_id[att.vertex]
        if v.label != "d":
            return Attachment(vertices[att.vertex])
        face = old_faces[v.component][att.face]
        darts = frozenset((separatrices[sep], end) for sep, end in face.sides)
        return Attachment(vertices[att.vertex], new_face_index[darts])

    def component(v: VertexNode):
        return (new_diagram.component_of[saddles[v.component]]
                if v.label == "d" else None)

    return InvariantPair(
        new_diagram,
        tuple(VertexNode(vertices[v.id], v.label, component(v))
              for v in p.vertices),
        tuple(AnnulusEdge(annuli[a.id], remap(a.neg), remap(a.pos))
              for a in p.annuli),
        p.tori,
    )


# ---------------------------------------------------------------------------
# pruning-free enumeration twin


def _cycle_type(perm) -> Counter:
    """Cycle length -> number of cycles of that length in ``perm``."""
    seen, lengths = set(), Counter()
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths[length] += 1
    return lengths


def _double_factorial(m: int) -> int:
    """m!! for odd m >= -1; (-1)!! = 1."""
    return prod(range(m, 0, -2))


def slot_orbit_count(ks: tuple, reversal: bool) -> int:
    """The number of orbits of ``_slot_symmetries(ks, reversal)`` on the
    bijections f from out-slots to in-slots, by the Cauchy-Frobenius
    (Burnside) lemma: the mean over the group of the bijections each
    element fixes, each count in closed form.

    A non-reflecting element acts as alpha on out-slots and beta on
    in-slots and fixes f when f alpha = beta f: the centralizer size of
    alpha, prod over cycle lengths l of c_l! l^c_l, when alpha and beta
    have the same cycle type, and none otherwise.  A reflecting element
    maps out-slots to in-slots by A and in-slots to out-slots by B and
    fixes f when f B f = A, so g = B f runs over the square roots of BA.
    Per cycle length l of BA with c_l cycles, these number the ways to
    pair some l-cycles into 2l-cycles, l ways per pair, and square-root
    the odd ones alone: sum over j of C(c_l, 2j) (2j-1)!! l^j for odd l,
    and (c_l - 1)!! l^(c_l/2), or none when c_l is odd, for even l.
    """
    n = sum(ks) + len(ks)
    group = _slot_symmetries(ks, reversal)
    fixed = 0
    for sigma in group:
        if n and sigma[0] >= n:
            a = [x - n for x in sigma[:n]]
            b = sigma[n:]
            roots = 1
            for l, c in _cycle_type([b[a[j]] for j in range(n)]).items():
                if l % 2:
                    roots *= sum(comb(c, 2 * j) * _double_factorial(2 * j - 1)
                                 * l ** j for j in range(c // 2 + 1))
                elif c % 2:
                    roots = 0
                else:
                    roots *= _double_factorial(c - 1) * l ** (c // 2)
            fixed += roots
        else:
            alpha = _cycle_type(sigma[:n])
            if alpha == _cycle_type([x - n for x in sigma[n:]]):
                fixed += prod(factorial(c) * l ** c for l, c in alpha.items())
    assert fixed % len(group) == 0
    return fixed // len(group)


def diagram_class_count(bounds: EnumBounds) -> int:
    """The number of diagram classes within ``bounds``: the slot orbits
    summed over the degree multisets."""
    return sum(slot_orbit_count(ks, bounds.mode.allow_reversal)
               for ks in _degree_multisets(bounds.max_saddles,
                                           bounds.max_k_sum))


def diagram_candidates(ks: tuple):
    """Every diagram candidate over the degree multiset, in lexicographic
    order: one per bijection of out-slots to in-slots."""
    for image in permutations(range(sum(ks) + len(ks))):
        yield _diagram(ks, image)


def _all_matchings(points: list):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i in range(len(rest)):
        for tail in _all_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, rest[i])] + tail


def directed_closures_oracle(comps, face_points, moves,
                             bounds: EnumBounds) -> set:
    """Every closure ``enumeration._closures`` keeps for one diagram,
    built by another route: each set partition of the face points into
    pairs and singles, each direction of each pair and each (kind, side)
    of each single, filtered by ``max_annuli``, the leaf budgets and
    whether the pairs join the components, and kept when it equals the
    least of its images under ``moves`` (``(face_map, reverses)``; a
    reversing move also swaps every annulus's sides)."""
    points = sorted(face_points)
    budget = {"c": bounds.max_centers, "n": bounds.max_n, "b": bounds.max_b}
    caps = [(kind, side) for kind in budget for side in (False, True)]
    out = set()
    for count in range(len(points) // 2 + 1):
        for pairs in combinations(combinations(points, 2), count):
            used = {p for pair in pairs for p in pair}
            singles = [p for p in points if p not in used]
            if (len(used) < 2 * count
                    or count + len(singles) > bounds.max_annuli):
                continue
            links = [{a[0], b[0]} for a, b in pairs]
            reached = {comps[0][0]}
            for _ in comps:  # each pass reaches one more component or none
                for link in links:
                    if link & reached:
                        reached |= link
            if len(reached) < len(comps):
                continue
            for directed in product(*[(pair, pair[::-1]) for pair in pairs]):
                for capped in product(caps, repeat=len(singles)):
                    kinds = [kind for kind, _ in capped]
                    if any(kinds.count(k) > budget[k] for k in budget):
                        continue
                    closure = (tuple(sorted(directed)), tuple(sorted(
                        (p, kind, side)
                        for p, (kind, side) in zip(singles, capped))))
                    images = [(
                        tuple(sorted((f[b], f[a]) if r else (f[a], f[b])
                                     for a, b in closure[0])),
                        tuple(sorted((f[p], kind, side != r)
                                     for p, kind, side in closure[1])))
                        for f, r in moves]
                    if closure == min([closure, *images]):
                        out.add(closure)
    return out


def brute_force_pairs(bounds: EnumBounds) -> list:
    """Connected models within bounds, deduped only by pairwise search.

    No canonical forms, no symmetry pruning: every diagram candidate is
    kept, every labeled attachment point participates in every matching,
    and duplicates are removed by running pair_isomorphic against every
    representative found so far.
    """
    classes = []

    def offer(pair):
        if validate_pair(pair):
            return
        if len(assembly_components(pair)) + pair.tori != 1:
            return
        for rep in classes:
            if pair_isomorphic(rep, pair, bounds.mode) is not None:
                return
        classes.append(pair)

    if bounds.max_tori >= 1:
        offer(InvariantPair(SaddleDiagram.empty(), (), (), 1))

    leaf_kinds = (["c"] * bounds.max_centers + ["n"] * bounds.max_n
                  + ["b"] * bounds.max_b)

    for ks in _degree_multisets(bounds.max_saddles, bounds.max_k_sum):
        for diagram in diagram_candidates(ks):
            comps = diagram_components(diagram)
            faces = faces_by_component(diagram)
            d_vertices = tuple(
                VertexNode(f"p{i}", "d", comp_id)
                for i, (comp_id, _, _) in enumerate(comps)
            )
            vertex_of_comp = {c: f"p{i}" for i, (c, _, _) in enumerate(comps)}
            face_points = [
                ("face", comp_id, idx)
                for comp_id, _, _ in comps
                for idx in range(len(faces.get(comp_id, [])))
            ]
            leaf_points = [
                ("leaf", kind, i) for i, kind in enumerate(leaf_kinds)
            ]
            for chosen in range(len(leaf_points) + 1):
                for leaf_subset in combinations(leaf_points, chosen):
                    points = face_points + list(leaf_subset)
                    if len(points) % 2 or len(points) // 2 > bounds.max_annuli:
                        continue
                    for matching in _all_matchings(points):
                        for orient in product((0, 1), repeat=len(matching)):
                            pair = _assemble_brute(
                                diagram, d_vertices, vertex_of_comp,
                                matching, orient)
                            if pair is not None:
                                offer(pair)
    return classes


def _assemble_brute(diagram, d_vertices, vertex_of_comp, matching, orient):
    vertices = {v.id: v for v in d_vertices}
    annuli = []

    def resolve(point):
        if point[0] == "face":
            _, comp_id, idx = point
            return Attachment(vertex_of_comp[comp_id], idx)
        _, kind, i = point
        vid = f"{kind}{i}"
        if vid in vertices:
            return None  # leaf already used: cannot happen, points distinct
        vertices[vid] = VertexNode(vid, kind)
        return Attachment(vid)

    for (pa, pb), flipped in zip(matching, orient):
        if flipped:
            pa, pb = pb, pa
        att_a = resolve(pa)
        att_b = resolve(pb)
        if att_a is None or att_b is None:
            return None
        annuli.append(AnnulusEdge(f"a{len(annuli)}", att_a, att_b))

    if not vertices:
        return None
    return InvariantPair(diagram, tuple(vertices.values()), tuple(annuli), 0)
