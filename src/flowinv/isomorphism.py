"""Isomorphism of invariant pairs and deterministic canonical forms.

Two pairs are isomorphic when a relabeling of vertices/annuli and of
saddles/separatrices makes every label commute: vertex kinds match,
rotation words match up to cyclic shift, separatrix directions match,
ordered annulus labels match, and annulus attachments land on the
corresponding boundary circles.  Orientation reversal, when allowed, is
the single global involution that reverses every separatrix, reflects
every rotation word and swaps the negative/positive side of every
annulus at once.

``pair_isomorphic`` extends a map from one root dart per assembly
component: a connected combinatorial map is fixed by the image of one
dart, so the only choices are the roots and where a face reached through
an annulus starts.  ``canonical_form``, an independent
refinement-plus-individualization canonical labeling, is cross-checked
against it in the test suite rather than sharing code.

Reversal is written out by ``reverse_pair`` and ``reverse_diagram``.
REVERSIBLE canonical bytes are the lesser of the ORIENTED bytes of the
model and of its reversal: the canonical form of an orbit under an extra
involution is the least canonical form of its members (McKay and
Piperno, "Practical graph isomorphism, II", 2014).  ORIENTED bytes open
with an orientation byte (``_orientation``), a class invariant that
reversal flips, so when it reads ``<`` the model's own bytes are the
lesser and the reversal is not searched.  Otherwise the canonical search
labels the reversal in place and never builds the reversed pair: it
compiles ``reverse_diagram(p.diagram)`` and reads every annulus's sides
swapped.  It runs at most once per assembly component, pair object and
orientation; the pair keeps the framed bytes of each orientation in its
instance dict, and nothing else, so no cache outlives it.

An engine starts from a ``_DiagramBlock``: the compiled diagram part of
its component, and the diagram's part of the leaf text for each saddle
and separatrix coloring a leaf has had.  The caller of
``_canonical_blob`` owns the table of blocks: a pair labeled on its own
gets a table for that call alone, and ``enumerate_pairs`` keeps one per
diagram for its closure loop.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256
from itertools import repeat
from typing import NamedTuple

from .diagram import (
    IN,
    OUT,
    FaceCycle,
    Saddle,
    SaddleDiagram,
    Separatrix,
    check_diagram,
    flip,
)
from .graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    VertexNode,
    _check_types,
    check_pair,
)
from .topology import connected_groups

CANONICAL_FORMAT_VERSION = 3


@dataclass(frozen=True)
class IsoMode:
    """Orientation handling: allow_reversal distinguishes ~ from ~_+."""

    allow_reversal: bool


ORIENTED = IsoMode(allow_reversal=False)
REVERSIBLE = IsoMode(allow_reversal=True)



class CyclicWitness(NamedTuple):
    shift: int


def cyclic_equivalent(w1, w2) -> CyclicWitness | None:
    """The shift carrying w1 onto w2, or None.

    ``CyclicWitness(shift)`` means: rotate w1 left by ``shift`` to obtain
    w2.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if len(w1) != len(w2):
        return None
    n = len(w1)
    if n == 0:
        return CyclicWitness(0)
    for shift in range(n):
        if all(w1[(i + shift) % n] == w2[i] for i in range(n)):
            return CyclicWitness(shift)
    return None


@dataclass(frozen=True)
class PairWitness:
    """An explicit isomorphism: maps are from the first pair's ids to the second's.

    When ``reversed_orientation`` is set the maps carry the orientation
    reversal of the first pair onto the second.
    """

    saddles: dict
    separatrices: dict
    vertices: dict
    annuli: dict
    reversed_orientation: bool = False


# ---------------------------------------------------------------------------
# structural rewrites: relabel and reverse


def relabel_pair(p: InvariantPair, saddles: dict, separatrices: dict,
                 vertices: dict, annuli: dict) -> InvariantPair:
    """Rename every object of a valid pair; component references and face indices follow.

    A polycycle takes the name of its least renamed saddle, and a face the
    rank of its least renamed dart among its polycycle's faces.  The
    renamed diagram is validated: maps that send two ids to one name, or
    to a name that is not a ``str``, raise ``ValidationError``.
    """
    check_pair(p)
    new_diagram = SaddleDiagram(
        tuple(
            Saddle(saddles[s.id], s.k,
                   tuple((separatrices[sep], end) for sep, end in s.rotation),
                   s.kind)
            for s in p.diagram.saddles
        ),
        tuple(
            Separatrix(separatrices[e.id], saddles[e.source],
                       saddles[e.target], e.twisted)
            for e in p.diagram.separatrices
        ),
    )
    check_diagram(new_diagram)
    comp_rename = {comp_id: min(saddles[sid] for sid in saddle_ids)
                   for comp_id, saddle_ids, _ in p.diagram.components}
    face_rename = {}  # component id -> the new index of each face
    for comp_id, faces in p.diagram.faces_by_component.items():
        least = [min((separatrices[sep], end) for sep, end in f.sides)
                 for f in faces]
        rank = {dart: idx for idx, dart in enumerate(sorted(least))}
        face_rename[comp_id] = [rank[dart] for dart in least]

    def remap(att: Attachment) -> Attachment:
        v = p.vertex_by_id[att.vertex]
        if v.label != "d":
            return Attachment(vertices[att.vertex])
        return Attachment(vertices[att.vertex],
                          face_rename[v.component][att.face])

    new_vertices = tuple(
        VertexNode(vertices[v.id], v.label,
                   comp_rename[v.component] if v.label == "d" else None)
        for v in p.vertices
    )
    new_annuli = tuple(
        AnnulusEdge(annuli[a.id], remap(a.neg), remap(a.pos))
        for a in p.annuli
    )
    return InvariantPair(new_diagram, new_vertices, new_annuli, p.tori)


def reverse_diagram(d: SaddleDiagram) -> SaddleDiagram:
    """Reverse every separatrix and reflect every rotation word.

    A diagram already found valid hands its reversal what reversal keeps,
    stored the way ``cached_property`` stores it: its components, and its
    faces once traced (each runs through the same darts backwards from
    the same least dart, with the same flow sign).
    """
    r = SaddleDiagram(
        tuple(
            Saddle(s.id, s.k,
                   tuple(flip(dart) for dart in reversed(s.rotation)),
                   s.kind)
            for s in d.saddles
        ),
        tuple(
            Separatrix(e.id, e.target, e.source, e.twisted)
            for e in d.separatrices
        ),
    )
    kept = d.__dict__
    if kept.get("violations") == ():
        r.__dict__["components"] = d.components
        if "faces" in kept:
            r.__dict__["faces"] = tuple(
                FaceCycle(f.component, f.sides[:1] + f.sides[:0:-1],
                          f.flow_positive)
                for f in d.faces)
    return r


def reverse_pair(p: InvariantPair) -> InvariantPair:
    """The orientation reversal of the whole model.

    Separatrices reverse, rotation words reflect, every annulus swaps its
    negative and positive side.  Attachments stay as they are: a reversed
    face carries exactly the dart names of its original (each dart's end
    flag flips, but so does the naming of the separatrix ends, and the
    two cancel), so it keeps its least dart and with it its face index.
    The canonical search does not call this: it labels the reversal in
    place (see ``_CanonicalEngine``).
    """
    _check_types(p)
    new_annuli = tuple(AnnulusEdge(a.id, a.pos, a.neg) for a in p.annuli)
    return InvariantPair(reverse_diagram(p.diagram), p.vertices, new_annuli,
                         p.tori)


# ---------------------------------------------------------------------------
# isomorphism search by dart propagation


class _PairTables:
    """Per dart of one pair: its rotation successor, its saddle and the
    ``(annulus, side)`` glued to its face; per annulus, both ends as
    ``(vertex id, label, face darts)``, no darts at a leaf."""

    def __init__(self, p: InvariantPair):
        self.succ, self.saddle, self.glue, self.ends = {}, {}, {}, {}
        for s in p.diagram.saddles:
            for dart, after in zip(s.rotation, s.rotation[1:] + s.rotation[:1]):
                self.succ[dart] = after
                self.saddle[dart] = s
        faces = p.diagram.faces_by_component
        for a in p.annuli:
            self.ends[a.id] = ends = []
            for side, att in enumerate((a.neg, a.pos)):
                v = p.vertex_by_id[att.vertex]
                darts = (faces[v.component][att.face].sides
                         if v.label == "d" else ())
                for dart in darts:
                    self.glue[dart] = (a.id, side)
                ends.append((v.id, v.label, darts))


class _DartSearch:
    """Extends one map from the objects of ``p1`` (darts, vertex ids,
    annulus ids) to those of ``p2``, one assembly component at a time.

    Mapping a dart forces its rotation successor, its other end and the
    annulus glued to its face, so one dart fixes its whole polycycle.  An
    annulus fixes its ends; a polycycle end leaves a face entry, the first
    dart of the face with the darts of the image face as candidates.  The
    only choices are a component's root and one candidate per face entry;
    they sit on an explicit stack and ``trail`` undoes their bindings.
    """

    def __init__(self, t1: _PairTables, t2: _PairTables):
        self.t1, self.t2 = t1, t2
        self.fwd, self.used, self.trail, self.entries = {}, set(), [], []

    def _bind(self, x, y) -> bool:
        """Bind x to y if both are free; False if either is not."""
        if x in self.fwd or y in self.used:
            return False
        self.fwd[x] = y
        self.used.add(y)
        self.trail.append(x)
        return True

    def _undo(self, mark: int, entries: int) -> None:
        """Drop the bindings after trail ``mark`` and the later face entries."""
        for x in self.trail[mark:]:
            self.used.discard(self.fwd.pop(x))
        del self.trail[mark:]
        del self.entries[entries:]

    def _map_darts(self, x, y) -> bool:
        """Map dart x to dart y and all that forces; False on a conflict."""
        fwd, t1, t2 = self.fwd, self.t1, self.t2
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if x in fwd:
                if fwd[x] != y:
                    return False
                continue
            if (x[1] != y[1] or t1.saddle[x].k != t2.saddle[y].k
                    or not self._bind(x, y)):
                return False
            queue += ((t1.succ[x], t2.succ[y]), (flip(x), flip(y)))
            (a, side), (b, side2) = t1.glue[x], t2.glue[y]
            if side != side2 or not self._map_annulus(a, b):
                return False
        return True

    def _map_annulus(self, a, b) -> bool:
        """Map annulus a to annulus b and bind their ends by label."""
        if a in self.fwd:
            return self.fwd[a] == b
        if not self._bind(a, b):
            return False
        for (v1, label1, face1), (v2, label2, face2) in zip(self.t1.ends[a],
                                                            self.t2.ends[b]):
            if label1 != label2 or not (self.fwd.get(v1) == v2
                                        or self._bind(v1, v2)):
                return False
            if face1:
                if len(face1) != len(face2):
                    return False
                self.entries.append((face1[0], face2))
        return True

    def extend(self, seeds) -> bool:
        """Extend the map over one assembly component from the first seed
        that completes it; False, with nothing bound, if none does.

        ``seeds`` are (dart, dart) or (annulus, annulus) pairs.  A face
        entry whose first dart is mapped by then needs no choice: that
        dart's annulus was checked against the entry's image face.
        """
        entries = self.entries = []
        # frames: (trail mark, entries mark, next entry to open, choices)
        stack = [(len(self.trail), 0, 0, seeds)]
        while stack:
            t_mark, e_mark, cursor, choices = stack[-1]
            for x, y in choices:
                self._undo(t_mark, e_mark)
                if (self._map_darts(x, y) if isinstance(x, tuple)
                        else self._map_annulus(x, y)):
                    break
            else:
                self._undo(t_mark, e_mark)
                stack.pop()
                continue
            while cursor < len(entries) and entries[cursor][0] in self.fwd:
                cursor += 1
            if cursor == len(entries):
                return True
            first, image_face = entries[cursor]
            stack.append((len(self.trail), len(entries), cursor + 1,
                          zip(repeat(first), image_face)))
        return False


def _find_direct_iso(p1: InvariantPair, t2: _PairTables,
                     reversed_orientation: bool):
    """Match the assembly components of ``p1`` greedily: isomorphism is an
    equivalence, so any unused component of the second pair that one
    matches is as good as any other.  The assembly leaves the tori out;
    the caller's profile gate has counted them."""
    search = _DartSearch(_PairTables(p1), t2)
    t1 = search.t1
    faces = p1.diagram.faces_by_component
    for vertex_ids, annulus_ids in p1.assembly:
        comps = [p1.vertex_by_id[v].component for v in vertex_ids]
        comps = [c for c in comps if c is not None]
        if comps:
            seeds = zip(repeat(faces[min(comps)][0].sides[0]), t2.succ)
        else:  # one annulus between two leaves
            seeds = zip(repeat(min(annulus_ids)), t2.ends)
        if not search.extend(seeds):
            return None
    fwd = search.fwd
    darts = [(x, fwd[x]) for x in t1.saddle]
    return PairWitness({t1.saddle[x].id: t2.saddle[y].id for x, y in darts},
                       {x[0]: y[0] for x, y in darts},
                       {v.id: fwd[v.id] for v in p1.vertices},
                       {a.id: fwd[a.id] for a in p1.annuli},
                       reversed_orientation)


def pair_isomorphic(p1: InvariantPair, p2: InvariantPair,
                    mode: IsoMode = ORIENTED) -> PairWitness | None:
    """Search for an isomorphism of validated pairs; None if there is none.

    With ``mode.allow_reversal`` the global orientation reversal of the
    first pair is tried as well.
    """
    check_pair(p1)
    check_pair(p2)
    t2 = None  # the second pair's tables, built once for both orientations
    for reversed_orientation in ((False, True) if mode.allow_reversal
                                 else (False,)):
        source = reverse_pair(p1) if reversed_orientation else p1
        if source.profile != p2.profile:
            continue
        t2 = t2 or _PairTables(p2)
        witness = _find_direct_iso(source, t2, reversed_orientation)
        if witness is not None:
            return witness
    return None


def verify_witness(p1: InvariantPair, p2: InvariantPair, w: PairWitness) -> bool:
    """Apply a witness and compare the result with the second pair.

    The witness holds only if each of its maps is a bijection from the
    first pair's ids of its kind onto the second's.  With
    ``reversed_orientation`` the relabeled pair is then reversed: the two
    rewrites commute.  Rotation words are compared up to cyclic shift: a
    word may be stored from any starting dart.  Face indices depend only
    on the cyclic successor, so the annuli compare as they are.
    """
    check_pair(p1)
    _check_types(p2)
    d1, d2 = p1.diagram, p2.diagram
    for m, objs1, objs2 in ((w.saddles, d1.saddles, d2.saddles),
                            (w.separatrices, d1.separatrices, d2.separatrices),
                            (w.vertices, p1.vertices, p2.vertices),
                            (w.annuli, p1.annuli, p2.annuli)):
        ids2 = {x.id for x in objs2}
        if (len(objs1) != len(ids2) or m.keys() != {x.id for x in objs1}
                or {y for y in m.values() if isinstance(y, str)} != ids2):
            return False
    image = relabel_pair(p1, w.saddles, w.separatrices, w.vertices, w.annuli)
    if w.reversed_orientation:
        image = reverse_pair(image)
    d = image.diagram
    return ((image.vertices, image.annuli, image.tori, d.separatrices)
            == (p2.vertices, p2.annuli, p2.tori, d2.separatrices)
            and len(d.saddles) == len(d2.saddles)
            and all((s.id, s.k, s.kind) == (t.id, t.k, t.kind)
                    and _least_rotation(s.rotation) == _least_rotation(t.rotation)
                    for s, t in zip(d.saddles, d2.saddles)))


# ---------------------------------------------------------------------------
# canonical form


@dataclass(frozen=True)
class CanonicalForm:
    """Deterministic bytes equal exactly for isomorphic pairs (per mode)."""

    blob: bytes

    def digest(self) -> str:
        return sha256(self.blob).hexdigest()


def _least_rotation(word: tuple) -> tuple:
    """The least rotation; only rotations from the least letter can be it."""
    if not word:
        return word
    least = min(word)
    if word.count(least) == 1:
        i = word.index(least)
        return word[i:] + word[:i]
    return min(word[i:] + word[:i]
               for i, letter in enumerate(word) if letter == least)


class _DiagramBlock:
    """What the canonical engine derives from the diagram alone, for the
    polycycles ``comps``.

    Objects are numbered in type blocks: saddles from 0, then
    separatrices, then faces (by component, then face index); the engine
    numbers its vertices and annuli after them.  Colors are cell starts
    (see ``_CanonicalEngine``): an object's initial color is the index of
    the first occurrence of its key in the sorted keys.  Besides the index
    arrays the block keeps those initial colors, their dense ranks
    (``ranks``, which the orientation byte reads) and the first face
    object of each polycycle (``face_start``).  Initial keys of the
    diagram's objects carry the type tags 0-2 and so sort before every
    vertex and annulus key: their colors and ranks are the same in every
    engine.

    ``texts`` keeps the diagram's part of the leaf text (``text``) by the
    saddle and separatrix colors of the leaf, and ``vertex_colors`` the
    initial colors and ranks of the engines' vertices by their labels.
    Both live exactly as long as the block: one ``_canonical_blob`` call
    on a pair from outside, or one diagram's closure loop in
    ``enumerate_pairs``.
    """

    def __init__(self, diagram: SaddleDiagram, comps):
        comp_of = diagram.component_of
        saddles = [s for s in diagram.saddles if comp_of[s.id] in comps]
        seps = [e for e in diagram.separatrices if comp_of[e.id] in comps]
        s_of = {s.id: i for i, s in enumerate(saddles)}
        self.sep_base = len(saddles)
        e_of = {e.id: self.sep_base + i for i, e in enumerate(seps)}
        self.face_base = self.sep_base + len(seps)
        # the first face object of each polycycle, and its faces' offsets
        faces, self.face_start, self.face_groups = [], {}, []
        for comp in sorted(comps):
            comp_faces = diagram.faces_by_component[comp]
            self.face_start[comp] = self.face_base + len(faces)
            self.face_groups.append(
                range(len(faces), len(faces) + len(comp_faces)))
            faces += comp_faces
        self.vertex_base = self.face_base + len(faces)

        self.k = [s.k for s in saddles]
        self.sad_words = [
            [(end, e_of[sep]) for sep, end in s.rotation] for s in saddles
        ]
        self.face_words = [
            [(end, e_of[sep]) for sep, end in face.sides] for face in faces
        ]
        # Per dart (separatrix, end): the separatrices before and after it
        # in its saddle's rotation word, and the face it lies on.  Strict
        # alternation makes both neighbours of an out-dart in-darts and
        # vice versa, so the neighbours' ends carry nothing more.
        dart_links = {}
        for word in self.sad_words:
            for pos, dart in enumerate(word):
                dart_links[dart] = [word[pos - 1][1],
                                    word[(pos + 1) % len(word)][1]]
        for j, word in enumerate(self.face_words):
            for dart in word:
                dart_links[dart].append(self.face_base + j)
        self.sep_links = []
        for e in seps:
            i = e_of[e.id]
            prev_out, next_out, face_out = dart_links[(OUT, i)]
            prev_in, next_in, face_in = dart_links[(IN, i)]
            self.sep_links.append((
                s_of[e.source], s_of[e.target],
                prev_out, next_out, prev_in, next_in, face_out, face_in,
            ))
        self.members = {}
        for i, s in enumerate(saddles):
            self.members.setdefault(comp_of[s.id], []).append(i)

        keys = ([(0, s.k) for s in saddles]
                + [(1, e.source == e.target) for e in seps]
                + [(2, len(face.sides), face.flow_positive)
                   for face in faces])
        self.initial, self.ranks = _initial_colors(keys, 0)
        self.key_count = max(self.ranks, default=-1) + 1
        self.texts = {}
        self.vertex_colors = {}

    def text(self, col: list) -> tuple:
        """The ``k:``, ``r:`` and ``e:`` parts of a leaf's text under the
        discrete coloring ``col``; by object, the text ``#r`` of each
        face's rank r within its polycycle (by its least dart), an empty
        text at any other object and at -1, where an annulus end lies on
        no face; and by polycycle, its name ``dr`` by its rank r among the
        polycycles (by its least saddle).  All three read only the saddle
        and separatrix colors, so ``texts`` keeps them under those
        colors."""
        key = tuple(col[:self.face_base])
        kept = self.texts.get(key)
        if kept is not None:
            return kept
        sep_base = self.sep_base
        s_ord = _block_order(col, 0, sep_base)
        rot = []
        for i in s_ord:
            word = tuple(f"{col[e] - sep_base}{'o' if end == OUT else 'i'}"
                         for end, e in self.sad_words[i])
            rot.append(",".join(_least_rotation(word)))
        seps = []
        for j in _block_order(col, sep_base, self.face_base):
            source, target = self.sep_links[j][:2]
            seps.append(f"{col[source]}>{col[target]}")
        face_tag = [""] * (self.vertex_base + 1)
        for group in self.face_groups:
            group = sorted(group, key=lambda j: min(
                (col[e], end) for end, e in self.face_words[j]))
            for r, j in enumerate(group):
                face_tag[self.face_base + j] = f"#{r}"
        least = sorted((min(col[s] for s in members), comp)
                       for comp, members in self.members.items())
        names = {comp: f"d{r}" for r, (_, comp) in enumerate(least)}
        head = "|".join(("k:" + ",".join(str(self.k[i]) for i in s_ord),
                         "r:" + ";".join(rot), "e:" + ";".join(seps)))
        kept = self.texts[key] = (head, face_tag, names)
        return kept


def _initial_colors(keys: list, base: int) -> tuple:
    """The initial coloring of the objects ``base, base + 1, ...`` whose
    keys are ``keys``: each object's color, the start of its key's cell
    (``base`` plus the number of objects with smaller keys), and each
    object's dense rank among the distinct keys."""
    sizes = Counter(keys)
    start, rank, c = {}, {}, base
    for r, key in enumerate(sorted(sizes)):
        start[key], rank[key] = c, r
        c += sizes[key]
    return [start[key] for key in keys], [rank[key] for key in keys]


def _shared_cells(col: list) -> list:
    """``(start, members)`` of each cell of ``col`` with more than one
    member, the members in index order."""
    cells = {}
    for i, c in enumerate(col):
        cells.setdefault(c, []).append(i)
    return [(c, members) for c, members in cells.items() if len(members) > 1]


def _block_order(col: list, lo: int, hi: int) -> list:
    """The objects ``lo..hi-1`` of a discrete coloring whose block holds the
    colors from ``lo`` on, as offsets from ``lo``, in color order."""
    out = [0] * (hi - lo)
    for i in range(lo, hi):
        out[col[i] - lo] = i - lo
    return out


class _CanonicalEngine:
    """Refinement plus individualization over one assembly component.

    The constructor takes the component's diagram part compiled once into
    a ``_DiagramBlock``, which several engines over one diagram may share,
    and adds the index arrays of the vertices and annuli in one pass over
    the annuli, with the dense initial ranks of each annulus end
    (``end_ranks``) for the orientation byte.  With
    ``reversal`` it labels the reversal of the component: the block is
    compiled from the reversed diagram, and each annulus's sides are read
    swapped, as ``reverse_pair`` swaps them.  Objects are
    numbered in type blocks: saddles from 0, then separatrices, faces (by
    component, then face index), vertices and annuli, each block from its
    base on; a coloring is a flat list over these numbers.  It is an
    ordered partition of the objects: each object's color is the start of
    its cell, the number of objects in earlier cells, so the m members of
    the cell that starts at c all have the color c, and c+1..c+m-1 are no
    object's color.  Refinement
    splits the shared cells in place until none splits (see ``refine``);
    the lexicographically least serialization over all discrete branch
    colorings is canonical.

    A separatrix's signature sees, at both ends, the dart's neighbours in
    the rotation word and the face the dart lies on.  Position thus
    travels along rotation words and from faces and annuli back into the
    diagram, so one individualized dart discretizes its polycycle and
    the annuli carry that into the rest of the component: symmetric
    models need a few branches per dart, not factorially many.

    Initial keys lead with the object's type tag, and a split keeps each
    part of a cell where the cell was, so a coloring keeps the type
    blocks in order: at a discrete leaf the colors are 0..n-1 and each
    block holds the colors from its base on.  An object's canonical index
    is its color minus its block base; ``serialize`` reads only colors
    and compiled arrays, never object ids.  A branch individualizes one
    member of the target cell, the shared cell with the least start, by
    moving it to the end of its type block (``individualize``).

    These are the bytes of format 3, whose colors were dense ranks: each
    round re-ranked every signature, each led by the object's tag and
    color, and a branch gave its object the color n.  Each slot of a
    signature holds the colors of one type, and within a type cell
    starts order the objects as dense ranks do, and as the color n did
    after its first round, which put the object at the end of its type
    block.  So every round gives the ordered partition that dense ranks
    gave, and the search tree, its leaves and the bytes are the same.

    Four shortcuts skip work whose result is known, and one pruning rule
    skips subtrees whose least leaf is known; none changes a byte.
    Refinement stops once no cell is shared: a discrete coloring cannot
    split, and the search then goes straight to its leaf.  A round signs
    only the members of shared cells: a cell of one object can never
    split, and no signature is compared outside its own cell.
    ``_least_rotation`` builds only the rotations that start at the least
    letter, and the least rotation starts there.  A leaf's saddle,
    rotation and separatrix text, and its face ranks, read only the saddle
    and separatrix colors, so the block keeps them by those colors: the
    closures of one diagram meet the same few texts again and again.  The
    search records an automorphism whenever a leaf serializes like the
    least one so far, and skips a target-cell member that lies in the
    orbit of an explored one under the recorded automorphisms fixing every
    individualized object of the node: such an automorphism carries the
    explored subtree onto the skipped one, leaf for leaf with equal bytes
    (McKay 1981), so the least leaf stays.
    """

    def __init__(self, block: _DiagramBlock, vertices=(), annuli=(),
                 reversal: bool = False):
        self.block = block
        self.face_base = face_base = block.face_base
        self.vertex_base = vertex_base = block.vertex_base
        self.annulus_base = annulus_base = vertex_base + len(vertices)
        self.n = annulus_base + len(annuli)

        self.labels = labels = [v.label for v in vertices]
        key = tuple(labels)
        kept = block.vertex_colors.get(key)
        if kept is None:
            colors, ranks = _initial_colors(labels, vertex_base)
            kept = block.vertex_colors[key] = (
                colors, [block.key_count + r for r in ranks])
        v_colors, v_ranks = kept
        self.initial = (block.initial + v_colors
                        + [annulus_base] * len(annuli))
        # vertex id -> (object, first face object of its polycycle, rank)
        face_start, members = block.face_start, block.members
        at = {v.id: (vertex_base + i, face_start.get(v.component), rank)
              for i, (v, rank) in enumerate(zip(vertices, v_ranks))}
        self.vertex_members = [members[v.component] if v.label == "d"
                               else [] for v in vertices]
        # a polycycle vertex is named by its polycycle's rank at a leaf
        self.vertex_names = [(v.component, v.label) for v in vertices]

        # per annulus end: its vertex and face objects (-1 at a leaf), and
        # their dense initial ranks, which the orientation byte compares
        self.face_att = face_att = [None] * len(block.face_words)
        self.vertex_atts = vertex_atts = [[] for _ in vertices]
        self.ann_ends, self.end_ranks = ann_ends, end_ranks = [], []
        face_rank = block.ranks
        for j, a in enumerate(annuli, annulus_base):
            neg, pos = (a.pos, a.neg) if reversal else (a.neg, a.pos)
            v, first, v_rank = at[neg.vertex]
            w, first_w, w_rank = at[pos.vertex]
            vertex_atts[v - vertex_base].append((j, 0))
            vertex_atts[w - vertex_base].append((j, 1))
            f = g = f_rank = g_rank = -1
            if neg.face is not None:
                f = first + neg.face
                face_att[f - face_base] = (j, 0)
                f_rank = face_rank[f]
            if pos.face is not None:
                g = first_w + pos.face
                face_att[g - face_base] = (j, 1)
                g_rank = face_rank[g]
            ann_ends.append(((v, f), (w, g)))
            end_ranks.append(((v_rank, f_rank), (w_rank, g_rank)))
        # where each type block starts, and the end of the last
        self.bounds = (0, block.sep_base, face_base, vertex_base,
                       annulus_base, self.n)

    def refine(self, col: list) -> list:
        """Split the shared cells of ``col`` until no cell splits or none is
        shared; the shared cells left, ``(start, members)`` with the
        members in index order, stay in ``shared`` for ``_search``.

        Each round signs the members of every shared cell from the last
        round's colors, so rounds are synchronous, then sorts each such
        cell by signature and splits it in place: a group of equal
        signatures is colored with the cell's start plus the group's
        offset in it.  Cells never move, so the colors stay cell starts.
        """
        col = list(col)
        shared = _shared_cells(col)
        while shared:
            signed = [self._signatures(col, c, members)
                      for c, members in shared]
            kept, split = [], False
            for (start, members), sigs in zip(shared, signed):
                if sigs.count(sigs[0]) == len(sigs):
                    kept.append((start, members))
                    continue
                split = True
                c, group, last = start, [], None
                for offset, (sig, i) in enumerate(sorted(zip(sigs, members))):
                    if sig != last:
                        if len(group) > 1:
                            kept.append((c, group))
                        c, group, last = start + offset, [], sig
                    col[i] = c
                    group.append(i)
                if len(group) > 1:
                    kept.append((c, group))
            if not split:
                break
            shared = kept
        self.shared = shared
        return col

    def _signatures(self, col: list, start: int, members: list) -> list:
        """One refinement round's signatures under ``col`` of the cell
        ``members`` that starts at ``start``, which lies in one type
        block.  A face's signature holds its rotation word and the
        ``(annulus, side)`` end glued to it, if any."""
        if start >= self.annulus_base:
            base, ends = self.annulus_base, self.ann_ends
            return [[(col[v], col[f] if f >= 0 else -1)
                     for v, f in ends[i - base]] for i in members]
        if start >= self.vertex_base:
            base, atts = self.vertex_base, self.vertex_atts
            return [(sorted([(col[a], side) for a, side in atts[i - base]]),
                     sorted([col[s] for s in self.vertex_members[i - base]]))
                    for i in members]
        block = self.block
        if start >= self.face_base:
            base, words = self.face_base, block.face_words
            sigs = []
            for i in members:
                w = tuple([(end, col[e]) for end, e in words[i - base]])
                att = self.face_att[i - base]
                sigs.append((_least_rotation(w),
                             (col[att[0]], att[1]) if att else ()))
            return sigs
        if start >= block.sep_base:
            base, links = block.sep_base, block.sep_links
            return [[col[x] for x in links[i - base]] for i in members]
        words = block.sad_words
        return [_least_rotation(tuple([(end, col[e]) for end, e in words[i]]))
                for i in members]

    def individualize(self, col: list, i: int) -> list:
        """``col`` with object ``i`` alone at the end of its type block: the
        later cells of the block move down by one."""
        k = bisect_right(self.bounds, i)
        lo, hi = self.bounds[k - 1], self.bounds[k]
        c = col[i]
        col = list(col)
        col[lo:hi] = [x - 1 if x > c else x for x in col[lo:hi]]
        col[i] = hi - 1
        return col

    def serialize(self, col: list) -> bytes:
        """The text of a discrete coloring, in canonical indices.  The
        diagram's part comes from the block (``_DiagramBlock.text``)."""
        vertex_base = self.vertex_base
        head, face_tag, names = self.block.text(col)
        verts = [names.get(comp, label) for comp, label in (
            self.vertex_names[j]
            for j in _block_order(col, vertex_base, self.annulus_base))]
        ends = self.ann_ends
        anns = [f"{col[v] - vertex_base}{face_tag[f]}"
                f">{col[w] - vertex_base}{face_tag[g]}"
                for (v, f), (w, g) in (ends[j] for j in _block_order(
                    col, self.annulus_base, self.n))]
        return "|".join((head, "v:" + ",".join(verts),
                         "a:" + ";".join(anns))).encode("ascii")

    def canonical(self) -> bytes:
        """The least leaf serialization of the search tree."""
        self.automorphisms = []
        self._best = None
        self._search(self.initial, [])
        return self._best[0]

    def _search(self, col: list, fixed: list) -> None:
        """Visit the subtree below ``col``.

        ``fixed`` lists the objects individualized on the way here; only
        the root has none.
        """
        col = self.refine(col)
        if not self.shared:  # discrete
            self._leaf(col)
            return
        target = min(self.shared)[1]
        explored = []
        known = 0
        for i in target:
            if explored and self.automorphisms:
                if known < len(self.automorphisms):
                    known = len(self.automorphisms)
                    orbit = self._orbits(target, fixed)
                if any(orbit[i] == orbit[j] for j in explored):
                    continue
            fixed.append(i)
            self._search(self.individualize(col, i), fixed)
            fixed.pop()
            explored.append(i)

    def _leaf(self, col: list) -> None:
        blob = self.serialize(col)
        if self._best is None or blob < self._best[0]:
            self._best = (blob, col)
        elif blob == self._best[0]:
            self._record(col, self._best[1])

    def _record(self, col: list, earlier: list) -> None:
        """Record the automorphism that sends each object to the object of
        its color in ``earlier``, a leaf that serialized the same."""
        where = [0] * self.n
        for x, c in enumerate(earlier):
            where[c] = x
        self.automorphisms.append([where[c] for c in col])

    def _orbits(self, cell: list, fixed: list) -> dict:
        """Member of ``cell`` -> its orbit's number, under the recorded
        automorphisms that fix every object of ``fixed``.

        Those automorphisms keep the node's coloring, so they map the cell
        onto itself and its orbits need only the links inside it.
        """
        gens = [g for g in self.automorphisms if all(g[x] == x for x in fixed)]
        groups = connected_groups(cell, ((x, g[x]) for g in gens for x in cell))
        return {x: k for k, group in enumerate(groups) for x in group}


def _framed(blobs, orientation: bytes = b"") -> bytes:
    """The format byte, a pair's orientation byte (a bare diagram has
    none), then the component blobs sorted and newline-joined."""
    return (bytes([CANONICAL_FORMAT_VERSION]) + orientation
            + b"\n".join(sorted(blobs)))


def _orientation(engines) -> bytes:
    """``<``, ``=`` or ``>``: how the model's annulus ends compare with
    the same ends swapped.

    An annulus end reads as the initial ranks of its vertex and of its
    face (-1 at a leaf); each component sorts its annuli's end pairs, and
    the model sorts its components' lists.  Isomorphic models give equal
    lists, so the byte is an ORIENTED class invariant.  Reversal keeps
    every initial rank and swaps only the two ends of each annulus, so
    the reversal's byte is this byte flipped, and ``=`` whenever the
    model is isomorphic to its reversal.

    A rank is the dense rank of an initial color within its engine, as
    format 3 reads it: the lists of different components are compared,
    and cell starts, which count objects rather than keys, would order
    some of them otherwise.  Each engine compiles its ends' ranks
    (``end_ranks``).
    """
    model, swapped = [], []
    for e in engines:
        ends = e.end_ranks
        model.append(sorted(ends))
        swapped.append(sorted([(b, a) for a, b in ends]))
    model.sort()
    swapped.sort()
    return b"<" if model < swapped else b">" if model > swapped else b"="


def _component_engines(p: InvariantPair, blocks: dict, reversal: bool):
    """One engine per assembly component of ``p``, or of its reversal, on
    the blocks of ``blocks`` keyed by ``(reversal, polycycles)``.  A
    missing block is compiled into ``blocks``.  Each component's vertices
    and annuli keep their order in ``p``."""
    assembly = p.assembly
    if len(assembly) == 1:
        groups = [(p.vertices, p.annuli)]
    else:
        groups = [([], []) for _ in assembly]
        group_of = {vid: group for group, (vertex_ids, _)
                    in zip(groups, assembly) for vid in vertex_ids}
        for v in p.vertices:
            group_of[v.id][0].append(v)
        for a in p.annuli:
            group_of[a.neg.vertex][1].append(a)
    for vertices, annuli in groups:
        comps = frozenset({v.component for v in vertices if v.label == "d"})
        if (reversal, comps) not in blocks:
            d = reverse_diagram(p.diagram) if reversal else p.diagram
            blocks[reversal, comps] = _DiagramBlock(d, comps)
        yield _CanonicalEngine(blocks[reversal, comps], vertices, annuli,
                               reversal)


def _oriented_blob(p: InvariantPair, blocks: dict, reversal: bool,
                   engines: list | None = None) -> bytes:
    """The framed ORIENTED bytes of ``p``, or with ``reversal`` of its
    reversal: the orientation byte, then one search per component, and
    ``T`` with the count if there are periodic tori.  ``engines`` are
    the components' engines when the caller has compiled them."""
    if engines is None:
        engines = list(_component_engines(p, blocks, reversal))
    blobs = [e.canonical() for e in engines]
    if p.tori:
        blobs.append(b"T%d" % p.tori)
    return _framed(blobs, _orientation(engines))


def _canonical_blob(p: InvariantPair, mode: IsoMode,
                    blocks: dict | None = None) -> bytes:
    """Canonical bytes of an already-validated pair.

    The framed bytes of each orientation searched stay in the pair's
    instance dict, the way a ``cached_property`` keeps its value:
    ``oriented_blob``, and ``reversed_blob``, the oriented bytes of
    ``reverse_pair(p)``.  So a repeat call in either mode runs no search.
    Reversal acts on the whole model at once, so REVERSIBLE takes the
    lesser over whole models, not per component.  The reversal's
    orientation byte is the flip of the model's, and the model's is read
    off its compiled engines before any search.  So REVERSIBLE searches
    only the model at ``<``, only the reversal at ``>``, and both at
    ``=``; an ORIENTED call after a ``>`` one still searches the model.

    ``blocks`` is the caller's table of compiled diagram blocks for pairs
    on one diagram (see ``_component_engines``); without it the blocks
    are compiled for this call alone.
    """
    kept = p.__dict__
    blocks = {} if blocks is None else blocks
    reversible = mode.allow_reversal
    if "oriented_blob" not in kept and not (reversible
                                            and "reversed_blob" in kept):
        engines = list(_component_engines(p, blocks, False))
        if not (reversible and _orientation(engines) == b">"):
            kept["oriented_blob"] = _oriented_blob(p, blocks, False, engines)
    oriented = kept.get("oriented_blob")
    if not reversible or oriented is not None and oriented[1:2] == b"<":
        return oriented
    if "reversed_blob" not in kept:
        kept["reversed_blob"] = _oriented_blob(p, blocks, True)
    if oriented is None:  # the model reads ">", so its reversal is lesser
        return kept["reversed_blob"]
    return min(oriented, kept["reversed_blob"])


def canonical_form(p: InvariantPair, mode: IsoMode = ORIENTED) -> CanonicalForm:
    """Canonical bytes: equal iff the pairs are isomorphic in the given mode."""
    check_pair(p)
    return CanonicalForm(_canonical_blob(p, mode))


def _diagram_blob(d: SaddleDiagram) -> bytes:
    return _framed(_CanonicalEngine(_DiagramBlock(d, {comp_id})).canonical()
                   for comp_id, _, _ in d.components)


def canonical_diagram(d: SaddleDiagram, mode: IsoMode = ORIENTED) -> bytes:
    """Canonical bytes for a bare diagram (per-polycycle, sorted); in
    REVERSIBLE mode the lesser of those of ``d`` and ``reverse_diagram(d)``."""
    check_diagram(d)
    blob = _diagram_blob(d)
    if not mode.allow_reversal:
        return blob
    return min(blob, _diagram_blob(reverse_diagram(d)))
