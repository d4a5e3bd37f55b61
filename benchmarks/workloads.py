"""The benchmark's workloads: seeded inputs, timed operations, checks.

Each workload is three functions.  ``setup(seed, scale)`` builds the
inputs from the seed alone.  ``run(inputs, region)`` performs the timed
operations and returns their raw answers with one latency (ms) per
operation; ``region(name)`` opens a benchmark span when tracing and does
nothing otherwise.  ``check(inputs, answers)`` judges every answer
outside the timed phase and returns an ``Outcome``.

Only flowinv's public modules are called.  ``scale`` is ``"full"`` for
measurement and ``"smoke"`` for the benchmark's own tests.
"""

from __future__ import annotations

import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

from flowinv.diagram import OUT, IN, Saddle, SaddleDiagram, Separatrix, \
    diagram_components, faces_by_component
from flowinv.enumeration import EnumBounds, enumerate_pairs
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, \
    SeparationReport, VertexNode, assembly_components, classify_separation, \
    to_extended_poset, validate_pair
from flowinv.isomorphism import ORIENTED, REVERSIBLE, canonical_form, \
    cyclic_equivalent, pair_isomorphic, relabel_pair, reverse_pair, \
    verify_witness
from flowinv.model_io import ParseError, SchemaError, SemanticError, \
    parse_model, serialize_model
from flowinv.multigraph import Multigraph, multigraph_isomorphic
from flowinv.reconstruction import realize_multigraph, reconstruct
from flowinv.topology import alexandroff_space, separation_axioms, \
    specialization_order
from tracer import CONSUMER_REGION

MAX_PROBLEMS = 5  # failure descriptions kept per repetition


@dataclass
class Outcome:
    """The checks' verdict on one repetition."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class _Failures:
    """Failed op indices plus the first few reasons."""

    def __init__(self):
        self.ops = set()
        self.problems = []

    def add(self, op: int, why: str) -> None:
        self.ops.add(op)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"op {op}: {why}")

    def outcome(self, attempted: int, disagreements: int = 0) -> Outcome:
        counts = {"isomorphism.verify_witness_disagreements": disagreements}
        return Outcome(attempted, len(self.ops), self.problems, counts)


# (start, end) on time.perf_counter() of every op, while a list is set here
op_spans: list | None = None


def _ms_since(t0: float) -> float:
    t1 = time.perf_counter()
    if op_spans is not None:
        op_spans.append((t0, t1))
    return (t1 - t0) * 1e3


def _relabel(p: InvariantPair, rng: random.Random) -> InvariantPair:
    """The same model under fresh random names for every object, each
    rotation word stored from a random starting dart."""

    def fresh(ids, prefix):
        numbers = rng.sample(range(100, 1000), len(ids))
        return {old: f"{prefix}{n}" for old, n in zip(ids, numbers)}

    q = relabel_pair(
        p,
        fresh([s.id for s in p.diagram.saddles], "s"),
        fresh([e.id for e in p.diagram.separatrices], "e"),
        fresh([v.id for v in p.vertices], "v"),
        fresh([a.id for a in p.annuli], "a"),
    )
    saddles = []
    for s in q.diagram.saddles:
        r = rng.randrange(len(s.rotation))
        saddles.append(Saddle(s.id, s.k, s.rotation[r:] + s.rotation[:r], s.kind))
    return InvariantPair(SaddleDiagram(tuple(saddles), q.diagram.separatrices),
                         q.vertices, q.annuli, q.tori)


def witness_holds(p1: InvariantPair, p2: InvariantPair, w) -> bool:
    """Apply a witness; rotation words are compared up to cyclic shift.

    ``verify_witness`` compares rotation words literally, so it rejects
    valid witnesses when the models store a word from different starting
    darts or the witness passes through a non-trivial automorphism.
    """
    source = reverse_pair(p1) if w.reversed_orientation else p1
    try:
        image = relabel_pair(source, w.saddles, w.separatrices,
                             w.vertices, w.annuli)
    except KeyError:
        return False
    if (image.vertices, image.annuli, image.tori,
            image.diagram.separatrices) != \
            (p2.vertices, p2.annuli, p2.tori, p2.diagram.separatrices):
        return False
    if len(image.diagram.saddles) != len(p2.diagram.saddles):
        return False
    return all(
        (s.id, s.k, s.kind) == (t.id, t.k, t.kind)
        and cyclic_equivalent(s.rotation, t.rotation) is not None
        for s, t in zip(image.diagram.saddles, p2.diagram.saddles)
    )


def _class_key(pair: InvariantPair) -> str:
    """Coarse class-table key: orientable, genus, boundary, saddles."""
    _, sig = reconstruct(pair)
    comps = sig.components
    return (f"o{int(all(c.orientable for c in comps))}"
            f"-g{sum(c.genus for c in comps)}"
            f"-b{sum(c.boundary for c in comps)}"
            f"-s{len(pair.diagram.saddles)}")


# ---------------------------------------------------------------------------
# enum: bounded enumeration, one digest line per emitted class

ENUM_BOUNDS = {
    "full": EnumBounds(max_saddles=2, max_k_sum=2, max_centers=3, max_n=1,
                       max_b=1, max_annuli=3, max_tori=1),
    "smoke": EnumBounds(max_saddles=1, max_k_sum=1, max_centers=2, max_n=1,
                        max_b=1, max_annuli=2, max_tori=1),
}

# Classes per _class_key, pinned from the enumeration at these bounds.
ENUM_TABLES = {
    "full": {
        "o0-g1-b0-s0": 2, "o0-g1-b0-s1": 36, "o0-g1-b0-s2": 88,
        "o0-g1-b1-s0": 2, "o0-g1-b1-s1": 56, "o0-g1-b1-s2": 136,
        "o0-g3-b0-s1": 180, "o0-g3-b0-s2": 896, "o0-g3-b1-s1": 168,
        "o0-g3-b1-s2": 776, "o1-g0-b0-s0": 1, "o1-g0-b0-s1": 16,
        "o1-g0-b0-s2": 36, "o1-g0-b1-s0": 2, "o1-g0-b1-s1": 36,
        "o1-g0-b1-s2": 88, "o1-g1-b0-s0": 1, "o1-g1-b0-s1": 98,
        "o1-g1-b0-s2": 521, "o1-g1-b1-s1": 180, "o1-g1-b1-s2": 896,
        "o1-g2-b0-s1": 22, "o1-g2-b0-s2": 324,
    },
    "smoke": {
        "o0-g1-b0-s0": 2, "o0-g1-b0-s1": 8, "o0-g1-b1-s0": 2,
        "o0-g1-b1-s1": 8, "o0-g3-b0-s1": 12, "o1-g0-b0-s0": 1,
        "o1-g0-b0-s1": 4, "o1-g0-b1-s0": 2, "o1-g0-b1-s1": 8,
        "o1-g1-b0-s0": 1, "o1-g1-b0-s1": 14, "o1-g1-b1-s1": 12,
    },
}


@dataclass
class EnumInputs:
    bounds: EnumBounds
    rng: random.Random
    table: dict


def enum_setup(seed: int, scale: str) -> EnumInputs:
    return EnumInputs(ENUM_BOUNDS[scale], random.Random(seed),
                      ENUM_TABLES[scale])


def enum_run(inputs: EnumInputs, region):
    """One op per emitted class: its output line, as ``flowinv enumerate``
    prints it.  The latency covers the line, not the enumeration."""
    lines, latencies = [], []
    mode = inputs.bounds.mode
    for pair in enumerate_pairs(inputs.bounds, inputs.rng):
        with region(CONSUMER_REGION):
            t0 = time.perf_counter()
            try:
                digest = canonical_form(pair, mode).digest()
                lines.append((f"{digest} {serialize_model(pair, compact=True)}",
                              pair))
            except Exception as exc:  # a raising op fails; the run goes on
                lines.append((exc, pair))
            latencies.append(_ms_since(t0))
    return lines, latencies


def enum_check(inputs: EnumInputs, lines) -> Outcome:
    failures = _Failures()
    seen = {}
    table = Counter()
    for i, (line, pair) in enumerate(lines):
        if isinstance(line, Exception):
            failures.add(i, f"raised {line!r}")
            continue
        digest = line.split(" ", 1)[0]
        if digest in seen:
            failures.add(i, f"digest repeats that of class {seen[digest]}")
        seen[digest] = i
        table[_class_key(pair)] += 1
    expected = sum(inputs.table.values())
    attempted = max(len(lines), expected)
    missing = 0
    for key in sorted(set(table) | set(inputs.table)):
        got, want = table[key], inputs.table.get(key, 0)
        if got != want:
            missing += abs(got - want)
            failures.problems.append(f"class table {key}: {got} != {want}")
    outcome = failures.outcome(attempted)
    outcome.failed = min(attempted, outcome.failed + missing)
    return outcome


# ---------------------------------------------------------------------------
# corpus: parse, canonicalize, classify and deduplicate model documents

CORPUS_MODELS = {"full": 600, "smoke": 12}
MALFORMED_SHARE = 0.1
EXPECTED_SEPARATION = SeparationReport(sv_t0=True, sv_t1=False, sv_t2=False,
                                       svex_t1=True, svex_t2=True)


@dataclass(frozen=True)
class Document:
    text: str
    model: int | None       # generating model; None for a malformed document
    mutation: str | None    # how a malformed document was broken


# Saddle degrees (k <= 2, k-sum <= 4) by saddle count.  Model i takes
# i % 3 + 1 saddles and cycles through the degree tuples of that count,
# so every seed gets the same mix; the seed only draws separatrices,
# face closures and leaves.
DEGREE_TUPLES = {
    n: [ks for ks in combinations_with_replacement(range(3), n) if sum(ks) <= 4]
    for n in (1, 2, 3)
}


def _random_diagram(ks: tuple, rng: random.Random) -> SaddleDiagram:
    """Interior saddles of degrees ks, random out->in slot bijection."""
    out_slots, in_slots = [], []
    for i, k in enumerate(ks):
        for pos in range(2 * k + 2):
            (out_slots if pos % 2 == 0 else in_slots).append((i, pos))
    rng.shuffle(in_slots)
    rotations = {i: [None] * (2 * k + 2) for i, k in enumerate(ks)}
    seps = []
    for j, (src, tgt) in enumerate(zip(out_slots, in_slots)):
        seps.append(Separatrix(f"e{j}", f"s{src[0]}", f"s{tgt[0]}"))
        rotations[src[0]][src[1]] = (f"e{j}", OUT)
        rotations[tgt[0]][tgt[1]] = (f"e{j}", IN)
    return SaddleDiagram(
        tuple(Saddle(f"s{i}", k, tuple(rotations[i])) for i, k in enumerate(ks)),
        tuple(seps),
    )


def _random_model(i: int, rng: random.Random) -> InvariantPair:
    """Model i: a connected model, random face closures and c/n/b leaves."""
    tuples = DEGREE_TUPLES[i % 3 + 1]
    ks = tuples[i // 3 % len(tuples)]
    while True:
        diagram = _random_diagram(ks, rng)
        comps = diagram_components(diagram)
        faces = faces_by_component(diagram)
        vertex_of = {comp: f"p{j}" for j, (comp, _, _) in enumerate(comps)}
        vertices = [VertexNode(vid, "d", comp) for comp, vid in vertex_of.items()]
        points = [Attachment(vertex_of[comp], idx)
                  for comp, _, _ in comps for idx in range(len(faces[comp]))]
        rng.shuffle(points)
        annuli = []
        while points:
            a = points.pop()
            if points and rng.random() < 0.5:
                b = points.pop()
            else:
                kind = rng.choice("cnb")
                b = Attachment(f"{kind}{len(vertices)}")
                vertices.append(VertexNode(b.vertex, kind))
            if rng.random() < 0.5:
                a, b = b, a
            annuli.append(AnnulusEdge(f"a{len(annuli)}", a, b))
        pair = InvariantPair(diagram, tuple(vertices), tuple(annuli))
        if len(assembly_components(pair)) == 1 and not validate_pair(pair):
            return pair


def _mutate(text: str, rng: random.Random) -> tuple:
    """One malformation of a kind in the test fixtures ``bad_*.json``."""
    kind = rng.choice(("truncated", "unknown_field", "wrong_k"))
    if kind == "truncated":
        return kind, text[:rng.randrange(1, len(text) - 1)]
    if kind == "unknown_field":
        at = rng.choice([m.start() for m in re.finditer(r'"id": ', text)])
        return kind, text[:at] + '"note": "x", ' + text[at:]
    m = rng.choice(list(re.finditer(r'"k": (\d+)', text)))
    return kind, text[:m.start(1)] + str(int(m.group(1)) + 1) + text[m.end(1):]


def corpus_setup(seed: int, scale: str) -> list:
    """Each model twice under independent relabelings, shuffled, plus
    about 10% malformed documents."""
    rng = random.Random(seed)
    docs = []
    for i in range(CORPUS_MODELS[scale]):
        model = _random_model(i, rng)
        for _ in range(2):
            docs.append(Document(serialize_model(_relabel(model, rng)), i, None))
    valid = list(docs)
    for _ in range(round(MALFORMED_SHARE * len(valid))):
        kind, text = _mutate(rng.choice(valid).text, rng)
        docs.append(Document(text, None, kind))
    rng.shuffle(docs)
    return docs


@dataclass
class CorpusAnswer:
    error: str | None = None      # repr of an unexpected exception
    rejected: str | None = None   # error class that refused the document
    pair: InvariantPair | None = None
    digest: str | None = None
    rev_digest: str | None = None
    signature: object = None
    separation: object = None
    query: int | None = None      # document pair_isomorphic was asked against
    witness: object = None


def corpus_run(docs: list, region):
    """One op per document: parse, both canonical forms, reconstruct,
    classify, then one ``pair_isomorphic`` query for deduplication."""
    answers, latencies = [], []
    first_of_digest = {}      # digest -> first document with it
    last_of_signature = {}    # surface signature -> latest new class
    for i, doc in enumerate(docs):
        t0 = time.perf_counter()
        ans = CorpusAnswer()
        try:
            try:
                pair = parse_model(doc.text)
            except (ParseError, SchemaError, SemanticError) as exc:
                ans.rejected = type(exc).__name__
            else:
                ans.pair = pair
                ans.digest = canonical_form(pair, ORIENTED).digest()
                ans.rev_digest = canonical_form(pair, REVERSIBLE).digest()
                _, ans.signature = reconstruct(pair)
                ans.separation = classify_separation(pair)
                if ans.digest in first_of_digest:
                    ans.query = first_of_digest[ans.digest]
                else:
                    ans.query = last_of_signature.get(ans.signature)
                    first_of_digest[ans.digest] = i
                    last_of_signature[ans.signature] = i
                if ans.query is not None:
                    ans.witness = pair_isomorphic(answers[ans.query].pair, pair)
        except Exception as exc:  # a raising op fails; the run goes on
            ans.error = repr(exc)
        latencies.append(_ms_since(t0))
        answers.append(ans)
    return answers, latencies


def corpus_check(docs: list, answers: list) -> Outcome:
    failures = _Failures()
    disagreements = 0
    twins = {}
    for i, (doc, ans) in enumerate(zip(docs, answers)):
        if ans.error is not None:
            failures.add(i, f"raised {ans.error}")
            continue
        if doc.model is None:
            if ans.rejected is None:
                failures.add(i, f"malformed document ({doc.mutation}) accepted")
            continue
        if ans.rejected is not None:
            failures.add(i, f"valid document rejected with {ans.rejected}")
            continue
        twins.setdefault(doc.model, []).append(i)
        if ans.separation != EXPECTED_SEPARATION:
            failures.add(i, f"separation {ans.separation}")
        orientable = all(c.orientable for c in ans.signature.components)
        if orientable != all(v.label != "n" for v in ans.pair.vertices):
            failures.add(i, "orientability disagrees with the Mobius collars")
        if ans.query is None:
            continue
        other = answers[ans.query]
        if (ans.witness is not None) != (other.digest == ans.digest):
            failures.add(i, f"pair_isomorphic against document {ans.query}"
                            " disagrees with digest equality")
        elif ans.witness is not None:
            if not witness_holds(other.pair, ans.pair, ans.witness):
                failures.add(i, f"witness from document {ans.query} is wrong")
            elif not verify_witness(other.pair, ans.pair, ans.witness):
                disagreements += 1
    for model, (i, j) in ((m, ix) for m, ix in twins.items() if len(ix) == 2):
        a, b = answers[i], answers[j]
        if (a.digest, a.rev_digest, a.signature) != \
                (b.digest, b.rev_digest, b.signature):
            failures.add(j, f"twin of document {i} (model {model}) differs")
    return failures.outcome(len(answers), disagreements)


# ---------------------------------------------------------------------------
# symmetric: canonical forms of highly symmetric realized graphs

def _star(m):
    return Multigraph.build(["hub"] + [f"l{i}" for i in range(m)],
                            {f"e{i}": ("hub", f"l{i}") for i in range(m)})


def _dipole(m):
    return Multigraph.build(["x", "y"], {f"e{i}": ("x", "y") for i in range(m)})


def _cycle(m):
    return Multigraph.build([f"v{i}" for i in range(m)],
                            {f"e{i}": (f"v{i}", f"v{(i + 1) % m}")
                             for i in range(m)})


def _bouquet(m):
    edges = {f"l{i}": ("hub",) for i in range(m)}
    edges["tail"] = ("hub", "end")
    return Multigraph.build(["hub", "end"], edges)


SHAPES = {"star": _star, "dipole": _dipole, "cycle": _cycle,
          "bouquet": _bouquet}
SYMMETRIC_GRAPHS = {
    "full": ([("star", m) for m in range(3, 8)]
             + [("dipole", m) for m in range(2, 6)]
             + [("cycle", m) for m in range(2, 7)]
             + [("bouquet", m) for m in range(1, 4)]),
    "smoke": [("star", 3), ("dipole", 2), ("cycle", 3), ("bouquet", 1)],
}
SYMMETRIC_OPS = ((0, ORIENTED), (1, ORIENTED), (0, REVERSIBLE))


@dataclass(frozen=True)
class SymmetricCase:
    name: str
    a: InvariantPair
    b: InvariantPair


def symmetric_setup(seed: int, scale: str) -> list:
    rng = random.Random(seed)
    cases = []
    for shape, m in SYMMETRIC_GRAPHS[scale]:
        model = realize_multigraph(SHAPES[shape](m))
        cases.append(SymmetricCase(f"{shape}-{m}", _relabel(model, rng),
                                   _relabel(model, rng)))
    return cases


def symmetric_run(cases: list, region):
    """Three ops per case: A and B oriented, A reversible."""
    answers, latencies = [], []
    for case in cases:
        blobs = []
        for which, mode in SYMMETRIC_OPS:
            t0 = time.perf_counter()
            try:
                blobs.append(canonical_form((case.a, case.b)[which], mode).blob)
            except Exception as exc:  # a raising op fails; the run goes on
                blobs.append(exc)
            latencies.append(_ms_since(t0))
        answers.append(blobs)
    return answers, latencies


def symmetric_check(cases: list, answers: list) -> Outcome:
    failures = _Failures()
    disagreements = 0
    for c, (case, blobs) in enumerate(zip(cases, answers)):
        op = len(SYMMETRIC_OPS) * c
        raised = [k for k, b in enumerate(blobs) if isinstance(b, Exception)]
        for k in raised:
            failures.add(op + k, f"{case.name} raised {blobs[k]!r}")
        if raised:
            continue
        ori_a, ori_b, rev_a = blobs
        if ori_a != ori_b:
            failures.add(op + 1, f"{case.name}: relabelings differ in digest")
        w = pair_isomorphic(case.a, case.b, REVERSIBLE)
        if w is None or not witness_holds(case.a, case.b, w):
            failures.add(op + 1, f"{case.name}: no valid witness A -> B")
        elif not verify_witness(case.a, case.b, w):
            disagreements += 1
        # reversible = min(oriented of A, oriented of reversed A); the
        # latter equals the former when A is isomorphic to its reversal
        reverse = reverse_pair(case.a)
        rev_ori = ori_a if pair_isomorphic(case.a, reverse) is not None \
            else canonical_form(reverse, ORIENTED).blob
        if rev_a != min(ori_a, rev_ori):
            failures.add(op + 2, f"{case.name}: reversible form inconsistent")
    return failures.outcome(len(SYMMETRIC_OPS) * len(cases), disagreements)


# ---------------------------------------------------------------------------
# realize: graph -> model -> orbit-space topology

REALIZE_GRAPHS = {"full": 1500, "smoke": 40}
EXPECTED_AXIOMS = (True, False, False)  # T0, not T1, not T2


def _random_graph_text(i: int, rng: random.Random) -> str:
    """Graph i: connected, with at least one edge and |V| + |E| <= 7.

    It has i % 4 + 1 vertices, and its edge count cycles through the
    possible ones, so every seed gets the same mix of sizes; the seed
    only draws names and edge ends.
    """
    nv = i % 4 + 1
    lo = max(1, nv - 1)
    ne = lo + i // 4 % (8 - nv - lo)
    names = [f"v{n}" for n in rng.sample(range(10, 100), nv)]
    ends = [(names[j], names[rng.randrange(j)]) for j in range(1, nv)]
    ends += [(rng.choice(names), rng.choice(names))
             for _ in range(ne - len(ends))]
    rng.shuffle(ends)
    ids = [f"e{n}" for n in rng.sample(range(10, 100), ne)]
    return json.dumps({
        "vertices": names,
        "edges": [{"id": eid, "ends": sorted(set(pair))}
                  for eid, pair in zip(ids, ends)],
    })


def realize_setup(seed: int, scale: str) -> list:
    rng = random.Random(seed)
    return [_random_graph_text(i, rng) for i in range(REALIZE_GRAPHS[scale])]


@dataclass
class RealizeAnswer:
    error: str | None = None
    graph: Multigraph | None = None
    pair: InvariantPair | None = None
    text: str = ""
    back: Multigraph | None = None
    mapping: dict | None = None
    poset: object = None
    order: object = None
    axioms: tuple = ()


def realize_run(texts: list, region):
    """One op per graph: realize and serialize a model, read the graph
    back off its extended orbit space, and analyze that finite space."""
    answers, latencies = [], []
    for text in texts:
        t0 = time.perf_counter()
        ans = RealizeAnswer()
        try:
            doc = json.loads(text)
            ans.graph = Multigraph.build(
                doc["vertices"], {e["id"]: e["ends"] for e in doc["edges"]})
            ans.pair = realize_multigraph(ans.graph)
            ans.text = serialize_model(ans.pair)
            ans.poset = to_extended_poset(ans.pair)
            ans.back = Multigraph.from_poset(ans.poset)
            ans.mapping = multigraph_isomorphic(ans.back, ans.graph)
            space = alexandroff_space(ans.poset)
            ans.order = specialization_order(space)
            ans.axioms = tuple(separation_axioms(space))
        except Exception as exc:  # a raising op fails; the run goes on
            ans.error = repr(exc)
        latencies.append(_ms_since(t0))
        answers.append(ans)
    return answers, latencies


def _edge_multiset(g: Multigraph, rename=None) -> Counter:
    return Counter(
        frozenset(rename[v] for v in ends) if rename else ends
        for _, ends in g.edges
    )


def realize_check(texts: list, answers: list) -> Outcome:
    failures = _Failures()
    for i, ans in enumerate(answers):
        if ans.error is not None:
            failures.add(i, f"raised {ans.error}")
            continue
        if validate_pair(ans.pair):
            failures.add(i, "realized model is invalid")
        doc = json.loads(ans.text)
        if len(doc["graph"]["annuli"]) != len(ans.graph.edges):
            failures.add(i, "serialized model lost annuli")
        if ans.mapping is None or sorted(ans.mapping.values(), key=repr) != \
                sorted(ans.graph.vertices, key=repr) or \
                _edge_multiset(ans.back, ans.mapping) != \
                _edge_multiset(ans.graph):
            failures.add(i, "graph does not round-trip through the model")
        if ans.order != ans.poset:
            failures.add(i, "specialization order of the Alexandroff space"
                            " differs from the poset")
        if ans.axioms != EXPECTED_AXIOMS:
            failures.add(i, f"separation axioms {ans.axioms}")
    return failures.outcome(len(answers))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "enum": Workload(
        "bounded enumeration: dedup and canonical labeling of many small"
        " candidates, no parsing",
        enum_setup, enum_run, enum_check),
    "corpus": Workload(
        "parse, canonicalize, reconstruct and deduplicate relabeled twin"
        " documents with malformed ones mixed in",
        corpus_setup, corpus_run, corpus_check),
    "symmetric": Workload(
        "canonical forms of star, dipole, cycle and bouquet models: the"
        " factorial worst case of individualization",
        symmetric_setup, symmetric_run, symmetric_check),
    "realize": Workload(
        "realize small random multigraphs and analyze the orbit-space"
        " topology; never canonicalizes",
        realize_setup, realize_run, realize_check),
}
