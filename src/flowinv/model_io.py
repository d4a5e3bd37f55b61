"""Model and graph files: strict JSON with source-located diagnostics, and
DOT export.

The document format is versioned JSON with a fixed schema; unknown
fields, wrong types, duplicate keys and version mismatches are rejected
with the line and column of the offending value.  Semantic violations
(from pair validation) are mapped back to the source location of the
object that broke the rule.

A valid document is decoded by the stdlib's C scanner, whose hooks
reject duplicate keys and ``NaN``/``Infinity``; one schema walk then
reads the plain values, knowing each one by its key path.  Only when
decoding, the walk or pair validation fails is the text read again by
the located reader, a recursive descent that keeps the string offset of
every value (``re`` skips whitespace and matches numbers,
``json.decoder.scanstring`` reads strings by RFC 8259).  If the text is
not JSON by the reader's rules, which also bound nesting, leading zeros
and digit counts, the reader raises its ParseError; otherwise it turns
the failing key path into a line and column.

Writing is one pass over the pair: ``serialize_model`` fills one template
per record with the line openers of its depth, and its text equals
``json.dumps`` of the document in the indented or the compact layout.
The ``"diagram"`` object's text is written once per diagram object and
layout and kept in the diagram's instance dict, the way a
``cached_property`` keeps its value: the classes ``enumerate_pairs``
builds from one diagram share that object, so each further document on
it writes only its graph part.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii

from .diagram import Saddle, SaddleDiagram, Separatrix
from .graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    VertexNode,
    _check_types,
    validate_pair,
)
from .multigraph import Multigraph

FORMAT_VERSION = 1
MAX_DEPTH = 64  # nesting of arrays and objects; model documents need 6
# a JSON number; the integer part is checked for leading zeros apart
_NUMBER = re.compile(r"-?([0-9]+)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_WHITESPACE = re.compile(r"[ \t\r\n]*")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    path: str
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.col} {self.path}: {self.message} [{self.rule}]"


class ParseError(ValueError):
    """Malformed JSON text."""

    def __init__(self, message: str, line: int, col: int):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}")


class _DiagnosticsError(ValueError):
    """An error carrying ``diagnostics``; its message joins their texts."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class SchemaError(_DiagnosticsError):
    """Well-formed JSON that does not match the document schema."""


class SemanticError(_DiagnosticsError):
    """Schema-valid document whose model fails validation."""


class _Node:
    """A JSON value plus the offset of its first character; containers hold
    child nodes."""

    __slots__ = ("value", "pos")

    def __init__(self, value, pos):
        self.value = value
        self.pos = pos


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Reader:
    """The located reader: a tree of ``_Node``s, or a ParseError."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, pos: int | None = None):
        pos = self.pos if pos is None else pos
        raise ParseError(message, *_line_col(self.text, pos))

    def skip_ws(self):
        self.pos = _WHITESPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        return self.text[self.pos]

    def expect(self, ch: str):
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_document(self) -> _Node:
        self.skip_ws()
        node = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing content after document")
        return node

    def parse_value(self) -> _Node:
        ch = self.peek()
        if ch in "{[":
            if self.depth == MAX_DEPTH:
                self.error(f"document nested deeper than {MAX_DEPTH} levels")
            self.depth += 1
            node = self.parse_object() if ch == "{" else self.parse_array()
            self.depth -= 1
            return node
        if ch == '"':
            return self.parse_string()
        if ch in "-0123456789":
            return self.parse_number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                node = _Node(value, self.pos)
                self.pos += len(literal)
                return node
        self.error(f"unexpected character {ch!r}")

    def parse_object(self) -> _Node:
        node = _Node({}, self.pos)
        self.expect("{")
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return node
        while True:
            self.skip_ws()
            if self.peek() != '"':
                self.error("expected object key string")
            key = self.parse_string()
            if key.value in node.value:
                self.error(f"duplicate key {key.value!r}", key.pos)
            self.skip_ws()
            self.expect(":")
            self.skip_ws()
            node.value[key.value] = self.parse_value()
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("}")
            return node

    def parse_array(self) -> _Node:
        node = _Node([], self.pos)
        self.expect("[")
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return node
        while True:
            self.skip_ws()
            node.value.append(self.parse_value())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return node

    def parse_string(self) -> _Node:
        """RFC 8259 string: raw control characters are rejected and an
        escaped surrogate pair is one character."""
        start = self.pos
        try:
            value, self.pos = scanstring(self.text, start + 1, True)
        except json.JSONDecodeError as exc:
            # the stdlib messages end in "at", followed there by a position
            self.error(exc.msg.removesuffix(" at").removesuffix(" starting"),
                       exc.pos)
        return _Node(value, start)

    def parse_number(self) -> _Node:
        match = _NUMBER.match(self.text, self.pos)
        if match is None:
            self.error("invalid number")
        whole, fraction, exponent = match.groups()
        if len(whole) > 1 and whole[0] == "0":
            self.error("leading zero in number")
        raw = match.group()
        try:
            value = float(raw) if fraction or exponent else int(raw)
        except ValueError:  # more digits than int() converts
            self.error(f"invalid number {raw!r}")
        self.pos = match.end()
        return _Node(value, match.start())


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys,
                            parse_constant=_no_constant, strict=True)


def _decode(text: str):
    """The plain value of ``text``.  Where the C scanner fails, the located
    reader raises the ParseError: it rejects every text the scanner does."""
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError):
        _Reader(text).parse_document()
        raise


def _path(keys: tuple) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                         for k in keys)


def _diagnostic(text: str, root: _Node, keys: tuple, rule: str,
                message: str) -> Diagnostic:
    """Place the value at key path ``keys`` by the reader's nodes."""
    node = root
    for key in keys:
        node = node.value[key]
    return Diagnostic(*_line_col(text, node.pos), _path(keys), rule, message)


class _Walker:
    """Strict schema checks over the decoded values of ``text``, each
    given with its key path from the root (a tuple of keys and indices)."""

    def __init__(self, text: str):
        self.text = text

    def fail(self, keys: tuple, rule: str, message: str):
        """Raise the SchemaError, placed by re-reading the text; the re-read
        raises ParseError instead if the text is not JSON by the reader's
        rules (say, nested deeper than MAX_DEPTH)."""
        root = _Reader(self.text).parse_document()
        raise SchemaError([_diagnostic(self.text, root, keys, rule, message)])

    def obj(self, value, keys: tuple, required: tuple,
            optional: tuple = ()) -> dict:
        if not isinstance(value, dict):
            self.fail(keys, "type", "expected an object")
        for key in value:
            if key not in required and key not in optional:
                self.fail(keys + (key,), "unknown-field",
                          f"unknown field {key!r}")
        for key in required:
            if key not in value:
                self.fail(keys, "missing-field",
                          f"missing required field {key!r}")
        return value

    def string(self, value, keys: tuple) -> str:
        if not isinstance(value, str):
            self.fail(keys, "type", "expected a string")
        return value

    def integer(self, value, keys: tuple, minimum: int | None = None) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(keys, "type", "expected an integer")
        if minimum is not None and value < minimum:
            self.fail(keys, "range", f"expected an integer >= {minimum}")
        return value

    def name(self, value, keys: tuple):
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            self.fail(keys, "type", "expected a string or an integer")
        return value

    def boolean(self, value, keys: tuple) -> bool:
        if not isinstance(value, bool):
            self.fail(keys, "type", "expected a boolean")
        return value

    def array(self, value, keys: tuple) -> list:
        if not isinstance(value, list):
            self.fail(keys, "type", "expected an array")
        return value


def _read_model(doc, walker: _Walker) -> tuple:
    """Build the pair plus a map from semantic subjects to key paths."""
    top = walker.obj(doc, (), ("version", "diagram", "graph"))
    version = walker.integer(top["version"], ("version",))
    if version != FORMAT_VERSION:
        walker.fail(("version",), "version",
                    f"unsupported version {version}; this tool reads"
                    f" version {FORMAT_VERSION}")

    positions = {}

    dia = walker.obj(top["diagram"], ("diagram",), ("saddles", "separatrices"))
    saddles = []
    for i, snode in enumerate(walker.array(dia["saddles"],
                                           ("diagram", "saddles"))):
        path = ("diagram", "saddles", i)
        fields = walker.obj(snode, path, ("id", "kind", "k", "rotation"))
        sid = walker.string(fields["id"], path + ("id",))
        kind = walker.string(fields["kind"], path + ("kind",))
        if kind not in ("interior", "boundary"):
            walker.fail(path + ("kind",), "enum",
                        "kind must be 'interior' or 'boundary'")
        k = walker.integer(fields["k"], path + ("k",), minimum=0)
        rotation = []
        for j, dnode in enumerate(walker.array(fields["rotation"],
                                               path + ("rotation",))):
            dpath = path + ("rotation", j)
            dart = walker.obj(dnode, dpath, ("sep", "end"))
            sep = walker.string(dart["sep"], dpath + ("sep",))
            end = walker.string(dart["end"], dpath + ("end",))
            if end not in ("out", "in"):
                walker.fail(dpath + ("end",), "enum",
                            "end must be 'out' or 'in'")
            rotation.append((sep, end))
        saddles.append(Saddle(sid, k, tuple(rotation), kind))
        positions[("saddle", sid)] = path

    separatrices = []
    for i, enode in enumerate(walker.array(dia["separatrices"],
                                           ("diagram", "separatrices"))):
        path = ("diagram", "separatrices", i)
        fields = walker.obj(enode, path, ("id", "source", "target"),
                            optional=("twisted",))
        eid = walker.string(fields["id"], path + ("id",))
        twisted = False
        if "twisted" in fields:
            twisted = walker.boolean(fields["twisted"], path + ("twisted",))
        separatrices.append(Separatrix(
            eid,
            walker.string(fields["source"], path + ("source",)),
            walker.string(fields["target"], path + ("target",)),
            twisted,
        ))
        positions[("separatrix", eid)] = path

    gr = walker.obj(top["graph"], ("graph",), ("vertices", "annuli", "tori"))
    vertices = []
    for i, vnode in enumerate(walker.array(gr["vertices"],
                                           ("graph", "vertices"))):
        path = ("graph", "vertices", i)
        fields = walker.obj(vnode, path, ("id", "label"), optional=("component",))
        vid = walker.string(fields["id"], path + ("id",))
        label = walker.string(fields["label"], path + ("label",))
        if label not in ("c", "n", "b", "polycycle"):
            walker.fail(path + ("label",), "enum",
                        "label must be 'c', 'n', 'b' or 'polycycle'")
        component = None
        if "component" in fields:
            component = walker.string(fields["component"],
                                      path + ("component",))
        if label == "polycycle" and component is None:
            walker.fail(path, "missing-field",
                        "polycycle vertices must name their component")
        if label != "polycycle" and component is not None:
            walker.fail(path + ("component",), "unknown-field",
                        "only polycycle vertices carry a component")
        vertices.append(VertexNode(vid, "d" if label == "polycycle" else label,
                                   component))
        positions[("vertex", vid)] = path

    def read_attachment(anode, path: tuple) -> Attachment:
        fields = walker.obj(anode, path, ("vertex",), optional=("face",))
        vertex = walker.string(fields["vertex"], path + ("vertex",))
        face = None
        if "face" in fields:
            face = walker.integer(fields["face"], path + ("face",), minimum=0)
        return Attachment(vertex, face)

    annuli = []
    for i, anode in enumerate(walker.array(gr["annuli"], ("graph", "annuli"))):
        path = ("graph", "annuli", i)
        fields = walker.obj(anode, path, ("id", "neg", "pos"))
        aid = walker.string(fields["id"], path + ("id",))
        annuli.append(AnnulusEdge(
            aid,
            read_attachment(fields["neg"], path + ("neg",)),
            read_attachment(fields["pos"], path + ("pos",)),
        ))
        positions[("annulus", aid)] = path

    tori = walker.integer(gr["tori"], ("graph", "tori"), minimum=0)

    pair = InvariantPair(SaddleDiagram(tuple(saddles), tuple(separatrices)),
                         tuple(vertices), tuple(annuli), tori)
    return pair, positions


def parse_model(text: str) -> InvariantPair:
    """Parse and fully validate one model document.

    Raises ParseError (syntax), SchemaError (structure) or SemanticError
    (model rule violations, with source positions).
    """
    pair, positions = _read_model(_decode(text), _Walker(text))
    violations = validate_pair(pair)
    if violations:
        root = _Reader(text).parse_document()
        raise SemanticError([
            _diagnostic(text, root, positions.get((v.kind, v.subject), ()),
                        v.rule, v.message)
            for v in violations])
    return pair


def parse_graph(text: str) -> Multigraph:
    """Parse ``{"vertices": [...], "edges": [{"id": ..., "ends": [u, v]}]}``.

    Vertices and edge ids are strings or integers, unique as text (models
    name their objects after them); a loop has one end or the same vertex
    twice.  Raises ParseError or SchemaError.
    """
    walker = _Walker(text)
    top = walker.obj(_decode(text), (), ("vertices", "edges"))
    seen = set()

    def unique(value, keys: tuple, kind: str):
        name = walker.name(value, keys)
        if (kind, str(name)) in seen:
            walker.fail(keys, "unique-id", f"duplicate {kind} id {name!r}")
        seen.add((kind, str(name)))
        return name

    vertices = [unique(value, ("vertices", i), "vertex") for i, value
                in enumerate(walker.array(top["vertices"], ("vertices",)))]
    edges = []
    for i, enode in enumerate(walker.array(top["edges"], ("edges",))):
        path = ("edges", i)
        fields = walker.obj(enode, path, ("id", "ends"))
        eid = unique(fields["id"], path + ("id",), "edge")
        ends = walker.array(fields["ends"], path + ("ends",))
        if not 1 <= len(ends) <= 2:
            walker.fail(path + ("ends",), "range",
                        "an edge has one or two ends")
        edges.append((eid, [walker.name(end, path + ("ends", j))
                            for j, end in enumerate(ends)]))
    try:
        return Multigraph.build(vertices, edges)
    except ValueError as exc:  # an end that is not a vertex
        walker.fail(("edges",), "graph", str(exc))


# the instance-dict key under which a diagram keeps its text, the line
# opener at each nesting depth and the key separator of the indented and
# of the compact layout
_INDENTED = ("indented_text", tuple("\n" + "  " * depth for depth in range(7)),
             ": ")
_COMPACT = "compact_text", ("",) * 7, ":"


def serialize_model(p: InvariantPair, compact: bool = False) -> str:
    """Deterministic canonical-field-order document text.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the document, or
    ``json.dumps(doc, separators=(",", ":"))`` when ``compact``, written
    straight from the pair by one template per record.  Object lists are
    ordered by id (the pair stores them that way), so serializing equal
    pairs yields byte-identical text.

    The ``"diagram"`` object's text depends on the diagram alone, so the
    diagram keeps it in its instance dict under ``indented_text`` or
    ``compact_text``, one per layout it was written in; models are
    immutable, so it stays right.  Pairs that share a diagram object,
    as the classes enumerated from one diagram do, each write only the
    version, the graph part and the tori around it.  Misfits raise ``ValidationError``.
    """
    _check_types(p)
    key, (n0, n1, n2, n3, n4, n5, _), c = layout = \
        _COMPACT if compact else _INDENTED
    kept = p.diagram.__dict__
    diagram = kept.get(key)
    if diagram is None:
        diagram = kept[key] = _diagram_text(p.diagram, layout)
    q = encode_basestring_ascii
    vertices = [
        f'{{{n4}"id"{c}{q(v.id)},{n4}"label"{c}"polycycle",'
        f'{n4}"component"{c}{"null" if v.component is None else q(v.component)}{n3}}}'
        if v.label == "d" else
        f'{{{n4}"id"{c}{q(v.id)},{n4}"label"{c}{q(v.label)}{n3}}}'
        for v in p.vertices]
    annuli = [
        f'{{{n4}"id"{c}{q(a.id)},{n4}"neg"{c}{_attachment(a.neg, n5, n4, c)},'
        f'{n4}"pos"{c}{_attachment(a.pos, n5, n4, c)}{n3}}}'
        for a in p.annuli]
    # n0 also ends the text: a newline when indented, nothing when compact
    return (f'{{{n1}"version"{c}{FORMAT_VERSION},{n1}"diagram"{c}{diagram},'
            f'{n1}"graph"{c}{{{n2}"vertices"{c}{_array(vertices, n3, n2)},'
            f'{n2}"annuli"{c}{_array(annuli, n3, n2)},'
            f'{n2}"tori"{c}{p.tori}{n1}}}{n0}}}{n0}')


def _diagram_text(d: SaddleDiagram, layout: tuple) -> str:
    """The text of the document's ``"diagram"`` object in ``layout``."""
    _, (_, n1, n2, n3, n4, n5, n6), c = layout
    q = encode_basestring_ascii
    saddles = []
    for s in d.saddles:
        rotation = _array([f'{{{n6}"sep"{c}{q(sep)},{n6}"end"{c}{q(to)}{n5}}}'
                           for sep, to in s.rotation], n5, n4)
        saddles.append(f'{{{n4}"id"{c}{q(s.id)},{n4}"kind"{c}{q(s.kind)},'
                       f'{n4}"k"{c}{s.k},{n4}"rotation"{c}{rotation}{n3}}}')
    twisted = f',{n4}"twisted"{c}true'
    separatrices = [
        f'{{{n4}"id"{c}{q(e.id)},{n4}"source"{c}{q(e.source)},'
        f'{n4}"target"{c}{q(e.target)}{twisted if e.twisted else ""}{n3}}}'
        for e in d.separatrices]
    return (f'{{{n2}"saddles"{c}{_array(saddles, n3, n2)},'
            f'{n2}"separatrices"{c}{_array(separatrices, n3, n2)}{n1}}}')


def _array(items: list, inner: str, outer: str) -> str:
    """The written records ``items`` as an array whose items open lines
    with ``inner`` and whose close bracket opens one with ``outer``."""
    if not items:
        return "[]"
    return f"[{inner}{(',' + inner).join(items)}{outer}]"


def _attachment(a: Attachment, inner: str, outer: str, c: str) -> str:
    """The written attachment ``a``, laid out as ``_array`` lays out items."""
    vertex = encode_basestring_ascii(a.vertex)
    face = "" if a.face is None else f',{inner}"face"{c}{a.face}'
    return f'{{{inner}"vertex"{c}{vertex}{face}{outer}}}'


def _dot_quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(p: InvariantPair, which: str = "graph") -> str:
    """Graphviz text for the labeled graph or the saddle diagram."""
    _check_types(p)
    if which == "graph":
        lines = ["graph invariant {"]
        for v in p.vertices:
            label = v.label if v.label != "d" else f"polycycle:{v.component}"
            lines.append(f"  {_dot_quote(v.id)} [label={_dot_quote(label)}];")
        for i in range(p.tori):
            lines.append(
                f"  {_dot_quote(f'torus{i}')} [label=\"torus\" shape=doublecircle];"
            )
        for a in p.annuli:
            def att(x):
                return x.vertex if x.face is None else f"{x.vertex}#{x.face}"
            label = f"{a.id}: neg={att(a.neg)} pos={att(a.pos)}"
            lines.append(
                f"  {_dot_quote(a.neg.vertex)} -- {_dot_quote(a.pos.vertex)}"
                f" [label={_dot_quote(label)}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if which == "diagram":
        lines = ["digraph diagram {"]
        for s in p.diagram.saddles:
            rot = ",".join(
                f"{sep}{'+' if end == 'out' else '-'}" for sep, end in s.rotation
            )
            label = f"{s.id} k={s.k} rot=({rot})"
            lines.append(f"  {_dot_quote(s.id)} [label={_dot_quote(label)}];")
        for e in p.diagram.separatrices:
            lines.append(
                f"  {_dot_quote(e.source)} -> {_dot_quote(e.target)}"
                f" [label={_dot_quote(e.id)}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export target {which!r}")
