import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowinv.cli import main
from flowinv.diagram import SaddleDiagram
from flowinv.enumeration import EnumBounds, enumerate_pairs
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, VertexNode
from flowinv.isomorphism import canonical_form
from flowinv.model_io import (
    ParseError,
    SchemaError,
    SemanticError,
    _Reader,
    export_dot,
    parse_graph,
    parse_model,
    serialize_model,
)
from flowinv.multigraph import Multigraph
from flowinv.reconstruction import realize_multigraph

from conftest import (
    FIXTURES,
    eight_torus_pair,
    fixture_path,
    fixture_text,
    own_state,
    sphere_rotation,
    three_centers_eight,
    torus_pair,
    within_budget,
)
from oracles import cycle_graph, document_of, path_graph


class TestParse:
    def test_sphere_fixture(self):
        p = parse_model(fixture_text("sphere_rotation.json"))
        assert len(p.vertices) == 2 and len(p.annuli) == 1
        assert canonical_form(p).blob == canonical_form(sphere_rotation()).blob

    def test_three_centers_fixture(self):
        p = parse_model(fixture_text("three_centers_eight.json"))
        assert canonical_form(p).blob == \
            canonical_form(three_centers_eight()).blob

    def test_degree_violation_cites_rule_and_position(self):
        with pytest.raises(SemanticError) as err:
            parse_model(fixture_text("bad_degree.json"))
        diags = err.value.diagnostics
        assert any(d.rule == "degree" and "2k+2" in d.message for d in diags)
        assert all(d.line > 0 and d.col > 0 for d in diags)

    def test_truncated_document(self):
        with pytest.raises(ParseError) as err:
            parse_model(fixture_text("bad_truncated.json"))
        assert err.value.line >= 3

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_model(fixture_text("bad_unknown_field.json"))
        assert any(d.rule == "unknown-field" for d in err.value.diagnostics)

    def test_version_mismatch_rejected(self):
        text = fixture_text("sphere_rotation.json").replace(
            '"version": 1', '"version": 2'
        )
        with pytest.raises(SchemaError) as err:
            parse_model(text)
        assert any(d.rule == "version" for d in err.value.diagnostics)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_model('{"version": 1, "version": 1}')

    @pytest.mark.parametrize("number,message", [
        ("01", "leading zero"), ("-01", "leading zero"), ("1.", "expected"),
        ("-.5", "invalid number"), ("1.e1", "expected"), ("1e", "expected"),
    ])
    def test_non_json_number_rejected(self, number, message):
        text = fixture_text("sphere_rotation.json").replace(
            '"version": 1', f'"version": {number}')
        with pytest.raises(ParseError, match=message) as err:
            parse_model(text)
        assert err.value.line == 2

    def test_deep_nesting_rejected(self):
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse_model("[" * 3000)
        assert err.value.line == 1 and err.value.col > 1

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_model(fixture_text("sphere_rotation.json") + "x")

    def test_wrong_type_located(self):
        text = fixture_text("sphere_rotation.json").replace('"tori": 0',
                                                            '"tori": "0"')
        with pytest.raises(SchemaError) as err:
            parse_model(text)
        diag = err.value.diagnostics[0]
        assert diag.path.endswith("tori") and diag.rule == "type"

    def test_bad_label_enum(self):
        text = fixture_text("sphere_rotation.json").replace('"label": "c"',
                                                            '"label": "q"', 1)
        with pytest.raises(SchemaError) as err:
            parse_model(text)
        assert any(d.rule == "enum" for d in err.value.diagnostics)


SPHERE = fixture_text("sphere_rotation.json")
EIGHT = fixture_text("three_centers_eight.json")
LOOP_A = '{"id": "a", "source": "s", "target": "s"'


def _cut(marker: str) -> str:
    return SPHERE[:SPHERE.index(marker) + len(marker)]


def _sub(old: str, new: str, text: str = SPHERE) -> str:
    assert old in text
    return text.replace(old, new, 1)


# (document, reader, error class, str(error)) per malformed input; str() of
# a ParseError is "line:col: message", of the others the rendered
# diagnostics "line:col path: message [rule]".
PINNED = {
    "truncated-depth-1": (_cut('"version": 1'), parse_model, ParseError,
                          "2:15: unexpected end of input"),
    "truncated-depth-2": (fixture_text("bad_truncated.json"), parse_model,
                          ParseError, "4:1: unexpected end of input"),
    "truncated-depth-3": (_cut('"saddles": ['), parse_model, ParseError,
                          "4:17: unexpected end of input"),
    "truncated-depth-5": (_cut('"neg": {"vertex": "north"'), parse_model,
                          ParseError, "13:47: unexpected end of input"),
    "empty": ("", parse_model, ParseError, "1:1: unexpected end of input"),
    "duplicate-key": ('{"version": 1, "version": 1}', parse_model, ParseError,
                      "1:16: duplicate key 'version'"),
    "duplicate-key-nested": (_sub('"tori": 0', '"tori": 0,\n    "tori": 0'),
                             parse_model, ParseError,
                             "16:5: duplicate key 'tori'"),
    "duplicate-key-deep": (_sub('"label": "c"}',
                                '"label": "c", "label": "c"}'),
                           parse_model, ParseError,
                           "9:37: duplicate key 'label'"),
    "number-leading-zero": (_sub('"version": 1', '"version": 01'), parse_model,
                            ParseError, "2:14: leading zero in number"),
    "number-negative-leading-zero": (_sub('"version": 1', '"version": -01'),
                                     parse_model, ParseError,
                                     "2:14: leading zero in number"),
    "number-bare-point": (_sub('"version": 1', '"version": 1.'), parse_model,
                          ParseError, "2:15: expected '}'"),
    "number-no-integer-part": (_sub('"version": 1', '"version": -.5'),
                               parse_model, ParseError,
                               "2:14: invalid number"),
    "number-point-exponent": (_sub('"version": 1', '"version": 1.e1'),
                              parse_model, ParseError, "2:15: expected '}'"),
    "number-empty-exponent": (_sub('"version": 1', '"version": 1e'),
                              parse_model, ParseError, "2:15: expected '}'"),
    "number-lone-minus": (_sub('"version": 1', '"version": -'), parse_model,
                          ParseError, "2:14: invalid number"),
    "number-plus": (_sub('"version": 1', '"version": +1'), parse_model,
                    ParseError, "2:14: unexpected character '+'"),
    "number-too-many-digits": ('{"tori": ' + "1" * 5000 + "}", parse_model,
                               ParseError,
                               f"1:10: invalid number {'1' * 5000!r}"),
    "number-float-overflow": (_sub('"tori": 0', '"tori": 1e400'), parse_model,
                              SchemaError,
                              "15:13 $.graph.tori: expected an integer [type]"),
    "literal-nan": (_sub('"tori": 0', '"tori": NaN'), parse_model, ParseError,
                    "15:13: unexpected character 'N'"),
    "literal-negative-infinity": (_sub('"tori": 0', '"tori": -Infinity'),
                                  parse_model, ParseError,
                                  "15:13: invalid number"),
    "literal-truncated": (_sub('"tori": 0', '"tori": tru'), parse_model,
                          ParseError, "15:13: unexpected character 't'"),
    "literal-capitalized": (_sub('"tori": 0', '"tori": True'), parse_model,
                            ParseError, "15:13: unexpected character 'T'"),
    "unexpected-character": ('{"version": @}', parse_model, ParseError,
                             "1:13: unexpected character '@'"),
    "key-not-string": ('{"version": 1, }', parse_model, ParseError,
                       "1:16: expected object key string"),
    "missing-colon": ('{"version" 1}', parse_model, ParseError,
                      "1:12: expected ':'"),
    "missing-comma-object": ('{"version": 1 "x": 2}', parse_model, ParseError,
                             "1:15: expected '}'"),
    "missing-comma-array": ("[1 2]", parse_model, ParseError,
                            "1:4: expected ']'"),
    "crlf-line-endings": ('{\r\n"version": 01}', parse_model, ParseError,
                          "2:12: leading zero in number"),
    "trailing-content": (SPHERE + "x", parse_model, ParseError,
                         "18:1: trailing content after document"),
    "trailing-document": ("{} {}", parse_model, ParseError,
                          "1:4: trailing content after document"),
    "max-depth": ("[" * 3000, parse_model, ParseError,
                  "1:65: document nested deeper than 64 levels"),
    "depth-at-limit": ("[" * 64 + "]" * 64, parse_model, SchemaError,
                       "1:1 $: expected an object [type]"),
    "max-depth-in-document": (_sub('"saddles": []',
                                   '"saddles": ' + "[" * 65 + "]" * 65),
                              parse_model, ParseError,
                              "4:78: document nested deeper than 64 levels"),
    "byte-order-mark": ("\ufeff" + SPHERE, parse_model, ParseError,
                        "1:1: unexpected character '\\ufeff'"),
    "unknown-field": (fixture_text("bad_unknown_field.json"), parse_model,
                      SchemaError,
                      "5:54 $.graph.vertices[0].colour: unknown field"
                      " 'colour' [unknown-field]"),
    "wrong-type": (_sub('"tori": 0', '"tori": "0"'), parse_model, SchemaError,
                   "15:13 $.graph.tori: expected an integer [type]"),
    "bad-enum": (_sub('"label": "c"', '"label": "q"'), parse_model,
                 SchemaError,
                 "9:32 $.graph.vertices[0].label: label must be 'c', 'n', 'b'"
                 " or 'polycycle' [enum]"),
    "missing-field": (_sub(',\n    "tori": 0', ""), parse_model, SchemaError,
                      "7:12 $.graph: missing required field 'tori'"
                      " [missing-field]"),
    "range": (_sub('"tori": 0', '"tori": -1'), parse_model, SchemaError,
              "15:13 $.graph.tori: expected an integer >= 0 [range]"),
    "version": (_sub('"version": 1', '"version": 2'), parse_model, SchemaError,
                "2:14 $.version: unsupported version 2; this tool reads"
                " version 1 [version]"),
    "semantic": (fixture_text("bad_degree.json"), parse_model, SemanticError,
                 "5:7 $.diagram.saddles[0]: saddle 's' has rotation length 3"
                 " but degree 4 (2k+2 with k=1) [degree]; 5:7"
                 " $.diagram.saddles[0]: saddle 's' rotation slots 2,0 are"
                 " consecutive out darts [alternation]; 14:7"
                 " $.diagram.separatrices[1]: dart ('b', 'in') does not occur"
                 " in any rotation [dart-pairing]"),
    "graph-duplicate-id": ('{"vertices": ["u", "v"],\n "edges": [{"id": "e",'
                           ' "ends": ["u"]}, {"id": "e", "ends": ["v"]}]}',
                           parse_graph, SchemaError,
                           "2:47 $.edges[1].id: duplicate edge id 'e'"
                           " [unique-id]"),
    "graph-unknown-end": ('{"vertices": ["u"],\n "edges": [{"id": "e",'
                          ' "ends": ["u", "w"]}]}', parse_graph, SchemaError,
                          "2:11 $.edges: edge 'e' references unknown vertices"
                          " [graph]"),
    "graph-truncated": ('{"vertices": ["u"],\n "edges": [{"id": "e",'
                        ' "ends": ["u"', parse_graph, ParseError,
                        "2:36: unexpected end of input"),
    "graph-three-ends": ('{"vertices": ["u", "v", "w"],\n "edges": [{"id":'
                         ' "e", "ends": ["u", "v", "w"]}]}', parse_graph,
                         SchemaError,
                         "2:32 $.edges[0].ends: an edge has one or two ends"
                         " [range]"),
    "twisted": (_sub(LOOP_A, LOOP_A + ', "twisted": true', EIGHT),
                parse_model, SemanticError,
                "14:7 $.diagram.separatrices[0]: separatrix 'a' is twisted;"
                " twisted ribbons are not supported [twist-unsupported]"),
    "twisted-not-boolean": (_sub(LOOP_A, LOOP_A + ', "twisted": 1', EIGHT),
                            parse_model, SchemaError,
                            "14:60 $.diagram.separatrices[0].twisted:"
                            " expected a boolean [type]"),
    "id-not-string": (_sub('"id": "north"', '"id": 1'), parse_model,
                      SchemaError,
                      "9:14 $.graph.vertices[0].id: expected a string [type]"),
    "polycycle-without-component": (
        _sub(', "component": "s"}', "}", EIGHT), parse_model, SchemaError,
        "20:7 $.graph.vertices[0]: polycycle vertices must name their"
        " component [missing-field]"),
    "component-on-leaf": (_sub('"label": "c"}', '"label": "c", "component":'
                               ' "s"}'), parse_model, SchemaError,
                          "9:50 $.graph.vertices[0].component: only polycycle"
                          " vertices carry a component [unknown-field]"),
}

# Errors inside a string token: the class and a line within the string
# (line 3) are pinned; the wording is the stdlib string scanner's.
STRING_TOKEN = {
    "bad-escape": '{\n  "version": 1,\n  "diagram": "x\\qy"\n}',
    "raw-newline": '{\n  "version": 1,\n  "diagram": "x\ny"\n}',
    "unterminated": '{\n  "version": 1,\n  "diagram": "xy',
    "raw-control-character": '{\n  "version": 1,\n  "diagram": "x\x01y"\n}',
}


class TestPinnedDiagnostics:
    @pytest.mark.parametrize("name", PINNED)
    def test_rendered_error(self, name):
        text, reader, error, rendered = PINNED[name]
        with pytest.raises(error) as err:
            reader(text)
        assert type(err.value) is error and str(err.value) == rendered

    @pytest.mark.parametrize("name", STRING_TOKEN)
    def test_string_token_error(self, name):
        with pytest.raises(ParseError) as err:
            parse_model(STRING_TOKEN[name])
        assert err.value.line == 3

    def test_untwisted_field_is_the_default(self):
        text = _sub(LOOP_A, LOOP_A + ', "twisted": false', EIGHT)
        assert parse_model(text) == parse_model(EIGHT)

    def test_escaped_surrogate_pair_is_one_character(self):
        text = SPHERE.replace('"north"', '"\\ud83d\\ude00"')
        ids = {v.id for v in parse_model(text).vertices}
        assert ids == {"\U0001F600", "south"}


MODEL_FILES = sorted(p.name for p in FIXTURES.glob("*.json")
                     if p.name != "star_graph.json")
# inserted by the mutations besides random bytes (which may not be UTF-8)
TOKENS = [b"{", b"}", b"[", b"]", b'"', b",", b":", b"-", b"0", b"01", b"1e",
          b"true", b"null", b"\\", b"\\u", b"\n", b"\t", b"[" * 70,
          b'{"id": "x"}', b'"a": 1', b'"k": -1', b'"polycycle"']
# each command runs on the mutated file named by "{}"
MODEL_COMMANDS = [("validate", "{}"), ("canon", "{}"),
                  ("canon", "--reverse-allowed", "{}"), ("iso", "{}", "{}"),
                  ("classify", "{}"), ("reconstruct", "{}"),
                  ("export-dot", "--which", "diagram", "{}")]


@st.composite
def _mutated(draw, names):
    data = bytearray(fixture_path(draw(st.sampled_from(names))).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("swap", "delete", "insert", "truncate")))
        words = [m.group() for m in re.finditer(rb'"[^"]*"', data)]
        if edit == "swap" and words:  # stays well-formed; reaches the model
            word = draw(st.sampled_from(words))
            data = bytearray(data.replace(word, draw(st.sampled_from(words)), 1))
        elif edit == "delete":
            del data[i:i + draw(st.integers(1, 12))]
        elif edit == "insert":
            data[i:i] = draw(st.sampled_from(TOKENS)
                             | st.binary(min_size=1, max_size=4))
        else:
            del data[i:]
    return bytes(data)


def _exit_code(path, command) -> int:
    argv = [str(path) if arg == "{}" else arg for arg in command]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code != 2 or err.getvalue(), "exit 2 without a diagnostic"
    return code


class TestFuzzedFiles:
    """Every mutated document ends with a documented exit code, never a
    traceback; a parse or schema error prints its diagnostic."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_mutated(MODEL_FILES), command=st.sampled_from(MODEL_COMMANDS))
    def test_model_files(self, tmp_path, doc, command):
        path = tmp_path / "model.json"
        path.write_bytes(doc)
        assert _exit_code(path, command) in {0, 1, 2, 64}

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_mutated(["star_graph.json"]))
    def test_graph_files(self, tmp_path, doc):
        path = tmp_path / "graph.json"
        path.write_bytes(doc)
        assert _exit_code(path, ("realize", "{}")) in {0, 1, 2, 64}


# texts the C scanner takes, or fails on, otherwise than the located reader
SCANNER_TOKENS = [b"NaN", b"-Infinity", b"Infinity", b"\xef\xbb\xbf",
                  b"[" * 70 + b"]" * 70, b"[" * 2000, b"1" * 4400,
                  b'"id": "x", "id": "x", ', b"1e400", b"-0"]


@st.composite
def _scanner_edge_cases(draw):
    data = bytearray(draw(_mutated(MODEL_FILES)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        data[i:i] = draw(st.sampled_from(SCANNER_TOKENS))
    return data.decode("utf-8", "replace")


class TestReaderParity:
    """Valid documents are decoded by the stdlib's C scanner, yet a text
    is a ParseError exactly when the located reader rejects it, with the
    reader's diagnostic."""

    @settings(max_examples=300, deadline=None)
    @given(text=_scanner_edge_cases())
    def test_parse_error_is_the_readers(self, text):
        try:
            _Reader(text).parse_document()
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert str(err.value) == str(exc)
        else:
            try:
                parse_model(text)
            except (SchemaError, SemanticError):
                pass


class TestSerialize:
    @pytest.mark.parametrize("build", [sphere_rotation, three_centers_eight,
                                       eight_torus_pair, torus_pair])
    def test_round_trip_identity(self, build):
        p = build()
        assert parse_model(serialize_model(p)) == p

    def test_serialization_stable(self):
        p = three_centers_eight()
        assert serialize_model(p) == serialize_model(p)

    def test_parse_serialize_parse_fixed_point(self):
        for name in ("sphere_rotation.json", "three_centers_eight.json",
                     "disk_eight_opposed.json", "disk_eight_aligned.json", "three_centers_mobius.json",
                     "three_centers_boundary.json", "periodic_torus.json"):
            p = parse_model(fixture_text(name))
            assert parse_model(serialize_model(p)) == p

    def test_canonical_form_survives_round_trip(self):
        p = three_centers_eight()
        q = parse_model(serialize_model(p))
        assert canonical_form(q).blob == canonical_form(p).blob

    def test_indented_text_is_json_dumps(self):
        pairs = [parse_model(fixture_text(name)) for name in MODEL_FILES
                 if not name.startswith("bad_")]
        pairs += enumerate_pairs(EnumBounds(max_saddles=1, max_k_sum=1,
                                            max_centers=2, max_n=1, max_b=1,
                                            max_annuli=2, max_tori=1))
        pairs += [realize_multigraph(g) for g in (
            Multigraph.build(["hub", "x", "y"], {"e": ("hub", "x"),
                                                 "f": ("hub", "y")}),
            cycle_graph(5))]
        pairs.append(InvariantPair(
            SaddleDiagram.empty(),
            (VertexNode("n\u00f6rd", "c"), VertexNode("\U0001F600", "c")),
            (AnnulusEdge("g\u00fcrtel\t\"", Attachment("n\u00f6rd"),
                         Attachment("\U0001F600")),)))
        p = three_centers_eight()
        d = p.diagram
        twisted = tuple(replace(e, twisted=True) for e in d.separatrices)
        pairs.append(replace(p, diagram=replace(d, separatrices=twisted)))
        boundary = tuple(replace(s, kind="boundary") for s in d.saddles)
        pairs.append(replace(p, diagram=replace(d, saddles=boundary)))
        pairs.append(replace(p, tori=3))
        pairs.append(replace(p, vertices=(VertexNode("p", "d"),) + p.vertices[1:]))
        for p in pairs:
            doc = document_of(p)
            assert serialize_model(p) == json.dumps(doc, indent=2) + "\n"
            assert serialize_model(p, compact=True) == \
                json.dumps(doc, separators=(",", ":"))

    def test_shared_diagram_keeps_one_text_per_layout(self):
        """Pairs on one diagram object, written compact, indented, then
        compact again, each time in a new order, are each ``json.dumps``
        of their document.  Each diagram keeps one text per layout it was
        written in, and writing further pairs on it keeps nothing more."""
        pairs = list(enumerate_pairs(EnumBounds(
            max_saddles=1, max_k_sum=1, max_centers=2, max_n=1, max_b=1,
            max_annuli=2, max_tori=1)))
        p = three_centers_eight()
        pairs += [p, replace(eight_torus_pair(), diagram=p.diagram)]
        diagrams = {id(q.diagram): q.diagram for q in pairs}.values()
        assert len(diagrams) < len(pairs) - 1
        rng = random.Random(30)
        written = set()
        for compact in (True, False, True):
            rng.shuffle(pairs)
            for q in pairs:
                doc = document_of(q)
                assert serialize_model(q, compact=compact) == (
                    json.dumps(doc, separators=(",", ":")) if compact
                    else json.dumps(doc, indent=2) + "\n")
            written.add("compact_text" if compact else "indented_text")
            for d in diagrams:
                assert set(d.__dict__) - own_state(SaddleDiagram) == written
        kept = dict(p.diagram.__dict__)
        for q in (replace(p, tori=2), replace(p, vertices=tuple(
                replace(v, label="n") if v.id == "x" else v
                for v in p.vertices))):
            serialize_model(q)
            serialize_model(q, compact=True)
        assert p.diagram.__dict__.keys() == kept.keys()
        assert all(p.diagram.__dict__[key] is text
                   for key, text in kept.items())

    def test_realized_path_writes_in_linear_time(self):
        """Realizing a path-8000 and writing it in both layouts is linear
        work: per-vertex scans of the edges or separatrices would take
        seconds."""
        def realize_and_write(g):
            p = realize_multigraph(g)
            return serialize_model(p), serialize_model(p, compact=True)

        indented, compact = within_budget(realize_and_write, path_graph(8000),
                                          seconds=1)
        assert json.loads(indented) == json.loads(compact)
        assert len(json.loads(compact)["graph"]["vertices"]) == 8000

    def test_compact_single_line(self):
        text = serialize_model(sphere_rotation(), compact=True)
        assert "\n" not in text
        assert parse_model(text) == sphere_rotation()


class TestFormalSchema:
    """The shipped JSON Schema file agrees with the strict parser."""

    def _validator(self):
        from pathlib import Path

        from jsonschema import Draft202012Validator

        schema_file = Path(__file__).parent.parent / "schema" / "model.schema.json"
        schema = json.loads(schema_file.read_text(encoding="utf-8"))
        Draft202012Validator.check_schema(schema)
        return Draft202012Validator(schema)

    def test_fixtures_conform(self):
        v = self._validator()
        for name in ("sphere_rotation.json", "three_centers_eight.json",
                     "disk_eight_opposed.json", "disk_eight_aligned.json", "three_centers_mobius.json",
                     "three_centers_boundary.json", "periodic_torus.json"):
            assert not list(v.iter_errors(json.loads(fixture_text(name))))

    def test_serializer_output_conforms(self):
        v = self._validator()
        doc = json.loads(serialize_model(three_centers_eight()))
        assert not list(v.iter_errors(doc))

    def test_schema_rejects_unknown_field(self):
        v = self._validator()
        doc = json.loads(fixture_text("bad_unknown_field.json"))
        assert list(v.iter_errors(doc))


class TestDot:
    def test_graph_dot_sphere(self):
        dot = export_dot(sphere_rotation(), "graph")
        assert dot.startswith("graph invariant {")
        assert dot.count('label="c"') == 2
        assert dot.count("--") == 1

    def test_diagram_dot_eight(self):
        dot = export_dot(three_centers_eight(), "diagram")
        assert dot.startswith("digraph diagram {")
        assert dot.count("->") == 2
        assert "rot=(" in dot

    def test_torus_node(self):
        dot = export_dot(torus_pair(), "graph")
        assert 'label="torus"' in dot

    def test_deterministic(self):
        p = three_centers_eight()
        assert export_dot(p, "graph") == export_dot(p, "graph")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            export_dot(sphere_rotation(), "picture")
