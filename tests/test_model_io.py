import pytest

from flowinv.isomorphism import canonical_form
from flowinv.model_io import (
    ParseError,
    SchemaError,
    SemanticError,
    export_dot,
    parse_model,
    serialize_model,
)

from conftest import (
    eight_torus_pair,
    fixture_text,
    sphere_rotation,
    three_centers_eight,
    torus_pair,
)


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

    def test_compact_single_line(self):
        text = serialize_model(sphere_rotation(), compact=True)
        assert "\n" not in text
        assert parse_model(text) == sphere_rotation()


class TestFormalSchema:
    """The shipped JSON Schema file agrees with the strict parser."""

    def _validator(self):
        import json
        from pathlib import Path

        from jsonschema import Draft202012Validator

        schema_file = Path(__file__).parent.parent / "schema" / "model.schema.json"
        schema = json.loads(schema_file.read_text(encoding="utf-8"))
        Draft202012Validator.check_schema(schema)
        return Draft202012Validator(schema)

    def test_fixtures_conform(self):
        import json

        v = self._validator()
        for name in ("sphere_rotation.json", "three_centers_eight.json",
                     "disk_eight_opposed.json", "disk_eight_aligned.json", "three_centers_mobius.json",
                     "three_centers_boundary.json", "periodic_torus.json"):
            assert not list(v.iter_errors(json.loads(fixture_text(name))))

    def test_serializer_output_conforms(self):
        import json

        v = self._validator()
        doc = json.loads(serialize_model(three_centers_eight()))
        assert not list(v.iter_errors(doc))

    def test_schema_rejects_unknown_field(self):
        import json

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
