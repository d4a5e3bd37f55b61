import random
import resource
import subprocess
import sys

import pytest

from flowinv.cli import main
from flowinv.model_io import serialize_model
from flowinv.reconstruction import realize_multigraph

from conftest import fixture_path, within_budget
from oracles import path_graph, random_relabel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate",
                           str(fixture_path("sphere_rotation.json")))
        assert code == 0 and out.strip() == "OK"

    def test_semantic_failure_exit_one(self, capsys):
        code, _, err = run(capsys, "validate",
                           str(fixture_path("bad_degree.json")))
        assert code == 1 and "degree" in err

    def test_syntax_failure_exit_two(self, capsys):
        code, _, err = run(capsys, "validate",
                           str(fixture_path("bad_truncated.json")))
        assert code == 2 and "parse error" in err

    def test_schema_failure_exit_two(self, capsys):
        code, _, err = run(capsys, "validate",
                           str(fixture_path("bad_unknown_field.json")))
        assert code == 2 and "unknown field" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no_such_file.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "realize"])
    def test_non_utf8_file_exit_two(self, command, tmp_path, capsys):
        f = tmp_path / "latin1.json"
        f.write_bytes(b'{"version": 1,\xff}')
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: {f}: byte 14: not valid UTF-8")

    @pytest.mark.parametrize("name, prefix, command", [
        ("bad_truncated.json", "parse error: ", ("validate",)),
        ("bad_unknown_field.json", "schema error: ", ("validate",)),
        ("bad_degree.json", "", ("validate",)),
        ("bad_degree.json", "invalid model: ", ("canon",)),
        ("bad_degree.json", "invalid model: ", ("reconstruct",)),
        ("bad_degree.json", "invalid model: ",
         ("iso", str(fixture_path("three_centers_eight.json")))),
    ], ids=["bad_truncated.json-parse error: ",
            "bad_unknown_field.json-schema error: ", "bad_degree.json-",
            "canon", "reconstruct", "iso"])
    def test_diagnostics_name_the_file(self, name, prefix, command, capsys):
        """A semantic error exits 1 and prints one line per violated rule,
        prefixed with ``invalid model: `` outside ``validate``; the bad
        file is the last argument."""
        path = str(fixture_path(name))
        code, _, err = run(capsys, *command, path)
        assert code == (1 if name == "bad_degree.json" else 2)
        lines = err.splitlines()
        assert lines and all(line.startswith(f"{prefix}{path}:")
                             for line in lines)
        if name == "bad_degree.json":
            assert len(lines) == 3


class TestIso:
    def test_disk_eights_not_isomorphic(self, capsys):
        code, out, _ = run(capsys, "iso",
                           str(fixture_path("disk_eight_opposed.json")),
                           str(fixture_path("disk_eight_aligned.json")))
        assert code == 1 and out.strip() == "NO"

    def test_disk_eights_not_isomorphic_with_reversal(self, capsys):
        code, out, _ = run(capsys, "iso",
                           str(fixture_path("disk_eight_opposed.json")),
                           str(fixture_path("disk_eight_aligned.json")),
                           "--reverse-allowed")
        assert code == 1 and out.strip() == "NO"

    def test_second_file_named_in_diagnostic(self, capsys):
        good = str(fixture_path("three_centers_eight.json"))
        bad = str(fixture_path("bad_truncated.json"))
        code, out, err = run(capsys, "iso", good, bad)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: {bad}:")
        assert good not in err

    def test_large_path_pair(self, tmp_path):
        """A realized 1 200-vertex path against a relabeling of it."""
        p = realize_multigraph(path_graph(1200))
        files = []
        for name, model in (("a", p), ("b", random_relabel(p, random.Random(12)))):
            files.append(tmp_path / f"{name}.json")
            files[-1].write_text(serialize_model(model), encoding="utf-8")
        proc = within_budget(
            subprocess.run,
            [sys.executable, "-m", "flowinv", "iso", *map(str, files)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "YES"
        assert "Traceback" not in proc.stderr

    def test_self_iso_prints_witness(self, capsys):
        path = str(fixture_path("three_centers_eight.json"))
        code, out, _ = run(capsys, "iso", path, path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert "orientation=preserved" in lines[1]
        assert any(line.startswith("vertex ") for line in lines)


class TestReports:
    def test_classify_sphere(self, capsys):
        code, out, _ = run(capsys, "classify",
                           str(fixture_path("sphere_rotation.json")))
        assert code == 0
        assert out.strip() == ("sv_t0=true sv_t1=true sv_t2=true"
                               " svex_t1=true svex_t2=true")

    def test_classify_three_centers(self, capsys):
        code, out, _ = run(capsys, "classify",
                           str(fixture_path("three_centers_eight.json")))
        assert code == 0
        assert out.strip() == ("sv_t0=true sv_t1=false sv_t2=false"
                               " svex_t1=true svex_t2=true")

    def test_reconstruct_three_centers(self, capsys):
        code, out, _ = run(capsys, "reconstruct",
                           str(fixture_path("three_centers_eight.json")))
        assert code == 0
        assert out.strip() == \
            "component=0 orientable=true genus=0 boundary=0 chi=2"

    def test_canon_deterministic(self, capsys):
        path = str(fixture_path("three_centers_eight.json"))
        code1, out1, _ = run(capsys, "canon", path)
        code2, out2, _ = run(capsys, "canon", path)
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.strip()) == 64

    @pytest.mark.parametrize("flags", [[], ["--reverse-allowed"]],
                             ids=["oriented", "reversible"])
    def test_canon_counts_tori(self, tmp_path, flags):
        """A 109-byte document with a hundred million periodic tori: the
        canonical bytes frame them by count, so the command answers at
        once.  The child gets 512 MB of address space, so a per-torus
        cost fails with a MemoryError instead of taxing the host."""
        path = tmp_path / "tori.json"
        path.write_text(
            '{"version":1,"diagram":{"saddles":[],"separatrices":[]},'
            '"graph":{"vertices":[],"annuli":[],"tori":100000000}}',
            encoding="utf-8")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = within_budget(
            subprocess.run,
            [sys.executable, "-m", "flowinv", "canon", str(path), *flags],
            capture_output=True, text=True, preexec_fn=cap_memory,
            seconds=1.0)
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip()) == 64

    def test_export_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot",
                           str(fixture_path("sphere_rotation.json")),
                           "--which", "graph")
        assert code == 0 and out.startswith("graph invariant {")


class TestRealizeAndEnumerate:
    def test_realize_star(self, capsys):
        code, out, _ = run(capsys, "realize",
                           str(fixture_path("star_graph.json")))
        assert code == 0
        from flowinv.model_io import parse_model

        pair = parse_model(out)
        assert len(pair.diagram.saddles) == 1

    def test_realize_trivial_graph(self, tmp_path, capsys):
        f = tmp_path / "trivial.json"
        f.write_text('{"vertices": ["v"], "edges": []}')
        code, _, err = run(capsys, "realize", str(f))
        assert code == 1 and "not realizable" in err

    @pytest.mark.parametrize("doc", [
        '{"vertices": ["u", "v"], "edges": [{"id": "e", "ends": 5}]}',
        '{"vertices": ["u", "v"], "edges": [{"id": "e", "ends": [[0], [1]]}]}',
        '{"vertices": 5, "edges": []}',
        '{"vertices": ["u", "v"], "edges": [{"id": "e", "ends": ["u", "w"]}]}',
        '{"vertices": ["u", "v", "w"], "edges": [{"id": "e", "ends": ["u", "v"]},'
        ' {"id": "e", "ends": ["v", "w"]}]}',
        '{"vertices": [1, "1"], "edges": [{"id": "e", "ends": [1, "1"]}]}',
    ], ids=["ends-scalar", "ends-nested", "vertices-scalar", "unknown-end",
            "duplicate-edge-id", "same-name-as-text"])
    def test_realize_rejects_malformed_graph(self, doc, tmp_path, capsys):
        f = tmp_path / "graph.json"
        f.write_text(doc)
        code, out, err = run(capsys, "realize", str(f))
        assert code == 2 and out == "" and "schema error" in err

    def test_enumerate_stream_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-centers", "2",
                           "--max-annuli", "1", "--max-tori", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            digest, doc = line.split(" ", 1)
            assert len(digest) == 64
            from flowinv.model_io import parse_model

            parse_model(doc)

    def test_enumerate_byte_stable(self, capsys):
        args = ("enumerate", "--max-saddles", "1", "--max-k-sum", "1",
                "--max-centers", "2", "--max-annuli", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_argument(self, capsys):
        assert main(["iso", "only_one.json"]) == 64

    def test_no_command(self, capsys):
        assert main([]) == 64

    def test_negative_enumeration_bound(self, capsys):
        assert main(["enumerate", "--max-saddles", "-1"]) == 64


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flowinv", "classify",
         str(fixture_path("periodic_torus.json"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "sv_t1=true" in proc.stdout


def test_closed_stdout_ends_quietly():
    """A reader that stops early (``| head -1``) leaves exit 0 and an
    empty stderr, with no complaint from the interpreter at exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "flowinv", "enumerate", "--max-saddles", "2",
         "--max-k-sum", "2", "--max-centers", "3", "--max-annuli", "3",
         "--max-tori", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # about 0.9 MB more would follow: far beyond a pipe
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert first.count(b" ") >= 1 and err == b""
