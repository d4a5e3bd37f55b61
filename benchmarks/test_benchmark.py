"""Tests of the benchmark itself, at smoke scale.

    python3 -m pytest benchmarks -q

Seeded inputs repeat for a seed, every workload's check catches a
planted wrong answer, traced counts repeat exactly, and the runner keeps
its output contract.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from flowinv.diagram import Saddle, SaddleDiagram  # noqa: E402
from flowinv.graph import InvariantPair  # noqa: E402
from flowinv.isomorphism import pair_isomorphic, verify_witness  # noqa: E402
from flowinv.model_io import serialize_model  # noqa: E402
from flowinv.reconstruction import realize_multigraph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fingerprint(name: str, inputs) -> list:
    """Comparable text of a workload's inputs."""
    if name == "enum":
        return [repr(inputs.bounds), inputs.rng.random()]
    if name == "corpus":
        return [(d.text, d.model, d.mutation) for d in inputs]
    if name == "symmetric":
        return [(c.name, serialize_model(c.a), serialize_model(c.b))
                for c in inputs]
    return list(inputs)


def smoke(name: str, seed: int = 5):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, "smoke")
    answers, latencies = wl.run(inputs, lambda region: nullcontext())
    return wl, inputs, answers, latencies


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    setup = workloads.WORKLOADS[name].setup
    assert fingerprint(name, setup(3, "smoke")) == \
        fingerprint(name, setup(3, "smoke"))
    if name != "enum":  # enum's seed only shuffles candidate order
        assert fingerprint(name, setup(3, "smoke")) != \
            fingerprint(name, setup(4, "smoke"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_answers_pass(name):
    wl, inputs, answers, latencies = smoke(name)
    outcome = wl.check(inputs, answers)
    assert (outcome.failed, outcome.problems) == (0, [])
    assert outcome.attempted == len(latencies) > 0


def test_enum_check_catches_a_swapped_digest():
    wl, inputs, lines, _ = smoke("enum")
    other = lines[1][0].split(" ", 1)[0]
    lines[0] = (other + " " + lines[0][0].split(" ", 1)[1], lines[0][1])
    assert wl.check(inputs, lines).failed == 1


def test_enum_check_catches_a_missing_class():
    wl, inputs, lines, _ = smoke("enum")
    assert wl.check(inputs, lines[:-1]).failed == 1


def test_corpus_check_catches_a_flipped_iso_verdict():
    wl, docs, answers, _ = smoke("corpus")
    confirmed = next(a for a in answers if a.witness is not None)
    confirmed.witness = None
    assert wl.check(docs, answers).failed == 1


def test_corpus_check_catches_a_swapped_digest():
    wl, docs, answers, _ = smoke("corpus")
    first = next(a for a in answers if a.digest is not None)
    first.rev_digest = "0" * 64
    assert wl.check(docs, answers).failed == 1


def test_corpus_check_catches_an_accepted_malformed_document():
    wl, docs, answers, _ = smoke("corpus")
    i = next(i for i, d in enumerate(docs) if d.model is None)
    answers[i].rejected = None
    assert wl.check(docs, answers).failed == 1


def test_symmetric_check_catches_a_swapped_digest():
    wl, cases, answers, _ = smoke("symmetric")
    answers[0][1] = answers[1][1]
    assert wl.check(cases, answers).failed == 1


def test_symmetric_check_catches_a_wrong_reversible_form():
    wl, cases, answers, _ = smoke("symmetric")
    answers[0][2] += b"!"
    assert wl.check(cases, answers).failed == 1


def test_realize_check_catches_wrong_axioms():
    wl, texts, answers, _ = smoke("realize")
    answers[0].axioms = (True, True, False)
    assert wl.check(texts, answers).failed == 1


def test_witness_check_sees_rotation_words_up_to_shift():
    """The witness is valid, but a literal word comparison rejects it."""
    p = realize_multigraph(workloads.SHAPES["star"](3))
    (s,) = p.diagram.saddles
    shifted = Saddle(s.id, s.k, s.rotation[1:] + s.rotation[:1], s.kind)
    q = InvariantPair(SaddleDiagram((shifted,), p.diagram.separatrices),
                      p.vertices, p.annuli, p.tori)
    w = pair_isomorphic(p, q)
    assert w is not None
    assert workloads.witness_holds(p, q, w)
    assert not verify_witness(p, q, w)


def synthetic_probe(duration: float) -> speed.SpeedProbe:
    """Probe runs of a fixed duration at t = 0, 1, 2, ... 10."""
    p = speed.SpeedProbe()
    p.starts = [float(t) for t in range(11)]
    p.ends = [t + duration for t in p.starts]
    p.smooth()
    return p


@pytest.mark.parametrize("slowdown", [1.0, 2.0, 0.5])
def test_speed_probe_scales_work_by_the_probe_speed(slowdown):
    p = synthetic_probe(speed.REFERENCE_S * slowdown)
    work = 4.0 - 4 * p.ends[0]          # [0.5, 4.5] minus 4 probe runs
    assert p.probe_seconds(0.5, 4.5) == pytest.approx(4 * p.ends[0])
    assert p.seconds(0.5, 4.5) == pytest.approx(work / slowdown)
    assert p.factor(0.5, 4.5) == pytest.approx(1 / slowdown)
    assert p.seconds(2.25, 2.75) == pytest.approx(0.5 / slowdown)


def test_speed_probe_follows_a_local_slowdown():
    p = synthetic_probe(speed.REFERENCE_S)
    for i in range(5, 11):              # the host halves its speed at t = 5
        p.ends[i] = p.starts[i] + 2 * speed.REFERENCE_S
    p.smooth()
    assert p.seconds(1.25, 1.75) == pytest.approx(0.5)
    assert p.seconds(8.25, 8.75) == pytest.approx(0.25)


def test_speed_probe_runs_on_its_timer_and_stops():
    p = speed.SpeedProbe()
    p.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(1000))
    t1 = time.perf_counter()
    p.stop()
    assert len(p.starts) >= 10
    assert 0 < p.seconds(t0, t1) < 10 * (t1 - t0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)


def run_cli(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout)


def test_smoke_run_prints_every_end_to_end_metric():
    proc = run_cli("--workload", "corpus", "--seed", "2", "--seconds", "0",
                   "--trace", "0", "--scale", "smoke", timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_ratio" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = run_cli("--workload", "enum", "--seed", "2", "--seconds", "0",
                   "--trace", "1", "--scale", "smoke", timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["enumeration.classes"]["value"] == \
        sum(workloads.ENUM_TABLES["smoke"].values())


@pytest.mark.parametrize("name", ["corpus", "realize"])
def test_traced_counts_repeat_for_a_seed(name):
    def counts():
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", "9", "--trace", "1", "--scale", "smoke"],
            capture_output=True, text=True, cwd=ROOT, env=run.WORKER_ENV,
            timeout=60)
        layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        return {k: v for k, v in layers.items() if units[k] == "count"}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "enum", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_lists_what_the_runner_reports():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert SPEC["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == \
        next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_a_vanished_function_is_reported_absent():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import flowinv.topology\n"
        "del flowinv.topology.separation_axioms\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "m = tracer.layer_metrics(t, 1)\n"
        "print(t.absent, m['topology.separation_ms'], m['topology.alexandroff_ms'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["['topology.separation_axioms']", "None",
                                   "0.0"], proc.stderr
