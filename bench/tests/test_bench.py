"""Self-tests of the benchmark: inputs, verdicts, the correctness gate and
the tracer.  Run from the repository root:

    python3 -m pytest bench/tests -q

The verdict test runs the analyzer on five seeds and takes a few minutes.
"""
import json
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.GENERATORS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    first = run.Bench(ROOT, workloads.generate(name, 7), 7)
    first.write_inputs()
    blobs = {f: open(os.path.join(first.inputs, f), "rb").read()
             for f in workloads.generate(name, 7).files}
    second = workloads.generate(name, 7)
    assert {f: t.encode() for f, t in second.files.items()} == blobs
    assert second == workloads.generate(name, 7)


def _distinct_analyses(name, seeds):
    """(bench, analysis) for every distinct input over the seeds."""
    seen = set()
    for seed in seeds:
        bench = run.Bench(ROOT, workloads.generate(name, seed), seed)
        for a in bench.workload.analyses:
            key = bench.input_key(a)
            if key not in seen:
                seen.add(key)
                yield bench, a


@pytest.mark.parametrize("name", NAMES)
def test_expected_verdicts_hold_on_other_seeds(name):
    benches = set()
    for bench, a in _distinct_analyses(name, range(1, 6)):
        if id(bench) not in benches:
            benches.add(id(bench))
            bench.write_inputs()
        outcome = bench.analyze(a)
        assert outcome.failure == "", f"seed {bench.seed} {a.name}: {outcome.failure}"


def test_flipped_byte_in_report_or_reach_is_a_failure():
    bench = run.Bench(ROOT, workloads.generate("local-loops", workloads.DEFAULT_SEED),
                      workloads.DEFAULT_SEED)
    bench.write_inputs()
    a = next(a for a in bench.workload.analyses if a.name == "interval-n4")
    digest = bench.digests.get(bench.input_key(a))
    assert digest is not None, "no digest recorded for the default seed"
    outcome = bench.analyze(a)
    assert outcome.failure == ""
    reach = bench._read(f"{a.name}.reach.json")
    for i in (0, len(outcome.stdout) // 2, len(outcome.stdout) - 1):
        flipped = bytearray(outcome.stdout)
        flipped[i] ^= 0x01
        assert run.check(a, a.exit_code, bytes(flipped), b"", reach, digest) != ""
    flipped = bytearray(reach)
    flipped[len(reach) // 2] ^= 0x01
    assert run.check(a, a.exit_code, outcome.stdout, b"", bytes(flipped), digest) != ""


def test_setup_time_ends_where_the_fixpoint_starts():
    bench = run.Bench(ROOT, workloads.generate("philosophers", 0), 0)
    bench.write_inputs()
    a = next(a for a in bench.workload.analyses if a.name == "random-interval")
    outcome = bench.analyze(a)
    assert outcome.failure == ""
    assert 0 < outcome.setup < outcome.wall


def test_reference_job_does_not_import_latreach():
    # a change to latreach must not move the job the times are divided by
    code = ("import sys, child; child.main(['ref']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'latreach'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_traceback_and_wrong_exit_are_failures():
    a = workloads.Analysis("x", ("p.prog",), 1, "property: ALARM")
    ok = b"property: ALARM\n"
    assert run.check(a, 1, ok, b"", b"", None) == ""
    assert "traceback" in run.check(a, 1, ok, b"Traceback (most recent call last):\nE: x\n",
                                    b"", None)
    assert "exit" in run.check(a, 0, ok, b"", b"", None)
    assert "verdict" in run.check(a, 1, b"property: SAFE\n", b"", b"", None)
    assert "limit" in run.check(a, None, ok, b"", b"", None)


def _module_functions():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "latreach" or name.startswith("latreach.")
            for attr, value in vars(mod).items() if isinstance(value, types.FunctionType)}


def test_tracer_restores_every_module_attribute(tmp_path, monkeypatch):
    import latreach.cli as cli

    wl = workloads.generate("local-loops", 3)
    for f, text in wl.files.items():
        (tmp_path / f).write_text(text)
    monkeypatch.chdir(tmp_path)
    before = _module_functions()
    with layers.Tracer() as tracer:
        # every target is wrapped wherever it is bound, e.g. normalize in rules
        assert cli.fixpoint is not before[("latreach.cli", "fixpoint")]
        assert sys.modules["latreach.rules"].normalize.__wrapped__ is \
            before[("latreach.automaton", "normalize")]
        assert cli.main(["analyze", "loops.prog", "--procs", "4",
                         "--property", "loops.bad"]) == 0
    after = _module_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["absent"] == [] and summary["unreadable"] == []
    assert summary["spans"]["engine.step"][0] == len(summary["rows"]) > 0


def test_missing_target_is_reported_absent(monkeypatch):
    import latreach.cli  # noqa: F401

    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (("automaton", "no_such_fn"),))
    tracer = layers.Tracer()
    with tracer:
        pass
    assert tracer.summary()["absent"] == ["automaton.no_such_fn"]
    metrics = layers.per_layer([tracer.summary()])
    assert metrics["automaton.normalize_calls"] == (0, "count")


def _traced_counts(bench, a):
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "trace", "t.json",
            "analyze", *a.args]
    subprocess.run(argv, cwd=bench.inputs, env=bench.env, check=False,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(bench.inputs, "t.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    metrics = layers.per_layer([summary])
    calls = {k: v[0] for k, v in summary["spans"].items()}
    rows = [{k: r[k] for k in ("iteration", "states", "transitions")} for r in summary["rows"]]
    counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}
    return calls, summary["counts"], rows, counts


@pytest.mark.parametrize("name, analysis", [("philosophers", "random-affine"),
                                            ("local-loops", "interval-n4")])
def test_two_traced_runs_give_identical_counts(name, analysis):
    bench = run.Bench(ROOT, workloads.generate(name, 2), 2)
    bench.write_inputs()
    a = next(a for a in bench.workload.analyses if a.name == analysis)
    first = _traced_counts(bench, a)
    assert first[0]["engine.step"] > 0
    assert first == _traced_counts(bench, a)
