"""Time-to-verdict benchmark for latreach.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The seed generates the workload's
inputs (workloads.py).  Every analysis runs as a fresh process that runs
the CLI as ``python -m latreach analyze`` does (child.py), one at a time:
a closed loop with one client.  Each analysis is checked: exit code,
verdict, no traceback, within the workload's time limit, and report and
reach digests where they are recorded.  Any failed analysis makes
``correct`` false.

--trace 0 prints the end-to-end metrics.  It runs the analyses round-robin
for --seconds (every analysis at least once), with the reference job
(child.py ref) between any two, and reports per-analysis medians of each
analysis's time as a multiple of the mean time of the two reference jobs
around it: the speed of a shared machine drifts by tens of percent within
minutes, and the ratio cancels that drift.  Raw seconds are printed above
the result line.  Set-up time is the time from spawning an analysis to the
start of its fixpoint; it is reported in seconds of a machine on which the
reference job takes REF_NOMINAL_S.
--trace 1 prints the per-layer metrics.  It runs every analysis once
untraced and once with every layer wrapped (layers.py); their wall-time
ratio is the tracing overhead.  Per-iteration rows go to
.bench_work/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 bench/run.py --record-digests --workload <name> --seed <n>

records, for each analysis not yet in bench/digests.json, the sha256 of its
report and of its --json reach, keyed by the analysis's inputs; an analysis
that fails its other checks is not recorded.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
RUN_DEADLINE_S = 165.0  # no analysis runs past this point of a run
# the end-to-end metrics of the result line, as BENCHMARK.json lists them;
# raw seconds drift with the machine, so they are printed but not reported
END_TO_END = ("wall_ref", "cpu_ref", "largest_ref", "setup_s", "peak_rss_mb", "ok_ratio")
# setup_s is in seconds of a machine on which the reference job takes this
# long, a round figure near its time on a quiet 2.0 GHz Xeon vCPU
REF_NOMINAL_S = 0.35


@dataclass
class Outcome:
    analysis: workloads.Analysis
    wall: float
    cpu: float
    rss_mb: float
    setup: float  # spawn to fixpoint start; nan if the fixpoint never started
    stdout: bytes
    failure: str  # "" when the analysis passed every check
    ref_wall: float = math.nan  # mean of the reference jobs run just before and after
    ref_cpu: float = math.nan

    def charged(self, limit: float) -> float:
        """Wall time the metrics count: a failure misses every limit."""
        return limit if self.failure else self.wall


class Bench:
    def __init__(self, root: str, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work")
        self.inputs = os.path.join(self.work, f"{workload.name}-{seed}")
        self.started = time.perf_counter()
        # bytecode is cached under the work directory, as an installed package
        # would have it; a fixed hash seed keeps set orders, and so the
        # per-layer counts, the same from run to run
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=os.path.join(self.work, "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def write_inputs(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)
        for name, text in self.workload.files.items():
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def input_key(self, a: workloads.Analysis) -> str:
        used = {f: self.workload.files[f] for f in a.args if f in self.workload.files}
        blob = json.dumps([list(a.args), used], sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    # -- processes -------------------------------------------------------

    def spawn(self, argv, name: str, timeout: float):
        """Run one child in the input directory, output to files.  Returns
        (exit code or None if killed at the timeout, start time, wall s, cpu s,
        peak RSS MB); the start time is the ``time.perf_counter()`` reading
        at spawn."""
        out_path = os.path.join(self.inputs, name + ".out")
        err_path = os.path.join(self.inputs, name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.inputs, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            fd = os.pidfd_open(proc.pid)
            reaped = False
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                killed = not poller.poll(max(timeout, 0.001) * 1000)
                if killed:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                os.close(fd)
                if not reaped:  # interrupted: leave no child behind
                    os.kill(proc.pid, signal.SIGKILL)
                    os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if killed else proc.returncode
        return code, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def analyze(self, a: workloads.Analysis, traced: bool = False) -> Outcome:
        timeout = min(self.workload.limit_s, self.remaining())
        reach = f"{a.name}.reach.json"
        args = ["analyze", *a.args, "--json", reach]
        stamp = f"{a.name}.stamp"
        mode = ["trace", f"{a.name}.trace.json"] if traced else ["run", stamp]
        argv = [sys.executable, os.path.join(HERE, "child.py"), *mode, *args]
        for name in (reach, stamp):
            path = os.path.join(self.inputs, name)
            if os.path.exists(path):
                os.remove(path)
        code, start, wall, cpu, rss = self.spawn(argv, a.name, timeout)
        stamped = self._read(stamp)
        setup = float(stamped) - start if stamped else math.nan
        stdout = self._read(a.name + ".out")
        stderr = self._read(a.name + ".err")
        failure = check(a, code, stdout, stderr, self._read(reach),
                        self.digests.get(self.input_key(a)))
        return Outcome(a, wall, cpu, rss, setup, stdout, failure)

    def reference(self):
        """Run the reference job; (wall s, cpu s)."""
        argv = [sys.executable, os.path.join(HERE, "child.py"), "ref"]
        code, _, wall, cpu, _ = self.spawn(argv, "ref", self.workload.limit_s)
        if code != 0:
            raise SystemExit(f"reference job failed with exit {code}: "
                             + self._read("ref.err").decode(errors="replace"))
        return wall, cpu

    def warm_up(self):
        """Run the CLI up to the first fixpoint once, so that bytecode
        caches are written before anything is timed."""
        a = self.workload.analyses[0]
        argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", "analyze", *a.args]
        code = self.spawn(argv, "warm-up", self.workload.limit_s)[0]
        if code != 0:
            raise SystemExit(f"warm-up with {a.name} failed with exit {code}: "
                             + self._read("warm-up.err").decode(errors="replace"))

    def _read(self, name: str) -> bytes:
        try:
            with open(os.path.join(self.inputs, name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def trace_summary(self, a: workloads.Analysis):
        data = self._read(f"{a.name}.trace.json")
        return json.loads(data) if data else None


# ---------------------------------------------------------------------------
# correctness


def verdict_of(stdout: str) -> str:
    m = re.search(r"^potential deadlocks: (\d+)$", stdout, re.M)
    if m:
        return "deadlocks: none" if m.group(1) == "0" else "deadlocks: some"
    m = re.search(r"^property: (SAFE|ALARM)$", stdout, re.M)
    return m.group(0) if m else "no verdict"


def check(a: workloads.Analysis, code, stdout: bytes, stderr: bytes, reach: bytes,
          digest) -> str:
    """Why the analysis failed, or "" when it passed.  The stderr check is
    needed because an uncaught exception exits 1, like a property alarm."""
    if code is None:
        return "over the time limit"
    if b"Traceback" in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        return f"traceback: {last}"
    if code != a.exit_code:
        return f"exit {code}, expected {a.exit_code}"
    verdict = verdict_of(stdout.decode(errors="replace"))
    if verdict != a.verdict:
        return f"verdict {verdict!r}, expected {a.verdict!r}"
    if digest is not None:
        if sha256(stdout) != digest["report"]:
            return "report differs from the recorded digest"
        if sha256(reach) != digest["reach"]:
            return "--json reach differs from the recorded digest"
    return ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def scaling_rows(workload: workloads.Workload, samples) -> list:
    """Per-n median wall time, in seconds and as a multiple of the reference
    job, for each domain, and the log-log slope fitted to the multiples."""
    by_domain = {}
    for name, (domain, n) in workload.scaling.items():
        runs = [o for o in samples[name] if not o.failure]
        if runs:
            by_domain.setdefault(domain, []).append(
                (n, statistics.median(o.wall for o in runs),
                 statistics.median(o.wall / o.ref_wall for o in runs)))
    rows = []
    for domain, points in by_domain.items():
        xs = [math.log(n) for n, _, _ in points]
        ys = [math.log(r) for _, _, r in points]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        den = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else float("nan")
        rows.append({"domain": domain,
                     "points": [{"n": n, "wall_s": w, "wall_ref": r} for n, w, r in points],
                     "loglog_slope": slope})
    return rows


def end_to_end(workload, samples) -> dict:
    """Each analysis counts with its median over the run's samples; a failed
    sample counts at the limit, since a failure misses every limit.  The
    ``_ref`` metrics divide each sample by the mean of the reference jobs
    around it; setup_s scales each set-up time the same way to seconds of
    a machine on which the reference job takes REF_NOMINAL_S; the other
    ``_s`` ones are raw seconds."""
    limit = workload.limit_s
    outcomes = [o for runs in samples.values() for o in runs]

    def median_sum(values):
        return sum(statistics.median(values(runs)) for runs in samples.values())

    def setups(runs, scale):
        # an analysis whose fixpoint never started counts at the limit
        return [o.setup * scale(o) for o in runs if not math.isnan(o.setup)] or [limit]

    largest = samples[workload.largest]
    return {
        "wall_ref": (median_sum(lambda runs: [o.charged(limit) / o.ref_wall for o in runs]),
                     "ref"),
        "cpu_ref": (median_sum(lambda runs: [o.cpu / o.ref_cpu for o in runs]), "ref"),
        "largest_ref": (statistics.median(o.charged(limit) / o.ref_wall for o in largest),
                        "ref"),
        "wall_s": (median_sum(lambda runs: [o.charged(limit) for o in runs]), "s"),
        "cpu_s": (median_sum(lambda runs: [o.cpu for o in runs]), "s"),
        "largest_s": (statistics.median(o.charged(limit) for o in largest), "s"),
        "reference_s": (statistics.median(o.ref_wall for o in outcomes), "s"),
        "setup_s": (median_sum(lambda runs: setups(runs, lambda o: REF_NOMINAL_S / o.ref_wall)),
                    "s"),
        "setup_raw_s": (median_sum(lambda runs: setups(runs, lambda o: 1.0)), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "ok_ratio": (sum(1 for o in outcomes if not o.failure) / len(outcomes), "ratio"),
    }


# ---------------------------------------------------------------------------
# running a workload


def print_outcomes(title, samples):
    print(title)
    for name, runs in samples.items():
        failures = [o.failure for o in runs if o.failure]
        print(f"  {name:20s} {len(runs)} x  median {statistics.median(o.wall for o in runs):8.3f} s"
              f"  cpu {statistics.median(o.cpu for o in runs):8.3f} s  "
              + (failures[0] if failures else "ok"))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def tally(workload, samples):
    """(correct, attempted, failed) over the samples; failures go to stderr."""
    outcomes = [o for runs in samples.values() for o in runs]
    failed = [o for o in outcomes if o.failure]
    for o in failed:
        print(f"FAILED {workload.name}/{o.analysis.name}: {o.failure}", file=sys.stderr)
    return not failed, len(outcomes), len(failed)


def measure(bench: Bench, seconds: float) -> str:
    """Round-robin over the analyses while the next one is expected to end
    within the measuring time; every analysis runs at least once."""
    workload = bench.workload
    bench.warm_up()
    samples = {a.name: [] for a in workload.analyses}
    start = time.perf_counter()
    before = bench.reference()
    for a in itertools.cycle(workload.analyses):
        if samples[a.name]:
            expected = samples[a.name][-1].wall + before[0]
            if (time.perf_counter() - start + expected > seconds
                    or bench.remaining() < 2 * expected):
                break
        outcome = bench.analyze(a)
        after = bench.reference()
        # the reference runs before and after bracket the analysis
        outcome.ref_wall = (before[0] + after[0]) / 2
        outcome.ref_cpu = (before[1] + after[1]) / 2
        samples[a.name].append(outcome)
        before = after
    print_outcomes(f"workload {workload.name}: per-analysis limit {workload.limit_s:g} s",
                   samples)
    for row in scaling_rows(workload, samples):
        points = "  ".join(f"n={p['n']}: {p['wall_s']:.3f} s ({p['wall_ref']:.2f} ref)"
                           for p in row["points"])
        print(f"scaling {row['domain']}: {points}  log-log slope {row['loglog_slope']:.2f}")
    correct, attempted, failed = tally(workload, samples)
    print(f"fail_ratio {failed}/{attempted}")
    metrics = end_to_end(workload, samples)
    print("raw: " + "  ".join(f"{k} {v:.4f} {u}" for k, (v, u) in metrics.items()
                              if k not in END_TO_END))
    return result_line(correct, attempted, failed,
                       {k: metrics[k] for k in END_TO_END})


def measure_traced(bench: Bench) -> str:
    workload = bench.workload
    bench.warm_up()
    plain = {a.name: [bench.analyze(a)] for a in workload.analyses}
    traced = {a.name: [bench.analyze(a, traced=True)] for a in workload.analyses}
    summaries = []
    trace_path = os.path.join(bench.work, f"trace-{workload.name}-{bench.seed}.jsonl")
    with open(trace_path, "w", encoding="utf-8") as fh:
        for a in workload.analyses:
            summary = bench.trace_summary(a)
            if summary is None:
                continue
            summaries.append(summary)
            for row in summary["rows"]:
                fh.write(json.dumps({"analysis": a.name, **row}, sort_keys=True) + "\n")
    absent = sorted({k for s in summaries for k in s["absent"]})
    unreadable = sorted({k for s in summaries for k in s["unreadable"]})
    print_outcomes(f"workload {workload.name}: untraced", plain)
    print_outcomes(f"workload {workload.name}: traced", traced)
    print(f"per-iteration rows: {trace_path}")
    print(f"absent layer functions: {', '.join(absent) or 'none'}")
    print(f"unreadable counts: {', '.join(unreadable) or 'none'}")
    metrics = layers.per_layer(summaries)
    metrics["trace.overhead_ratio"] = (sum(o.wall for [o] in traced.values())
                                       / sum(o.wall for [o] in plain.values()), "ratio")
    correct, attempted, failed = tally(workload, {k: plain[k] + traced[k] for k in plain})
    return result_line(correct, attempted, failed, metrics)


def record_digests(bench: Bench):
    """Record the digests of every analysis that has none yet and passes."""
    for a in bench.workload.analyses:
        key = bench.input_key(a)
        if key in bench.digests:
            continue
        o = bench.analyze(a)
        if o.failure:
            print(f"not recorded: {a.name}: {o.failure}")
            continue
        bench.digests[key] = {"workload": bench.workload.name, "analysis": a.name,
                              "report": sha256(o.stdout),
                              "reach": sha256(bench._read(f"{a.name}.reach.json"))}
        print(f"recorded: {a.name}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(bench.digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    # on termination, unwind so that a running analysis is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latreach", "cli.py")):
        print("error: run from the root of a latreach checkout (no src/latreach/cli.py)",
              file=sys.stderr)
        return 2
    bench = Bench(root, workloads.generate(args.workload, args.seed), args.seed)
    bench.write_inputs()
    if args.record_digests:
        record_digests(bench)
        return 0
    line = measure_traced(bench) if args.trace else measure(bench, args.seconds)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
