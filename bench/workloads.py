"""Seeded input generators for the latreach benchmark workloads.

Each workload is a fixed list of analyses.  The seed picks constants only
(a base, a token, start values, loop bounds and steps); the program
shapes and sizes never change, so the work an analysis does is the same
for every seed.
Every expected exit code and verdict follows from how the input is built,
never from running the analyzer.

Properties name the program's exit location, which follows the frontend's
numbering of locations in source order; each generator states its exit
next to its template.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Analysis:
    """One ``latreach analyze`` invocation and what it must answer.

    ``args`` are the CLI arguments after ``analyze``, with file names
    relative to the workload's input directory.  ``verdict`` is what the
    report must say: ``property: SAFE``/``property: ALARM``, or for
    deadlock checks ``deadlocks: none``/``deadlocks: some``."""

    name: str
    args: tuple
    exit_code: int
    verdict: str


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict  # file name -> text
    analyses: tuple
    largest: str  # name of the analysis reported as largest_s
    limit_s: float  # per-analysis time limit; a failure counts at it
    scaling: dict = field(default_factory=dict)  # analysis name -> (domain, n)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _property(loc: str, items: str) -> str:
    return ("state s0 initial\n"
            "state s1 final\n"
            "s0 -> s0 : true\n"
            f"s0 -> s1 : loc={loc}, {items}\n"
            "s1 -> s1 : true\n")


# ---------------------------------------------------------------------------
# reduce-sweep: words grow with n, so automaton normalization dominates

# n per domain; affine costs about 1.6 times interval at the same n, so
# interval goes one size further and holds the largest input
REDUCE_N = {"interval": (2, 4, 8, 12), "affine": (2, 4, 8)}


def reduce_sweep(seed: int) -> Workload:
    b = _rng("reduce-sweep", seed).choice((2, 3))
    # exit is l2: declarations make no location, two statements follow l0
    files = {"reduce.prog": ("rat res;\n"
                             "rat total;\n"
                             f"res := 1 / {b} ^ (id + 1);\n"
                             "reduce(total, res, +, 0);\n")}
    analyses = []
    scaling = {}
    for domain, sizes in REDUCE_N.items():
        for n in sizes:
            total = sum(Fraction(1, b ** (i + 1)) for i in range(n))
            bad = f"sum_n{n}.bad"
            # the sum as a literal fraction: `^` on a property's right-hand
            # side loses precision under affine
            files[bad] = _property("l2", f"id == 0, total != {total.numerator}/{total.denominator}")
            name = f"{domain}-n{n}"
            analyses.append(Analysis(name, ("reduce.prog", "--domain", domain, "--procs", str(n),
                                            "--property", bad), 0, "property: SAFE"))
            scaling[name] = (domain, n)
    return Workload("reduce-sweep", files, tuple(analyses), "interval-n12", 30.0,
                    scaling=scaling)


# ---------------------------------------------------------------------------
# philosophers: rule application and guard meets dominate

DINING = """\
// Two philosophers (ids 0,1) and two forks (ids 2,3); each philosopher
// takes its left fork first, so both can hold one fork and wait forever.
me := id;
if (id < 2) {
  l := 2 + me;
  r := 2 + ((me + 1) % 2);
  while (1) {
    send(l, me);
    send(r, me);
    send(l, me);
    send(r, me);
  }
} else {
  while (1) {
    receive(any_id, h);
    receive(h, d);
  }
}
"""

HANDSHAKE = """\
// Process 0 sends a token and waits for the reply; process 1 receives it
// and replies.  Every send meets its receive, so nothing blocks forever.
me := id;
if (id == 0) {{
  t := {token};
  send(1, t);
  receive(1, x);
}} else {{
  receive(0, x);
  send(0, me);
}}
"""

DEADLOCK_RANDOM = """\
// Both-send and both-receive outcomes block forever.
if (*)
  send(1 - id, x);
else
  receive(any_id, x);
"""


def philosophers(seed: int) -> Workload:
    """Dining runs under intervals only: under affine, any constant
    condition such as ``while (1)`` reaches ``AffineEnv.meet(None)`` and
    the analysis dies with an AttributeError (a known baseline failure,
    left out so that no operation of the workload fails)."""
    token = _rng("philosophers", seed).randint(2, 99)
    files = {"dining.prog": DINING, "handshake.prog": HANDSHAKE.format(token=token),
             "random.prog": DEADLOCK_RANDOM}
    analyses = (
        Analysis("dining-interval", ("dining.prog", "--domain", "interval", "--procs", "4",
                                     "--deadlock"), 2, "deadlocks: some"),
        Analysis("handshake-interval", ("handshake.prog", "--domain", "interval",
                                        "--procs", "2", "--deadlock"), 0, "deadlocks: none"),
        Analysis("handshake-affine", ("handshake.prog", "--domain", "affine",
                                      "--procs", "2", "--deadlock"), 0, "deadlocks: none"),
        Analysis("random-interval", ("random.prog", "--domain", "interval", "--procs", "2",
                                     "--deadlock"), 2, "deadlocks: some"),
        Analysis("random-affine", ("random.prog", "--domain", "affine", "--procs", "2",
                                   "--deadlock"), 2, "deadlocks: some"),
    )
    return Workload("philosophers", files, analyses, "dining-interval", 20.0)


# ---------------------------------------------------------------------------
# local-loops: no communication, so no rules; transducer, join and widening

def local_loops(seed: int) -> Workload:
    rng = _rng("local-loops", seed)
    x0, y0, z0 = (rng.randint(0, 9) for _ in range(3))
    bound = rng.randint(5, 12)
    # the two branches move x by different steps, so no branch choice keeps
    # an affine relation that the other breaks; the shape is fixed so that
    # the seed does not change how many iterations the fixpoint takes
    then_x, else_x, dz = rng.randint(1, 2), rng.randint(3, 4), rng.randint(1, 5)
    # exit is l5: four assignments, then the loop.  x only grows from x0,
    # so intervals refute x < x0 at exit; Karr's equalities cannot.
    files = {"loops.prog": (f"x := {x0};\n"
                            f"y := {y0};\n"
                            f"z := {z0};\n"
                            "i := 0;\n"
                            f"while (i < {bound}) {{\n"
                            "  if (*) {\n"
                            f"    x := x + {then_x};\n"
                            "    y := y + z;\n"
                            "  } else {\n"
                            f"    x := x + {else_x};\n"
                            f"    z := z - {dz};\n"
                            "  }\n"
                            "  i := i + 1;\n"
                            "}\n"),
             "loops.bad": _property("l5", f"x < {x0}")}
    analyses = []
    for n in (2, 4):
        for domain in ("interval", "affine"):
            safe = domain == "interval"
            analyses.append(Analysis(
                f"{domain}-n{n}",
                ("loops.prog", "--domain", domain, "--procs", str(n), "--property", "loops.bad"),
                0 if safe else 1, "property: SAFE" if safe else "property: ALARM"))
    return Workload("local-loops", files, tuple(analyses), "affine-n4", 20.0)


GENERATORS = {
    "reduce-sweep": reduce_sweep,
    "philosophers": philosophers,
    "local-loops": local_loops,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
