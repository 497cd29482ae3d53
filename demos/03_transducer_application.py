"""Walkthrough: applying a lattice transducer to a lattice automaton.

Local instructions become the rules of a letter-to-letter transducer; the
application replaces every transition label by its images under the
rules, on the same two states.
The inactivity rule (match anything, change nothing) makes the image
contain the original language, so one application computes "zero or one
local step per process".
"""
from latreach.automaton import LatticeAutomaton, normalize
from latreach.domain import (
    AbstractLocalState,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
    TOP_GUARD,
)
from latreach.export import transducer_to_dot
from latreach.syntax import Assign, parse_expr
from latreach.transducer import (
    LatticeTransducer,
    LetterOut,
    TransducerRule,
    apply_transducer,
)

ctx = DomainContext("interval", ("x",))

bump = TransducerRule(
    "assign_x_plus_4",
    GuardElement.at("l7"),
    LetterOut(base=0, loc="l8", instr=Assign("x", parse_expr("x + 4"))))
idle = TransducerRule("inactivity", TOP_GUARD, LetterOut(base=0))
t = LatticeTransducer((bump, idle))
print(transducer_to_dot(t))

singleton = normalize(LatticeAutomaton.from_word([
    AbstractLocalState(Interval.point(0), "l7",
                       IntervalEnv.make({"x": Interval.point(1)}))]))
print("input automaton (one process, x = 1, before the assignment):")
print(singleton)

out = apply_transducer(ctx, t, singleton)
print()
print("image: the process either idled or executed x := x + 4:")
print(out)
