"""Walkthrough: flagging potential deadlocks from the reach set.

A configuration is suspicious when every process sits at a blocking
location (or the exit) and neither a communication rule nor a local step
can move anything.  The check may raise false alarms (the abstraction
joins values), but genuinely stuck configurations are found: both
coin-flip processes choosing send, or the philosophers' circular wait.
"""
from pathlib import Path

from latreach.engine import AnalysisConfig, check_deadlock, fixpoint
from latreach.frontend import compile_program
from latreach.syntax import parse

HERE = Path(__file__).resolve().parent

print("== deadlock_random: two coin-flipping processes ==")
text = (HERE / "programs" / "deadlock_random.prog").read_text()
print(text)
sem = compile_program(parse(text), "interval", 2)
res = fixpoint(sem)
for w in check_deadlock(sem, res):
    print("potential deadlock:", w.description)

print()
print("== dining philosophers: 2 philosophers + 2 forks ==")
text = (HERE / "programs" / "dining_philosophers.prog").read_text()
sem = compile_program(parse(text), "interval", 4)
res = fixpoint(sem, AnalysisConfig(step_budget=300))
for w in check_deadlock(sem, res):
    print("potential deadlock at", w.locations)
print("(l7/l7 with both forks waiting for a put-down is the circular wait)")
