"""Walkthrough: the three-rule collector encoding of reduce.

An all-to-one reduction cannot be one rewriting rule, so it is broken
into three: spawn a collector in front of the word and lock everyone;
swap the collector rightward, folding one value per step; and, once the
collector reaches the right end, deliver the accumulator to the root and
unlock everything.  With exact rationals the 2-process sum comes out as
exactly 3/4.
"""
from fractions import Fraction

from latreach.automaton import LatticeAutomaton, normalize
from latreach.domain import AbstractLocalState, Interval, IntervalEnv
from latreach.frontend import compile_program
from latreach.syntax import parse
from latreach.rules import apply_rule

F = Fraction

text = open(__file__.rsplit("/", 1)[0] + "/programs/sum_reduce.prog").read()
ast = parse(text)
sem = compile_program(ast, "interval", 2)
spawn, swap, deliver = sem.rules
print("generated rules:", [r.name for r in sem.rules])


def rl(pid, res):
    return AbstractLocalState(Interval.point(pid), "l1", IntervalEnv.make({
        "res": Interval.point(res), "total": Interval.point(0)}))


def show(tag, a):
    print(f"-- {tag}")
    for (s, l, t) in a.sorted_transitions():
        print(f"   {s} --{l}--> {t}")


state = normalize(LatticeAutomaton.from_word([rl(0, F(1, 2)), rl(1, F(1, 4))]))
show("both processes at the reduce point (res = 1/2 and 1/4)", state)

state = apply_rule(sem.ctx, spawn, state)
show("after spawn: collector(total = 0) in front, everyone locked", state)

state = apply_rule(sem.ctx, swap, state)
show("after one swap: total = 0 + 1/2", state)

state = apply_rule(sem.ctx, swap, state)
show("after the second swap: total = 1/2 + 1/4 = 3/4", state)

state = apply_rule(sem.ctx, deliver, state)
show("after delivery: collector gone, root holds total = 3/4", state)
