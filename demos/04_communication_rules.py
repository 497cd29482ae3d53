"""Walkthrough: symbolic rewriting rules for synchronous communication.

A send/receive pair becomes a rule whose guard matches a sender letter
and a receiver letter anywhere in the word; the rewrite advances both and
copies the sent value, but only when the identifier conditions are
satisfiable, which is how partner matching is enforced.
"""
from fractions import Fraction

from latreach.automaton import LatticeAutomaton, is_empty, normalize, union_all
from latreach.domain import AbstractLocalState, Interval, IntervalEnv
from latreach.frontend import build_cfg, compile_program
from latreach.syntax import parse
from latreach.rules import apply_rule

F = Fraction

text = open(__file__.rsplit("/", 1)[0] + "/programs/create_chain.prog").read()
ast = parse(text)
cfg = build_cfg(ast)
sem = compile_program(ast, "interval", 3)
edges = {type(e.instr).__name__: e for e in cfg.edges}
send_loc, recv_loc = edges["Send"].src, edges["Receive"].src
print(f"send happens at {send_loc}, receive waits at {recv_loc}, exit is {cfg.exit}")


def letter(pid, loc, x, nxt):
    return AbstractLocalState(Interval.point(pid), loc, IntervalEnv.make({
        "x": Interval.point(x), "next": Interval.point(nxt)}))


print()
print("== a word where the partners line up ==")
word = [letter(0, cfg.exit, 5, 1), letter(1, send_loc, 9, 2), letter(2, recv_loc, 0, 2)]
a = normalize(LatticeAutomaton.from_word(word))
comm = [r for r in sem.rules if "send" in r.name or "recv" in r.name]
img = union_all([apply_rule(sem.ctx, r, a) for r in comm])
for (s, l, t) in img.sorted_transitions():
    print(f"  {s} --{l}--> {t}")
print("(process 1 advanced to the exit; process 2 received x = 9)")

print()
print("== a word where the sender targets a missing id ==")
bad = normalize(LatticeAutomaton.from_word([
    letter(1, send_loc, 13, 2), letter(6, recv_loc, 0, 0)]))
img2 = union_all([apply_rule(sem.ctx, r, bad) for r in comm])
print("rule image empty:", is_empty(img2),
      "(the sender wants id 2, the only receiver has id 6)")

print()
print("== process creation appends a fresh letter ==")
create_rule = [r for r in sem.rules if r.name.startswith("create")][0]
creator = normalize(LatticeAutomaton.from_word([
    letter(0, edges["Create"].src, 1, 0)]))
img3 = apply_rule(sem.ctx, create_rule, creator)
for (s, l, t) in img3.sorted_transitions():
    print(f"  {s} --{l}--> {t}")
print("(the creator stored next = 1; the new process has id 1 and a zeroed store)")
