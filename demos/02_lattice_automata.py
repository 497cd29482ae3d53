"""Walkthrough: lattice automata and their canonical form.

A set of global states is a language of letter words.  The language is
defined over atoms, so automata whose labels split an interval
differently are the same set; normalization merges them into one
canonical machine.  Widening compares canonical shapes: equal shapes
widen their labels, and while words keep growing longer the larger
operand's states are quotiented by their recent history.
"""
from latreach.automaton import (
    LatticeAutomaton,
    includes,
    intersection,
    normalize,
    union,
    widen_automata,
)
from latreach.concrete import bounded_language
from latreach.domain import (
    AbstractLocalState,
    DomainContext,
    Interval,
    IntervalEnv,
)
from latreach.export import to_dot

ctx = DomainContext("interval", ())


def iv(lo, hi, loc="l0"):
    return AbstractLocalState(Interval.range(lo, hi), loc, IntervalEnv.top())


def two_state(*labels):
    return LatticeAutomaton(frozenset({0, 1}), frozenset({0}), frozenset({1}),
                            frozenset((0, l, 1) for l in labels))


print("== three equivalent automata ==")
a1 = two_state(iv(0, 2), iv(2, 4))
a2 = two_state(iv(0, 3), iv(3, 4))
a3 = two_state(iv(0, 4))
n1, n2, n3 = normalize(a1), normalize(a2), normalize(a3)
print("normalize({[0,2],[2,4]}) == normalize({[0,3],[3,4]}) == normalize({[0,4]}):",
      n1 == n2 == n3)
print(n1)

print()
print("== boolean operations ==")
b = two_state(iv(3, 8))
inter = intersection(n1, b)
print("intersection with [3,8]:")
print(inter)
print("union includes both operands:",
      includes(union(n1, b), n1) and includes(union(n1, b), b))

print()
print("== widening growing chains into a loop ==")
chain2 = normalize(LatticeAutomaton.from_word([iv(0, 0), iv(0, 0)]))
chain3 = normalize(LatticeAutomaton.from_word([iv(0, 0), iv(0, 0), iv(0, 0)]))
# the widening asks for nested operands: the second is the union
wide = widen_automata(chain2, union(chain2, chain3))
print(wide)
lengths = {len(w) for w in bounded_language(ctx, wide, 6, [0])}
print("accepted word lengths up to 6:", sorted(lengths))

print()
print("== DOT export ==")
print(to_dot(n1))
