"""Walkthrough: the two numeric lattices behind every letter.

Intervals are non-relational; affine-equality environments track exact
linear relations between variables, and their join (the affine hull)
*discovers* relations common to both operands.
"""
from fractions import Fraction

from latreach.domain import (
    AbstractLocalState,
    AffineEnv,
    DomainContext,
    Interval,
    IntervalEnv,
    transfer_assign,
    transfer_filter,
)
from latreach.syntax import parse_expr

F = Fraction

print("== intervals ==")
a = Interval.range(0, 1)
b = Interval.range(0, 2)
print(f"join      {a} | {b}  = {a.join(b)}")
print(f"meet      [1,2] & [2,4] = {Interval.range(1, 2).meet(Interval.range(2, 4))}")
print(f"widening  {a} V {b}  = {a.widen(b)}   (the growing bound jumps to infinity)")
print(f"product   [1,2] * [3,4] = {Interval.range(1, 2).mul(Interval.range(3, 4))}")

print()
print("== transfer functions on a letter ==")
ctx = DomainContext("interval", ("x",))
letter = AbstractLocalState(Interval.point(0), "l7",
                            IntervalEnv.make({"x": Interval.point(1)}))
print("start:     ", letter)
print("x := x + 4:", transfer_assign(ctx, letter, "x", parse_expr("x + 4")))
wide = AbstractLocalState(Interval.point(0), "l0",
                          IntervalEnv.make({"x": Interval.range(0, 20)}))
print("filter x > 10 (then):", transfer_filter(ctx, wide, parse_expr("x > 10"), "then"))
print("filter x > 10 on x in [0,5]:",
      transfer_filter(ctx, AbstractLocalState(Interval.point(0), "l0",
                                              IntervalEnv.make({"x": Interval.range(0, 5)})),
                      parse_expr("x > 10"), "then"))

print()
print("== affine equalities: the join manufactures invariants ==")
vars_ = ("id", "x")
p0 = AffineEnv.from_rows(vars_, [({"id": F(1)}, F(0)), ({"x": F(1)}, F(5))])
p1 = AffineEnv.from_rows(vars_, [({"id": F(1)}, F(1)), ({"x": F(1)}, F(9))])
p2 = AffineEnv.from_rows(vars_, [({"id": F(1)}, F(2)), ({"x": F(1)}, F(13))])
print("point (id=0, x=5):", p0)
print("point (id=1, x=9):", p1)
hull = p0.join(p1)
print("their hull:       ", hull)
print("hull contains (id=2, x=13)?", hull.leq(hull.join(p2)) and hull.join(p2) == hull)
print("hull entails x = 4*id + 5?",
      hull.entails({"x": F(1), "id": F(-4)}, F(5)))
