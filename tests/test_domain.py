import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latreach.domain import (
    AbstractLocalState,
    AffineEnv,
    AlarmSink,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
    NEG_INF,
    POS_INF,
    TOP_GUARD,
    eval_interval,
    leq_guard,
    letter_join,
    letter_leq,
    letter_meet,
    letter_widen,
    meet_guard,
    transfer_assign,
    transfer_filter,
)
from latreach.concrete import concretize_bounded, letter_accepts
from latreach.export import letter_to_json
from latreach.syntax import parse_expr

F = Fraction
CTX = DomainContext("interval", ("x",))
CTX2 = DomainContext("interval", ("x", "y"))


def iletter(pid, loc, **vars_):
    env = IntervalEnv.make({n: Interval.range(a, b) for n, (a, b) in vars_.items()})
    return AbstractLocalState(Interval.range(*pid), loc, env)


# ---------------------------------------------------------------------------
# intervals


def test_interval_widen_basic():
    assert Interval.range(0, 1).widen(Interval.range(0, 2)) == Interval(F(0), POS_INF)


def test_interval_meet():
    assert Interval.range(1, 2).meet(Interval.range(2, 4)) == Interval.point(2)
    assert Interval.range(0, 1).meet(Interval.range(2, 3)).is_bottom


def test_interval_mul_endpoint_products():
    # derived by enumerating the four endpoint products {3,4,6,8}
    assert Interval.range(1, 2).mul(Interval.range(3, 4)) == Interval.range(3, 8)


def test_interval_bottom_canonical():
    assert Interval(F(3), F(1)) == Interval.bottom()
    assert hash(Interval(F(7), F(2))) == hash(Interval.bottom())


BOUNDS = (NEG_INF, F(-3), F(0), F(1, 2), F(2), POS_INF)


def test_interval_predicates_are_decided_at_construction():
    """is_bottom and is_top agree with comparing the canonical bounds to
    the infinities, for every pair of bounds, and stay out of ==, hash
    and repr."""
    for lo in BOUNDS:
        for hi in BOUNDS:
            itv = Interval(lo, hi)
            assert (itv.lo, itv.hi) == ((POS_INF, NEG_INF) if lo > hi else (lo, hi))
            assert itv.is_bottom == (itv.lo == POS_INF and itv.hi == NEG_INF)
            assert itv.is_top == (itv.lo == NEG_INF and itv.hi == POS_INF)
            assert repr(itv) == f"Interval(lo={itv.lo!r}, hi={itv.hi!r})"
            assert hash(itv) == hash((itv.lo, itv.hi))


def test_interval_operations_compare_no_fraction_with_an_infinity(monkeypatch):
    """Predicates, lattice operations and arithmetic never hand a float
    infinity to Fraction.__eq__, which is slow."""
    against_float = []
    eq = F.__eq__

    def counting_eq(a, b):
        if isinstance(b, float):
            against_float.append((a, b))
        return eq(a, b)

    itvs = [Interval(lo, hi) for lo in BOUNDS for hi in BOUNDS]
    monkeypatch.setattr(F, "__eq__", counting_eq)
    for a in itvs:
        Interval(a.lo, a.hi)
        str(a)
        a.is_point
        a.truncate()
        if not a.contains(0):
            a.inverse()
        for b in itvs:
            a.leq(b)
            a.join(b)
            a.meet(b)
            a.widen(b)
            a.add(b)
            a.mul(b)
    monkeypatch.undo()
    assert against_float == []


# ---------------------------------------------------------------------------
# guard comparisons


def test_leq_top_guard_components():
    a = iletter((0, 0), "l7", x=(1, 1))
    assert leq_guard(CTX, a, GuardElement.at("l7"))


def test_leq_location_mismatch():
    a = iletter((0, 0), "l7", x=(1, 1))
    assert not leq_guard(CTX, a, GuardElement.at("l8"))


def test_leq_enumerated_oracle():
    # gamma-enumeration over integer points 0..5 shows non-inclusion
    a = iletter((0, 5), "l2", x=(0, 3))
    b = GuardElement.at("l2", *map(parse_expr, ("id >= 0", "id <= 5", "x >= 0", "x <= 2")))
    universe = range(0, 6)
    ga = concretize_bounded(CTX, a, universe)
    b_letter = iletter((0, 5), "l2", x=(0, 2))
    gb = concretize_bounded(CTX, b_letter, universe)
    assert not (ga <= gb)
    assert leq_guard(CTX, a, b) is False


def _constraint_guard(loc, lhs, op, rhs):
    return GuardElement.at(loc, parse_expr(f"{lhs} {op} {rhs}"))


def test_leq_guard_decides_constraint_entailment_interval():
    """A constraint the letter can violate is not entailed, even when
    refining by it leaves the letter unchanged (x = 5 lies in [0, 10])."""
    a = iletter((0, 3), "l2", x=(0, 10))
    assert meet_guard(CTX, a, _constraint_guard("l2", "x", "!=", "5")) == a
    assert not leq_guard(CTX, a, _constraint_guard("l2", "x", "!=", "5"))
    assert not leq_guard(CTX, a, _constraint_guard("l2", "id", "!=", "2"))
    assert leq_guard(CTX, a, _constraint_guard("l2", "x", "!=", "11"))
    assert leq_guard(CTX, a, _constraint_guard("l2", "x", "<", "21 / 2"))
    assert not leq_guard(CTX, a, _constraint_guard("l2", "x", "<", "10"))
    root = iletter((2, 2), "l2", x=(0, 10))
    assert leq_guard(CTX, root, _constraint_guard("l2", "id", "==", "2"))
    assert leq_guard(CTX, root, _constraint_guard("l2", "id", "==", "1 + 1"))
    assert not leq_guard(CTX, a, _constraint_guard("l2", "id", "==", "2"))
    # on these box constraints entailment is exact: it holds iff every
    # integer point of the letter meets the guard
    for lhs, op, rhs in (("x", "!=", "5"), ("x", ">=", "0"), ("id", "<=", "3"),
                         ("id", "==", "x"), ("x", "<", "10")):
        g = _constraint_guard("l2", lhs, op, rhs)
        assert leq_guard(CTX, a, g) == all(
            meet_guard(CTX, iletter((i, i), "l2", x=(v, v)), g) is not None
            for i in range(4) for v in range(11)), (lhs, op, rhs)


def test_leq_guard_decides_constraint_entailment_affine():
    ctx = DomainContext("affine", ("x",))
    vars_ = ctx.affine_vars()
    free = AbstractLocalState(Interval.range(0, 3), "l2", AffineEnv.top(vars_))
    assert meet_guard(ctx, free, _constraint_guard("l2", "id", "!=", "2")) == free
    assert not leq_guard(ctx, free, _constraint_guard("l2", "id", "!=", "2"))
    assert not leq_guard(ctx, free, _constraint_guard("l2", "x", "!=", "2"))
    assert not leq_guard(ctx, free, _constraint_guard("l2", "id", "==", "2"))
    pinned = AbstractLocalState(Interval.point(2), "l2",
                                AffineEnv.from_rows(vars_, [({"id": F(1)}, F(2)),
                                                            ({"x": F(1), "id": F(-1)}, F(1))]))
    assert leq_guard(ctx, pinned, _constraint_guard("l2", "id", "==", "2"))
    assert leq_guard(ctx, pinned, _constraint_guard("l2", "x", "==", "3"))
    assert leq_guard(ctx, pinned, _constraint_guard("l2", "id", "!=", "0"))
    assert not leq_guard(ctx, pinned, _constraint_guard("l2", "x", "!=", "3"))
    # a point id the environment does not know about still entails id == root
    point_id = AbstractLocalState(Interval.point(2), "l2", AffineEnv.top(vars_))
    assert leq_guard(ctx, point_id, _constraint_guard("l2", "id", "==", "2"))
    assert not leq_guard(ctx, point_id, _constraint_guard("l2", "id", "==", "1"))


# ---------------------------------------------------------------------------
# letter lattice operations and the Galois soundness sweep


def test_join_meet_widen_galois_soundness():
    """gamma(a) | gamma(b) <= gamma(a widen b) and gamma(a) & gamma(b) ==
    gamma(a meet b), enumerated over values -4..4."""
    rng = random.Random(7)
    universe = list(range(-4, 5))
    for _ in range(60):
        def rnd_letter():
            lo1, hi1 = sorted(rng.sample(universe, 2))
            lo2, hi2 = sorted(rng.sample(universe, 2))
            return iletter((lo1, hi1), "l0", x=(lo2, hi2))

        a, b = rnd_letter(), rnd_letter()
        ga = concretize_bounded(CTX, a, universe)
        gb = concretize_bounded(CTX, b, universe)
        gj = concretize_bounded(CTX, letter_join(a, b), universe)
        gw = concretize_bounded(CTX, letter_widen(a, b), universe)
        gm = concretize_bounded(CTX, letter_meet(a, b), universe)
        assert ga | gb <= gj <= gw
        assert ga & gb == gm


def test_affine_join_meet_galois_soundness():
    ctx = DomainContext("affine", ("x",))
    rng = random.Random(13)
    universe = list(range(-4, 5))
    vars_ = ("id", "x")
    for _ in range(40):
        def rnd_env():
            if rng.random() < 0.3:
                return AffineEnv.top(vars_)
            a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3)
            if a == 0 and b == 0:
                return AffineEnv.top(vars_)
            return AffineEnv.from_rows(vars_, [({"id": F(a), "x": F(b)}, F(c))])

        la = AbstractLocalState(Interval.range(-4, 4), "l0", rnd_env())
        lb = AbstractLocalState(Interval.range(-4, 4), "l0", rnd_env())
        ga = concretize_bounded(ctx, la, universe)
        gb = concretize_bounded(ctx, lb, universe)
        gj = concretize_bounded(ctx, letter_join(la, lb), universe)
        m = letter_meet(la, lb)
        gm = concretize_bounded(ctx, m, universe)
        assert ga | gb <= gj
        assert ga & gb == gm


def test_affine_generators_computed_once(monkeypatch):
    """join reads each operand's generators from the environment, so
    joining the same environments again computes none of them anew."""
    vars_ = ("id", "x")
    e1 = AffineEnv.from_rows(vars_, [({"x": F(1), "id": F(-4)}, F(5))])
    e2 = AffineEnv.from_rows(vars_, [({"x": F(1)}, F(3))])
    first = e1.join(e2)
    calls = []
    real = AffineEnv.dict_rows

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(AffineEnv, "dict_rows", counted)
    assert e1.join(e2) == first
    assert calls == []
    assert e1.generators is e1.generators


def test_affine_identical_subspace_join():
    # x = 5 + 4*id and x = 9 + 4*(id-1) describe the same subspace
    vars_ = ("id", "next", "x")
    e1 = AffineEnv.from_rows(vars_, [({"x": F(1), "id": F(-4)}, F(5))])
    e2 = AffineEnv.from_rows(vars_, [({"x": F(1), "id": F(-4)}, F(9 - 4))])
    assert e1 == e2
    assert e1.join(e2) == e1


def test_widening_chain_stabilizes_intervals():
    rng = random.Random(3)
    nvars = 2
    budget = 2 * nvars + 2
    for _ in range(50):
        # random increasing chain of environments
        lo = [rng.randint(-3, 0) for _ in range(nvars)]
        hi = [rng.randint(0, 3) for _ in range(nvars)]
        chain = []
        for step in range(6):
            env = IntervalEnv.make({
                f"v{i}": Interval.range(lo[i] - step * rng.randint(0, 2),
                                        hi[i] + step * rng.randint(0, 2))
                for i in range(nvars)
            })
            chain.append(env)
        x = chain[0]
        steps = 0
        for nxt in chain[1:]:
            widened = x.widen(nxt)
            if widened == x:
                continue
            x = widened
            steps += 1
        # afterwards the value must be stable against anything below it
        assert steps <= budget
        assert x.widen(x) == x


def test_widening_chain_stabilizes_affine():
    rng = random.Random(5)
    vars_ = ("id", "x", "y")
    budget = len(vars_) + 1
    for _ in range(50):
        x = AffineEnv.from_rows(vars_, [
            ({"id": F(1)}, F(rng.randint(-2, 2))),
            ({"x": F(1)}, F(rng.randint(-2, 2))),
            ({"y": F(1)}, F(rng.randint(-2, 2))),
        ])
        steps = 0
        for _ in range(8):
            nxt = AffineEnv.from_rows(vars_, [
                ({"id": F(1)}, F(rng.randint(-2, 2))),
                ({"x": F(1)}, F(rng.randint(-2, 2))),
            ])
            widened = x.widen(x.join(nxt))
            if widened == x:
                continue
            x = widened
            steps += 1
        assert steps <= budget


# ---------------------------------------------------------------------------
# transfer functions


def test_transfer_assign_add_constant():
    s = iletter((0, 0), "l7", x=(1, 1))
    out = transfer_assign(CTX, s, "x", parse_expr("x + 4"))
    assert out == iletter((0, 0), "l7", x=(5, 5))


def test_transfer_assign_identity():
    s = iletter((0, 0), "l7", x=(1, 2))
    assert transfer_assign(CTX, s, "x", parse_expr("x")) == s


def test_transfer_assign_mul_ranges():
    s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
        "x": Interval.range(1, 2), "y": Interval.range(3, 4)}))
    out = transfer_assign(CTX2, s, "x", parse_expr("x * y"))
    assert out.env.get("x") == Interval.range(3, 8)


def test_transfer_assign_soundness_enumerated():
    """Every concrete successor of gamma(s) lands in gamma(assign(s))."""
    rng = random.Random(11)
    universe = list(range(-3, 4))
    exprs = [parse_expr(t) for t in
             ("x + 1", "x * y", "y - x", "x * x", "2 * y + 1", "x % 2")]
    for _ in range(40):
        lo1, hi1 = sorted(rng.sample(universe, 2))
        lo2, hi2 = sorted(rng.sample(universe, 2))
        s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
            "x": Interval.range(lo1, hi1), "y": Interval.range(lo2, hi2)}))
        e = rng.choice(exprs)
        out = transfer_assign(CTX2, s, "x", e)
        for (pid, loc, rho) in concretize_bounded(CTX2, s, universe):
            rho_d = dict(rho)
            from latreach.concrete import eval_expr, store_value

            v = eval_expr(e, int(pid), rho_d)
            if v is None:
                continue
            rho_d["x"] = store_value("x", v, frozenset())
            assert letter_accepts(CTX2, out, pid, loc, rho_d)


def test_transfer_assign_division_alarm():
    sink = AlarmSink()
    s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
        "x": Interval.range(1, 1), "y": Interval.range(-1, 1)}))
    out = transfer_assign(CTX2, s, "x", parse_expr("x / y"), sink)
    assert out is not None
    assert out.env.get("x").is_top
    assert any(kind == "division" for kind, _ in sink.alarms)


def test_transfer_assign_power_cap_alarm():
    """Powers past MAX_POW_BITS give top and a power alarm, on both the
    point and the interval-exponent path; smaller ones stay exact."""
    s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
        "x": Interval.range(1, 1), "y": Interval.range(0, 100000)}))
    for src in ("2 ^ 20000", "2 ^ y", "(1 / 2) ^ (-20000)"):
        sink = AlarmSink()
        out = transfer_assign(CTX2, s, "x", parse_expr(src), sink)
        assert out.env.get("x").is_top
        assert sink.alarms == {("power", str(parse_expr(src)))}
    sink = AlarmSink()
    out = transfer_assign(CTX2, s, "x", parse_expr("2 ^ 4000"), sink)
    assert out.env.get("x") == Interval.point(2 ** 4000) and not sink.alarms


def test_power_with_an_interval_exponent():
    """A point base of at least 1 raised to an interval exponent spans
    the powers at the exponent's ends; an end past the size cap gives top
    with a power alarm."""
    for base, y, want in [(2, Interval.range(0, 3), Interval.range(1, 8)),
                          (2, Interval(F(1), POS_INF), Interval(F(2), POS_INF)),
                          (3, Interval.range(-1, 2), Interval(F(1, 3), F(9)))]:
        s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({"y": y}))
        sink = AlarmSink()
        assert eval_interval(CTX2, s, parse_expr(f"{base} ^ y"), sink) == want
        assert not sink.alarms
    s = AbstractLocalState(Interval.point(0), "l0",
                           IntervalEnv.make({"y": Interval.range(0, 5000)}))
    sink = AlarmSink()
    assert eval_interval(CTX2, s, parse_expr("2 ^ y"), sink).is_top
    assert sink.alarms == {("power", str(parse_expr("2 ^ y")))}


def test_power_of_an_interval_base():
    """An interval base raised to an integer point k >= 0 spans the powers
    of its ends, with 0 the least value when k is even and 0 lies in the
    base; infinite ends map through, and an end past the size cap gives
    top with a power alarm.  A negative k, or an interval exponent, over
    a non-point base stays top."""
    for x, src, want in [((1, 3), "x ^ 2", Interval.range(1, 9)),
                         ((-2, 3), "x ^ 2", Interval.range(0, 9)),
                         ((-2, 3), "x ^ 3", Interval.range(-8, 27)),
                         ((-3, -1), "x ^ 2", Interval.range(1, 9)),
                         ((-2, 3), "x ^ 0", Interval.point(1)),
                         ((1, POS_INF), "x ^ 2", Interval.range(1, POS_INF)),
                         ((NEG_INF, 2), "x ^ 3", Interval.range(NEG_INF, 8)),
                         ((NEG_INF, -1), "x ^ 2", Interval.range(1, POS_INF)),
                         ((1, 3), "x ^ (-1)", Interval.top()),
                         ((1, 3), "x ^ y", Interval.top())]:
        s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
            "x": Interval.range(*x), "y": Interval.range(0, 3)}))
        sink = AlarmSink()
        assert eval_interval(CTX2, s, parse_expr(src), sink) == want, (x, src)
        assert not sink.alarms
    s = AbstractLocalState(Interval.point(0), "l0",
                           IntervalEnv.make({"x": Interval.range(1, 2 ** 3000)}))
    sink = AlarmSink()
    assert eval_interval(CTX2, s, parse_expr("x ^ 2"), sink).is_top
    assert sink.alarms == {("power", str(parse_expr("x ^ 2")))}


def test_power_of_an_interval_base_contains_the_concrete_powers():
    """x ^ k over a seeded base, with k from -2 to 6, contains the exact
    power at points sampled from the base."""
    from latreach.concrete import eval_expr

    rng = random.Random(2207)
    for _ in range(300):
        lo = F(rng.randint(-6, 4), rng.randint(1, 3))
        hi = lo + F(rng.randint(0, 12), rng.randint(1, 3))
        base = Interval(NEG_INF if rng.random() < 0.15 else lo,
                        POS_INF if rng.random() < 0.15 else hi)
        e = parse_expr(f"x ^ {rng.randint(-2, 6)}")
        s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({"x": base}))
        out = eval_interval(CTX2, s, e)
        for _ in range(6):
            v = lo + (hi - lo) * F(rng.randint(0, 8), 8)
            want = eval_expr(e, 0, {"x": v}, frozenset({"x"}))
            assert want is None or out.contains(want), (base, str(e), v, out)


def test_transfer_assign_caps_every_arithmetic_result():
    """A product, sum or quotient past the size cap is top with an alarm
    at the operator that crossed it; the cap does not depend on the
    domain."""
    s = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.make({
        "x": Interval.range(1, 1), "y": Interval.range(0, 100000)}))
    for src, where in [("2 ^ 4000 * 2 ^ 4000 * 2 ^ 4000", "2 ^ 4000 * 2 ^ 4000"),
                       ("2 ^ 4096 + 2 ^ 4096", "2 ^ 4096 + 2 ^ 4096"),
                       ("y + 1 / 2 ^ 4096 / 2", "1 / 2 ^ 4096 / 2"),
                       ("2 ^ 4090 * y", "2 ^ 4090 * y")]:
        sink = AlarmSink()
        out = transfer_assign(CTX2, s, "x", parse_expr(src), sink)
        assert out.env.get("x").is_top
        assert sink.alarms == {("power", str(parse_expr(where)))}
    sink = AlarmSink()
    out = transfer_assign(CTX2, s, "x", parse_expr("2 ^ 4000 * 2 ^ 96"), sink)
    assert out.env.get("x") == Interval.point(2 ** 4096) and not sink.alarms


def test_affine_results_past_the_cap_are_top_with_alarm():
    """The affine domain keeps x := x * c exactly, so repeating it would
    store c ** k in the environment: past the size cap x is top with an
    alarm, as in the interval domain.  An equality whose meet crosses the
    cap leaves the letter unrestricted, also with an alarm."""
    ctx = DomainContext("affine", ("x", "y"))
    big = int("7" * 999)
    vars_ = ("id", "x", "y")
    s = AbstractLocalState(Interval.point(0), "l0",
                           AffineEnv.from_rows(vars_, [({"x": F(1)}, F(big))]))
    sink = AlarmSink()
    assert transfer_assign(ctx, s, "x", parse_expr("x * 2"), sink).env.constant("x") == 2 * big
    assert not sink.alarms
    product = parse_expr(f"x * {big}")
    out = transfer_assign(ctx, s, "x", product, sink)
    assert out.env == AffineEnv.top(vars_)
    assert sink.alarms == {("power", str(product))}
    sink = AlarmSink()
    cond = parse_expr(f"y == x * {big}")
    assert transfer_filter(ctx, s, cond, "then", sink) == s
    assert sink.alarms == {("power", str(cond))}


def test_transfer_filter_integer_tightening():
    s = iletter((0, 0), "l0", x=(0, 20))
    out = transfer_filter(CTX, s, parse_expr("x > 10"), "then")
    assert out.env.get("x") == Interval.range(11, 20)


def test_transfer_filter_strict_comparison_with_fraction():
    """A strict comparison of an int variable with a non-integral bound
    keeps the integers that satisfy it: x > 3/2 keeps 2, x < 3/2 keeps 1."""
    s = iletter((0, 0), "l0", x=(2, 2))
    assert transfer_filter(CTX, s, parse_expr("x > 3 / 2"), "then") == s
    assert transfer_filter(CTX, s, parse_expr("x > 3 / 2"), "else") is None
    one = iletter((0, 0), "l0", x=(1, 1))
    assert transfer_filter(CTX, one, parse_expr("x < 3 / 2"), "then") == one
    assert transfer_filter(CTX, one, parse_expr("x < 3 / 2"), "else") is None
    wide = iletter((0, 0), "l0", x=(-5, 5))
    assert transfer_filter(CTX, wide, parse_expr("x > 3 / 2"), "then").env.get("x") \
        == Interval.range(2, 5)
    assert transfer_filter(CTX, wide, parse_expr("x < -3 / 2"), "then").env.get("x") \
        == Interval.range(-5, -2)
    # integral bounds and infinite ones behave as before
    assert transfer_filter(CTX, wide, parse_expr("x < 2"), "then").env.get("x") \
        == Interval.range(-5, 1)
    top = AbstractLocalState(Interval.point(0), "l0", IntervalEnv.top())
    assert transfer_filter(CTX, top, parse_expr("x > 3 / 2"), "then").env.get("x") \
        == Interval(F(2), POS_INF)
    # a rat variable keeps the bound as it is
    rat = DomainContext("interval", ("x",), frozenset({"x"}))
    assert transfer_filter(rat, top, parse_expr("x > 3 / 2"), "then").env.get("x") \
        == Interval(F(3, 2), POS_INF)


def test_transfer_filter_unsat():
    s = iletter((0, 0), "l0", x=(0, 5))
    assert transfer_filter(CTX, s, parse_expr("x > 10"), "then") is None


def test_transfer_filter_affine_id_equality():
    ctx = DomainContext("affine", ("x",))
    s = AbstractLocalState(Interval.range(0, 9), "l0", AffineEnv.top(("id", "x")))
    out = transfer_filter(ctx, s, parse_expr("id == 0"), "then")
    assert out.env.constant("id") == 0
    assert out.pid == Interval.point(0)


def test_transfer_filter_nonzero_convention():
    # C truth: while(1) never exits
    s = iletter((0, 0), "l0", x=(0, 0))
    assert transfer_filter(CTX, s, parse_expr("1"), "then") == s
    assert transfer_filter(CTX, s, parse_expr("1"), "else") is None


# ---------------------------------------------------------------------------
# concretization


def test_concretize_point():
    s = iletter((0, 0), "l0", x=(0, 1))
    got = concretize_bounded(CTX, s, {0, 1})
    assert got == {(F(0), "l0", (("x", F(0)),)), (F(0), "l0", (("x", F(1)),))}


def test_concretize_bottom_empty():
    assert concretize_bounded(CTX, None, {0, 1}) == set()


def test_concretize_top_env_cartesian():
    s = AbstractLocalState(Interval.range(0, 1), "l0", IntervalEnv.top())
    assert len(concretize_bounded(CTX, s, {0, 1})) == 4


# ---------------------------------------------------------------------------
# affine canonicity


def test_affine_canonical_forms():
    """Two environments describe the same subspace iff their matrices are
    identical (checked against point enumeration)."""
    rng = random.Random(17)
    vars_ = ("id", "x")
    universe = list(range(-3, 4))
    ctx = DomainContext("affine", ("x",))
    envs = []
    for _ in range(30):
        rows = []
        for _ in range(rng.randint(0, 2)):
            a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append(({"id": F(a), "x": F(b)}, F(c)))
        env = AffineEnv.from_rows(vars_, rows)
        if env is not None:
            envs.append(env)
    for e1 in envs:
        for e2 in envs:
            l1 = AbstractLocalState(Interval.range(-3, 3), "l0", e1)
            l2 = AbstractLocalState(Interval.range(-3, 3), "l0", e2)
            same_points = concretize_bounded(ctx, l1, universe) == \
                concretize_bounded(ctx, l2, universe)
            if e1 == e2:
                assert same_points
            elif same_points:
                # identical over the finite window must mean leq both ways
                # only when the subspaces truly coincide; sample one more
                # far point to separate them
                far = [v for v in (10, -10, 7)]
                s1 = concretize_bounded(ctx, l1.with_pid(Interval.range(-12, 12)), far + universe)
                s2 = concretize_bounded(ctx, l2.with_pid(Interval.range(-12, 12)), far + universe)
                assert not (e1.leq(e2) and e2.leq(e1)) or s1 == s2


def test_affine_leq_is_entailment():
    vars_ = ("id", "x")
    strong = AffineEnv.from_rows(vars_, [({"id": F(1)}, F(1)), ({"x": F(1)}, F(9))])
    weak = AffineEnv.from_rows(vars_, [({"x": F(1), "id": F(-4)}, F(5))])
    assert strong.leq(weak)
    assert not weak.leq(strong)


# ---------------------------------------------------------------------------
# guard meets with constraints


def test_meet_guard_refutes_disequality_under_affine():
    ctx = DomainContext("affine", ("x",))
    env = AffineEnv.from_rows(("id", "x"), [({"x": F(1), "id": F(-4)}, F(5))])
    s = AbstractLocalState(Interval.range(0, 9), "l6", env)
    guard = GuardElement.at("l6", parse_expr("x != 5 + 4*id"))
    assert meet_guard(ctx, s, guard) is None


def test_meet_guard_keeps_disequality_under_intervals():
    s = iletter((0, 9), "l6", x=(5, 40))
    guard = GuardElement.at("l6", parse_expr("x != 5 + 4*id"))
    assert meet_guard(CTX, s, guard) is not None


def test_meet_guard_location_filtering():
    s = iletter((0, 0), "l1", x=(0, 0))
    assert meet_guard(CTX, s, GuardElement.at("l2")) is None
    assert meet_guard(CTX, s, TOP_GUARD) == s


# ---------------------------------------------------------------------------
# meet_guard without comparisons and the cached letter hash


def _seeded_letters(seed=11, n=40):
    """Interval letters (some with unbounded ids) and affine letters."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        loc = rng.choice(("l0", "l1", "l2_lock"))
        lo = rng.randint(-3, 3)
        pid = Interval.top() if rng.random() < 0.2 else Interval.range(lo, lo + rng.randint(0, 3))
        x = Interval(F(rng.randint(-5, 0)), POS_INF if rng.random() < 0.3 else F(rng.randint(0, 5)))
        out.append(AbstractLocalState(pid, loc, IntervalEnv.make({"x": x})))
        k, c = rng.randint(-2, 2), F(rng.randint(-4, 4), rng.randint(1, 3))
        rows = [({"x": F(1), "id": F(-k)}, c)]
        if rng.random() < 0.5:
            rows.append(({"id": F(1)}, F(lo)))
        env = AffineEnv.from_rows(("id", "x"), rows)
        out.append(AbstractLocalState(Interval.point(lo) if len(rows) == 2 else pid, loc, env))
    return out


def test_meet_guard_without_comparisons_gives_the_letter_back():
    """A guard without comparisons reads its location (or every location)
    and leaves the letters it reads as they are, object identity
    included."""
    plain = [TOP_GUARD, GuardElement.at("l0"), GuardElement.at("l1")]
    for s in _seeded_letters():
        ctx = CTX if isinstance(s.env, IntervalEnv) else DomainContext("affine", ("x",))
        for g in plain:
            if g.loc in (None, s.loc):
                assert meet_guard(ctx, s, g) is s
            else:
                assert meet_guard(ctx, s, g) is None
        assert meet_guard(ctx, s, GuardElement.at(s.loc)) is s


def test_letter_hash_is_the_field_hash():
    letters = _seeded_letters(seed=5)
    for l in letters:
        assert hash(l) == hash((l.pid, l.loc, l.env))
    a = iletter((0, 2), "l1", x=(1, 4))
    b = letter_join(iletter((0, 1), "l1", x=(1, 3)), iletter((2, 2), "l1", x=(4, 4)))
    c = iletter((0, 2), "l7", x=(1, 4)).relocate("l1")
    d = iletter((5, 5), "l1", x=(1, 4)).with_pid(Interval.range(0, 2))
    for other in (b, c, d):
        assert other == a and hash(other) == hash(a)
    assert len({a, b, c, d}) == 1


def test_letter_hash_cache_is_not_state():
    for l in _seeded_letters(seed=9):
        fresh = AbstractLocalState(l.pid, l.loc, l.env)
        hash(l)  # fill the cache on one side only
        assert l == fresh and repr(l) == repr(fresh)
        assert hash(fresh) == hash(l)
        assert letter_to_json(fresh) == letter_to_json(l)


def test_letter_hash_by_value_under_another_hash_seed():
    """The cache is per process: letters rebuilt from the same seeded
    generator in a process with another string-hash seed compare and hash
    by value there, and export the same JSON as here."""
    letters = _seeded_letters(seed=3, n=10)
    for l in letters:
        hash(l)
    script = (
        "import json\n"
        "from latreach.export import letter_to_json\n"
        "from latreach.domain import AbstractLocalState\n"
        "from test_domain import _seeded_letters\n"
        "letters = _seeded_letters(seed=3, n=10)\n"
        "for a in letters:\n"
        "    b = AbstractLocalState(a.pid, a.loc, a.env)\n"
        "    hash(a)\n"
        "    assert a == b and hash(a) == hash(b) == hash((a.pid, a.loc, a.env))\n"
        "print(json.dumps([letter_to_json(l) for l in letters]))\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [letter_to_json(l) for l in letters]


# ---------------------------------------------------------------------------
# equal operands of the letter lattice


def _full_leq(a, b):
    return a.loc == b.loc and a.pid.leq(b.pid) and a.env.leq(b.env)


def _full_join(a, b):
    return AbstractLocalState(a.pid.join(b.pid), a.loc, a.env.join(b.env))


def _full_widen(a, b):
    return AbstractLocalState(a.pid.widen(b.pid), a.loc, a.env.widen(b.env))


def test_letter_lattice_equal_operands():
    """letter_join and letter_widen give back an equal operand itself and
    letter_leq holds on it; the full computation agrees."""
    for a in _seeded_letters(seed=21, n=60):
        twin = AbstractLocalState(a.pid, a.loc, a.env)  # equal, not the same object
        assert letter_join(a, a) is a and letter_join(a, twin) is a
        assert letter_widen(a, a) is a and letter_widen(twin, a) is twin
        assert letter_leq(a, a) and letter_leq(a, twin)
        assert _full_join(a, a) == a == _full_widen(a, a)
        assert _full_leq(a, a)


def test_letter_lattice_matches_full_computation():
    """On seeded pairs of letters of both domains, equal or not, the three
    operations give what the componentwise computation gives."""
    letters = _seeded_letters(seed=23, n=60)
    rng = random.Random(24)
    pairs = [(a, b) for a in letters for b in letters if type(a.env) is type(b.env)]
    pairs += [(a, AbstractLocalState(a.pid, a.loc, a.env)) for a in letters]
    equal = same_loc = 0
    for a, b in rng.sample(pairs, 1500):
        assert letter_leq(a, b) == _full_leq(a, b)
        if a.loc != b.loc:
            continue
        same_loc += 1
        equal += a == b
        assert letter_join(a, b) == _full_join(a, b)
        assert letter_widen(a, b) == _full_widen(a, b)
    assert equal >= 10 and same_loc - equal >= 100


@pytest.mark.parametrize("kind", [IntervalEnv, AffineEnv], ids=["interval", "affine"])
def test_join_with_an_upper_bound_is_that_bound(kind):
    """letter_leq(x, y) makes letter_join(x, y) and letter_join(y, x) equal
    to y, field by field and in their JSON; union_all takes an including
    operand as it is on the strength of this law."""
    letters = [l for l in _seeded_letters(seed=29, n=80) if isinstance(l.env, kind)]
    # joins of same-location pairs put many strict upper bounds among them
    letters += [letter_join(a, b) for a in letters[:12] for b in letters[:12]
                if a.loc == b.loc]
    strict = 0
    for x in letters:
        for y in letters:
            if not letter_leq(x, y):
                continue
            strict += x != y
            for joined in (letter_join(x, y), letter_join(y, x)):
                assert joined == y and repr(joined) == repr(y)
                assert letter_to_json(joined) == letter_to_json(y)
    assert strict >= 200
