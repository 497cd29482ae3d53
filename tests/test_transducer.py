import random
from fractions import Fraction

import pytest

import latreach.expr as E
import latreach.transducer as T
from latreach.automaton import (
    Builder,
    LatticeAutomaton,
    is_empty,
    normalize,
    path_labels,
)
from latreach.domain import (
    AbstractLocalState,
    AffineEnv,
    AlarmSink,
    Constraint,
    DomainContext,
    GuardAtom,
    GuardElement,
    Interval,
    IntervalEnv,
    meet_guard,
)
from latreach.concrete import accepts_concrete, bounded_language
from latreach.syntax import Assign, Filter, parse_expr
from latreach.transducer import (
    InstanceInfo,
    LatticeTransducer,
    LetterOut,
    TransducerRule,
    apply_transducer,
    eval_letter_out,
)

from helpers import transducer_image_words

F = Fraction
CTX = DomainContext("interval", ("x",))


def letter(pid, loc, **vars_):
    env = IntervalEnv.make({n: Interval.range(a, b) for n, (a, b) in vars_.items()})
    return AbstractLocalState(Interval.range(*pid), loc, env)


def add4_transducer():
    rule = TransducerRule(
        "bump", (GuardElement.at("l7"),),
        (LetterOut(base=0, loc="l8", instr=Assign("x", parse_expr("x + 4"))),))
    return LatticeTransducer.single_state([rule])


INACTIVE = TransducerRule("inactivity", (GuardElement.top(),), (LetterOut(base=0),))


def test_single_rule_application_golden():
    """Applying (x := x + 4, l7 -> l8) to the singleton (id=0, l7, x=1)
    yields exactly (id=0, l8, x=5)."""
    a = normalize(LatticeAutomaton.from_word([letter((0, 0), "l7", x=(1, 1))]))
    out = apply_transducer(CTX, add4_transducer(), a)
    (_, lbl, _), = out.transitions
    assert lbl == letter((0, 0), "l8", x=(5, 5))


def test_inactivity_rule_preserves_language():
    t = LatticeTransducer.single_state([INACTIVE])
    a = normalize(LatticeAutomaton.from_word([
        letter((0, 0), "l7", x=(1, 2)), letter((1, 1), "l9", x=(0, 0))]))
    out = apply_transducer(CTX, t, a)
    universe = list(range(0, 3))
    assert bounded_language(CTX, a, 3, universe) == bounded_language(CTX, out, 3, universe)


def test_bottom_outputs_drop_rule_instance():
    rule = TransducerRule(
        "dead", (GuardElement.at("l7"),),
        (LetterOut(base=0, conds=((0, E.Const(F(99))),)),))  # id must be 99
    t = LatticeTransducer.single_state([rule])
    a = normalize(LatticeAutomaton.from_word([letter((0, 0), "l7", x=(1, 1))]))
    assert is_empty(apply_transducer(CTX, t, a))


def test_path_enumerate():
    a = normalize(LatticeAutomaton.from_word([
        letter((0, 0), "l0", x=(0, 0)), letter((1, 1), "l1", x=(0, 0))]))
    q0 = next(iter(a.initial))
    one = set(path_labels(a, q0, 1))
    assert len(one) == 1
    single = normalize(LatticeAutomaton.from_word([letter((0, 0), "l0", x=(0, 0))]))
    assert set(path_labels(single, next(iter(single.initial)), 2)) == set()
    # branching automaton: hand-counted two length-2 paths from the start
    branching = normalize(LatticeAutomaton(
        frozenset(range(4)), frozenset({0}), frozenset({3}),
        frozenset({(0, letter((0, 0), "l0", x=(0, 0)), 1),
                   (1, letter((1, 1), "l1", x=(0, 0)), 3),
                   (1, letter((2, 2), "l2", x=(0, 0)), 3)})))
    q0 = next(iter(branching.initial))
    assert len(set(path_labels(branching, q0, 2))) == 2


def test_two_letter_guard_neighbour_communication():
    """Guards of length two work: the library example swaps a value to the
    right neighbour."""
    rule = TransducerRule(
        "pass_right",
        (GuardElement.at("ls"), GuardElement.at("lr")),
        (LetterOut(base=0, loc="ls2"),
         LetterOut(base=1, loc="lr2", updates=(("x", E.PosVar(0, "x")),))))
    t = LatticeTransducer.single_state([rule, INACTIVE])
    a = normalize(LatticeAutomaton.from_word([
        letter((0, 0), "ls", x=(7, 7)), letter((1, 1), "lr", x=(0, 0))]))
    out = apply_transducer(CTX, t, a)
    moved = ((0, "ls2", (("x", F(7)),)), (1, "lr2", (("x", F(7)),)))
    assert accepts_concrete(CTX, out, moved)


# ---------------------------------------------------------------------------
# soundness against the direct word-level interpreter


def _random_transducer(rng):
    locs = ["l0", "l1"]
    rules = [INACTIVE]
    for i in range(rng.randint(1, 3)):
        src = rng.choice(locs)
        dst = rng.choice(locs)
        lo = rng.randint(-2, 1)
        guard = GuardElement.at(src, GuardAtom(pid=Interval.range(lo, rng.randint(lo, 2))))
        kind = rng.random()
        if kind < 0.4:
            out = (LetterOut(base=0, loc=dst,
                             instr=Assign("x", parse_expr(rng.choice(
                                 ["x + 1", "x - 1", "0", "x"])))),)
        elif kind < 0.7:
            out = (LetterOut(base=0, loc=dst),)
        else:
            out = ()  # deletion
        rules.append(TransducerRule(f"r{i}", (guard,), out))
    return LatticeTransducer.single_state(rules)


def _random_automaton(rng):
    locs = ["l0", "l1"]
    edges = set()
    n = rng.randint(2, 3)
    for _ in range(rng.randint(1, 4)):
        s, t = rng.randint(0, n - 1), rng.randint(0, n - 1)
        lo_p = rng.randint(-2, 1)
        lo_x = rng.randint(-2, 1)
        edges.add((s, letter((lo_p, rng.randint(lo_p, 2)), rng.choice(locs),
                             x=(lo_x, rng.randint(lo_x, 2))), t))
    return LatticeAutomaton(frozenset(range(n)), frozenset({0}),
                            frozenset({rng.randint(0, n - 1)}), frozenset(edges))


def test_transducer_image_inclusion_randomized():
    """Every word produced by the direct word-level interpreter on an
    accepted atom word is accepted by the applied transducer."""
    rng = random.Random(101)
    universe = list(range(-2, 3))
    checked = 0
    for trial in range(100):
        t = _random_transducer(rng)
        a = normalize(_random_automaton(rng))
        if a.is_trivially_empty:
            continue
        out = apply_transducer(CTX, t, a)
        words = sorted(bounded_language(CTX, a, 3, universe))
        rng.shuffle(words)
        for w in words[:10]:
            for img in transducer_image_words(t, w):
                checked += 1
                assert accepts_concrete(CTX, out, img), (w, img, trial)
    assert checked > 200


# ---------------------------------------------------------------------------
# the rule index and the image memo against the per-rule scan


AFFINE = DomainContext("affine", ("x",))
LOCS = ("l0", "l1", "l2")


def naive_apply(ctx, t, a, sink=None):
    """Reference application: every rule against every path of its guard
    length, each image evaluated afresh, with no index and no memo."""
    a = normalize(a)
    if a.is_trivially_empty:
        return LatticeAutomaton.empty()
    bld = Builder()
    bld.initial = {(p, q) for p in t.initial for q in a.initial}
    bld.final = {(p, q) for p in t.final for q in a.final}
    for (p, rule, p2) in t.sorted_rules():
        for q in sorted(a.states, key=repr):
            for labels, q2 in sorted(path_labels(a, q, len(rule.guard)), key=repr):
                matched = []
                for letter, g in zip(labels, rule.guard):
                    m = meet_guard(ctx, letter, g, sink)
                    if m is None:
                        break
                    matched.append(m)
                else:
                    outs = []
                    for spec in rule.outputs:
                        img = eval_letter_out(ctx, spec, tuple(matched), InstanceInfo(), sink)
                        if img is None:
                            break
                        outs.append(img)
                    else:
                        bld.add_path((p, q), outs, (p2, q2), tag=rule.name)
    return normalize(bld.build())


def _rich_transducer(rng):
    """Local rules at one location each (some dividing by a value that may
    be 0 or building a power past the size cap), a rule reading any
    location through a constraint that divides by id, a length-2 rule
    into a second transducer state, and a deletion."""
    rules = []
    for i in range(rng.randint(2, 4)):
        lo = rng.randint(-1, 1)
        guard = GuardElement.at(rng.choice(LOCS),
                                GuardAtom(pid=Interval.range(lo, lo + rng.randint(0, 2))))
        kind = rng.random()
        if kind < 0.6:
            instr = Assign("x", parse_expr(rng.choice(
                ("x + 1", "x - id", "0", "x / (x - 1)", "2 ^ 5000"))))
        elif kind < 0.8:
            instr = Filter(parse_expr("x < 1"), rng.choice(("then", "else")))
        else:
            instr = None
        rules.append(("t", TransducerRule(
            f"r{i}", (guard,), (LetterOut(base=0, loc=rng.choice(LOCS), instr=instr),)), "t"))
    divides = Constraint(parse_expr("x"), ">=", parse_expr("1 / id"))
    rules.append(("t", TransducerRule(
        "any", (GuardElement.anywhere(GuardAtom(constraints=(divides,))),),
        (LetterOut(base=0, loc="l2"),)), "t"))
    rules.append(("t", TransducerRule(
        "pair", (GuardElement.at(rng.choice(LOCS)),
                 GuardElement.anywhere(GuardAtom(pid=Interval.range(0, 2)))),
        (LetterOut(base=0, loc="l1"),
         LetterOut(base=1, updates=(("x", E.PosVar(0, "x")),)))), "u"))
    rules.append(("t", TransducerRule("drop", (GuardElement.at(rng.choice(LOCS)),), ()), "t"))
    rules += [("t", INACTIVE, "t"), ("u", INACTIVE, "u")]
    return LatticeTransducer(frozenset({"t", "u"}), frozenset({"t"}),
                             frozenset({"t", "u"}), frozenset(rules))


def _rich_letter(rng, ctx):
    lo = rng.randint(-1, 2)
    pid = Interval.range(lo, lo + rng.randint(0, 2))
    if ctx.kind == "interval":
        x = rng.randint(-2, 2)
        env = IntervalEnv.make({"x": Interval.range(x, x + rng.randint(0, 3))})
    else:
        rows = [({"x": F(1), "id": F(-rng.randint(-2, 2))}, F(rng.randint(-3, 3)))]
        env = AffineEnv.from_rows(("id", "x"), rows if rng.random() < 0.7 else [])
    return AbstractLocalState(pid, rng.choice(LOCS), env)


def _rich_automaton(rng, ctx):
    n = rng.randint(2, 4)
    edges = {(rng.randint(0, n - 1), _rich_letter(rng, ctx), rng.randint(0, n - 1))
             for _ in range(rng.randint(2, 6))}
    return LatticeAutomaton(frozenset(range(n)), frozenset({0}),
                            frozenset({rng.randint(0, n - 1)}), frozenset(edges))


@pytest.mark.parametrize("ctx", [CTX, AFFINE], ids=["interval", "affine"])
def test_apply_transducer_matches_naive_reference(ctx):
    """Same automaton and same alarms as the per-rule scan, on the first
    application and on a second one served from the memo."""
    rng = random.Random(404 if ctx is CTX else 405)
    images = alarmed = 0
    for trial in range(60):
        t = _rich_transducer(rng)
        a = _rich_automaton(rng, ctx)
        want_sink = AlarmSink()
        want = naive_apply(ctx, t, a, want_sink)
        for _ in range(2):
            sink = AlarmSink()
            assert apply_transducer(ctx, t, a, sink) == want, trial
            assert sink.alarms == want_sink.alarms, trial
        images += not is_empty(want)
        alarmed += bool(want_sink.alarms)
    assert images >= 25 and alarmed >= 10


def test_memo_replays_alarms_into_every_sink(monkeypatch):
    """Two applications of one transducer to one automaton, each with a
    fresh sink, report the same division and power alarms, although the
    second evaluates no image."""
    t = LatticeTransducer.single_state([
        TransducerRule("div", (GuardElement.at("l0"),),
                       (LetterOut(base=0, loc="l1", instr=Assign("x", parse_expr("1 / x"))),)),
        TransducerRule("pow", (GuardElement.at("l0"),),
                       (LetterOut(base=0, loc="l2",
                                  instr=Assign("x", parse_expr("2 ^ 5000"))),)),
        INACTIVE])
    a = normalize(LatticeAutomaton.from_word([
        letter((0, 0), "l0", x=(0, 2)), letter((1, 1), "l0", x=(-1, 1))]))
    first, second = AlarmSink(), AlarmSink()
    apply_transducer(CTX, t, a, first)
    assert {kind for kind, _ in first.alarms} == {"division", "power"}
    evaluated = []
    monkeypatch.setattr(T, "eval_letter_out",
                        lambda *args: evaluated.append(args) or eval_letter_out(*args))
    apply_transducer(CTX, t, a, second)
    assert evaluated == []
    assert second.alarms == first.alarms
    assert apply_transducer(CTX, t, a) == apply_transducer(CTX, t, a, AlarmSink())


def test_rule_index_by_first_location():
    """A location lists the rules naming it in their first guard element,
    then the rules reading any location; a rule whose first element reads
    nothing is in no list."""
    at_l0 = TransducerRule("a", (GuardElement.at("l0"),), ())
    at_both = TransducerRule(
        "b", (GuardElement((("l1", GuardAtom()), ("l0", GuardAtom()), ("l1", GuardAtom())), None),
              GuardElement.at("l2")), ())
    nothing = TransducerRule("c", (GuardElement(None, None),), ())
    t = LatticeTransducer.single_state([at_l0, at_both, nothing, INACTIVE])
    names = {n: ({loc: [r.name for _, _, r, _ in rules] for loc, rules in by_loc.items()},
                 [r.name for _, _, r, _ in anywhere])
             for n, (by_loc, anywhere) in t.rule_index.items()}
    assert names == {1: ({"l0": ["a", "inactivity"]}, ["inactivity"]),
                     2: ({"l0": ["b"], "l1": ["b"]}, [])}
    assert t.rule_index is t.rule_index
