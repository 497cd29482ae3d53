import random
from fractions import Fraction

import pytest

import latreach.expr as E
import latreach.transducer as T
from latreach.automaton import Builder, LatticeAutomaton, is_empty, normalize
from latreach.domain import (
    AbstractLocalState,
    AffineEnv,
    AlarmSink,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
    TOP_GUARD,
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

from helpers import path_labels, transducer_image_words

F = Fraction
CTX = DomainContext("interval", ("x",))


def letter(pid, loc, **vars_):
    env = IntervalEnv.make({n: Interval.range(a, b) for n, (a, b) in vars_.items()})
    return AbstractLocalState(Interval.range(*pid), loc, env)


def add4_transducer():
    rule = TransducerRule(
        "bump", GuardElement.at("l7"),
        LetterOut(base=0, loc="l8", instr=Assign("x", parse_expr("x + 4"))))
    return LatticeTransducer((rule,))


INACTIVE = TransducerRule("inactivity", TOP_GUARD, LetterOut(base=0))


def id_range(loc, lo, hi):
    """The guard reading the letters at loc whose id lies in [lo, hi]."""
    return GuardElement.at(loc, parse_expr(f"id >= {lo}"), parse_expr(f"id <= {hi}"))


def test_single_rule_application_golden():
    """Applying (x := x + 4, l7 -> l8) to the singleton (id=0, l7, x=1)
    yields exactly (id=0, l8, x=5)."""
    a = normalize(LatticeAutomaton.from_word([letter((0, 0), "l7", x=(1, 1))]))
    out = apply_transducer(CTX, add4_transducer(), a)
    (_, lbl, _), = out.transitions
    assert lbl == letter((0, 0), "l8", x=(5, 5))


def test_inactivity_rule_preserves_language():
    t = LatticeTransducer((INACTIVE,))
    a = normalize(LatticeAutomaton.from_word([
        letter((0, 0), "l7", x=(1, 2)), letter((1, 1), "l9", x=(0, 0))]))
    out = apply_transducer(CTX, t, a)
    universe = list(range(0, 3))
    assert bounded_language(CTX, a, 3, universe) == bounded_language(CTX, out, 3, universe)


def test_bottom_outputs_drop_rule_instance():
    rule = TransducerRule(
        "dead", GuardElement.at("l7"),
        LetterOut(base=0, conds=((0, E.Const(F(99))),)))  # id must be 99
    t = LatticeTransducer((rule,))
    a = normalize(LatticeAutomaton.from_word([letter((0, 0), "l7", x=(1, 1))]))
    assert is_empty(apply_transducer(CTX, t, a))


def test_only_a_fresh_letter_sets_its_identifier():
    """A base letter keeps the identifier of the letter it rewrites; a
    recipe that asks otherwise is refused when it is built."""
    for pid in (("fresh",), ("const", F(-1))):
        with pytest.raises(ValueError, match="keeps its identifier"):
            LetterOut(base=0, pid=pid)
        assert LetterOut(base=None, loc="l0", pid=pid).pid == pid


# ---------------------------------------------------------------------------
# soundness against the direct word-level interpreter


def _random_transducer(rng):
    locs = ["l0", "l1"]
    rules = [INACTIVE]
    for i in range(rng.randint(1, 3)):
        src = rng.choice(locs)
        dst = rng.choice(locs)
        lo = rng.randint(-2, 1)
        guard = id_range(src, lo, rng.randint(lo, 2))
        if rng.random() < 0.4:
            out = LetterOut(base=0, loc=dst, instr=Assign("x", parse_expr(rng.choice(
                ["x + 1", "x - 1", "0", "x"]))))
        else:
            out = LetterOut(base=0, loc=dst)
        rules.append(TransducerRule(f"r{i}", guard, out))
    return LatticeTransducer(tuple(rules))


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
    """Reference application: the product construction of a general
    transducer over (transducer state, automaton state), with t read as
    the one-state transducer whose every rule is a loop with a one-letter
    guard and one output.  Every rule meets every path of its guard
    length, each image evaluated afresh, with no index and no memo."""
    a = normalize(a)
    if a.is_trivially_empty:
        return LatticeAutomaton.empty()
    states = {"t"}
    rules = [("t", (rule.guard,), (rule.output,), "t") for rule in t.rules]
    bld = Builder()
    bld.initial = {(p, q) for p in states for q in a.initial}
    bld.final = {(p, q) for p in states for q in a.final}
    for (p, guard, outputs, p2) in rules:
        for q in sorted(a.states, key=repr):
            for labels, q2 in sorted(path_labels(a, q, len(guard)), key=repr):
                matched = []
                for letter, g in zip(labels, guard):
                    m = meet_guard(ctx, letter, g, sink)
                    if m is None:
                        break
                    matched.append(m)
                else:
                    outs = []
                    for spec in outputs:
                        img = eval_letter_out(ctx, spec, tuple(matched), InstanceInfo(), sink)
                        if img is None:
                            break
                        outs.append(img)
                    else:
                        bld.add_path((p, q), outs, (p2, q2))
    return normalize(bld.build())


def _rich_transducer(rng):
    """Local rules at one location each (some dividing by a value that may
    be 0 or building a power past the size cap) and a rule reading any
    location through a comparison that divides by id."""
    rules = []
    for i in range(rng.randint(2, 4)):
        lo = rng.randint(-1, 1)
        guard = id_range(rng.choice(LOCS), lo, lo + rng.randint(0, 2))
        kind = rng.random()
        if kind < 0.6:
            instr = Assign("x", parse_expr(rng.choice(
                ("x + 1", "x - id", "0", "x / (x - 1)", "2 ^ 5000"))))
        elif kind < 0.8:
            instr = Filter(parse_expr("x < 1"), rng.choice(("then", "else")))
        else:
            instr = None
        rules.append(TransducerRule(
            f"r{i}", guard, LetterOut(base=0, loc=rng.choice(LOCS), instr=instr)))
    anywhere = TransducerRule("any", GuardElement.at(None, parse_expr("x >= 1 / id")),
                              LetterOut(base=0, loc="l2"))
    return LatticeTransducer((anywhere, INACTIVE, *rules))


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
    """The relabelling gives the product construction's automaton and
    alarms, on the first application and on a second one served from the
    memo."""
    rng = random.Random(404 if ctx is CTX else 405)
    images = alarmed = 0
    for trial in range(60):
        t = _rich_transducer(rng)
        a = _rich_automaton(rng, ctx)
        want_sink = AlarmSink()
        want = naive_apply(ctx, t, a, want_sink)
        memo_sizes = []
        for _ in range(2):
            sink = AlarmSink()
            assert apply_transducer(ctx, t, a, sink) == want, trial
            assert sink.alarms == want_sink.alarms, trial
            memo_sizes.append(len(t.images.get(ctx, ())))
        assert memo_sizes[0] == memo_sizes[1], trial
        images += not is_empty(want)
        alarmed += bool(want_sink.alarms)
    assert images >= 25 and alarmed >= 10


def test_memo_replays_alarms_into_every_sink(monkeypatch):
    """Two applications of one transducer to one automaton, each with a
    fresh sink, report the same division and power alarms, although the
    second evaluates no image."""
    t = LatticeTransducer((
        TransducerRule("div", GuardElement.at("l0"),
                       LetterOut(base=0, loc="l1", instr=Assign("x", parse_expr("1 / x")))),
        INACTIVE,
        TransducerRule("pow", GuardElement.at("l0"),
                       LetterOut(base=0, loc="l2", instr=Assign("x", parse_expr("2 ^ 5000"))))))
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
    """A location lists the rules reading it, then the rules reading any
    location, with or without comparisons."""
    keep = LetterOut(base=0)
    at_l0 = TransducerRule("a", GuardElement.at("l0"), keep)
    at_l1 = TransducerRule("b", id_range("l1", 0, 2), keep)
    odd = TransducerRule("c", GuardElement.at(None, parse_expr("x % 2 == 1")), keep)
    t = LatticeTransducer((at_l0, at_l1, odd, INACTIVE))
    by_loc, anywhere = t.rule_index
    assert {loc: [(n, r.name) for n, r in rules] for loc, rules in by_loc.items()} == \
        {"l0": [(0, "a"), (2, "c"), (3, "inactivity")],
         "l1": [(1, "b"), (2, "c"), (3, "inactivity")]}
    assert anywhere == ((2, odd), (3, INACTIVE))
    assert t.rule_index is t.rule_index
