import json
import random
from fractions import Fraction

import latreach.expr as E
from latreach.automaton import (
    LatticeAutomaton,
    accepts_concrete,
    bounded_language,
    is_empty,
    normalize,
    path_labels,
)
from latreach.domain import (
    AbstractLocalState,
    DomainContext,
    GuardAtom,
    GuardElement,
    Interval,
    IntervalEnv,
)
from latreach.frontend import Assign, parse_expr
from latreach.transducer import (
    LatticeTransducer,
    LetterOut,
    TransducerRule,
    apply_transducer,
    transducer_from_json,
    transducer_to_json,
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


def test_transducer_json_round_trip():
    t = add4_transducer()
    blob = json.dumps(transducer_to_json(t), sort_keys=True)
    t2 = transducer_from_json(json.loads(blob))
    a = normalize(LatticeAutomaton.from_word([letter((0, 0), "l7", x=(1, 1))]))
    assert apply_transducer(CTX, t2, a) == apply_transducer(CTX, t, a)


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
