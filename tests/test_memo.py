"""The memos of rule application: f-images on the rule (rule.images),
match sets and segments on a step's shared StarImages, guard-word
placements on a word's WordFits.  A memo hit must give the automaton and
the alarms of evaluating afresh, whatever the string-hash seed."""
import json
import random

import pytest

from latreach import engine, rules, transducer
from latreach.automaton import LatticeAutomaton, is_empty, normalize
from latreach.domain import AlarmSink, GuardElement, TOP_GUARD
from latreach.engine import AnalysisConfig, check_deadlock, fixpoint
from latreach.export import to_json
from latreach.frontend import compile_program
from latreach.rules import IDENTITY_H, RewriteRule, StarImages, apply_rule
from latreach.syntax import parse, parse_expr
from latreach.transducer import LetterOut

from helpers import load_program
from test_rules import (REF_AFFINE, REF_INTERVAL, _ref_automaton, _ref_letter,
                        _ref_rules)


def analyze(text, domain="interval", procs=1):
    sem = compile_program(parse(text), domain, procs)
    return sem, fixpoint(sem, AnalysisConfig(step_budget=200))


def _json(a) -> str:
    return json.dumps(to_json(a), indent=2, sort_keys=True)


def _rules(seed):
    """The random rules of test_rules, and one whose inserted letter
    divides, so that f-image evaluation raises alarms."""
    divide = RewriteRule(
        "divide_f", stars=(TOP_GUARD, TOP_GUARD),
        words=((GuardElement.at("l0"),),),
        f_specs=((), (LetterOut(base=0, loc="l1", updates=(("x", parse_expr("1 / x")),)),),
                 ()),
        h_specs=(IDENTITY_H, IDENTITY_H))
    return _ref_rules(random.Random(seed)) + [divide]


def _longer(rng, ctx, a):
    """a with one more letter after each final state: the same matches
    with other suffix lengths."""
    end = max(a.states) + 1
    extra = _ref_letter(rng, ctx)
    return LatticeAutomaton(a.states | {end}, a.initial, frozenset({end}),
                            a.transitions | {(q, extra, end) for q in a.final})


@pytest.mark.parametrize("ctx", [REF_INTERVAL, REF_AFFINE], ids=["interval", "affine"])
def test_warm_memos_give_what_cold_ones_give(ctx, monkeypatch):
    """On seeded random automata, every kind of rule, applied with an
    f-image memo warmed by earlier applications, gives the automaton and
    the alarms it gives with its memo cleared before the call; so does a
    StarImages shared by all the rules applied to one automaton.  Half
    the automata extend the other half by a letter, so that create
    rules meet the same matched letters with other suffix lengths."""
    warm = [r for seed in range(3) for r in _rules(seed)]
    cold = [r for seed in range(3) for r in _rules(seed)]
    warm_ids = {id(r) for r in warm}
    evaluated = {"warm": 0, "cold": 0}
    real = rules._evaluate_f

    def counted(ctx, rule, *args):
        evaluated["warm" if id(rule) in warm_ids else "cold"] += 1
        return real(ctx, rule, *args)

    monkeypatch.setattr(rules, "_evaluate_f", counted)
    rng = random.Random(737 if ctx is REF_INTERVAL else 738)
    pool = [_ref_automaton(rng, ctx) for _ in range(5)]
    pool += [_longer(rng, ctx, a) for a in pool]
    images = alarmed = 0
    for trial in range(40):
        a = rng.choice(pool)
        shared_sink, cold_alarms = AlarmSink(), set()
        stars = StarImages(ctx, normalize(a), shared_sink)
        for w, c in zip(warm, cold):
            c.images.clear()
            want_sink, sink = AlarmSink(), AlarmSink()
            want = apply_rule(ctx, c, a, want_sink)
            got = apply_rule(ctx, w, a, sink)
            assert got == want and _json(got) == _json(want), (trial, w.name)
            assert sink.alarms == want_sink.alarms, (trial, w.name)
            assert apply_rule(ctx, w, a, None, stars) == want, (trial, w.name)
            cold_alarms |= want_sink.alarms
            images += not is_empty(got)
            alarmed += bool(sink.alarms)
        assert shared_sink.alarms == cold_alarms, trial
    assert images >= 200 and alarmed >= 20, (images, alarmed)
    # the warm memos answered most evaluations, so the test is not vacuous
    assert 0 < 2 * evaluated["warm"] < evaluated["cold"], evaluated


DIVIDING_SEND = ("if (id == 0) { if (*) x := 0; else x := 1; send(1 / x, x); }"
                 " else { receive(0, y); }")


def test_f_image_memo_replays_alarms_into_every_sink(monkeypatch):
    """The division in a send target is raised while f-images are
    evaluated.  Two applications of the rules to one automaton, each
    with a fresh sink, both report it, although the second evaluates no
    f-image."""
    sem, res = analyze(DIVIDING_SEND, procs=2)
    alarm = ("division", "(1 / @0.x)")
    assert alarm in res.alarms
    evaluated = []
    real = rules._evaluate_f
    monkeypatch.setattr(rules, "_evaluate_f",
                        lambda *args: evaluated.append(args) or real(*args))
    for rule in sem.rules:
        rule.images.clear()
    first, second = AlarmSink(), AlarmSink()
    images = [apply_rule(sem.ctx, rule, res.reach, first) for rule in sem.rules]
    fresh = len(evaluated)
    assert fresh > 0 and alarm in first.alarms
    assert [apply_rule(sem.ctx, rule, res.reach, second) for rule in sem.rules] == images
    assert len(evaluated) == fresh
    assert second.alarms == first.alarms


def test_dining_evaluates_each_instance_once_per_analysis(monkeypatch):
    """On dining philosophers (four processes, with the deadlock check),
    each f-image key is evaluated once over the fixpoint and the deadlock
    check together, with one joint refinement per evaluated f-letter that
    carries partner conditions, and each guard word is matched at most
    once per step, however many rules read it."""
    keys = []
    real_eval = rules._evaluate_f

    def counted_eval(ctx, rule, flat, inst, sink):
        keys.append((id(rule), ctx, flat, inst))
        return real_eval(ctx, rule, flat, inst, sink)

    steps = [0]
    real_step = engine.step

    def counted_step(*args):
        steps[0] += 1
        return real_step(*args)

    matched = []
    real_matches = rules.matches

    def counted_matches(ctx, w, a, *rest):
        matched.append((steps[0], w))
        return real_matches(ctx, w, a, *rest)

    with_conds = []
    real_letter = rules.eval_letter_out

    def counted_letter(ctx, out, *rest):
        with_conds.append(bool(out.conds))
        return real_letter(ctx, out, *rest)

    refines = []
    real_refine = transducer.joint_refine

    def counted_refine(*args):
        refines.append(args)
        return real_refine(*args)

    monkeypatch.setattr(rules, "_evaluate_f", counted_eval)
    monkeypatch.setattr(engine, "step", counted_step)
    monkeypatch.setattr(rules, "matches", counted_matches)
    monkeypatch.setattr(transducer, "joint_refine", counted_refine)
    monkeypatch.setattr(rules, "eval_letter_out", counted_letter)
    sem, res = analyze(load_program("dining_philosophers.prog"), procs=4)
    assert check_deadlock(sem, res) != []
    assert len(keys) == len(set(keys)) > 100
    assert len(refines) == sum(with_conds)
    assert steps[0] == res.iterations
    assert len(matched) == len(set(matched))
    # mirrored send/receive rules read the same guard words
    assert len(matched) < steps[0] * sum(len(r.words) for r in sem.rules) / 2
