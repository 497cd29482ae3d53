"""Acceptance suite: the exit criteria, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance and time budget is pinned here.
"""
import random
import time
from fractions import Fraction

from latreach.automaton import (
    LatticeAutomaton,
    includes,
    normalize,
)
from latreach.cli import parse_property
from latreach.concrete import (
    accepts_concrete,
    bounded_language,
    config_word,
    initial_config,
    is_stuck,
    reach_bounded,
)
from latreach.domain import (
    AbstractLocalState,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
)
from latreach.engine import (
    AnalysisConfig,
    check_deadlock,
    check_safety,
    fixpoint,
    step,
)
from latreach.frontend import build_cfg, compile_program
from latreach.syntax import Assign, parse, parse_expr
from latreach.transducer import (
    LatticeTransducer,
    LetterOut,
    TransducerRule,
    apply_transducer,
)

from helpers import load_program, rule_image_words, transducer_image_words

F = Fraction

# runs recorded for the termination criterion
_RUNS = []


def _record(sem, res):
    _RUNS.append((sem, res))
    return res


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_single_rule_transducer_golden():
    """Applying (x := x + 4, l7 -> l8) to the singleton (id=0, l7, x=1)
    yields exactly (id=0, l8, x=5), bit-exact, under a millisecond."""
    ctx = DomainContext("interval", ("x",))
    rule = TransducerRule(
        "bump", GuardElement.at("l7"),
        LetterOut(base=0, loc="l8", instr=Assign("x", parse_expr("x + 4"))))
    t = LatticeTransducer((rule,))
    a = normalize(LatticeAutomaton.from_word([
        AbstractLocalState(Interval.point(0), "l7",
                           IntervalEnv.make({"x": Interval.point(1)}))]))
    out = apply_transducer(ctx, t, a)  # warm-up
    best = min(_timed(lambda: apply_transducer(ctx, t, a)) for _ in range(5))
    (_, label, _), = out.transitions
    expected = AbstractLocalState(Interval.point(0), "l8",
                                  IntervalEnv.make({"x": Interval.point(5)}))
    ok = label == expected and len(out.transitions) == 1 and best < 0.001
    _report("criterion-1 transducer golden", ok,
            f"label={label} best={best*1000:.3f}ms")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_sum_program_two_procs():
    """Sum analogue at 2 processes, interval domain, exact rationals: the
    reach set contains the final word with root total exactly 3/4 and the
    collector sweep words with totals 0, 1/2, 3/4; under 10 seconds."""
    ast = parse(load_program("sum_reduce.prog"))
    sem = compile_program(ast, "interval", 2)
    t0 = time.perf_counter()
    res = _record(sem, fixpoint(sem))
    elapsed = time.perf_counter() - t0
    lk, cl = "l1_lock", "l1_coll"
    final_word = (
        (0, "l2", (("res", F(1, 2)), ("total", F(3, 4)))),
        (1, "l2", (("res", F(1, 4)), ("total", F(0)))),
    )
    sweep = [
        ((-1, cl, (("res", F(0)), ("total", F(0)))),
         (0, lk, (("res", F(1, 2)), ("total", F(0)))),
         (1, lk, (("res", F(1, 4)), ("total", F(0))))),
        ((0, lk, (("res", F(1, 2)), ("total", F(0)))),
         (-1, cl, (("res", F(0)), ("total", F(1, 2)))),
         (1, lk, (("res", F(1, 4)), ("total", F(0))))),
        ((0, lk, (("res", F(1, 2)), ("total", F(0)))),
         (1, lk, (("res", F(1, 4)), ("total", F(0)))),
         (-1, cl, (("res", F(0)), ("total", F(3, 4))))),
    ]
    checks = [accepts_concrete(sem.ctx, res.reach, final_word)]
    checks += [accepts_concrete(sem.ctx, res.reach, w) for w in sweep]
    ok = all(checks) and elapsed < 10.0
    _report("criterion-2 sum at 2 procs", ok,
            f"total=3/4 contained={checks[0]} sweep={checks[1:]} {elapsed:.2f}s")


def test_criterion_2b_sum_closed_form_2_4_8():
    """total = 1 - 1/2^n holds exactly at 2, 4 and 8 processes (closed
    form; the n=2 value is cross-checked by the concrete oracle)."""
    ast = parse(load_program("sum_reduce.prog"))
    cfg = build_cfg(ast)
    details = []
    ok = True
    for n in (2, 4, 8):
        sem = compile_program(ast, "interval", n)
        res = _record(sem, fixpoint(sem))
        closed = 1 - F(1, 2 ** n)
        word = tuple(
            (i, cfg.exit, (("res", F(1, 2 ** (i + 1))),
                           ("total", closed if i == 0 else F(0))))
            for i in range(n))
        hit = accepts_concrete(sem.ctx, res.reach, word)
        details.append(f"n={n}:{closed}:{hit}")
        ok = ok and hit
    # oracle cross-check at n = 2
    init = initial_config(cfg, ast.variables, 2)
    r = reach_bounded(cfg, init, 8, 2, rat_vars=ast.rat_vars)
    finals = [c for c in r.configs if all(s.loc == cfg.exit for s in c)]
    oracle_total = {s.rho()["total"] for c in finals for s in c if s.pid == 0}
    ok = ok and oracle_total == {F(3, 4)}
    _report("criterion-2b geometric sums", ok, " ".join(details))


def test_criterion_3_running_example_safety():
    """Running example, affine domain, unbounded creation: SAFE against
    the end-value property; the interval domain alarms on the same run
    (documented imprecision).  Under 60 seconds total."""
    ast = parse(load_program("create_chain.prog"))
    bad = parse_property(load_program("chain_end_value.bad"))
    t0 = time.perf_counter()
    sem_a = compile_program(ast, "affine", "unbounded")
    res_a = _record(sem_a, fixpoint(sem_a))
    verdict_a = check_safety(sem_a, res_a, bad)
    sem_i = compile_program(ast, "interval", "unbounded")
    res_i = _record(sem_i, fixpoint(sem_i))
    verdict_i = check_safety(sem_i, res_i, bad)
    elapsed = time.perf_counter() - t0
    ok = verdict_a.safe and not verdict_i.safe and elapsed < 60.0
    _report("criterion-3 chain safety", ok,
            f"affine={'SAFE' if verdict_a.safe else 'ALARM'} "
            f"interval={'SAFE' if verdict_i.safe else 'ALARM'} {elapsed:.2f}s")


def test_criterion_4_deadlock_random():
    """Deadlock-random at 2 processes: a potential-deadlock witness is
    reported and the oracle confirms a concrete stuck configuration within
    depth 10; under 5 seconds."""
    ast = parse(load_program("deadlock_random.prog"))
    cfg = build_cfg(ast)
    t0 = time.perf_counter()
    sem = compile_program(ast, "interval", 2)
    res = _record(sem, fixpoint(sem))
    witnesses = check_deadlock(sem, res)
    elapsed = time.perf_counter() - t0
    init = initial_config(cfg, ast.variables, 2)
    r = reach_bounded(cfg, init, 10, 2)
    stuck = {tuple(s.loc for s in c) for c in r.configs if is_stuck(cfg, c, cfg.exit)}
    confirmed = stuck & {w.locations for w in witnesses}
    ok = bool(witnesses) and bool(confirmed) and elapsed < 5.0
    _report("criterion-4 deadlock random", ok,
            f"witnesses={len(witnesses)} oracle-confirmed={sorted(confirmed)} {elapsed:.2f}s")


def test_criterion_5_dining_philosophers():
    """Dining philosophers with 4 processes (2 philosophers + 2 forks):
    a deadlock witness within the 300 second budget."""
    ast = parse(load_program("dining_philosophers.prog"))
    t0 = time.perf_counter()
    sem = compile_program(ast, "interval", 4)
    res = _record(sem, fixpoint(sem, AnalysisConfig(step_budget=300)))
    witnesses = check_deadlock(sem, res)
    elapsed = time.perf_counter() - t0
    # the true circular wait: both philosophers at their second pick-up
    cfg = build_cfg(ast)
    init = initial_config(cfg, ast.variables, 4)
    r = reach_bounded(cfg, init, 20, 4)
    stuck = {tuple(s.loc for s in c) for c in r.configs if is_stuck(cfg, c, cfg.exit)}
    confirmed = stuck & {w.locations for w in witnesses}
    ok = bool(witnesses) and bool(confirmed) and elapsed < 300.0
    _report("criterion-5 dining philosophers", ok,
            f"witnesses={len(witnesses)} confirmed={sorted(confirmed)} {elapsed:.1f}s")


def test_criterion_6_theorem_property_suite():
    """200 randomized pairs (100 rule/automaton, 100 transducer/automaton)
    over values -2..2, at most 3 automaton states, words up to length 3:
    the direct word-level image is contained in the applied result every
    time; under 60 seconds."""
    from test_rules import _random_automaton as rule_auto, _random_rule
    from test_transducer import _random_automaton as trans_auto, _random_transducer

    ctx = DomainContext("interval", ("x",))
    rng = random.Random(20260808)
    universe = list(range(-2, 3))
    t0 = time.perf_counter()
    pairs = 0
    checked = 0
    bad = []
    from latreach.rules import apply_rule

    for _ in range(100):
        rule = _random_rule(rng)
        a = normalize(rule_auto(rng))
        pairs += 1
        if a.is_trivially_empty:
            continue
        img = apply_rule(ctx, rule, a)
        for w in sorted(bounded_language(ctx, a, 3, universe))[:6]:
            for out in rule_image_words(rule, w):
                checked += 1
                if not accepts_concrete(ctx, img, out):
                    bad.append(("rule", w, out))
    for _ in range(100):
        t = _random_transducer(rng)
        a = normalize(trans_auto(rng))
        pairs += 1
        if a.is_trivially_empty:
            continue
        img = apply_transducer(ctx, t, a)
        for w in sorted(bounded_language(ctx, a, 3, universe))[:6]:
            for out in transducer_image_words(t, w):
                checked += 1
                if not accepts_concrete(ctx, img, out):
                    bad.append(("transducer", w, out))
    elapsed = time.perf_counter() - t0
    ok = pairs == 200 and not bad and checked > 300 and elapsed < 60.0
    _report("criterion-6 theorem suite", ok,
            f"pairs={pairs} images-checked={checked} failures={len(bad)} {elapsed:.1f}s")


def _bounded_random_program(rng):
    """Communication-flavoured programs compiling to at most 6 locations,
    with bounded values and no creation (so the oracle runs unpruned)."""
    while True:
        lines = [f"x := {rng.randint(0, 2)};"]
        kind = rng.random()
        if kind < 0.35:
            lines.append("if (id == 0) send(1, x); else receive(any_id, y);")
        elif kind < 0.6:
            lines.append("if (*) send(1 - id, x); else receive(any_id, y);")
        elif kind < 0.8:
            lines.append(f"while (x < {rng.randint(1, 2)}) x := x + 1;")
        else:
            lines.append(f"if (x > {rng.randint(0, 1)}) y := x; else y := 0;")
        text = "\n".join(lines)
        cfg = build_cfg(parse(text))
        if len(cfg.locations) <= 6:
            return text


def test_criterion_7_end_to_end_soundness():
    """50 randomized programs (at most 6 locations, at most 3 processes,
    bounded values): unpruned oracle reach to depth 15 is contained in the
    concretization of the analysis result, 100% of the runs."""
    rng = random.Random(77)
    failures = []
    runs = 0
    for _ in range(50):
        text = _bounded_random_program(rng)
        ast = parse(text)
        cfg = build_cfg(ast)
        procs = rng.choice([2, 3]) if ("send" in text or "receive" in text) \
            else rng.choice([1, 2, 3])
        sem = compile_program(ast, rng.choice(["interval", "affine"]), procs)
        res = _record(sem, fixpoint(sem, AnalysisConfig(step_budget=300)))
        init = initial_config(cfg, ast.variables, procs)
        r = reach_bounded(cfg, init, 15, procs)
        assert not r.pruned
        runs += 1
        for c in r.configs:
            if not accepts_concrete(sem.ctx, res.reach, config_word(c)):
                failures.append((text, procs, config_word(c)))
                break
    ok = runs == 50 and not failures
    _report("criterion-7 end-to-end soundness", ok,
            f"runs={runs} failures={len(failures)}" +
            (f" first={failures[0]}" if failures else ""))


def test_criterion_8_normalization_golden():
    """The three equivalent automata (edges {[0,2],[2,4]}, {[0,3],[3,4]},
    {[0,4]}) normalize to structurally identical automata."""
    def iv(lo, hi):
        return AbstractLocalState(Interval.range(lo, hi), "l0", IntervalEnv.top())

    def two_state(*labels):
        return LatticeAutomaton(frozenset({0, 1}), frozenset({0}), frozenset({1}),
                                frozenset((0, l, 1) for l in labels))

    n1 = normalize(two_state(iv(0, 2), iv(2, 4)))
    n2 = normalize(two_state(iv(0, 3), iv(3, 4)))
    n3 = normalize(two_state(iv(0, 4)))
    ok = n1 == n2 == n3
    _report("criterion-8 normalization golden", ok, f"sizes={n1.size()}")


def test_criterion_9_termination_and_post_fixpoint():
    """Every acceptance run above reached a post-fixpoint within its step
    budget; includes(reach, step(reach)) holds for each."""
    assert _RUNS, "acceptance runs must execute before the termination check"
    bad = 0
    for sem, res in _RUNS:
        if not includes(res.reach, step(sem, res.reach)):
            bad += 1
    _report("criterion-9 termination/post-fixpoint", bad == 0,
            f"runs={len(_RUNS)} violations={bad}")
