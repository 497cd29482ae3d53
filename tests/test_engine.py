import itertools
import random
from fractions import Fraction

import pytest

from latreach import automaton, engine, rules, transducer, value
from latreach.automaton import includes, is_empty, normalize
from latreach.concrete import (
    accepts_concrete,
    bounded_language,
    config_word,
    initial_config,
    is_stuck,
    reach_bounded,
)
from latreach.automaton import LatticeAutomaton
from latreach.domain import POS_INF, AbstractLocalState, Interval, IntervalEnv, loc_sort_key
from latreach.engine import (
    AnalysisConfig,
    AnalysisResult,
    BudgetExhausted,
    PropertyLocationError,
    check_deadlock,
    check_property_locations,
    check_safety,
    fixpoint,
    step,
)
from latreach.frontend import build_cfg, compile_program
from latreach.syntax import parse
from latreach.cli import parse_property
from latreach.rules import apply_rule, fires

from helpers import load_program

F = Fraction


def analyze(text, domain="interval", procs=1, budget=200, **cfg):
    ast = parse(text)
    sem = compile_program(ast, domain, procs)
    res = fixpoint(sem, AnalysisConfig(step_budget=budget, **cfg))
    return ast, sem, res


# ---------------------------------------------------------------------------
# step


def test_step_empty_is_empty():
    sem = compile_program(parse("x := 1;"), "interval", 1)
    assert is_empty(step(sem, LatticeAutomaton.empty()))


def test_step_initial_contains_then_branch():
    ast = parse(load_program("create_chain.prog"))
    cfg = build_cfg(ast)
    sem = compile_program(ast, "interval", 1)
    s1 = step(sem, sem.initial)
    # oracle one-step image
    init = initial_config(cfg, ast.variables, 1)
    from latreach.concrete import post

    for succ in post(cfg, init):
        assert accepts_concrete(sem.ctx, s1, config_word(succ))


def test_step_all_at_reduce_spawns_collector():
    ast = parse(load_program("sum_reduce.prog"))
    sem = compile_program(ast, "interval", 2)
    res = fixpoint(sem)
    lk = [l for (_, l, _) in res.reach.transitions if l.loc.endswith("_coll")]
    assert lk and all(l.pid == __import__("latreach.domain", fromlist=["Interval"]).Interval.point(-1)
                      for l in lk)


# ---------------------------------------------------------------------------
# fixpoint basics


def test_fixpoint_single_assign():
    ast, sem, res = analyze("x := 1;")
    words = bounded_language(sem.ctx, res.reach, 1, [0, 1])
    assert words == {((F(0), "l0", (("x", F(0)),)),),
                     ((F(0), "l1", (("x", F(1)),)),)}
    assert includes(res.reach, step(sem, res.reach))


def test_fixpoint_iterations_counted():
    _, _, res = analyze("x := 1;")
    assert res.iterations >= 2


def test_fixpoint_budget_exhausted_is_loud():
    ast = parse(load_program("create_chain.prog"))
    sem = compile_program(ast, "interval", "unbounded")
    with pytest.raises(BudgetExhausted):
        fixpoint(sem, AnalysisConfig(step_budget=2))


def test_straight_line_equals_join_only_fixpoint():
    """Without loop heads the widening never fires: the result matches a
    join-only run exactly, even for several processes."""
    text = "x := 1; y := x + 2;"
    for procs in (1, 3):
        ast, sem, res = analyze(text, procs=procs)
        s = normalize(sem.initial)
        for _ in range(60):
            img = step(sem, s)
            if includes(s, img):
                break
            from latreach.automaton import union

            s = union(s, img)
        else:
            pytest.fail("join-only run did not settle")
        assert res.reach == s


def test_monotone_iterates():
    ast = parse(load_program("create_chain.prog"))
    sem = compile_program(ast, "interval", "unbounded")
    from latreach.automaton import union
    from latreach.engine import widen_automata

    s = normalize(sem.initial)
    prev_lang = None
    universe = [0, 1]
    for k in range(6):
        img = step(sem, s)
        s2 = union(s, img)
        if k >= 2:
            s2 = widen_automata(s, s2, widen_locs=sem.widen_locs, k=1)
        lang_prev = bounded_language(sem.ctx, s, 2, universe)
        lang_next = bounded_language(sem.ctx, s2, 2, universe)
        assert lang_prev <= lang_next
        s = s2


# ---------------------------------------------------------------------------
# safety checking


CHAIN_BAD = """
state s0 initial
state s1 final
s0 -> s0 : true
s0 -> s1 : loc=l6, id >= 0, x != 5 + 4*id
s1 -> s1 : true
"""


def test_chain_safety_affine_vs_interval():
    ast = parse(load_program("create_chain.prog"))
    bad = parse_property(CHAIN_BAD)
    sem = compile_program(ast, "affine", "unbounded")
    res = fixpoint(sem)
    assert check_safety(sem, res, bad).safe
    sem_i = compile_program(ast, "interval", "unbounded")
    res_i = fixpoint(sem_i)
    verdict = check_safety(sem_i, res_i, bad)
    assert not verdict.safe and verdict.witness


def test_safety_empty_bad_automaton_is_safe():
    ast, sem, res = analyze("x := 1;")
    bad = parse_property("state a initial\nstate b final\n")
    assert check_safety(sem, res, bad).safe


def test_safety_unknown_location_rejected():
    sem = compile_program(parse("x := 1;"), "interval", 1)
    bad = parse_property(
        "state a initial\nstate b final\na -> b : loc=l99, x == 0\n")
    with pytest.raises(PropertyLocationError, match="unknown locations: l99"):
        check_property_locations(sem, bad)


def test_safety_witness_deterministic():
    ast = parse(load_program("create_chain.prog"))
    bad = parse_property(CHAIN_BAD)
    sem = compile_program(ast, "interval", "unbounded")
    res = fixpoint(sem)
    w1 = check_safety(sem, res, bad).witness
    w2 = check_safety(sem, res, bad).witness
    assert w1 == w2


# ---------------------------------------------------------------------------
# deadlock checking


def test_deadlock_random_two_procs():
    ast, sem, res = analyze(load_program("deadlock_random.prog"), procs=2)
    witnesses = check_deadlock(sem, res)
    kinds = {w.locations for w in witnesses}
    sends = {e.src for e in sem.cfg.edges if type(e.instr).__name__ == "Send"}
    recvs = {e.src for e in sem.cfg.edges if type(e.instr).__name__ == "Receive"}
    assert any(set(locs) <= sends for locs in kinds)
    assert any(set(locs) <= recvs for locs in kinds)


def test_no_communication_no_deadlock():
    ast, sem, res = analyze("x := 1; y := 2;", procs=2)
    assert check_deadlock(sem, res) == []


def test_deadlock_check_long_word():
    """A 3000-process word at the exit is walked without recursion."""
    sem = compile_program(parse("x := 1;"), "interval", 1)
    word = [sem.ctx.zero_letter(Interval.point(i), sem.cfg.exit) for i in range(3000)]
    res = AnalysisResult(LatticeAutomaton.from_word(word), 1, [])
    assert check_deadlock(sem, res) == []


def test_dining_philosophers_circular_wait():
    ast = parse(load_program("dining_philosophers.prog"))
    cfg = build_cfg(ast)
    sem = compile_program(ast, "interval", 4)
    res = fixpoint(sem, AnalysisConfig(step_budget=200))
    witnesses = check_deadlock(sem, res)
    assert witnesses
    # the oracle's concrete stuck configuration appears among the witnesses
    init = initial_config(cfg, ast.variables, 4)
    r = reach_bounded(cfg, init, 20, 4)
    stuck = {tuple(s.loc for s in c) for c in r.configs if is_stuck(cfg, c, cfg.exit)}
    assert stuck
    assert stuck & {w.locations for w in witnesses}


DEADLOCK_RUNS = (("dining_philosophers.prog", 4), ("deadlock_random.prog", 2),
                 ("sum_reduce.prog", 4), ("create_chain.prog", "unbounded"))


def test_atom_split_runs_once_per_distinct_letter(monkeypatch):
    """The deadlock check splits each distinct letter into atoms once; the
    refinements of a word with repeated letters are the product of the
    letters' splits, and a memo shared over the candidate words of a run
    gives each word the refinements a fresh one does."""
    a = AbstractLocalState(Interval.range(0, 1), "l0",
                           IntervalEnv.make({"x": Interval.range(0, 1)}))
    b = AbstractLocalState(Interval.point(2), "l1",
                           IntervalEnv.make({"x": Interval.range(0, 2)}))
    word = (a, b, a, b)
    direct = list(itertools.product(*(engine._letter_atoms(l) for l in word)))
    real_split = engine._letter_atoms
    split = []

    def counted_split(letter):
        split.append(letter)
        return real_split(letter)

    monkeypatch.setattr(engine, "_letter_atoms", counted_split)
    atoms = {}
    assert engine._atom_refinements(word, atoms) == direct and len(direct) == 144
    assert engine._atom_refinements(word[::-1], atoms) == \
        list(itertools.product(*(real_split(l) for l in word[::-1])))
    assert split == [a, b]
    monkeypatch.undo()

    _, sem, res = analyze(load_program("dining_philosophers.prog"), procs=4)
    shared = {}
    words = engine._candidate_paths(res.reach, sem.blocking_locs)
    assert any(engine._atom_refinements(w, {}) for w in words)
    for word in words:
        assert engine._atom_refinements(word, shared) == engine._atom_refinements(word, {})


def _rule_image_nonempty(sem, rule, chain) -> bool:
    """The reference for a rule firing on a word: its image of the word's
    chain automaton is not empty."""
    return not is_empty(apply_rule(sem.ctx, rule, chain))


def _deadlock_words(sem, res):
    """Every word the deadlock check may decide on: the candidates off the
    exit and all their atom refinements."""
    for word in engine._candidate_paths(res.reach, sem.blocking_locs):
        if not all(l.loc == sem.cfg.exit for l in word):
            yield word
            yield from engine._atom_refinements(word, {})


@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_deadlock_rule_tests_agree_with_the_rule_image(domain):
    """On every candidate word and atom of the demo deadlock runs, a rule
    fires on the word exactly when its image of the word's chain is not
    empty."""
    counts = {"fires": 0, "still": 0}
    for name, procs in DEADLOCK_RUNS:
        _, sem, res = analyze(load_program(name), domain=domain, procs=procs)
        for word in _deadlock_words(sem, res):
            chain = LatticeAutomaton.from_word(word)
            for rule in sem.rules:
                want = _rule_image_nonempty(sem, rule, chain)
                assert fires(sem.ctx, rule, word) == want, (name, rule.name, word)
                counts["fires" if want else "still"] += 1
    assert counts["fires"] >= 20 and counts["still"] >= 100, counts


def test_deadlock_check_builds_no_rule_image(monkeypatch):
    """The deadlock check decides movability on the word and asks only the
    rules: it builds no rule image, no star image, no match list and no
    normalized chain, and evaluates no local-step image.  The check runs
    on a second analysis, so no memo holds what a first check evaluated."""
    program = load_program("dining_philosophers.prog")
    _, sem, res = analyze(program, procs=4)
    expected = check_deadlock(sem, res)
    _, sem, res = analyze(program, procs=4)

    def refuse(*args, **kwargs):
        raise AssertionError("the deadlock check built an automaton or an image")

    for module, name in ((rules, "apply_rule"), (engine, "apply_rule"),
                         (rules, "_shared_image"), (rules, "_instance_image"),
                         (rules, "StarImages"), (rules, "matches"), (rules, "normalize"),
                         (engine, "normalize"), (automaton, "normalize"),
                         (transducer, "_evaluate")):
        monkeypatch.setattr(module, name, refuse)
    assert check_deadlock(sem, res) == expected != []


@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_union_of_a_covered_operand_runs_no_determinization(domain, monkeypatch):
    """A step folds the transducer image and the rule images, and a rule
    folds its instance images: union_all takes an including operand as it
    is and builds the product only of a union in which neither operand
    covers the other.  On dining_philosophers with four processes the
    folds do build products, and none of those unions had a covering
    operand."""
    real_product_union = automaton._product_union
    covered = []
    raw = []

    def counted_product_union(a, b):
        raw.append((a, b))
        if includes(a, b) or includes(b, a):
            covered.append((a, b))
        return real_product_union(a, b)

    monkeypatch.setattr(automaton, "_product_union", counted_product_union)
    _, _, res = analyze(load_program("dining_philosophers.prog"), domain=domain, procs=4)
    monkeypatch.undo()
    _, _, expected = analyze(load_program("dining_philosophers.prog"), domain=domain, procs=4)
    assert res == expected
    assert raw  # the check below is not vacuous
    assert covered == []


# ---------------------------------------------------------------------------
# randomized end-to-end soundness


def random_program(rng):
    """Small programs over int variables x, y with optional communication
    and creation; value ranges stay tiny so the oracle can run unpruned."""
    lines = []
    lines.append(f"x := {rng.randint(0, 2)};")
    if rng.random() < 0.5:
        lines.append(f"y := x + {rng.randint(0, 2)};")
    kind = rng.random()
    if kind < 0.3:
        lines.append("if (id == 0) send(1, x); else receive(any_id, y);")
    elif kind < 0.45:
        lines.append("if (*) send(1 - id, x); else receive(any_id, y);")
    elif kind < 0.6:
        lines.append("create(y);")
    elif kind < 0.75:
        lines.append(f"while (x < {rng.randint(1, 3)}) x := x + 1;")
    if rng.random() < 0.5:
        lines.append(f"if (x > {rng.randint(0, 2)}) y := y + 1; else y := 0;")
    return "\n".join(lines)


def test_randomized_end_to_end_soundness():
    rng = random.Random(4242)
    failures = []
    for trial in range(25):
        text = random_program(rng)
        ast = parse(text)
        cfg = build_cfg(ast)
        procs = rng.choice([1, 2, 2, 3])
        if procs == 1 and ("send" in text or "receive" in text):
            procs = 2
        sem = compile_program(ast, rng.choice(["interval", "affine"]), procs)
        try:
            res = fixpoint(sem, AnalysisConfig(step_budget=250))
        except BudgetExhausted:
            failures.append(("budget", text, procs))
            continue
        init = initial_config(cfg, ast.variables, procs)
        r = reach_bounded(cfg, init, 12, procs + 2, rat_vars=ast.rat_vars)
        for c in r.configs:
            if not accepts_concrete(sem.ctx, res.reach, config_word(c)):
                failures.append((text, procs, config_word(c)))
                break
    assert not failures, failures[:3]


def test_post_fixpoint_property_on_programs():
    for name, procs in (("create_chain.prog", "unbounded"),
                        ("sum_reduce.prog", 2),
                        ("deadlock_random.prog", 2)):
        ast = parse(load_program(name))
        sem = compile_program(ast, "interval", procs)
        res = fixpoint(sem)
        assert includes(res.reach, step(sem, res.reach))


def _soundness_holds(text, domain, procs, oracle_procs, depth=10, max_procs=None):
    ast = parse(text)
    cfg = build_cfg(ast)
    sem = compile_program(ast, domain, procs)
    res = fixpoint(sem, AnalysisConfig(step_budget=300))
    init = initial_config(cfg, ast.variables, oracle_procs)
    r = reach_bounded(cfg, init, depth, max_procs or (oracle_procs + 2),
                      rat_vars=ast.rat_vars)
    for c in r.configs:
        if not accepts_concrete(sem.ctx, res.reach, config_word(c)):
            return False, config_word(c)
    return True, None


def test_broadcast_and_reduce_randomized_soundness():
    rng = random.Random(6060)
    for _ in range(12):
        if rng.random() < 0.5:
            text = f"x := id + {rng.randint(0, 2)};\nbroadcast(0, x);"
        else:
            op = rng.choice(["+", "*", "min", "max"])
            text = f"rat t;\nx := {rng.randint(0, 2)};\nreduce(t, x, {op}, 0);"
        procs = rng.choice([2, 3])
        ok, missing = _soundness_holds(text, rng.choice(["interval", "affine"]),
                                       procs, procs)
        assert ok, (text, missing)


@pytest.mark.parametrize("domain", ["interval", "affine"])
@pytest.mark.parametrize("text", [
    "i := 0; x := 1; while (i < 5) { x := 2 ^ i; i := i + 1; }",
    "x := id; y := min(x, 1) + max(x, 1);",
], ids=["power_with_a_growing_exponent", "min_and_max"])
def test_power_min_and_max_soundness(text, domain):
    """A power whose exponent grows in a loop, and min and max, keep every
    configuration of the bounded interpreter."""
    ok, missing = _soundness_holds(text, domain, 2, 2, depth=40)
    assert ok, missing


STRICT_FRACTION_PROGRAM = """\
x := nprocs - id;
if (x > nprocs / 2) { send(id + 1, x); } else { receive(any_id, x); }
while (*) { y := y + nprocs; }
broadcast(nprocs - 1, x);
reduce(y, x, +, nprocs - 1);
"""


def test_strict_comparison_with_fraction_keeps_every_configuration():
    """x > 3/2 with x = 2 must take the then branch under intervals: with
    --procs 3 every configuration of the bounded interpreter (depth 40)
    lies in the reach, and the deadlock check still runs."""
    ast, sem, res = analyze(STRICT_FRACTION_PROGRAM, procs=3)
    check_deadlock(sem, res)
    r = reach_bounded(sem.cfg, initial_config(sem.cfg, ast.variables, 3), 40, 3)
    assert not r.pruned and len(r.configs) > 1000
    missing = [c for c in r.configs if not accepts_concrete(sem.ctx, res.reach, config_word(c))]
    assert missing == []


def test_any_mode_covers_every_initial_size():
    """The unknown-initial-count abstraction must cover oracle runs from
    any concrete process count, including programs that create."""
    programs = [
        "x := 1;\nif (id == 0) send(1, x); else receive(any_id, y);",
        load_program("create_chain.prog"),
        "create(y);\nx := y + 1;",
    ]
    for text in programs:
        ast = parse(text)
        cfg = build_cfg(ast)
        for domain in ("interval", "affine"):
            sem = compile_program(ast, domain, "any")
            res = fixpoint(sem, AnalysisConfig(step_budget=300))
            for k in (1, 2, 3):
                init = initial_config(cfg, ast.variables, k)
                r = reach_bounded(cfg, init, 9, k + 2, rat_vars=ast.rat_vars)
                for c in r.configs:
                    assert accepts_concrete(sem.ctx, res.reach, config_word(c)), \
                        (text, domain, k, config_word(c))


@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_fixpoint_never_unions(domain, monkeypatch):
    """The image of a step includes its iterate, so a join round takes it
    as it is and a widening round meets widen_automata's precondition
    L(iterate) <= L(image): no widening round takes a union."""
    real_widen = engine.widen_automata
    real_union_all = automaton.union_all
    rounds = []
    widening = []
    in_widening = []

    def traced_widen(*args, **kwargs):
        rounds.append(True)
        widening.append(True)
        try:
            return real_widen(*args, **kwargs)
        finally:
            widening.pop()

    def counted_union_all(autos):
        in_widening.append(bool(widening))
        return real_union_all(autos)

    monkeypatch.setattr(engine, "widen_automata", traced_widen)
    monkeypatch.setattr(automaton, "union_all", counted_union_all)
    _, _, res = analyze(load_program("local_loop.prog"), domain=domain, procs=2)
    monkeypatch.undo()
    assert res == analyze(load_program("local_loop.prog"), domain=domain, procs=2)[2]
    assert len(rounds) == res.iterations - 1 - AnalysisConfig().widening_delay > 0
    assert not any(in_widening)


DEMO_RUNS = DEADLOCK_RUNS + (("create_chain.prog", "any"), ("local_loop.prog", 3))


@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_every_step_image_includes_its_iterate(domain, monkeypatch):
    """The inactivity rule copies every letter, so on the demo runs each
    step's image includes the iterate it was taken of, the fact that lets
    a join round take the image as it is."""
    real_step = engine.step
    checked = []

    def checked_step(sem, s, sink=None):
        image = real_step(sem, s, sink)
        checked.append(includes(image, s))
        return image

    monkeypatch.setattr(engine, "step", checked_step)
    for name, procs in DEMO_RUNS:
        analyze(load_program(name), domain=domain, procs=procs)
    assert len(checked) >= 50 and all(checked)


def test_escalation_cuts_a_chain_the_widening_locations_do_not(monkeypatch):
    """Without widening locations the loop counter only grows by joins and
    no post-fixpoint is reached; once ESCALATION_DELAY restricted rounds
    have passed every location widens, and the analysis ends within the
    budget with x unbounded."""
    sem = compile_program(parse("int x;\nwhile (*) x := x + 1;\n"), "interval", 1)
    bare = value.replace(sem, widen_locs=frozenset())
    assert engine.ESCALATION_DELAY == 40
    for delay in (40, 0, 5):
        monkeypatch.setattr(engine, "ESCALATION_DELAY", delay)
        res = fixpoint(bare, AnalysisConfig(step_budget=60))
        assert res.iterations == delay + 5
        assert any(l.env.get("x").hi == POS_INF for (_, l, _) in res.reach.transitions)
    monkeypatch.setattr(engine, "ESCALATION_DELAY", 60)
    with pytest.raises(BudgetExhausted):
        fixpoint(bare, AnalysisConfig(step_budget=60))


def _every_rule_deadlocks(sem, res):
    """check_deadlock asking every rule about every candidate and refinement."""
    def movable(word):
        return any(fires(sem.ctx, rule, word) for rule in sem.rules)

    def at_exit(word):
        return all(l.loc == sem.cfg.exit for l in word)

    witnesses = {}
    for word in engine._candidate_paths(res.reach, sem.blocking_locs):
        if at_exit(word):
            continue
        chosen = word
        if movable(word):
            chosen = next((w for w in engine._atom_refinements(word, {})
                           if not (at_exit(w) or movable(w))), None)
            if chosen is None:
                continue
        locs = tuple(l.loc for l in chosen)
        witnesses.setdefault(locs, " . ".join(str(l) for l in chosen))
    return sorted(witnesses.items(), key=lambda kv: [loc_sort_key(l) for l in kv[0]])


@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_deadlock_check_asks_the_rules_that_read_the_candidates_locations(domain):
    """check_deadlock, which asks a candidate only the rules whose guard
    words read locations among its letters, against asking every rule: the
    same witnesses on the demo deadlock runs and create_chain under --procs
    any.  A rule left out never fires on the word or its refinements."""
    runs = DEADLOCK_RUNS + (("create_chain.prog", "any"), ("deadlock_random.prog", 3))
    witnessed = skipped = 0
    for name, procs in runs:
        _, sem, res = analyze(load_program(name), domain=domain, procs=procs,
                              shape_k=2 if procs == "any" else 1)
        got = [(w.locations, w.description) for w in check_deadlock(sem, res)]
        assert got == _every_rule_deadlocks(sem, res), name
        witnessed += len(got)
        for word in _deadlock_words(sem, res):
            locs = {l.loc for l in word}
            for rule in sem.rules:
                if not rule.guard_locs <= locs:
                    assert not fires(sem.ctx, rule, word), (name, rule.name)
                    skipped += 1
    assert witnessed >= 40 and skipped >= 1000, (witnessed, skipped)


def _per_layer_witness(product):
    """_shortest_witness sorting the transitions again in every BFS layer."""
    product = automaton.trim(product)
    if product.is_trivially_empty:
        return None
    best = {q: () for q in sorted(product.initial, key=repr)}
    for _ in range(len(product.states) + 1):
        hits = [best[q] for q in best if q in product.final]
        if hits:
            word = min(hits, key=lambda w: [loc_sort_key(l.loc) for l in w])
            return " . ".join(str(letter) for letter in word)
        nxt = {}
        for (s, l, t) in sorted(product.transitions,
                                key=lambda e: (repr(e[0]), e[1].sort_key(), repr(e[2]))):
            if s in best:
                cand = best[s] + (l,)
                if t not in nxt or [loc_sort_key(x.loc) for x in cand] < \
                        [loc_sort_key(x.loc) for x in nxt[t]]:
                    nxt[t] = cand
        best = nxt
        if not best:
            return None
    return None


def test_shortest_witness_sorts_once_as_per_layer():
    """_shortest_witness, which sorts the transitions once, against the
    per-layer sort, on seeded random products with tuple states, cycles,
    several initial and final states and ties between equal-length words,
    and on the property product of create_chain."""
    rng = random.Random(1901)
    found = 0
    for _ in range(300):
        states = [(rng.randint(0, 3), rng.choice("ab")) for _ in range(rng.randint(2, 6))]
        trans = frozenset((rng.choice(states),
                           AbstractLocalState(Interval.point(rng.randint(0, 2)),
                                              rng.choice(("l0", "l1", "l2", "l10")),
                                              IntervalEnv.make({})),
                           rng.choice(states)) for _ in range(rng.randint(1, 9)))
        product = LatticeAutomaton(frozenset(states),
                                   frozenset(rng.sample(states, rng.randint(1, 2))),
                                   frozenset(rng.sample(states, rng.randint(1, 2))), trans)
        want = _per_layer_witness(product)
        assert engine._shortest_witness(product) == want
        found += want is not None
    assert found >= 150
    _, sem, res = analyze(load_program("create_chain.prog"), procs="unbounded")
    product = engine._product_with_property(sem, res.reach, parse_property(CHAIN_BAD))
    want = _per_layer_witness(product)
    assert want is not None and engine._shortest_witness(product) == want
