import itertools
import random
from fractions import Fraction

import pytest

import latreach.expr as E
from latreach import rules
from latreach.automaton import (
    Builder,
    LatticeAutomaton,
    MatchTriple,
    includes,
    is_empty,
    matches,
    normalize,
    shape,
    union_all,
)
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
from latreach.graph import live, path_lengths
from latreach.concrete import accepts_concrete, bounded_language
from latreach.engine import step
from latreach.frontend import Edge, build_cfg, compile_program
from latreach.syntax import Broadcast, Create, Receive, Reduce, Send, parse, parse_expr
from latreach.rules import (
    IDENTITY_H,
    REDUCE_OPS,
    HRewrite,
    RewriteRule,
    apply_rule,
    collector_loc,
    lock_loc,
    make_broadcast_rule,
    make_create_rule,
    make_reduce_rules,
    make_send_receive_rule,
)
from latreach.transducer import InstanceInfo, LetterOut, eval_letter_out
from latreach.concrete import ConcreteLocalState, config_word, post

from helpers import load_program, path_labels, rule_image_words

F = Fraction
CTX = DomainContext("interval", ("next", "x"))


def letter(pid, loc, x=None, nxt=None):
    env = {}
    if x is not None:
        env["x"] = Interval.point(x)
    if nxt is not None:
        env["next"] = Interval.point(nxt)
    return AbstractLocalState(Interval.point(pid), loc, IntervalEnv.make(env))


@pytest.fixture(scope="module")
def chain():
    ast = parse(load_program("create_chain.prog"))
    cfg = build_cfg(ast)
    sem = compile_program(ast, "interval", 3)
    edges = {type(e.instr).__name__: e for e in cfg.edges}
    return ast, cfg, sem, edges


def _comm_rules(sem):
    return [r for r in sem.rules if "send" in r.name or "recv" in r.name]


# ---------------------------------------------------------------------------
# send/receive


def test_send_receive_schema_guard_shape(chain):
    _, cfg, sem, edges = chain
    send_e = edges["Send"]
    recv_e = edges["Receive"]
    fwd, mirror = make_send_receive_rule(send_e, recv_e)
    # forward ordering: top* . <_, send-loc, _> . top* . <_, recv-loc, _> . top*
    assert fwd.stars == (TOP_GUARD, TOP_GUARD, TOP_GUARD)
    assert [w[0].loc for w in fwd.words] == [send_e.src, recv_e.src]
    assert [w[0].loc for w in mirror.words] == [recv_e.src, send_e.src]
    assert all(h == IDENTITY_H for h in fwd.h_specs)


def test_send_receive_on_example_word(chain):
    """Rule image of a three-process word against the concrete oracle: the
    receiver takes the sender's value, the sender only advances."""
    _, cfg, sem, edges = chain
    send_loc, recv_loc = edges["Send"].src, edges["Receive"].src
    end_loc = cfg.exit
    word = [letter(0, end_loc, x=5, nxt=1),
            letter(1, send_loc, x=9, nxt=2),
            letter(2, recv_loc, x=0, nxt=2)]
    a = normalize(LatticeAutomaton.from_word(word))
    img = union_all([apply_rule(sem.ctx, r, a) for r in _comm_rules(sem)])
    conc = tuple(ConcreteLocalState(int(l.pid.lo), l.loc,
                                    tuple(sorted({
                                        "x": dict(l.env.items)["x"].lo,
                                        "next": dict(l.env.items)["next"].lo}.items())))
                 for l in word)
    succs = post(cfg, conc)
    assert len(succs) == 1  # only the communication is enabled
    succ = config_word(next(iter(succs)))
    assert accepts_concrete(sem.ctx, img, succ)
    # oracle authority: receiver got x=9 and moved to the receive target
    recv = [s for s in succ if s[0] == 2][0]
    assert dict(recv[2])["x"] == 9
    assert recv[1] == edges["Receive"].dst
    # bounded enumeration: the image contains nothing but oracle successors
    universe = [0, 1, 2, 5, 9]
    for w in bounded_language(sem.ctx, img, 3, universe):
        assert w == succ


def test_star_images_computed_once_per_rule(chain, monkeypatch):
    """Each star's guard meet runs once per automaton letter, however many
    match instances the rule has: at most len(stars) * T meets."""
    _, cfg, sem, edges = chain
    send_loc, recv_loc = edges["Send"].src, edges["Receive"].src
    word = [letter(i, send_loc if i % 2 == 0 else recv_loc, x=i, nxt=i + 1)
            for i in range(6)]
    a = normalize(LatticeAutomaton.from_word(word))
    calls = []
    real = rules.meet_guard

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(rules, "meet_guard", counted)
    for rule in _comm_rules(sem):
        instances = 1
        for w in rule.words:
            instances *= len(matches(sem.ctx, w, a))
        assert instances >= 9
        calls.clear()
        apply_rule(sem.ctx, rule, a)
        assert calls and set(calls) <= set(rule.stars)
        assert len(calls) <= len(rule.stars) * len(a.transitions)


def test_send_receive_partner_mismatch_contributes_nothing(chain):
    _, cfg, sem, edges = chain
    send_loc, recv_loc = edges["Send"].src, edges["Receive"].src
    word = [letter(1, send_loc, x=13, nxt=2), letter(6, recv_loc, x=0, nxt=0)]
    a = normalize(LatticeAutomaton.from_word(word))
    img = union_all([apply_rule(sem.ctx, r, a) for r in _comm_rules(sem)])
    assert is_empty(img)


def test_identity_rule_keeps_sub_language():
    rule = RewriteRule(
        "watch", stars=(TOP_GUARD, TOP_GUARD),
        words=((GuardElement.at("l1"),),),
        f_specs=((), (LetterOut(base=0),), ()),
        h_specs=(IDENTITY_H, IDENTITY_H))
    a = normalize(LatticeAutomaton.from_word([
        letter(0, "l0", x=0), letter(1, "l1", x=1)]))
    img = apply_rule(CTX, rule, a)
    universe = [0, 1]
    assert bounded_language(CTX, img, 2, universe) == bounded_language(CTX, a, 2, universe)


def test_no_guard_match_is_empty():
    rule = RewriteRule(
        "nowhere", stars=(TOP_GUARD, TOP_GUARD),
        words=((GuardElement.at("l99"),),),
        f_specs=((), (LetterOut(base=0),), ()),
        h_specs=(IDENTITY_H, IDENTITY_H))
    a = normalize(LatticeAutomaton.from_word([letter(0, "l0", x=0)]))
    assert is_empty(apply_rule(CTX, rule, a))


# ---------------------------------------------------------------------------
# create


def test_create_appends_fresh_letter(chain):
    ast, cfg, sem, edges = chain
    create_e = edges["Create"]
    word = [letter(0, cfg.exit, x=5, nxt=1), letter(1, create_e.src, x=0, nxt=0)]
    a = normalize(LatticeAutomaton.from_word(word))
    rule = [r for r in sem.rules if r.name.startswith("create")][0]
    img = apply_rule(sem.ctx, rule, a)
    # concrete oracle: fresh id is the word length (2)
    conc = tuple(ConcreteLocalState(int(l.pid.lo), l.loc,
                                    tuple(sorted({
                                        "x": dict(l.env.items).get("x", Interval.point(0)).lo,
                                        "next": dict(l.env.items).get("next", Interval.point(0)).lo}.items())))
                 for l in word)
    succs = [config_word(c) for c in post(cfg, conc)]
    created = [w for w in succs if len(w) == 3]
    assert created and all(w[2][0] == 2 for w in created)
    for w in created:
        assert accepts_concrete(sem.ctx, img, w)
    # the abstract fresh letter is pinned to id 2 with a zeroed environment
    spawned = [l for (_, l, _) in img.transitions if l.loc == cfg.entry]
    assert spawned and all(l.pid == Interval.point(2) for l in spawned)


def test_create_fresh_id_on_single_letter(chain):
    ast, cfg, sem, edges = chain
    create_e = edges["Create"]
    a = normalize(LatticeAutomaton.from_word([letter(0, create_e.src, x=1, nxt=0)]))
    rule = [r for r in sem.rules if r.name.startswith("create")][0]
    img = apply_rule(sem.ctx, rule, a)
    two = ((0, create_e.dst, (("next", F(1)), ("x", F(1)))),
           (1, cfg.entry, (("next", F(0)), ("x", F(0)))))
    assert accepts_concrete(sem.ctx, img, two)


# ---------------------------------------------------------------------------
# broadcast


def test_broadcast_requires_everyone_at_location():
    src = '''
    x := id;
    broadcast(0, x);
    '''
    ast = parse(src)
    sem = compile_program(ast, "interval", 2)
    bcast = [r for r in sem.rules if r.name.startswith("broadcast")][0]
    # one letter elsewhere: no contribution
    off = normalize(LatticeAutomaton.from_word([
        AbstractLocalState(Interval.point(0), "l1", IntervalEnv.make({"x": Interval.point(0)})),
        AbstractLocalState(Interval.point(1), "l0", IntervalEnv.make({"x": Interval.point(1)})),
    ]))
    assert is_empty(apply_rule(sem.ctx, bcast, off))
    # all at the broadcast location: the root value spreads
    on = normalize(LatticeAutomaton.from_word([
        AbstractLocalState(Interval.point(0), "l1", IntervalEnv.make({"x": Interval.point(0)})),
        AbstractLocalState(Interval.point(1), "l1", IntervalEnv.make({"x": Interval.point(1)})),
    ]))
    img = apply_rule(sem.ctx, bcast, on)
    spread = ((0, "l2", (("x", F(0)),)), (1, "l2", (("x", F(0)),)))
    assert accepts_concrete(sem.ctx, img, spread)


# ---------------------------------------------------------------------------
# reduce: the three collector rules


@pytest.fixture(scope="module")
def sum2():
    ast = parse(load_program("sum_reduce.prog"))
    sem = compile_program(ast, "interval", 2)
    spawn, swap, deliver = sem.rules
    return sem, spawn, swap, deliver


def rl(pid, loc, res, total=0):
    return AbstractLocalState(Interval.point(pid), loc, IntervalEnv.make({
        "res": Interval.point(res), "total": Interval.point(total)}))


def coll(total):
    return AbstractLocalState(Interval.point(-1), collector_loc("l1"),
                              IntervalEnv.make({"total": Interval.point(total)}))


def test_reduce_neutral_elements():
    plus = parse("rat t; rat s; reduce(t, s, +, 0);")
    times = parse("rat t; rat s; reduce(t, s, *, 0);")
    for ast, neutral in ((plus, F(0)), (times, F(1))):
        sem = compile_program(ast, "interval", 2)
        spawn = sem.rules[0]
        (collector_spec,) = spawn.f_specs[0]
        assert collector_spec.updates[0][1] == E.Const(neutral)
        assert collector_spec.pid == ("const", F(-1))


def test_reduce_unsupported_operator():
    class FakeEdge:
        pass

    edge = Edge("l0", Reduce("t", "s", "+", E.Const(F(0))), "l1")
    bad = Edge("l0", Reduce("t", "s", "-", E.Const(F(0))), "l1")
    make_reduce_rules(edge)
    with pytest.raises(Exception):
        make_reduce_rules(bad)


def test_reduce_sweep_golden(sum2):
    """The collector sweep on res = 1/2, 1/4: spawn locks and prepends the
    collector with a zero accumulator, each swap folds one value, delivery
    unlocks everyone and writes 3/4 into the root."""
    sem, spawn, swap, deliver = sum2
    at_reduce = normalize(LatticeAutomaton.from_word([
        rl(0, "l1", F(1, 2)), rl(1, "l1", F(1, 4))]))
    lk = lock_loc("l1")

    s1 = apply_rule(sem.ctx, spawn, at_reduce)
    w1 = (
        (-1, collector_loc("l1"), (("res", F(0)), ("total", F(0)))),
        (0, lk, (("res", F(1, 2)), ("total", F(0)))),
        (1, lk, (("res", F(1, 4)), ("total", F(0)))),
    )
    assert accepts_concrete(sem.ctx, s1, w1)

    s2 = apply_rule(sem.ctx, swap, s1)
    w2 = (
        (0, lk, (("res", F(1, 2)), ("total", F(0)))),
        (-1, collector_loc("l1"), (("res", F(0)), ("total", F(1, 2)))),
        (1, lk, (("res", F(1, 4)), ("total", F(0)))),
    )
    assert accepts_concrete(sem.ctx, s2, w2)

    s3 = apply_rule(sem.ctx, swap, s2)
    w3 = (
        (0, lk, (("res", F(1, 2)), ("total", F(0)))),
        (1, lk, (("res", F(1, 4)), ("total", F(0)))),
        (-1, collector_loc("l1"), (("res", F(0)), ("total", F(3, 4)))),
    )
    assert accepts_concrete(sem.ctx, s3, w3)

    s4 = apply_rule(sem.ctx, deliver, s3)
    w4 = (
        (0, "l2", (("res", F(1, 2)), ("total", F(3, 4)))),
        (1, "l2", (("res", F(1, 4)), ("total", F(0)))),
    )
    assert accepts_concrete(sem.ctx, s4, w4)


def test_reduce_swap_exhausted_then_deliver(sum2):
    sem, spawn, swap, deliver = sum2
    rightmost = normalize(LatticeAutomaton.from_word([
        rl(0, lock_loc("l1"), F(1, 2)), rl(1, lock_loc("l1"), F(1, 4)), coll(F(3, 4))]))
    assert is_empty(apply_rule(sem.ctx, swap, rightmost))
    assert not is_empty(apply_rule(sem.ctx, deliver, rightmost))


def test_reduce_letter_count_invariant(sum2):
    sem, spawn, swap, deliver = sum2
    at_reduce = normalize(LatticeAutomaton.from_word([
        rl(0, "l1", F(1, 2)), rl(1, "l1", F(1, 4))]))
    s1 = apply_rule(sem.ctx, spawn, at_reduce)
    universe = [-1, 0, F(1, 2), F(1, 4), F(3, 4), 1]
    assert {len(w) for w in bounded_language(sem.ctx, s1, 4, universe)} == {3}
    s2 = apply_rule(sem.ctx, swap, s1)
    assert {len(w) for w in bounded_language(sem.ctx, s2, 4, universe)} == {3}
    s4 = apply_rule(sem.ctx, deliver, s2)
    # deliver needs the collector at the right end; after one swap it is
    # mid-word, so the only contribution is empty
    s3 = apply_rule(sem.ctx, swap, s2)
    s5 = apply_rule(sem.ctx, deliver, s3)
    assert {len(w) for w in bounded_language(sem.ctx, s5, 4, universe)} == {2}


# ---------------------------------------------------------------------------
# Theorem-style soundness against the word-level interpreter


def _random_rule(rng):
    locs = ["l0", "l1"]
    n = rng.randint(1, 2)
    words = []
    for _ in range(n):
        loc = rng.choice(locs)
        words.append((GuardElement.at(loc),))
    stars = tuple(rng.choice([TOP_GUARD, GuardElement.at(rng.choice(locs))])
                  for _ in range(n + 1))
    f_specs = [()]
    for i in range(n):
        outs = []
        for _ in range(rng.randint(0, 2)):
            base = rng.randint(0, n - 1)
            updates = ()
            if rng.random() < 0.5:
                updates = (("x", E.BinOp("+", E.Var("x"), E.Const(F(rng.randint(-1, 1))))),)
            conds = ()
            if rng.random() < 0.3:
                conds = ((base, E.Const(F(rng.randint(-1, 2)))),)
            outs.append(LetterOut(base=base, loc=rng.choice(locs),
                                  updates=updates, conds=conds))
        f_specs.append(tuple(outs))
    f_specs.append(())
    h_specs = tuple(IDENTITY_H for _ in range(n + 1))
    return RewriteRule("rnd", stars, tuple(words), tuple(f_specs), h_specs)


def _random_automaton(rng):
    locs = ["l0", "l1"]
    edges = set()
    nstates = rng.randint(2, 3)
    for _ in range(rng.randint(1, 4)):
        s, t = rng.randint(0, nstates - 1), rng.randint(0, nstates - 1)
        lo_p = rng.randint(-2, 1)
        lo_x = rng.randint(-2, 1)
        env = IntervalEnv.make({"x": Interval.range(lo_x, rng.randint(lo_x, 2))})
        lbl = AbstractLocalState(Interval.range(lo_p, rng.randint(lo_p, 2)),
                                 rng.choice(locs), env)
        edges.add((s, lbl, t))
    return LatticeAutomaton(frozenset(range(nstates)), frozenset({0}),
                            frozenset({rng.randint(0, nstates - 1)}), frozenset(edges))


def test_rule_image_inclusion_randomized():
    """Direct word-level rewriting of every accepted atom word lands inside
    the applied-rule automaton (Theorem-1 direction)."""
    ctx = DomainContext("interval", ("x",))
    rng = random.Random(909)
    universe = list(range(-2, 3))
    checked = 0
    for trial in range(100):
        rule = _random_rule(rng)
        a = normalize(_random_automaton(rng))
        if a.is_trivially_empty:
            continue
        img = apply_rule(ctx, rule, a)
        words = sorted(bounded_language(ctx, a, 3, universe))
        rng.shuffle(words)
        for w in words[:8]:
            for out in rule_image_words(rule, w):
                checked += 1
                assert accepts_concrete(ctx, img, out), (trial, w, out)
    assert checked > 100  # guard against a vacuous run


# ---------------------------------------------------------------------------
# Shared-state assembly against the per-instance union


def _reference_segment(ctx, a, guard, h, starts, ends, matched, sink):
    """The star image restricted to start-to-end paths, or None when no
    word fits: computed afresh for every instance."""
    if guard is None:
        return () if starts & ends else None
    trans = []
    for (s, l, t) in a.transitions:
        m = meet_guard(ctx, l, guard, sink)
        if m is not None:
            img = h.apply(ctx, m, matched, sink)
            if img is not None:
                trans.append((s, img, t))
    keep = live(trans, starts, ends)
    kept = tuple((s, l, t) for (s, l, t) in trans if s in keep and t in keep)
    return kept if kept or starts & ends else None


def _reference_matches(ctx, w, a):
    out = []
    for q in sorted(a.states, key=repr):
        for labels, end in path_labels(a, q, len(w)):
            vs = [meet_guard(ctx, l, g) for l, g in zip(labels, w)]
            if None not in vs:
                out.append(MatchTriple(q, tuple(vs), end))
    return out


def _static(trans, starts, ends):
    shortest, longest = path_lengths(trans, starts, ends)
    return shortest, shortest if shortest == longest else None


def _reference_instance(ctx, rule, a, combo, flat, qfs, sink, at):
    n = len(rule.words)
    segments = []
    for i in range(n + 1):
        starts = a.initial if i == 0 else frozenset({combo[i - 1].end})
        ends = frozenset({combo[i].begin}) if i < n else qfs
        seg = _reference_segment(ctx, a, rule.stars[i], rule.h_specs[i], starts, ends,
                                 flat, sink)
        if seg is None:
            return None
        segments.append((seg, starts, ends))
    inst = InstanceInfo()
    if rule.track_length:
        lengths = [_static(seg, st, en) for seg, st, en in segments]
        statics = [l[1] for l in lengths[1:]]
        suffix = None
        if None not in statics:
            suffix = sum(statics) + sum(len(w) for w in rule.words[1:])
        min_len = lengths[0][0] + sum(len(w) for w in rule.words) \
            + sum(l[0] for l in lengths[1:])
        inst = InstanceInfo(suffix_len=suffix, min_len=max(1, min_len))
    f_words = []
    for spec in rule.f_specs:
        word = [eval_letter_out(ctx, out, flat, inst, sink) for out in spec]
        if None in word:
            return None
        f_words.append(word)
    bld = Builder()
    bld.initial, bld.final = {("S",)}, {("T",)}
    for i, (seg, _, _) in enumerate(segments):
        for (s, l, t) in seg:
            bld.add(at(i, s), l, at(i, t))
    for q0 in a.initial:
        bld.add_path(("S",), f_words[0], at(0, q0))
    for i in range(n):
        bld.add_path(at(i, combo[i].begin), f_words[i + 1], at(i + 1, combo[i].end))
    for qf in qfs:
        bld.add_path(at(n, qf), f_words[n + 1], ("T",))
    return bld.build()


def reference_instances(ctx, rule, a, sink, tagged=None):
    """The automata of a rule application's instances, one per instance,
    with the segments of every instance cut out afresh; and whether
    apply_rule assembles this application in one automaton (at most one
    guard word, no suffix lengths, and f0 and f(n+1) empty or a single
    instance).

    tagged True runs segment i of every instance on the states (i, q),
    with the matched tuple where h copies from it; False runs every
    segment on the automaton's own states q; None tags exactly the shared
    applications."""
    a = normalize(a)
    if a.is_trivially_empty:
        return [], True
    match_sets = [_reference_matches(ctx, w, a) for w in rule.words]
    combos = list(itertools.product(*match_sets))
    shared = len(rule.words) <= 1 and not rule.track_length and \
        (len(combos) == 1 or not (rule.f_specs[0] or rule.f_specs[-1]))
    if tagged is None:
        tagged = shared
    results = []
    for combo in combos:
        flat = tuple(v for m in combo for v in m.labels)

        def at(i, q, flat=flat):
            if not tagged:
                return q
            return (i, q, flat) if rule.h_specs[i].updates else (i, q)

        groups = [a.final]
        if rule.track_length and combo:
            last = frozenset({combo[-1].end})
            by_len = {}
            for qf in sorted(a.final, key=repr):
                seg = _reference_segment(ctx, a, rule.stars[-1], rule.h_specs[-1], last,
                                         {qf}, (), sink)
                if seg is not None:
                    by_len.setdefault(_static(seg, last, {qf}), set()).add(qf)
            groups = [frozenset(g) for _, g in sorted(by_len.items(), key=repr)]
        for qfs in groups:
            auto = _reference_instance(ctx, rule, a, combo, flat, qfs, sink, at)
            if auto is not None:
                results.append(auto)
    return results, shared


def exact_union(autos):
    """One normalize of the juxtaposition of the automata."""
    bld = Builder()
    for k, x in enumerate(autos):
        bld.initial |= {(k, q) for q in x.initial}
        bld.final |= {(k, q) for q in x.final}
        bld.include(x, lambda q, k=k: (k, q))
    return normalize(bld.build())


REF_LOCS = ("l0", "l1", lock_loc("l0"), collector_loc("l0"))
REF_INTERVAL = DomainContext("interval", ("x", "y"))
REF_AFFINE = DomainContext("affine", ("x", "y"))


def _ref_rules(rng):
    """Every rule generator on locations the random automata use, plus
    one-word rules with non-empty f0 and f(n+1), two-word random rules, and
    a copy rewriter and a star guard that divide."""
    send = Edge("l0", Send(rng.choice([None, parse_expr("id + 1")]), "x"), "l1")
    recv = Edge("l1", Receive(rng.choice([None, parse_expr("id - 1")]), "x"), "l0")
    out = make_send_receive_rule(send, recv)
    root = rng.choice(["0", "1", "id - 1"])
    out.append(make_broadcast_rule(Edge("l0", Broadcast(parse_expr(root), "x"), "l1")))
    out.append(make_create_rule(Edge("l0", Create("y"), "l1"), "l1"))
    op = rng.choice(REDUCE_OPS)
    out += make_reduce_rules(Edge("l0", Reduce("y", "x", op, parse_expr("0")), "l1"))
    divides = GuardElement.at(None, parse_expr("x >= 1 / id"))
    div_copy = HRewrite(kind="copy", loc="l1",
                        updates=(("x", E.BinOp("/", E.PosVar(0, "x"), E.Var("x"))),))
    out.append(RewriteRule(
        "divide", stars=(divides, GuardElement.at("l1")),
        words=((GuardElement.at(rng.choice(REF_LOCS)),),),
        f_specs=((), (LetterOut(base=0, loc="l1"),), ()),
        h_specs=(div_copy, IDENTITY_H)))
    ends = LetterOut(base=0, loc=rng.choice(REF_LOCS),
                     updates=(("y", E.PosVar(0, "x")),))
    out.append(RewriteRule(
        "frame", stars=(TOP_GUARD, TOP_GUARD),
        words=((GuardElement.at(rng.choice(REF_LOCS)),),),
        f_specs=((ends,), (LetterOut(base=0, loc="l0"),), (ends,)),
        h_specs=(IDENTITY_H, IDENTITY_H)))
    for _ in range(2):
        r = _random_rule(rng)
        out.append(RewriteRule(r.name, r.stars, r.words, r.f_specs,
                               tuple(rng.choice([IDENTITY_H, HRewrite("relocate", "l1")])
                                     for _ in r.h_specs)))
    return out


def _ref_letter(rng, ctx):
    lo = rng.randint(-1, 2)
    pid = Interval.range(lo, lo + rng.randint(0, 2))
    if ctx.kind == "interval":
        x = rng.randint(-2, 2)
        env = IntervalEnv.make({"x": Interval.range(x, x + rng.randint(0, 2)),
                                "y": Interval.point(rng.randint(0, 1))})
    else:
        rows = [({"x": F(1), "id": F(-rng.randint(-2, 2))}, F(rng.randint(-3, 3)))]
        env = AffineEnv.from_rows(ctx.affine_vars(), rows if rng.random() < 0.7 else [])
    return AbstractLocalState(pid, rng.choice(REF_LOCS), env)


def _ref_automaton(rng, ctx):
    n = rng.randint(2, 4)
    edges = {(rng.randint(0, n - 1), _ref_letter(rng, ctx), rng.randint(0, n - 1))
             for _ in range(rng.randint(3, 7))}
    return LatticeAutomaton(frozenset(range(n)), frozenset({0}),
                            frozenset(rng.sample(range(n), rng.randint(1, 2))),
                            frozenset(edges))


def _layered_automaton(rng, ctx):
    """Acyclic, every word of one length: the shape of a reach automaton
    under --procs n without process creation."""
    layers = [[(k, j) for j in range(rng.randint(1, 2))] for k in range(rng.randint(2, 5))]
    edges = {(rng.choice(layers[k]), _ref_letter(rng, ctx), rng.choice(layers[k + 1]))
             for k in range(len(layers) - 1) for _ in range(rng.randint(1, 3))}
    return LatticeAutomaton(frozenset(q for layer in layers for q in layer),
                            frozenset({layers[0][0]}), frozenset(layers[-1]),
                            frozenset(edges))


def _check_against_reference(ctx, rng, automaton, tagged, trials):
    """apply_rule gives the union of the reference instances, exact where
    it shares states and folded by union_all otherwise, with the same
    alarms; and it is never coarser than union_all's fold: the same
    canonical shape, each label below the fold's."""
    images = alarmed = 0
    kinds = set()
    for trial in range(trials):
        a = automaton(rng, ctx)
        for rule in _ref_rules(rng):
            want_sink, sink = AlarmSink(), AlarmSink()
            instances, shared = reference_instances(ctx, rule, a, want_sink, tagged)
            fold = union_all(instances)
            got = apply_rule(ctx, rule, a, sink)
            assert got == (exact_union(instances) if shared else fold), (trial, rule.name)
            assert sink.alarms == want_sink.alarms, (trial, rule.name)
            assert shape(got) == shape(fold) and includes(fold, got), (trial, rule.name)
            if not is_empty(got):
                images += 1
                kinds.add(rule.name.split("[")[0])
            alarmed += bool(sink.alarms)
    assert images >= 100 and alarmed >= 10
    assert kinds >= {"send_recv", "recv_send", "broadcast", "create", "reduce_spawn",
                     "reduce_swap", "reduce_deliver", "divide", "frame", "rnd"}


@pytest.mark.parametrize("ctx", [REF_INTERVAL, REF_AFFINE], ids=["interval", "affine"])
def test_apply_rule_matches_per_instance_reference(ctx):
    """Against the per-instance reference, for every kind of rule (shared
    and per-instance assembly, copy rewriters, create's suffix lengths,
    the empty star of reduce delivery), on seeded random automata with
    cycles and final states before a match; the reference runs the
    segments of shared applications on (i, q) as apply_rule does."""
    _check_against_reference(ctx, random.Random(707 if ctx is REF_INTERVAL else 708),
                             _ref_automaton, None, 80)


@pytest.mark.parametrize("ctx", [REF_INTERVAL, REF_AFFINE], ids=["interval", "affine"])
def test_apply_rule_untagged_reference_on_fixed_length_words(ctx):
    """Where every word has one length and no cycle (--procs n), no state
    of one segment lies in another, so the reference's instances on the
    automaton's own states q serve for every rule."""
    _check_against_reference(ctx, random.Random(717 if ctx is REF_INTERVAL else 718),
                             _layered_automaton, False, 120)


# ---------------------------------------------------------------------------
# Location-indexed matching, instances by viable prefix and memoized
# segment reach, against the full scans they replace


def _scan_matches(ctx, w, a):
    """matches started from every state, each step scanning every move of
    the current state."""
    out = []
    for q in sorted(a.states, key=repr):
        acc = [((), q)]
        for g in w:
            acc = [(vs + (m,), t) for vs, cur in acc for (l, t) in a.out_by_src.get(cur, ())
                   for m in (meet_guard(ctx, l, g),) if m is not None]
        out.extend(MatchTriple(q, vs, end) for vs, end in acc)
    return out


def _product_instances(stars, rule, match_sets):
    """The instances of apply_rule as the full product of the match sets,
    every combination's segments checked in order up to the first that
    no word fits, its final groups formed before the first check."""
    a = stars.a
    out = []
    for combo in itertools.product(*match_sets):
        flat = tuple(v for m in combo for v in m.labels)
        for qfs in rules._final_groups(stars, rule, combo[-1] if combo else None):
            bounds = tuple(zip((a.initial, *(frozenset({m.end}) for m in combo)),
                               (*(frozenset({m.begin}) for m in combo), qfs)))
            if all(stars.viable(g, h, starts, ends, flat) for g, h, (starts, ends)
                   in zip(rule.stars, rule.h_specs, bounds)):
                lengths = [
                    rules._path_lengths(stars.segment(g, h, starts, ends, flat), starts, ends)
                    for g, h, (starts, ends) in zip(rule.stars, rule.h_specs, bounds)
                ] if rule.track_length else None
                f_words = rules._f_images(stars.ctx, rule, flat, lengths, stars.sink)
                if f_words is not None:
                    out.append((combo, flat, bounds, f_words))
    return out, len(match_sets) <= 1 and not rule.track_length and \
        (len(list(itertools.product(*match_sets))) == 1
         or not (rule.f_specs[0] or rule.f_specs[-1]))


def _product_apply(ctx, rule, a, sink):
    """apply_rule by the full product: (image, instances, star keys built)."""
    stars = rules.StarImages(ctx, normalize(a), sink)
    match_sets = [_scan_matches(ctx, w, stars.a) for w in rule.words]
    if stars.a.is_trivially_empty or any(not ms for ms in match_sets):
        return LatticeAutomaton.empty(), [], set()
    instances, shared = _product_instances(stars, rule, match_sets)
    if shared:
        image = rules._shared_image(stars, rule, instances)
    else:
        image = union_all([rules._instance_image(stars, rule, *inst) for inst in instances])
    return image, instances, set(stars._memo)


def _demo_automata():
    """(context, automaton, rules) of compiled demos: the initial automaton
    and the images of the first four steps from it, whose letters sit at
    the rules' send, receive, create and reduce locations."""
    out = []
    for name, domain, procs in (("dining_philosophers.prog", "interval", 4),
                                ("dining_philosophers.prog", "affine", 3),
                                ("create_chain.prog", "interval", "any"),
                                ("create_chain.prog", "affine", 3),
                                ("sum_reduce.prog", "interval", 3),
                                ("deadlock_random.prog", "affine", 3)):
        sem = compile_program(parse(load_program(name)), domain, procs)
        a = normalize(sem.initial)
        for _ in range(5):
            out.append((sem.ctx, a, sem.rules))
            a = step(sem, a)
    return out


@pytest.fixture(scope="module")
def demo_automata():
    return _demo_automata()


def _random_cases(ctx, seed, trials):
    rng = random.Random(seed)
    for trial in range(trials):
        make = _ref_automaton if trial % 2 else _layered_automaton
        yield ctx, make(rng, ctx), _ref_rules(rng)


def _all_cases(demo_automata):
    yield from demo_automata
    for ctx, seed in ((REF_INTERVAL, 727), (REF_AFFINE, 728)):
        yield from _random_cases(ctx, seed, 60)


def test_matches_start_only_where_the_first_guard_reads(demo_automata):
    """matches against a scan from every state, on seeded random automata
    of both domains and on the iterates of the compiled demos: the same
    triples in the same order, for every guard word of the rules, every
    single location guard and the any-location guard."""
    found = 0
    for ctx, a, rule_list in _all_cases(demo_automata):
        for b in (a, normalize(a)):
            words = {w for r in rule_list for w in r.words}
            words |= {(g,) for r in rule_list for g in r.stars if g is not None}
            words |= {(GuardElement.at(l.loc),) for (_, l, _) in b.transitions}
            words |= {(TOP_GUARD, TOP_GUARD)}
            for w in sorted(words, key=repr):
                want = _scan_matches(ctx, w, b)
                assert matches(ctx, w, b) == want, w
                found += len(want)
    assert found >= 1000


def test_apply_rule_by_viable_prefix_equals_the_full_product(demo_automata):
    """apply_rule, whose instances grow match by match, against the full
    product of the match sets checked combination by combination: the
    same instances in the same order, the same image (== and to_json),
    the same alarms and the same star images built, for every rule kind
    (a broadcast copy rewriter and a create rule among them), on seeded
    random automata of both domains and the compiled demos' iterates."""
    from latreach.export import to_json
    kinds = set()
    pruned = images = alarmed = 0
    for ctx, a, rule_list in _all_cases(demo_automata):
        for rule in rule_list:
            want_sink, sink = AlarmSink(), AlarmSink()
            want, want_instances, want_keys = _product_apply(ctx, rule, a, want_sink)
            stars = rules.StarImages(ctx, normalize(a), sink)
            got = apply_rule(ctx, rule, a, stars=stars)
            assert got == want and to_json(got) == to_json(want), rule.name
            assert sink.alarms == want_sink.alarms, rule.name
            assert set(stars._memo) == want_keys, rule.name
            if not stars.a.is_trivially_empty:
                match_sets = [stars.match_set(w) for w in rule.words]
                if all(match_sets):
                    got_instances = list(rules._instances(stars, rule, match_sets))
                    assert got_instances == want_instances, rule.name
                    combos = len(list(itertools.product(*match_sets)))
                    pruned += combos > len({inst[0] for inst in want_instances})
            if not is_empty(got):
                images += 1
                kinds.add(rule.name.split("[")[0])
            alarmed += bool(sink.alarms)
    assert images >= 300 and alarmed >= 10 and pruned >= 100
    assert kinds >= {"send_recv", "recv_send", "broadcast", "create", "reduce_spawn",
                     "reduce_swap", "reduce_deliver", "divide", "frame", "rnd"}


def test_segments_from_memoized_reach_equal_live_on_the_star_image(demo_automata):
    """StarImages.segment, from memoized forward and backward reach, against
    graph.live on the star image; viable against the same; and each star
    image, built from the transitions at the guard's location, against a
    scan of every transition."""
    segments = 0
    for ctx, a, rule_list in _all_cases(demo_automata):
        stars = rules.StarImages(ctx, a)
        guards = {(g, h) for r in rule_list for g, h in zip(r.stars, r.h_specs)
                  if g is not None and not h.updates}
        guards |= {(GuardElement.at(l.loc), IDENTITY_H) for (_, l, _) in a.transitions}
        sets = [a.initial, a.final] + [frozenset({q}) for q in sorted(a.states, key=repr)]
        for g, h in sorted(guards, key=repr):
            image = stars.image(g, h, ())
            scan = [(s, img, t) for (s, l, t) in a.transitions
                    for m in (meet_guard(ctx, l, g),) if m is not None
                    for img in (h.apply(ctx, m, ()),) if img is not None]
            assert sorted(image, key=repr) == sorted(scan, key=repr)
            for starts in sets:
                for ends in sets:
                    keep = live(image, starts, ends)
                    want = tuple(e for e in image if e[0] in keep and e[2] in keep)
                    assert stars.segment(g, h, starts, ends, ()) == want
                    assert stars.viable(g, h, starts, ends, ()) == bool(want or starts & ends)
                    segments += bool(want)
    assert segments >= 1000
