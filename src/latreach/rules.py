"""Symbolic rewriting rules and their application to lattice automata.

A rule pairs a guard (g0)* w1 (g1)* ... wn (gn)* with rewriters
f0 h0 f1 h1 ... hn f(n+1): each fi inserts a (possibly empty) sequence of
letters built from the matched tuple, each hi maps the letters of a
starred segment.  Communications, process creation and the reduce
collector sweep are all instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import expr as E
from .automaton import (
    Builder,
    LatticeAutomaton,
    matches,
    normalize,
    union_all,
)
from .domain import (
    AlarmSink,
    Constraint,
    DomainContext,
    GuardAtom,
    GuardElement,
    TOP_GUARD,
    meet_guard,
    relational_updates,
)
from .graph import live, path_lengths
from .syntax import Broadcast, Create, Receive, Reduce, Send, parse_expr
from .transducer import (
    InstanceInfo,
    LetterOut,
    eval_letter_out,
    guard_from_json,
    guard_to_json,
    letter_out_from_json,
    letter_out_to_json,
)


# ---------------------------------------------------------------------------
# h-rewriters: applied to every letter of a starred segment


@dataclass(frozen=True)
class HRewrite:
    """Rewriter for starred-segment letters: h(x, v1..vN).

    kind "identity" is the Id* rewriter; "relocate" moves the letter to a
    fixed location; "copy" additionally assigns variables from the matched
    tuple (broadcast value distribution)."""

    kind: str = "identity"
    loc: Optional[str] = None
    updates: tuple = ()  # (var, expr with PosVar atoms)

    def apply(self, ctx, letter, matched, sink=None):
        if self.kind == "identity":
            return letter
        out = letter
        if self.updates:
            out = relational_updates(ctx, out, len(matched), self.updates,
                                     matched + (out,), sink)
            if out is None:
                return None
        if self.loc is not None:
            out = out.relocate(self.loc)
        return out


IDENTITY_H = HRewrite()


@dataclass(frozen=True)
class RewriteRule:
    """Guard/rewriter pair in the alternating normal form.

    stars[i] is gi (None = the segment must be empty); words[i] is w(i+1),
    a non-empty guard word.  f_specs has n+2 entries (letter insertions);
    h_specs has n+1 entries (segment rewriters).  When track_length is set
    the instance analysis computes suffix lengths so FreshId resolves
    relationally (create rules)."""

    name: str
    stars: tuple
    words: tuple
    f_specs: tuple
    h_specs: tuple
    track_length: bool = False

    def __post_init__(self):
        n = len(self.words)
        assert len(self.stars) == n + 1
        assert len(self.f_specs) == n + 2
        assert len(self.h_specs) == n + 1
        assert all(len(w) >= 1 for w in self.words)


# ---------------------------------------------------------------------------
# star images and segment extraction


class StarImages:
    """Memo of the star images of one rule application.

    The star image of (g, h) is the automaton's transitions whose letters
    meet g to non-bottom, rewritten by h.  It depends on the matched tuple
    only when h assigns from it (the broadcast copy), so only then is the
    tuple part of the key.  Images are built on first use, so the meets
    that run (and the alarms they raise) are those of building every
    segment afresh, each run once."""

    def __init__(self, ctx: DomainContext, a: LatticeAutomaton, sink: AlarmSink = None):
        self.ctx = ctx
        self.a = a
        self.sink = sink
        self._memo = {}

    def image(self, guard, h: HRewrite, matched):
        key = (guard, h, matched if h.updates else ())
        trans = self._memo.get(key)
        if trans is None:
            trans = []
            for (s, l, t) in self.a.transitions:
                m = meet_guard(self.ctx, l, guard, self.sink)
                if m is None:
                    continue
                img = h.apply(self.ctx, m, matched, self.sink)
                if img is not None:
                    trans.append((s, img, t))
            self._memo[key] = trans
        return trans

    def segment(self, guard, h: HRewrite, starts, ends, matched):
        """The (g)* segment between two state sets: the star image
        restricted to states lying on some start-to-end path.

        Returns the kept transitions, or None when no word (not even the
        empty one) fits; the empty word fits whenever a start is also an
        end."""
        if guard is None:  # segment that must stay empty
            return () if starts & ends else None
        trans = self.image(guard, h, matched)
        keep = live(trans, starts, ends)
        kept = tuple((s, l, t) for (s, l, t) in trans if s in keep and t in keep)
        if kept or (starts & ends):
            return kept
        return None


def _path_lengths(trans, starts, ends):
    """(shortest, static) path length between the state sets over the kept
    transitions; static is None when lengths differ or a cycle is
    reachable (then word lengths through the segment are unbounded)."""
    shortest, longest = path_lengths(trans, starts, ends)
    return (shortest, shortest if shortest == longest else None)


# ---------------------------------------------------------------------------
# rule application


def apply_rule(ctx: DomainContext, rule: RewriteRule, a: LatticeAutomaton,
               sink: AlarmSink = None) -> LatticeAutomaton:
    """Sound image of the automaton's language under the rule.

    For every combination of matching sequences, the guarded segments are
    cut out of the automaton (states shared, as in the product-free
    construction), rewritten by the h-rewriters, joined by the replaced
    match words and the inserted f-images, and the per-combination
    automata are unioned.  An instance whose f- or h-image contains a
    bottom letter contributes nothing, which is what enforces
    communication partner conditions.

    The guard meets and h-rewrites of the stars do not depend on the
    instance (except a copy rewriter's on the matched tuple), so one
    StarImages memo per call computes each star image once; an instance
    only restricts the images to its own start and end states."""
    a = normalize(a)
    if a.is_trivially_empty:
        return LatticeAutomaton.empty()
    match_sets = [matches(ctx, w, a) for w in rule.words]
    if any(not ms for ms in match_sets):
        return LatticeAutomaton.empty()

    stars = StarImages(ctx, a, sink)
    results = []
    for combo in _combinations(match_sets):
        flat = tuple(v for m in combo for v in m.labels)
        for qfs in _final_groups(stars, rule, combo):
            auto = _apply_instance(stars, rule, combo, flat, qfs)
            if auto is not None and not auto.is_trivially_empty:
                results.append(auto)
    if not results:
        return LatticeAutomaton.empty()
    return union_all(results)


def _combinations(match_sets):
    if not match_sets:
        return [()]
    out = [()]
    for ms in match_sets:
        out = [prev + (m,) for prev in out for m in ms]
    return out


def _final_groups(stars: StarImages, rule, combo):
    """Final-state grouping: rules that resolve fresh identifiers get one
    instance per static-suffix class (the suffix length feeds the
    identifier); everything else takes all final states at once."""
    if not rule.track_length or not combo:
        return [stars.a.final]
    last_end = combo[-1].end
    groups = {}
    for qf in sorted(stars.a.final, key=repr):
        seg = stars.segment(rule.stars[-1], rule.h_specs[-1], {last_end}, {qf}, ())
        if seg is None:
            continue
        key = _path_lengths(seg, {last_end}, {qf})
        groups.setdefault(key, set()).add(qf)
    return [frozenset(g) for _, g in sorted(groups.items(), key=lambda kv: repr(kv))]


def _apply_instance(stars: StarImages, rule, combo, flat, qfs):
    ctx, sink = stars.ctx, stars.sink
    n = len(rule.words)
    q0s = stars.a.initial
    segments = []
    for i in range(n + 1):
        starts = q0s if i == 0 else frozenset({combo[i - 1].end})
        ends = frozenset({combo[i].begin}) if i < n else qfs
        seg = stars.segment(rule.stars[i], rule.h_specs[i], starts, ends, flat)
        if seg is None:
            return None
        segments.append((seg, starts, ends))

    inst = InstanceInfo()
    if rule.track_length:
        lengths = [_path_lengths(seg, st, en) for seg, st, en in segments]
        later_words = sum(len(w) for w in rule.words[1:])
        statics = [l[1] for l in lengths[1:]]
        suffix_static = None
        if all(s is not None for s in statics):
            suffix_static = sum(statics) + later_words
        min_len = lengths[0][0] + sum(len(w) for w in rule.words) \
            + sum(l[0] for l in lengths[1:])
        inst = InstanceInfo(suffix_len=suffix_static, min_len=max(1, min_len))

    f_words = []
    for spec in rule.f_specs:
        word = []
        for out in spec:
            img = eval_letter_out(ctx, out, flat, inst, sink)
            if img is None:
                return None
            word.append(img)
        f_words.append(word)

    # Assemble on the automaton's own states, as the original construction
    # does: segment transitions plus bridge paths for the f-images.
    bld = Builder()
    start_state = ("S",)
    end_state = ("T",)
    bld.initial = {start_state}
    bld.final = {end_state}
    for seg, _, _ in segments:
        for (s, l, t) in seg:
            bld.add(s, l, t)
    for q0 in sorted(q0s, key=repr):
        bld.add_path(start_state, f_words[0], q0, tag="f0")
    for i in range(n):
        bld.add_path(combo[i].begin, f_words[i + 1], combo[i].end, tag=f"f{i+1}")
    for qf in sorted(qfs, key=repr):
        bld.add_path(qf, f_words[n + 1], end_state, tag=f"f{n+1}")
    return bld.build()


# ---------------------------------------------------------------------------
# rule generators (communication / create / reduce schemas)


def _loc_guard(loc: str) -> GuardElement:
    return GuardElement.at(loc)


def make_send_receive_rule(edge_s, edge_r):
    """The two rules (sender before receiver in the word, and mirrored) for
    one send/receive instruction pair.  Partner conditions become id
    conditions of the inserted letters: unsatisfiable ids kill the
    instance."""
    assert isinstance(edge_s.instr, Send) and isinstance(edge_r.instr, Receive)
    send = edge_s.instr
    recv = edge_r.instr

    def conds(sender_pos, receiver_pos):
        out = []
        if send.target is not None:  # send to a computed id
            out.append((receiver_pos, E.at_position(send.target, sender_pos)))
        if recv.source is not None:  # receive from a computed id
            out.append((sender_pos, E.at_position(recv.source, receiver_pos)))
        return tuple(out)

    def build(name, sender_pos, receiver_pos):
        sender_out = LetterOut(base=sender_pos, loc=edge_s.dst,
                               conds=conds(sender_pos, receiver_pos))
        receiver_out = LetterOut(
            base=receiver_pos, loc=edge_r.dst,
            updates=((recv.var, E.PosVar(sender_pos, send.var)),),
            conds=conds(sender_pos, receiver_pos),
        )
        first, second = ((sender_out,), (receiver_out,)) if sender_pos == 0 \
            else ((receiver_out,), (sender_out,))
        return RewriteRule(
            name=name,
            stars=(TOP_GUARD, TOP_GUARD, TOP_GUARD),
            words=((_loc_guard(edge_s.src if sender_pos == 0 else edge_r.src),),
                   (_loc_guard(edge_r.src if sender_pos == 0 else edge_s.src),)),
            f_specs=((), first, second, ()),
            h_specs=(IDENTITY_H, IDENTITY_H, IDENTITY_H),
        )

    return [
        build(f"send_recv[{edge_s.src}->{edge_s.dst},{edge_r.src}->{edge_r.dst}]", 0, 1),
        build(f"recv_send[{edge_r.src}->{edge_r.dst},{edge_s.src}->{edge_s.dst}]", 1, 0),
    ]


def make_broadcast_rule(edge) -> RewriteRule:
    """All processes at the broadcast location; the root (whose id matches
    the root expression under its own environment) keeps its value and
    every other letter copies it."""
    assert isinstance(edge.instr, Broadcast)
    bc = edge.instr
    at_loc = _loc_guard(edge.src)
    root_guard = GuardElement.at(edge.src, GuardAtom(constraints=(Constraint("id", "==", bc.root),)))
    copy_h = HRewrite(kind="copy", loc=edge.dst,
                      updates=((bc.var, E.PosVar(0, bc.var)),))
    root_out = LetterOut(base=0, loc=edge.dst)
    return RewriteRule(
        name=f"broadcast[{edge.src}->{edge.dst}]",
        stars=(at_loc, at_loc),
        words=((root_guard,),),
        f_specs=((), (root_out,), ()),
        h_specs=(copy_h, copy_h),
    )


def make_create_rule(edge, entry_loc: str) -> RewriteRule:
    """Creator advances storing the fresh identifier; a zero-initialised
    letter with that identifier is appended at the end of the word."""
    assert isinstance(edge.instr, Create)
    create = edge.instr
    creator = LetterOut(base=0, loc=edge.dst, updates=((create.var, E.FreshId()),))
    spawned = LetterOut(base=None, loc=entry_loc, pid=("fresh",), reset_zero=True)
    return RewriteRule(
        name=f"create[{edge.src}->{edge.dst}]",
        stars=(TOP_GUARD, TOP_GUARD),
        words=((_loc_guard(edge.src),),),
        f_specs=((), (creator,), (spawned,)),
        h_specs=(IDENTITY_H, IDENTITY_H),
        track_length=True,
    )


REDUCE_NEUTRAL = {"+": Fraction(0), "*": Fraction(1)}
REDUCE_OPS = ("+", "*", "min", "max")


def lock_loc(loc: str) -> str:
    return f"{loc}_lock"


def collector_loc(loc: str) -> str:
    return f"{loc}_coll"


def make_reduce_rules(edge):
    """Three collector rules for reduce(acc, src, op, root).

    1. every letter at the reduce location: prepend a collector carrying
       the neutral accumulator and lock all letters;
    2. swap the collector with its right neighbour, folding the source
       value into the accumulator;
    3. collector at the right end: deliver the accumulator to the root,
       unlock everything to the successor location, drop the collector."""
    assert isinstance(edge.instr, Reduce)
    red = edge.instr
    if red.op not in REDUCE_OPS:
        raise ValueError(f"unsupported reduce operator {red.op!r}")
    at = edge.src
    locked = lock_loc(at)
    coll = collector_loc(at)
    lock_h = HRewrite(kind="relocate", loc=locked)
    unlock_h = HRewrite(kind="relocate", loc=edge.dst)

    if red.op in REDUCE_NEUTRAL:
        neutral_env = ((red.acc, E.Const(REDUCE_NEUTRAL[red.op])),)
    else:
        neutral_env = ()  # min/max start unconstrained (sound, imprecise)
    collector = LetterOut(base=None, loc=coll, pid=("const", Fraction(-1)),
                          updates=neutral_env)
    spawn = RewriteRule(
        name=f"reduce_spawn[{at}]",
        stars=(_loc_guard(at),),
        words=(),
        f_specs=((collector,), ()),
        h_specs=(lock_h,),
    )

    if red.op in ("+", "*"):
        fold = E.BinOp(red.op, E.Var(red.acc), E.PosVar(1, red.src))
    elif red.op == "min":
        fold = E.BinOp("min", E.Var(red.acc), E.PosVar(1, red.src))
    else:
        fold = E.BinOp("max", E.Var(red.acc), E.PosVar(1, red.src))
    swap = RewriteRule(
        name=f"reduce_swap[{at}]",
        stars=(_loc_guard(locked), _loc_guard(locked)),
        words=(( _loc_guard(coll), _loc_guard(locked)),),
        f_specs=((),
                 (LetterOut(base=1),
                  LetterOut(base=0, updates=((red.acc, fold),))),
                 ()),
        h_specs=(IDENTITY_H, IDENTITY_H),
    )

    root_guard = GuardElement.at(locked, GuardAtom(constraints=(Constraint("id", "==", red.root),)))
    deliver_root = LetterOut(base=0, loc=edge.dst,
                             updates=((red.acc, E.PosVar(1, red.acc)),))
    deliver = RewriteRule(
        name=f"reduce_deliver[{at}]",
        stars=(_loc_guard(locked), _loc_guard(locked), None),
        words=((root_guard,), (_loc_guard(coll),)),
        f_specs=((), (deliver_root,), (), ()),
        h_specs=(unlock_h, unlock_h, IDENTITY_H),
    )
    return [spawn, swap, deliver]


# ---------------------------------------------------------------------------
# JSON


def h_to_json(h: HRewrite):
    return {"kind": h.kind, "loc": h.loc,
            "updates": [[v, E.to_source(rhs)] for v, rhs in h.updates]}


def h_from_json(d) -> HRewrite:
    return HRewrite(d["kind"], d["loc"],
                    tuple((v, parse_expr(src)) for v, src in d["updates"]))


def rule_to_json(rule: RewriteRule):
    return {
        "name": rule.name,
        "stars": [None if g is None else guard_to_json(g) for g in rule.stars],
        "words": [[guard_to_json(g) for g in w] for w in rule.words],
        "f_specs": [[letter_out_to_json(o) for o in spec] for spec in rule.f_specs],
        "h_specs": [h_to_json(h) for h in rule.h_specs],
        "track_length": rule.track_length,
    }


def rule_from_json(d) -> RewriteRule:
    return RewriteRule(
        name=d["name"],
        stars=tuple(None if g is None else guard_from_json(g) for g in d["stars"]),
        words=tuple(tuple(guard_from_json(g) for g in w) for w in d["words"]),
        f_specs=tuple(tuple(letter_out_from_json(o) for o in spec) for spec in d["f_specs"]),
        h_specs=tuple(h_from_json(h) for h in d["h_specs"]),
        track_length=d["track_length"],
    )
