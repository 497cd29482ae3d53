"""Symbolic rewriting rules and their application to lattice automata.

A rule pairs a guard (g0)* w1 (g1)* ... wn (gn)* with rewriters
f0 h0 f1 h1 ... hn f(n+1): each fi inserts a (possibly empty) sequence of
letters built from the matched tuple, each hi maps the letters of a
starred segment.  Communications, process creation and the reduce
collector sweep are all instances.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
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
    DomainContext,
    GuardElement,
    TOP_GUARD,
    meet_guard,
    relational_updates,
)
from .graph import path_lengths, reachable
from .syntax import Broadcast, Create, Receive, Reduce, Send
from .transducer import (
    PLAIN_INSTANCE,
    InstanceInfo,
    LetterOut,
    eval_letter_out,
    memo_image,
)
from .value import frozen


# ---------------------------------------------------------------------------
# h-rewriters: applied to every letter of a starred segment


@frozen
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


@frozen
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

    @cached_property
    def images(self) -> dict:
        """The f-image memo of _f_images: ctx -> {(matched tuple,
        InstanceInfo): (f-words or None, alarms)}, as the transducer's
        image memo (memo_image).  It lives as long as the rule, which is
        one per analysis, and serves every application of the rule and
        the deadlock check's rule tests."""
        return {}

    @cached_property
    def guard_locs(self) -> frozenset:
        """The locations its guard words read: a word that lacks one of
        them has no letter for that guard element, so the rule does not
        fire on it (fires)."""
        return frozenset(g.loc for w in self.words for g in w if g.loc is not None)


# ---------------------------------------------------------------------------
# star images and segment extraction


def _star_key(guard, h: HRewrite, matched):
    """The memo key of the star image of (guard, h); see StarImages."""
    return (guard, h, matched if h.updates else ())


class StarImages:
    """Memo of the rule applications to one normalized automaton.

    The star image of (g, h) is the automaton's transitions whose letters
    meet g to non-bottom, rewritten by h.  A guard that reads one location
    is met only with the transitions at that location (a.by_loc); one
    that reads any location scans them all.  The image depends on the
    matched tuple only when h assigns from it (the broadcast copy), so
    only then is the tuple part of the key.  Images are built on first
    use, so the meets that run (and the alarms they raise, into the sink
    given here) are those of building every segment afresh, each run
    once.  Each image keeps its successor and predecessor maps, and the
    states reachable from a state over it, forwards and backwards, are
    memoized per state: deciding whether a segment is viable, or which
    states lie on its start-to-end paths, then costs set lookups and one
    intersection.  The match set of each guard word, and each segment by
    its star key and state sets, are memoized as well.  One fixpoint step
    builds one StarImages and hands it to every rule, so rules that read
    the same guard words or stars (a send/receive pair and its mirror,
    every TOP star) share that work."""

    def __init__(self, ctx: DomainContext, a: LatticeAutomaton, sink: AlarmSink = None):
        self.ctx = ctx
        self.a = a
        self.sink = sink
        self._memo = {}  # key -> (transitions, successor sets, predecessor sets)
        self._reach = {}  # (key, state) -> states reachable from it
        self._coreach = {}  # (key, state) -> states that reach it
        self._matches = {}  # guard word -> match triples
        self._segments = {}  # (key, starts, ends) -> segment transitions

    def _entry(self, key):
        hit = self._memo.get(key)
        if hit is None:
            guard, h, matched = key
            if guard.loc is None:
                moves = self.a.transitions
            else:
                moves = [(s, l, t) for s, out in self.a.by_loc.get(guard.loc, {}).items()
                         for (l, t) in out]
            trans = []
            succ, pred = {}, {}
            for (s, l, t) in moves:
                m = meet_guard(self.ctx, l, guard, self.sink)
                if m is None:
                    continue
                img = h.apply(self.ctx, m, matched, self.sink)
                if img is not None:
                    trans.append((s, img, t))
                    succ.setdefault(s, set()).add(t)
                    pred.setdefault(t, set()).add(s)
            hit = self._memo[key] = (trans, succ, pred)
        return hit

    def _closure(self, memo, key, adj, q):
        """The states reachable from q over adj, memoized by (key, q)."""
        seen = memo.get((key, q))
        if seen is None:
            seen = memo[(key, q)] = reachable({q}, adj)
        return seen

    def match_set(self, w):
        """automaton.matches of the guard word w on the automaton."""
        hit = self._matches.get(w)
        if hit is None:
            hit = self._matches[w] = matches(self.ctx, w, self.a, self.sink)
        return hit

    def image(self, guard, h: HRewrite, matched):
        return self._entry(_star_key(guard, h, matched))[0]

    def viable(self, guard, h: HRewrite, starts, ends, matched) -> bool:
        """Does some word of the (g)* segment lead from a start to an end?
        The empty word does when a start is also an end; a None guard
        admits only the empty word."""
        if guard is None:
            return bool(starts & ends)
        key = _star_key(guard, h, matched)
        # the image is built even when the empty word fits, so the meets
        # and their alarms are those of cutting the segment out
        succ = self._entry(key)[1]
        if starts & ends:
            return True
        return any(not self._closure(self._reach, key, succ, s).isdisjoint(ends)
                   for s in starts)

    def segment(self, guard, h: HRewrite, starts: frozenset, ends: frozenset, matched):
        """The transitions of a viable (g)* segment between two state sets:
        the star image restricted to states lying on some start-to-end
        path, those reachable from a start that reach an end."""
        if guard is None:  # segment that must stay empty
            return ()
        key = _star_key(guard, h, matched)
        hit = self._segments.get((key, starts, ends))
        if hit is None:
            trans, succ, pred = self._entry(key)
            fwd = set().union(*(self._closure(self._reach, key, succ, s) for s in starts))
            bwd = set().union(*(self._closure(self._coreach, key, pred, t) for t in ends))
            keep = fwd & bwd
            hit = self._segments[(key, starts, ends)] = tuple(
                (s, l, t) for (s, l, t) in trans if s in keep and t in keep)
        return hit


def _path_lengths(trans, starts, ends):
    """(shortest, static) path length between the state sets over the kept
    transitions; static is None when lengths differ or a cycle is
    reachable (then word lengths through the segment are unbounded)."""
    shortest, longest = path_lengths(trans, starts, ends)
    return (shortest, shortest if shortest == longest else None)


# ---------------------------------------------------------------------------
# rule application

START = ("S",)
END = ("T",)


def apply_rule(ctx: DomainContext, rule: RewriteRule, a: LatticeAutomaton,
               sink: AlarmSink = None, stars: StarImages = None) -> LatticeAutomaton:
    """Sound image of the automaton's language under the rule.

    An instance is a combination of matching sequences, one per guard
    word, and for create rules a class of final states.  Its image cuts
    the guarded segments out of the automaton, rewrites them by the
    h-rewriters, and puts the f-images in place of the matched words.  An
    instance with a segment that no word fits is skipped before its
    f-images are evaluated; one whose f-image contains a bottom letter
    contributes nothing, which is what enforces communication partner
    conditions.  Instances grow match by match (_instances): a prefix of
    matches whose segments no word fits is not extended, so the
    combinations that die at an early segment are never formed.

    The rule decides how instances are assembled.  When no f-image
    depends on another instance's match (at most one guard word, no
    suffix lengths, and f0 and f(n+1) empty or a single combination of
    matches, counted before any is pruned: reduce spawn and swap,
    broadcast), every instance writes into one automaton, the
    product-free construction: segment i runs on the states (i, q),
    tagged with the matched tuple where h copies from it, each star image
    is added once, an instance adds only its f-bridges, and the rule's
    image is normalized once.  Otherwise (send/receive and reduce
    delivery match two guard words, create resolves fresh identifiers
    from suffix lengths) each instance is its own automaton on the
    automaton's states, and the instances are unioned in the order they
    come.

    Every assembly takes an instance's f-images from the rule's memo
    (rule.images), so each (matched tuple, InstanceInfo) is evaluated
    once per analysis and its alarms are added to sink on every use.
    stars, when given, is the StarImages of normalize(a) that a fixpoint
    step shares among its rules, and its sink takes the place of sink;
    match sets, star images and segments then come from it."""
    if stars is None:
        stars = StarImages(ctx, normalize(a), sink)
    if stars.a.is_trivially_empty:
        return LatticeAutomaton.empty()
    match_sets = [stars.match_set(w) for w in rule.words]
    if any(not ms for ms in match_sets):
        return LatticeAutomaton.empty()
    instances = _instances(stars, rule, match_sets)
    if len(rule.words) <= 1 and not rule.track_length and \
            (math.prod(map(len, match_sets)) == 1 or not (rule.f_specs[0] or rule.f_specs[-1])):
        return _shared_image(stars, rule, instances)
    return union_all([_instance_image(stars, rule, *inst) for inst in instances])


class WordFits:
    """Memo of the rule tests on one word (fires): where each guard word
    can be placed on the word, with the meets of its letters, and which
    letters meet a star and have an h-image.  The deadlock check builds
    one per word and hands it to every rule, so rules that read the same
    guard words or stars share that work."""

    def __init__(self, ctx: DomainContext, word):
        self.ctx = ctx
        self.word = word
        self._fits = {}  # guard word -> {position: meets}
        self._misfits = {}  # star key -> misfit counts

    def fit(self, w) -> dict:
        """position -> meets of the guard word placed there, for the
        positions where no meet is bottom; each guard word is met once
        per position, not once per placement."""
        hit = self._fits.get(w)
        if hit is None:
            word = self.word
            hit = self._fits[w] = {}
            for p in range(len(word) - len(w) + 1):
                ms = tuple(meet_guard(self.ctx, word[p + j], g) for j, g in enumerate(w))
                if all(m is not None for m in ms):
                    hit[p] = ms
        return hit

    def misfits(self, g, h: HRewrite, flat) -> list:
        """counts[k] is how many of the first k letters do not meet g or
        have no h-image, so the letters a..b-1 all fit the (g)* segment
        exactly when counts[a] == counts[b]."""
        key = _star_key(g, h, flat)
        hit = self._misfits.get(key)
        if hit is None:
            hit = self._misfits[key] = [0]
            for letter in self.word:
                m = meet_guard(self.ctx, letter, g)
                fits = m is not None and h.apply(self.ctx, m, flat) is not None
                hit.append(hit[-1] + (not fits))
        return hit


def fires(ctx: DomainContext, rule: RewriteRule, word, fits: WordFits = None) -> bool:
    """Does the rule have an instance on the word, that is, is
    apply_rule's image of the word's chain automaton non-empty?

    Decided on the word itself: the guard words are placed on its
    positions, in order.  Every matched letter meets its guard element,
    every letter of a starred segment meets its star and has an h-image
    (a None star admits only the empty segment), and the f-images, with
    the segment lengths as suffix lengths, have no bottom letter.  On the
    chain these placements are exactly apply_rule's instances, and there
    are none when a location of rule.guard_locs is missing from the word.
    fits, when given, is the word's WordFits that the rules tested on the
    word share; the f-images come from the rule's memo, as in
    apply_rule."""
    if fits is None:
        fits = WordFits(ctx, word)
    n = len(word)
    # placements as (segment bounds so far, next free position, matched letters)
    placed = [((), 0, ())]
    for w in rule.words:
        fit = fits.fit(w)
        if not fit:
            return False
        placed = [(bounds + ((start, p),), p + len(w), flat + ms)
                  for bounds, start, flat in placed for p, ms in fit.items() if p >= start]
    if not placed:
        return False
    # a copy rewriter's misfits depend on the matched tuple, so they are
    # looked up per placement
    counts = [None if g is None or h.updates else fits.misfits(g, h, ())
              for g, h in zip(rule.stars, rule.h_specs)]

    def segment_fits(i, a, b, flat):
        g = rule.stars[i]
        if g is None:
            return a == b
        c = counts[i] if counts[i] is not None else fits.misfits(g, rule.h_specs[i], flat)
        return c[a] == c[b]

    for bounds, start, flat in placed:
        bounds += ((start, n),)
        if all(segment_fits(i, a, b, flat) for i, (a, b) in enumerate(bounds)) and \
                _f_images(ctx, rule, flat, [(b - a, b - a) for a, b in bounds]) is not None:
            return True
    return False


def _final_groups(stars: StarImages, rule, last):
    """Final-state grouping for a combination whose last match is last
    (None when the rule has no guard word): rules that resolve fresh
    identifiers get one instance per static-suffix class (the suffix
    length feeds the identifier); everything else takes all final states
    at once."""
    if not rule.track_length or last is None:
        return [stars.a.final]
    last_end = frozenset({last.end})
    groups = {}
    for qf in sorted(stars.a.final, key=repr):
        qfs = frozenset({qf})
        if not stars.viable(rule.stars[-1], rule.h_specs[-1], last_end, qfs, ()):
            continue
        seg = stars.segment(rule.stars[-1], rule.h_specs[-1], last_end, qfs, ())
        key = _path_lengths(seg, last_end, qfs)
        groups.setdefault(key, set()).add(qf)
    return [frozenset(g) for _, g in sorted(groups.items(), key=lambda kv: repr(kv))]


def _instances(stars: StarImages, rule, match_sets):
    """The instances whose segments are all viable and whose f-images
    have no bottom letter, as (combo, matched tuple, segment bounds,
    f-images), in the lexicographic order of the combinations of the
    match sets; bounds[i] is the (starts, ends) pair of segment i.

    The instances are those of checking every combination's segments in
    order (segment i ends at the begin of match i + 1, the last one runs
    to a group of final states) up to the first that no word fits.
    Segment i reads only the first i + 1 matches, so it is decided once
    on that prefix, and a prefix with a segment that no word fits is not
    extended.  A segment whose rewriter copies from the matched tuple
    reads all of it, so it, and every segment after it, is checked on the
    complete combination.  The star images built and the f-images
    evaluated are thus those of checking each combination in full.  For
    rules that track length, a combination's final groups come before its
    checks: the groups of every last match are formed first, and a last
    match without one completes no combination."""
    a = stars.a
    n = len(rule.words)
    copies_from = next((i for i, h in enumerate(rule.h_specs) if h.updates), n)
    groups = {m: _final_groups(stars, rule, m) for m in match_sets[-1]} if n else {}
    levels = match_sets[:-1] + [[m for m in match_sets[-1] if groups[m]]] if n else []

    def viable(i, starts, ends, flat):
        return stars.viable(rule.stars[i], rule.h_specs[i], starts, ends, flat)

    def complete(combo, flat):
        for qfs in groups[combo[-1]] if n else [a.final]:
            bounds = tuple(zip((a.initial, *(frozenset({m.end}) for m in combo)),
                               (*(frozenset({m.begin}) for m in combo), qfs)))
            if all(viable(i, *bounds[i], flat) for i in range(copies_from, n + 1)):
                lengths = [
                    _path_lengths(stars.segment(g, h, starts, ends, flat), starts, ends)
                    for g, h, (starts, ends) in zip(rule.stars, rule.h_specs, bounds)
                ] if rule.track_length else None
                f_words = _f_images(stars.ctx, rule, flat, lengths, stars.sink)
                if f_words is not None:
                    yield combo, flat, bounds, f_words

    def extend(combo, flat):
        i = len(combo)
        if i == n:
            yield from complete(combo, flat)
            return
        starts = a.initial if i == 0 else frozenset({combo[-1].end})
        for m in levels[i]:
            if i >= copies_from or viable(i, starts, frozenset({m.begin}), ()):
                yield from extend(combo + (m,), flat + m.labels)

    return extend((), ())


def _f_images(ctx, rule, flat, lengths, sink=None):
    """The words f0 .. f(n+1) of a viable instance, or None when one of
    their letters is bottom, from the rule's memo.  lengths[i] is the
    (shortest, static) length of segment i; only rules that track length
    read it, and only through the InstanceInfo that keys the memo."""
    inst = PLAIN_INSTANCE
    if rule.track_length:
        later_words = sum(len(w) for w in rule.words[1:])
        statics = [l[1] for l in lengths[1:]]
        suffix_static = None
        if all(s is not None for s in statics):
            suffix_static = sum(statics) + later_words
        min_len = lengths[0][0] + sum(len(w) for w in rule.words) \
            + sum(l[0] for l in lengths[1:])
        inst = InstanceInfo(suffix_len=suffix_static, min_len=max(1, min_len))
    return memo_image(rule.images.setdefault(ctx, {}), (flat, inst), sink,
                      _evaluate_f, ctx, rule, flat, inst)


def _evaluate_f(ctx, rule, flat, inst, sink):
    """The f-words of an instance: their letters evaluated one at a time by
    eval_letter_out, in spec order, each on the matched tuple flat.  None
    at the first bottom letter, whose successors are not evaluated."""
    f_words = []
    for spec in rule.f_specs:
        word = []
        for out in spec:
            letter = eval_letter_out(ctx, out, flat, inst, sink)
            if letter is None:
                return None
            word.append(letter)
        f_words.append(tuple(word))
    return tuple(f_words)


def _add_bridges(bld: Builder, combo, bounds, f_words, at):
    """The f-image paths of one instance: f0 from START to the initial
    states, f(i+1) across the i-th match, f(n+1) from its final states to
    END; at(i, q) names state q of segment i."""
    n = len(combo)
    for q0 in sorted(bounds[0][0], key=repr):
        bld.add_path(START, f_words[0], at(0, q0), tag="f0")
    for i, m in enumerate(combo):
        bld.add_path(at(i, m.begin), f_words[i + 1], at(i + 1, m.end), tag=f"f{i+1}")
    for qf in sorted(bounds[n][1], key=repr):
        bld.add_path(at(n, qf), f_words[n + 1], END, tag=f"f{n+1}")


def _instance_image(stars: StarImages, rule, combo, flat, bounds, f_words):
    """One instance's automaton on the automaton's own states: its
    segments' transitions plus its bridges."""
    bld = Builder()
    bld.initial = {START}
    bld.final = {END}
    for g, h, (starts, ends) in zip(rule.stars, rule.h_specs, bounds):
        for (s, l, t) in stars.segment(g, h, starts, ends, flat):
            bld.add(s, l, t)
    _add_bridges(bld, combo, bounds, f_words, lambda i, q: q)
    return bld.build()


def _shared_image(stars: StarImages, rule, instances):
    """Every instance in one automaton on the segment states (i, q), or
    (i, q, matched tuple) where h copies from the tuple.  Each star image
    is added whole, once; trimming leaves exactly the states that lie on
    an instance's segment."""
    bld = Builder()
    bld.initial = {START}
    bld.final = {END}
    added = set()
    for combo, flat, bounds, f_words in instances:
        def at(i, q, flat=flat):
            return (i, q, flat) if rule.h_specs[i].updates else (i, q)

        for i, (g, h) in enumerate(zip(rule.stars, rule.h_specs)):
            key = (i, _star_key(g, h, flat))
            if g is not None and key not in added:
                added.add(key)
                for (s, l, t) in stars.image(g, h, flat):
                    bld.add(at(i, s), l, at(i, t))
        _add_bridges(bld, combo, bounds, f_words, at)
    return normalize(bld.build())


# ---------------------------------------------------------------------------
# rule generators (communication / create / reduce schemas)


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
            words=((GuardElement.at(edge_s.src if sender_pos == 0 else edge_r.src),),
                   (GuardElement.at(edge_r.src if sender_pos == 0 else edge_s.src),)),
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
    at_loc = GuardElement.at(edge.src)
    root_guard = GuardElement.at(edge.src, E.BinOp("==", E.Var("id"), bc.root))
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
        words=((GuardElement.at(edge.src),),),
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
        stars=(GuardElement.at(at),),
        words=(),
        f_specs=((collector,), ()),
        h_specs=(lock_h,),
    )

    fold = E.BinOp(red.op, E.Var(red.acc), E.PosVar(1, red.src))
    swap = RewriteRule(
        name=f"reduce_swap[{at}]",
        stars=(GuardElement.at(locked), GuardElement.at(locked)),
        words=((GuardElement.at(coll), GuardElement.at(locked)),),
        f_specs=((),
                 (LetterOut(base=1),
                  LetterOut(base=0, updates=((red.acc, fold),))),
                 ()),
        h_specs=(IDENTITY_H, IDENTITY_H),
    )

    root_guard = GuardElement.at(locked, E.BinOp("==", E.Var("id"), red.root))
    deliver_root = LetterOut(base=0, loc=edge.dst,
                             updates=((red.acc, E.PosVar(1, red.acc)),))
    deliver = RewriteRule(
        name=f"reduce_deliver[{at}]",
        stars=(GuardElement.at(locked), GuardElement.at(locked), None),
        words=((root_guard,), (GuardElement.at(coll),)),
        f_specs=((), (deliver_root,), (), ()),
        h_specs=(unlock_h, unlock_h, IDENTITY_H),
    )
    return [spawn, swap, deliver]
