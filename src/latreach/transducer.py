"""Lattice transducers and their application to lattice automata.

A transducer transition carries a guard tuple (one guard element per read
letter) and a sequence of rewriters producing the output letters.  The
rewriters are declarative data (LetterOut), not opaque code, so generated
transducers run unchanged under either environment domain and print as
JSON for the semantics dump (export).

Application costs one evaluation per distinct letter tuple and rule.
Each transducer carries two things built on first use: a rule index
(guard length -> first letter's location -> the rules whose first guard
element can read a letter there) and an image memo ((ctx, rule, labels)
-> the outputs, or bottom, with the alarms their evaluation raised).  The
fixpoint applies one transducer to a reach automaton that barely changes
between iterations, so almost every image is a memo hit; a hit replays
its alarms into the caller's sink, so the alarm report is the same as if
every image were evaluated again.  The communication rules keep their
f-images in a memo of the same kind (memo_image serves both).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import expr as E
from .automaton import (
    Builder,
    LatticeAutomaton,
    normalize,
    path_labels,
)
from .domain import (
    AbstractLocalState,
    AlarmSink,
    DomainContext,
    Interval,
    POS_INF,
    joint_refine,
    meet_guard,
    relational_updates,
    transfer_assign,
    transfer_filter,
)
from .syntax import Assign, Filter
from .value import frozen


# ---------------------------------------------------------------------------
# rewriter specifications


@frozen
class LetterOut:
    """Recipe for one output letter of a rewriter.

    base: index into the matched tuple, or None for a fresh process letter.
    loc: target location (None keeps the base letter's).
    instr: optional local instruction (Assign/Filter) applied to the base.
    updates: env assignments var := expr; the expression may mention the
        base's own variables (Var) or matched partners (PosVar).
    conds: identifier conditions (pos, expr): matched letter pos must have
        id equal to the expression; unsatisfiable conditions kill the whole
        rewrite, which encodes partner matching.
    pid: ("keep",) | ("const", Fraction) | ("fresh",).
    """

    base: Optional[int]
    loc: Optional[str] = None
    instr: object = None
    updates: tuple = ()
    conds: tuple = ()
    pid: tuple = ("keep",)
    reset_zero: bool = False


@frozen
class InstanceInfo:
    """Word-structure facts for one rule instance, used by create steps.

    suffix_len is the static number of letters after the creating letter
    when that count is path-independent, else None; min_len is a lower
    bound on the matched word length.  Fresh identifiers exploit that
    words are ordered by identifier, so a creator at a statically known
    distance s from the end creates id + 1 + s."""

    suffix_len: Optional[int] = 0
    min_len: int = 1


def _fresh_pid(base: Optional[AbstractLocalState], inst: InstanceInfo) -> Interval:
    if inst.suffix_len is not None and base is not None:
        return base.pid.shift(1 + inst.suffix_len)
    return Interval(Fraction(inst.min_len), POS_INF)


def eval_letter_out(ctx: DomainContext, out: LetterOut, matched: tuple,
                    inst: InstanceInfo = InstanceInfo(), sink: AlarmSink = None,
                    refined: bool = False) -> Optional[AbstractLocalState]:
    """Evaluate one output recipe on a matched letter tuple (None = bottom).
    refined says that the tuple is already refined by out.conds."""
    if out.conds and not refined:
        matched = joint_refine(ctx, matched, out.conds, sink)
        if matched is None:
            return None

    if out.base is None:
        if out.pid[0] == "const":
            pid = Interval.point(out.pid[1])
        else:
            creator = matched[0] if matched else None
            pid = _fresh_pid(creator, inst)
        if pid.is_bottom:
            return None
        assert out.loc is not None
        if out.reset_zero:
            letter = ctx.zero_letter(pid, out.loc)
        else:
            letter = AbstractLocalState(pid, out.loc, ctx.top_env())
        if out.updates:
            resolved = tuple((var, _resolve_fresh(rhs, inst)) for var, rhs in out.updates)
            letter = relational_updates(ctx, letter, len(matched), resolved,
                                        matched + (letter,), sink)
        return letter

    letter = matched[out.base]

    if out.instr is not None:
        if isinstance(out.instr, Assign):
            letter = transfer_assign(ctx, letter, out.instr.var, out.instr.expr, sink)
        elif isinstance(out.instr, Filter):
            letter = transfer_filter(ctx, letter, out.instr.cond, out.instr.branch, sink)
        else:
            raise ValueError(f"unknown instruction {out.instr!r}")
        if letter is None:
            return None

    if out.updates:
        resolved = tuple((var, _resolve_fresh(rhs, inst)) for var, rhs in out.updates)
        letter = relational_updates(ctx, letter, out.base, resolved, matched, sink,
                                    conds=out.conds)
        if letter is None:
            return None

    if out.pid[0] == "const":
        letter = letter.with_pid(Interval.point(out.pid[1]))
        if letter is None:
            return None
    elif out.pid[0] == "fresh":
        letter = letter.with_pid(_fresh_pid(matched[out.base], inst))
        if letter is None:
            return None

    if out.loc is not None:
        letter = letter.relocate(out.loc)
    return letter


def _resolve_fresh(rhs, inst: InstanceInfo):
    """Rewrite FreshId into the identifier handed out for this instance."""
    if isinstance(rhs, E.FreshId):
        if inst.suffix_len is not None:
            return E.BinOp("+", E.Var("id"), E.Const(Fraction(1 + inst.suffix_len)))
        return E.IntervalConst(Fraction(inst.min_len), POS_INF)
    if isinstance(rhs, E.Neg):
        return E.Neg(_resolve_fresh(rhs.arg, inst))
    if isinstance(rhs, E.BinOp):
        return E.BinOp(rhs.op, _resolve_fresh(rhs.left, inst), _resolve_fresh(rhs.right, inst))
    return rhs


def eval_outputs(ctx: DomainContext, outs, matched: tuple,
                 inst: InstanceInfo = InstanceInfo(), sink: AlarmSink = None
                 ) -> Optional[tuple]:
    """The letters of a sequence of output recipes on one matched tuple,
    or None when one of them is bottom.  Recipes with the same identifier
    conditions, such as the two letters a send/receive inserts, share one
    joint refinement of the tuple; each letter is the one eval_letter_out
    gives on its own."""
    refined = {(): matched}
    letters = []
    for out in outs:
        if out.conds not in refined:
            refined[out.conds] = joint_refine(ctx, matched, out.conds, sink)
        base = refined[out.conds]
        letter = None if base is None else \
            eval_letter_out(ctx, out, base, inst, sink, refined=True)
        if letter is None:
            return None
        letters.append(letter)
    return tuple(letters)


def memo_image(memo: dict, key, sink: AlarmSink, evaluate, *args):
    """memo[key], computed as evaluate(*args, own sink) on first use and
    stored with the alarms that evaluation raised; every use, the first
    included, adds those alarms to sink.  evaluate must be a pure function
    of key, so a hit reports what evaluating again would."""
    hit = memo.get(key)
    if hit is None:
        own = AlarmSink()
        hit = memo[key] = (evaluate(*args, own), frozenset(own.alarms))
    value, alarms = hit
    if sink is not None:
        sink.alarms.update(alarms)
    return value


# ---------------------------------------------------------------------------
# transducers


@frozen
class TransducerRule:
    name: str
    guard: tuple  # tuple of GuardElement, length n >= 1
    outputs: tuple  # tuple of LetterOut, length m >= 0

    def __post_init__(self):
        assert len(self.guard) >= 1


@frozen
class LatticeTransducer:
    states: frozenset
    initial: frozenset
    final: frozenset
    rules: frozenset  # of (src, TransducerRule, dst)

    @staticmethod
    def single_state(rules) -> "LatticeTransducer":
        q = "t"
        return LatticeTransducer(
            frozenset({q}), frozenset({q}), frozenset({q}),
            frozenset((q, r, q) for r in rules),
        )

    def sorted_rules(self):
        return sorted(self.rules, key=lambda r: (repr(r[0]), r[1].name, repr(r[2])))

    @cached_property
    def rule_index(self) -> dict:
        """guard length -> (by_loc, anywhere), built once per transducer.

        anywhere lists the rules whose first guard element reads every
        location (by_loc None, with a default atom).  by_loc maps each
        location that some first guard element names to the rules naming
        it, followed by anywhere's.  No other rule can read a letter at
        that location.  Entries are (number, src, rule, dst); the number
        keys the rule's images in the memo."""
        numbers = {}
        index = {}
        for (p, rule, p2) in self.sorted_rules():
            entry = (numbers.setdefault(rule, len(numbers)), p, rule, p2)
            by_loc, anywhere = index.setdefault(len(rule.guard), ({}, []))
            first = rule.guard[0]
            if first.by_loc is not None:
                for loc in dict.fromkeys(loc for loc, _ in first.by_loc):
                    by_loc.setdefault(loc, []).append(entry)
            elif first.default is not None:
                anywhere.append(entry)
        return {n: ({loc: tuple(rules + anywhere) for loc, rules in by_loc.items()},
                    tuple(anywhere))
                for n, (by_loc, anywhere) in index.items()}

    @cached_property
    def images(self) -> dict:
        """The image memo of rule_images: ctx -> {(rule number, labels):
        (outputs or None, alarms)}.  It lives as long as the transducer,
        which is one per analysis; an image is a pure function of its key."""
        return {}


def _evaluate(ctx: DomainContext, rule: TransducerRule, labels: tuple,
              sink: AlarmSink) -> Optional[tuple]:
    """The rule's outputs on a label tuple: meet each letter with its
    guard element, then evaluate every output recipe (None = bottom)."""
    matched = []
    for letter, g in zip(labels, rule.guard):
        m = meet_guard(ctx, letter, g, sink)
        if m is None:
            return None
        matched.append(m)
    return eval_outputs(ctx, rule.outputs, tuple(matched), InstanceInfo(), sink)


def rule_images(ctx: DomainContext, t: LatticeTransducer, labels: tuple,
                sink: AlarmSink = None):
    """Yield (src, rule, dst, outputs) for every transducer rule with a
    guard as long as labels whose image on labels is not bottom.

    Only the rules indexed under the first letter's location are visited;
    any other rule's first guard meet is bottom.  Images come from the
    memo t.images (memo_image), so each is evaluated once and its alarms
    are added to sink on every use."""
    entry = t.rule_index.get(len(labels))
    if entry is None:
        return
    by_loc, anywhere = entry
    memo = t.images.setdefault(ctx, {})
    for (number, p, rule, p2) in by_loc.get(labels[0].loc, anywhere):
        outs = memo_image(memo, (number, labels), sink, _evaluate, ctx, rule, labels)
        if outs is not None:
            yield p, rule, p2, outs


def apply_transducer(ctx: DomainContext, t: LatticeTransducer, a: LatticeAutomaton,
                     sink: AlarmSink = None) -> LatticeAutomaton:
    """Image of the automaton under the transducer (sound: contains the
    image of every accepted word).

    Product over (transducer state, automaton state); for every rule with a
    guard of length n and every automaton path of length n whose pointwise
    meet with the guard is non-bottom, the output letters form a fresh path
    between the product endpoints.  Rule instances with a bottom output
    letter contribute nothing.

    The paths of each guard length are walked once, and each path visits
    only the rules indexed under its first letter's location, with images
    from the transducer's memo (rule_images).  The order in which paths
    and rules are visited does not matter: it only names the fresh states,
    normalize joins labels exactly (interval join and affine hull) and
    names states canonically, and the alarms go to a set."""
    a = normalize(a)
    if a.is_trivially_empty:
        return LatticeAutomaton.empty()
    bld = Builder()
    bld.initial = {(p, q) for p in t.initial for q in a.initial}
    bld.final = {(p, q) for p in t.final for q in a.final}
    for n in t.rule_index:
        for q in a.states:
            for labels, q2 in path_labels(a, q, n):
                for (p, rule, p2, outs) in rule_images(ctx, t, labels, sink):
                    bld.add_path((p, q), outs, (p2, q2), tag=rule.name)
    return normalize(bld.build())
