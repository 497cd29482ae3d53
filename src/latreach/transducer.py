"""Lattice transducers and their application to lattice automata.

Local steps are a letter-to-letter symbolic transducer with one state,
the case of the paper's transducers that the compiler needs: a rule
reads one letter through its guard element and writes one letter in its
place.  The rewriter producing that letter is declarative data
(LetterOut), not opaque code, so generated transducers run unchanged
under either environment domain and print as JSON for the semantics dump
(export); the communication rules use the same rewriters.

Application (apply_transducer) relabels each transition, one evaluation
per distinct letter and rule.  Each transducer carries two things built
on first use: a rule index (location -> the rules whose guard can read a
letter there) and an image memo ((ctx, rule, letter) -> the output, or
bottom, with the alarms its evaluation raised).  The fixpoint applies
one transducer to a reach automaton that barely changes between
iterations, so almost every image is a memo hit; a hit replays its
alarms into the caller's sink, so the alarm report is the same as if
every image were evaluated again.
The communication rules keep their f-images in a memo of the same kind
(memo_image serves both).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import expr as E
from .automaton import LatticeAutomaton, normalize
from .domain import (
    AbstractLocalState,
    AlarmSink,
    DomainContext,
    GuardElement,
    Interval,
    POS_INF,
    eval_interval,
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
    pid: ("fresh",) or ("const", Fraction) for a fresh letter; a base
        letter keeps its identifier: ("keep",).
    """

    base: Optional[int]
    loc: Optional[str] = None
    instr: object = None
    updates: tuple = ()
    conds: tuple = ()
    pid: tuple = ("keep",)
    reset_zero: bool = False

    def __post_init__(self):
        if self.base is not None and self.pid != ("keep",):
            raise ValueError(f"a base letter keeps its identifier, got pid {self.pid!r}")


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


# The facts of every instance of a rule that does not track length, and
# of every local step.
PLAIN_INSTANCE = InstanceInfo()


def eval_letter_out(ctx: DomainContext, out: LetterOut, matched: tuple,
                    inst: InstanceInfo = PLAIN_INSTANCE, sink: AlarmSink = None
                    ) -> Optional[AbstractLocalState]:
    """Evaluate one output recipe on a matched letter tuple (None = bottom).

    The tuple is first refined by out.conds (joint_refine).  A fresh
    letter with pid ("fresh",) gets the identifier its creator, the first
    matched letter, hands out: the creator's interval of the same FreshId
    expression that a creator's update stores (_resolve_fresh)."""
    if out.conds:
        matched = joint_refine(ctx, matched, out.conds, sink)
        if matched is None:
            return None

    if out.base is None:
        if out.pid[0] == "const":
            pid = Interval.point(out.pid[1])
        else:
            pid = eval_interval(ctx, matched[0], _resolve_fresh(E.FreshId(), inst), sink)
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

    if out.loc is not None:
        letter = letter.relocate(out.loc)
    return letter


def _resolve_fresh(rhs, inst: InstanceInfo):
    """Rewrite FreshId into the identifier handed out for this instance:
    id + 1 + the static suffix length, else [min_len, +inf]."""
    if inst.suffix_len is not None:
        fresh = E.BinOp("+", E.Var("id"), E.Const(Fraction(1 + inst.suffix_len)))
    else:
        fresh = E.IntervalConst(Fraction(inst.min_len), POS_INF)
    return E.substitute(rhs, lambda x: fresh if isinstance(x, E.FreshId) else x)


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
    """One local step: a letter that the guard element reads becomes the
    letter that output makes of it, in place."""

    name: str
    guard: GuardElement
    output: LetterOut


@frozen
class LatticeTransducer:
    """A one-state, letter-to-letter symbolic transducer: every rule reads
    one letter and writes one letter back in its place."""

    rules: tuple  # of TransducerRule, sorted by name

    @cached_property
    def rule_index(self) -> tuple:
        """(at_loc, anywhere), built once per transducer.

        anywhere lists the rules whose guard reads any location.  at_loc
        maps each guard's location to the rules reading it, followed by
        anywhere's.  No other rule can read a letter at that location.
        Entries are (number, rule); the number keys the rule's images in
        the memo."""
        at_loc, anywhere = {}, []
        for number, rule in enumerate(self.rules):
            if rule.guard.loc is None:
                anywhere.append((number, rule))
            else:
                at_loc.setdefault(rule.guard.loc, []).append((number, rule))
        return ({loc: tuple(rules + anywhere) for loc, rules in at_loc.items()},
                tuple(anywhere))

    @cached_property
    def images(self) -> dict:
        """The image memo of apply_transducer: ctx -> {(rule number, letter):
        (output or None, alarms)}.  It lives as long as the transducer,
        which is one per analysis; an image is a pure function of its key."""
        return {}


def _evaluate(ctx: DomainContext, rule: TransducerRule, letter: AbstractLocalState,
              sink: AlarmSink) -> Optional[AbstractLocalState]:
    """The rule's output on a letter: meet the letter with the guard, then
    evaluate the output recipe (None = bottom)."""
    matched = meet_guard(ctx, letter, rule.guard, sink)
    if matched is None:
        return None
    return eval_letter_out(ctx, rule.output, (matched,), PLAIN_INSTANCE, sink)


def apply_transducer(ctx: DomainContext, t: LatticeTransducer, a: LatticeAutomaton,
                     sink: AlarmSink = None) -> LatticeAutomaton:
    """Image of the automaton under the transducer (sound: contains the
    image of every accepted word).

    Each transition label is replaced by its images, on the same two
    states; a label with no image drops its transition.  Only the rules
    indexed under the label's location are evaluated, since any other
    rule's guard meet is bottom.  Images come from the memo t.images
    (memo_image), so each is evaluated once and its alarms are added to
    sink on every use.  The order in which labels are visited does not
    matter: normalize joins labels exactly (interval join and affine
    hull) and names states canonically, and the alarms go to a set."""
    a = normalize(a)
    at_loc, anywhere = t.rule_index
    memo = t.images.setdefault(ctx, {})
    trans = set()
    for (q, letter, q2) in a.transitions:
        for number, rule in at_loc.get(letter.loc, anywhere):
            out = memo_image(memo, (number, letter), sink, _evaluate, ctx, rule, letter)
            if out is not None:
                trans.add((q, out, q2))
    return normalize(LatticeAutomaton(a.states, a.initial, a.final, frozenset(trans)))
