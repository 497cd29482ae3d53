"""Output formats: the JSON and DOT writers of the analyzer's objects.

The reach automaton goes out as JSON (``--json``) and DOT (``--dot``);
the compiled semantics, that is the local-step transducer, the rewriting
rules and the initial automaton, goes out as JSON (``--dump-semantics``).
Exact rationals are written as "p/q" strings and infinite bounds as
"-inf" and "+inf"; expressions are written in source syntax.
"""
from __future__ import annotations

from fractions import Fraction

from . import expr as E
from .automaton import LatticeAutomaton
from .domain import AbstractLocalState, GuardElement, Interval, IntervalEnv, is_finite
from .frontend import CompiledSemantics
from .rules import HRewrite, RewriteRule
from .syntax import Assign, Filter
from .transducer import LatticeTransducer, LetterOut


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _bound(b) -> str:
    if is_finite(b):
        return _frac(b)
    return "+inf" if b > 0 else "-inf"


# ---------------------------------------------------------------------------
# letters and lattice automata


def interval_to_json(itv: Interval):
    return {"lo": _bound(itv.lo), "hi": _bound(itv.hi)}


def env_to_json(env):
    if isinstance(env, IntervalEnv):
        return {"kind": "interval",
                "vars": {n: interval_to_json(itv) for n, itv in env.items}}
    return {"kind": "affine",
            "vars": list(env.vars),
            "rows": [[[_frac(k) for k in coeffs], _frac(c)] for coeffs, c in env.rows]}


def letter_to_json(l: AbstractLocalState):
    return {"id": interval_to_json(l.pid), "loc": l.loc, "env": env_to_json(l.env)}


def to_json(a: LatticeAutomaton) -> dict:
    return {
        "states": sorted(a.states),
        "initial": sorted(a.initial),
        "final": sorted(a.final),
        "transitions": [
            {"src": s, "dst": t, "label": letter_to_json(l)}
            for (s, l, t) in a.sorted_transitions()
        ],
    }


def to_dot(a: LatticeAutomaton, name="reach") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in sorted(a.states):
        shape_attr = "doublecircle" if q in a.final else "circle"
        lines.append(f'  "{q}" [shape={shape_attr}];')
    for i, q in enumerate(sorted(a.initial)):
        lines.append(f'  "init{i}" [shape=point]; "init{i}" -> "{q}";')
    for (s, l, t) in a.sorted_transitions():
        label = f"{l.pid} | {l.loc} | {l.env}"
        label = label.replace('"', "'")
        lines.append(f'  "{s}" -> "{t}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# guards, rewriters and transducers


def guard_to_json(g: GuardElement):
    """The two-level guard format: a per-location atom (an id interval, an
    environment and comparisons) under by_loc, or the default atom that
    reads any location.  A guard's atom has id top and no environment."""
    atom = {
        "id": interval_to_json(Interval.top()),
        "env": None,
        "constraints": [[E.to_source(c.left), c.op, E.to_source(c.right)]
                        for c in g.constraints],
    }
    if g.loc is None:
        return {"by_loc": None, "default": atom}
    return {"by_loc": [[g.loc, atom]], "default": None}


def letter_out_to_json(out: LetterOut):
    instr = None
    if isinstance(out.instr, Assign):
        instr = {"assign": [out.instr.var, E.to_source(out.instr.expr)]}
    elif isinstance(out.instr, Filter):
        instr = {"filter": [E.to_source(out.instr.cond), out.instr.branch]}
    pid = list(out.pid)
    if pid[0] == "const":
        pid[1] = _frac(pid[1])
    return {
        "base": out.base,
        "loc": out.loc,
        "instr": instr,
        "updates": [[v, E.to_source(rhs)] for v, rhs in out.updates],
        "conds": [[pos, E.to_source(rhs)] for pos, rhs in out.conds],
        "pid": pid,
        "reset_zero": out.reset_zero,
    }


def transducer_to_json(t: LatticeTransducer):
    """The general transducer format, written for the one-state,
    letter-to-letter case: state "t", one-letter guards and outputs."""
    return {
        "states": ["t"],
        "initial": ["t"],
        "final": ["t"],
        "rules": [
            {
                "src": "t", "dst": "t", "name": rule.name,
                "guard": [guard_to_json(rule.guard)],
                "outputs": [letter_out_to_json(rule.output)],
            }
            for rule in t.rules
        ],
    }


def transducer_to_dot(t: LatticeTransducer, name="transducer") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  "t" [shape=doublecircle];']
    for rule in t.rules:
        lines.append(f'  "t" -> "t" [label="{rule.name}: {rule.guard}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# rewriting rules and the compiled semantics


def h_to_json(h: HRewrite):
    return {"kind": h.kind, "loc": h.loc,
            "updates": [[v, E.to_source(rhs)] for v, rhs in h.updates]}


def rule_to_json(rule: RewriteRule):
    return {
        "name": rule.name,
        "stars": [None if g is None else guard_to_json(g) for g in rule.stars],
        "words": [[guard_to_json(g) for g in w] for w in rule.words],
        "f_specs": [[letter_out_to_json(o) for o in spec] for spec in rule.f_specs],
        "h_specs": [h_to_json(h) for h in rule.h_specs],
        "track_length": rule.track_length,
    }


def dump_semantics(sem: CompiledSemantics) -> dict:
    return {
        "domain": sem.ctx.kind,
        "variables": list(sem.ctx.variables),
        "rat_vars": sorted(sem.ctx.rat_vars),
        "locations": list(sem.cfg.locations),
        "entry": sem.cfg.entry,
        "exit": sem.cfg.exit,
        "loop_heads": sorted(sem.cfg.loop_heads),
        "widen_locs": sorted(sem.widen_locs),
        "blocking_locs": sorted(sem.blocking_locs),
        "procs": sem.procs,
        "transducer": transducer_to_json(sem.transducer),
        "rules": [rule_to_json(r) for r in sem.rules],
        "initial": to_json(sem.initial),
    }
