"""Bounded concrete interpreter: the brute-force oracle.

Global states are words of (id, location, valuation); the transition
relation implements local steps, synchronous send/receive pairing (both
orders, any_id wildcards), broadcast, create (appending id = word length)
and an atomic reduce.  Identifiers always equal word positions, which the
abstract create step relies on.  The concretisations of letters and
automata over a finite universe, which the tests compare against this
interpreter, live here too.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from . import expr as E
from .automaton import LatticeAutomaton
from .domain import AbstractLocalState, DomainContext, IntervalEnv
from .frontend import Cfg
from .syntax import Assign, Broadcast, Create, Filter, Receive, Reduce, Send, Skip
from .value import frozen


@frozen
class ConcreteLocalState:
    pid: int
    loc: str
    env: tuple  # sorted (name, Fraction) pairs

    def rho(self) -> dict:
        return dict(self.env)

    def with_env(self, rho: dict) -> "ConcreteLocalState":
        return ConcreteLocalState(self.pid, self.loc, tuple(sorted(rho.items())))

    def at(self, loc: str) -> "ConcreteLocalState":
        return ConcreteLocalState(self.pid, loc, self.env)


ConcreteConfig = tuple  # of ConcreteLocalState


def initial_config(cfg: Cfg, variables, nprocs: int) -> ConcreteConfig:
    env = tuple(sorted((v, Fraction(0)) for v in variables))
    return tuple(ConcreteLocalState(i, cfg.entry, env) for i in range(nprocs))


def eval_expr(e, pid: int, rho: dict, rat_vars=frozenset()) -> Optional[Fraction]:
    """Exact evaluation; None when undefined (division by zero, a number
    past the expr.MAX_POW_BITS size cap).  Division is exact; fractions
    are truncated when stored into int variables, not when computed."""
    if isinstance(e, E.Const):
        return e.value
    if isinstance(e, E.Var):
        if e.name == "id":
            return Fraction(pid)
        return rho.get(e.name, Fraction(0))
    if isinstance(e, E.Neg):
        v = eval_expr(e.arg, pid, rho, rat_vars)
        return None if v is None else -v
    if isinstance(e, E.BinOp):
        a = eval_expr(e.left, pid, rho, rat_vars)
        b = eval_expr(e.right, pid, rho, rat_vars)
        if a is None or b is None:
            return None
        if e.op in E.ARITH_OPS:
            v = _arith(e.op, a, b)
            return None if v is None or E.number_too_big(v) else v
        if e.op == "min":
            return min(a, b)
        if e.op == "max":
            return max(a, b)
        if e.op in E.COMPARISONS:
            return Fraction(int(E.compare(e.op, a, b)))
    raise ValueError(f"cannot evaluate {e!r}")


def _arith(op: str, a: Fraction, b: Fraction) -> Optional[Fraction]:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return None if b == 0 else a / b
    if op == "%":
        return None if b == 0 else a - b * Fraction(int(a / b))
    # "^"
    if b.denominator != 1 or a == 0 and b < 0 or E.pow_too_big(a, int(b)):
        return None
    return a ** int(b)


def store_value(var: str, value: Fraction, rat_vars) -> Fraction:
    if var in rat_vars:
        return value
    return Fraction(int(value))  # C truncation on int assignment


def _truth(e, pid, rho, rat_vars) -> Optional[bool]:
    v = eval_expr(e, pid, rho, rat_vars)
    return None if v is None else v != 0


def post(cfg: Cfg, config: ConcreteConfig, rat_vars=frozenset()) -> set:
    """All successors under one transition: exactly one local step, one
    synchronous communication, one broadcast, one create or one atomic
    reduce.  Deterministic as a set function."""
    out = set()
    n = len(config)
    by_src = {}
    for e in cfg.edges:
        by_src.setdefault(e.src, []).append(e)

    for i, sigma in enumerate(config):
        for e in by_src.get(sigma.loc, ()):
            instr = e.instr
            rho = sigma.rho()
            if isinstance(instr, Assign):
                v = eval_expr(instr.expr, sigma.pid, rho, rat_vars)
                if v is None:
                    continue
                rho[instr.var] = store_value(instr.var, v, rat_vars)
                out.add(config[:i] + (sigma.with_env(rho).at(e.dst),) + config[i + 1:])
            elif isinstance(instr, Skip):
                out.add(config[:i] + (sigma.at(e.dst),) + config[i + 1:])
            elif isinstance(instr, Filter):
                if isinstance(instr.cond, E.Nondet):
                    out.add(config[:i] + (sigma.at(e.dst),) + config[i + 1:])
                    continue
                truth = _truth(instr.cond, sigma.pid, rho, rat_vars)
                if truth is None:
                    continue
                if truth == (instr.branch == "then"):
                    out.add(config[:i] + (sigma.at(e.dst),) + config[i + 1:])
            elif isinstance(instr, Create):
                fresh = n  # identifiers are word positions, 0-based
                rho[instr.var] = Fraction(fresh)
                new_env = tuple(sorted((v, Fraction(0)) for v, _ in sigma.env))
                spawned = ConcreteLocalState(fresh, cfg.entry, new_env)
                out.add(config[:i] + (sigma.with_env(rho).at(e.dst),)
                        + config[i + 1:] + (spawned,))

    # synchronous point-to-point
    for i, snd in enumerate(config):
        for es in by_src.get(snd.loc, ()):
            if not isinstance(es.instr, Send):
                continue
            for j, rcv in enumerate(config):
                if i == j:
                    continue
                for er in by_src.get(rcv.loc, ()):
                    if not isinstance(er.instr, Receive):
                        continue
                    if es.instr.target is not None:
                        tgt = eval_expr(es.instr.target, snd.pid, snd.rho(), rat_vars)
                        if tgt is None or tgt != rcv.pid:
                            continue
                    if er.instr.source is not None:
                        src = eval_expr(er.instr.source, rcv.pid, rcv.rho(), rat_vars)
                        if src is None or src != snd.pid:
                            continue
                    value = snd.rho().get(es.instr.var, Fraction(0))
                    rho_r = rcv.rho()
                    rho_r[er.instr.var] = store_value(er.instr.var, value, rat_vars)
                    new = list(config)
                    new[i] = snd.at(es.dst)
                    new[j] = rcv.with_env(rho_r).at(er.dst)
                    out.add(tuple(new))

    # broadcast: everyone at the same location
    for e in cfg.edges:
        if not isinstance(e.instr, Broadcast):
            continue
        if not config or any(s.loc != e.src for s in config):
            continue
        roots = [s for s in config
                 if eval_expr(e.instr.root, s.pid, s.rho(), rat_vars) == s.pid]
        for root in roots:
            value = root.rho().get(e.instr.var, Fraction(0))
            new = []
            for s in config:
                if s.pid == root.pid:
                    new.append(s.at(e.dst))
                else:
                    rho = s.rho()
                    rho[e.instr.var] = store_value(e.instr.var, value, rat_vars)
                    new.append(s.with_env(rho).at(e.dst))
            out.add(tuple(new))

    # reduce: atomic all-at-once fold (the collector is an abstraction
    # artifact, not concrete semantics)
    for e in cfg.edges:
        if not isinstance(e.instr, Reduce):
            continue
        if not config or any(s.loc != e.src for s in config):
            continue
        red = e.instr
        roots = [s for s in config
                 if eval_expr(red.root, s.pid, s.rho(), rat_vars) == s.pid]
        values = [s.rho().get(red.src, Fraction(0)) for s in config]
        if red.op == "+":
            total = sum(values, Fraction(0))
        elif red.op == "*":
            total = Fraction(1)
            for v in values:
                total *= v
        elif red.op == "min":
            total = min(values)
        else:
            total = max(values)
        for root in roots:
            new = []
            for s in config:
                if s.pid == root.pid:
                    rho = s.rho()
                    rho[red.acc] = store_value(red.acc, total, rat_vars)
                    new.append(s.with_env(rho).at(e.dst))
                else:
                    new.append(s.at(e.dst))
            out.add(tuple(new))
    return out


@frozen
class ReachResult:
    configs: set
    pruned: bool


def reach_bounded(cfg: Cfg, init: ConcreteConfig, depth: int, max_procs: int,
                  rat_vars=frozenset()) -> ReachResult:
    """BFS to the given depth, pruning configurations that grow beyond
    max_procs; reports whether pruning happened."""
    seen = {init}
    frontier = [init]
    pruned = False
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for succ in post(cfg, c, rat_vars):
                if len(succ) > max_procs:
                    pruned = True
                    continue
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return ReachResult(seen, pruned)


def config_word(config: ConcreteConfig):
    """Shape used by the automaton membership check."""
    return tuple((s.pid, s.loc, s.env) for s in config)


def is_stuck(cfg: Cfg, config: ConcreteConfig, exit_loc: str,
             rat_vars=frozenset()) -> bool:
    """No successor and at least one process not at the exit."""
    if all(s.loc == exit_loc for s in config):
        return False
    return not post(cfg, config, rat_vars)


# ---------------------------------------------------------------------------
# bounded concretisation of letters and automata (test oracles)


def concretize_bounded(ctx: DomainContext, s: Optional[AbstractLocalState], universe):
    """gamma(s) restricted to ids and values drawn from a finite universe."""
    if s is None:
        return set()
    values = sorted(Fraction(v) for v in universe)
    ids = [v for v in values if s.pid.contains(v)]
    out = set()
    for pid in ids:
        for combo in itertools.product(values, repeat=len(ctx.variables)):
            rho = dict(zip(ctx.variables, combo))
            if isinstance(s.env, IntervalEnv):
                if all(s.env.get(v).contains(q) for v, q in rho.items()):
                    out.add((pid, s.loc, tuple(sorted(rho.items()))))
            else:
                assignment = dict(rho)
                assignment["id"] = pid
                if s.env.satisfies(assignment):
                    out.add((pid, s.loc, tuple(sorted(rho.items()))))
    return out


def letter_accepts(ctx: DomainContext, s: AbstractLocalState, cid, loc, rho: dict) -> bool:
    """Membership of one concrete local state in gamma(letter)."""
    if loc != s.loc or not s.pid.contains(Fraction(cid)):
        return False
    if isinstance(s.env, IntervalEnv):
        return all(s.env.get(v).contains(Fraction(q)) for v, q in rho.items())
    assignment = {v: Fraction(q) for v, q in rho.items()}
    assignment["id"] = Fraction(cid)
    for v in s.env.vars:
        assignment.setdefault(v, Fraction(0))
    return s.env.satisfies(assignment)


def accepts_concrete(ctx: DomainContext, a: LatticeAutomaton, word) -> bool:
    """Membership of a concrete configuration (sequence of (id, loc, rho))
    in the atom language of the automaton."""
    cur = set(a.initial)
    for (cid, loc, rho) in word:
        nxt = set()
        for s in cur:
            for (l, t) in a.out_by_src.get(s, ()):
                if letter_accepts(ctx, l, cid, loc, dict(rho)):
                    nxt.add(t)
        cur = nxt
        if not cur:
            return False
    return bool(cur & a.final)


def bounded_language(ctx: DomainContext, a: LatticeAutomaton, max_len: int, universe):
    """Enumerate the accepted atom words up to a length bound over a finite
    value universe (test oracle; exponential, keep the inputs tiny)."""
    out = set()
    frontier = [((), q) for q in a.initial]
    while frontier:
        word, q = frontier.pop()
        if q in a.final and word:
            out.add(word)
        if len(word) >= max_len:
            continue
        for (l, t) in a.out_by_src.get(q, ()):
            for atom in concretize_bounded(ctx, l, universe):
                frontier.append((word + (atom,), t))
    return out
