"""Independent word-level interpreters used as oracles.

These re-implement rule and transducer application directly on concrete
atom words, rules by enumerating decompositions and the transducer letter
by letter, with plain dictionary arithmetic.  They share the declarative
rule data with the analyzer but none of its automaton or lattice
machinery, so inclusion checks between the two routes are meaningful.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import latreach.expr as E
from latreach.domain import GuardElement
from latreach.syntax import Assign, Filter

PROGRAMS = Path(__file__).resolve().parents[1] / "demos" / "programs"

Atom = tuple  # (pid: Fraction-able, loc: str, env: tuple of (name, Fraction))


def atom(pid, loc, env: dict) -> Atom:
    return (Fraction(pid), loc, tuple(sorted((n, Fraction(v)) for n, v in env.items())))


def _eval(e, pid, rho, word=None, vtuple=None):
    """Concrete expression evaluation; PosVar reads the matched tuple,
    FreshId is the current word length."""
    if isinstance(e, E.Const):
        return e.value
    if isinstance(e, E.IntervalConst):
        raise AssertionError("IntervalConst never appears in stored specs")
    if isinstance(e, E.FreshId):
        return Fraction(len(word))
    if isinstance(e, E.Var):
        if e.name == "id":
            return Fraction(pid)
        return dict(rho).get(e.name, Fraction(0))
    if isinstance(e, E.PosVar):
        p, l, r = vtuple[e.pos]
        if e.name == "id":
            return Fraction(p)
        return dict(r).get(e.name, Fraction(0))
    if isinstance(e, E.Neg):
        return -_eval(e.arg, pid, rho, word, vtuple)
    if isinstance(e, E.BinOp):
        a = _eval(e.left, pid, rho, word, vtuple)
        b = _eval(e.right, pid, rho, word, vtuple)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                return None
            return a / b
        if e.op == "%":
            return a - b * Fraction(int(a / b)) if b != 0 else None
        if e.op == "^":
            return a ** int(b)
        if e.op == "min":
            return min(a, b)
        if e.op == "max":
            return max(a, b)
        if e.op in E.COMPARISONS:
            return Fraction(1 if {"<": a < b, "<=": a <= b, "==": a == b,
                                  "!=": a != b, ">": a > b, ">=": a >= b}[e.op] else 0)
    raise ValueError(f"cannot evaluate {e!r}")


def atom_matches_guard(a: Atom, g: GuardElement) -> bool:
    pid, loc, rho = a
    if g.loc is not None and g.loc != loc:
        return False
    return all(_eval(c, pid, rho) == 1 for c in g.constraints)


def eval_letter_out_concrete(out, vtuple, word, rat_vars=frozenset(), variables=()):
    """Direct interpretation of a LetterOut recipe on concrete atoms."""
    for pos, rhs in out.conds:
        pid = vtuple[pos][0]
        want = _eval(rhs, pid, vtuple[pos][2], word, vtuple)
        if want is None or pid != want:
            return None
    if out.base is None:
        if out.pid[0] == "const":
            pid = out.pid[1]
        else:
            pid = Fraction(len(word))
        loc = out.loc
        names = set(variables)
        if vtuple:
            names.update(n for n, _ in vtuple[0][2])
        elif word:
            names.update(n for n, _ in word[0][2])
        rho = {n: Fraction(0) for n in names} if out.reset_zero else {}
        env = dict(rho)
        for var, rhs in out.updates:
            v = _eval(rhs, pid, tuple(env.items()), word, vtuple)
            if v is None:
                return None
            env[var] = v if var in rat_vars else _int_store(v)
        return (pid, loc, tuple(sorted(env.items())))
    pid, loc, rho = vtuple[out.base]
    env = dict(rho)
    if out.instr is not None:
        if isinstance(out.instr, Assign):
            v = _eval(out.instr.expr, pid, rho, word, vtuple)
            if v is None:
                return None
            env[out.instr.var] = v if out.instr.var in rat_vars else _int_store(v)
        elif isinstance(out.instr, Filter):
            if not isinstance(out.instr.cond, E.Nondet):
                v = _eval(out.instr.cond, pid, rho, word, vtuple)
                if v is None:
                    return None
                if (v != 0) != (out.instr.branch == "then"):
                    return None
    for var, rhs in out.updates:
        v = _eval(rhs, pid, rho, word, vtuple)
        if v is None:
            return None
        env[var] = v if var in rat_vars else _int_store(v)
    if out.pid[0] == "const":
        pid = out.pid[1]
    elif out.pid[0] == "fresh":
        pid = Fraction(len(word))
    if out.loc is not None:
        loc = out.loc
    return (pid, loc, tuple(sorted(env.items())))


def _int_store(v: Fraction) -> Fraction:
    return Fraction(int(v))


def _apply_h_concrete(h, a: Atom, vtuple, rat_vars=frozenset()):
    if h.kind == "identity":
        return a
    pid, loc, rho = a
    env = dict(rho)
    for var, rhs in h.updates:
        v = _eval(rhs, pid, rho, None, vtuple)
        if v is None:
            return None
        env[var] = v if var in rat_vars else _int_store(v)
    if h.loc is not None:
        loc = h.loc
    return (pid, loc, tuple(sorted(env.items())))


def rule_image_words(rule, word, rat_vars=frozenset()):
    """All rewrites of one concrete word under the rule, by enumerating
    every decomposition u0 v1 u1 ... vn un against the guard."""
    n = len(rule.words)
    lens = [len(w) for w in rule.words]
    out = set()
    positions = _decompositions(len(word), lens)
    for cuts in positions:
        segs = _slices(word, cuts, lens)
        us, vs = segs
        ok = True
        for gi, u in zip(rule.stars, us):
            if gi is None:
                if u:
                    ok = False
                    break
                continue
            if not all(atom_matches_guard(a, gi) for a in u):
                ok = False
                break
        if not ok:
            continue
        for wi, v in zip(rule.words, vs):
            if not all(atom_matches_guard(a, g) for a, g in zip(v, wi)):
                ok = False
                break
        if not ok:
            continue
        vtuple = tuple(a for v in vs for a in v)
        pieces = []
        dead = False
        for i in range(n + 1):
            fw = []
            for spec in rule.f_specs[i]:
                img = eval_letter_out_concrete(spec, vtuple, word, rat_vars)
                if img is None:
                    dead = True
                    break
                fw.append(img)
            if dead:
                break
            pieces.append(tuple(fw))
            uw = []
            for a in us[i]:
                img = _apply_h_concrete(rule.h_specs[i], a, vtuple, rat_vars)
                if img is None:
                    dead = True
                    break
                uw.append(img)
            if dead:
                break
            pieces.append(tuple(uw))
        if dead:
            continue
        fw = []
        for spec in rule.f_specs[n + 1]:
            img = eval_letter_out_concrete(spec, vtuple, word, rat_vars)
            if img is None:
                dead = True
                break
            fw.append(img)
        if dead:
            continue
        pieces.append(tuple(fw))
        out.add(tuple(a for piece in pieces for a in piece))
    return out


def _decompositions(total, lens):
    """Start indices for the fixed-length match words inside a word of the
    given total length, in order and non-overlapping."""
    n = len(lens)
    if n == 0:
        return [()]
    out = []

    def rec(i, start, acc):
        if i == n:
            out.append(tuple(acc))
            return
        for pos in range(start, total - lens[i] + 1):
            rec(i + 1, pos + lens[i], acc + [pos])

    rec(0, 0, [])
    return out


def _slices(word, cuts, lens):
    us = []
    vs = []
    prev = 0
    for pos, ln in zip(cuts, lens):
        us.append(tuple(word[prev:pos]))
        vs.append(tuple(word[pos:pos + ln]))
        prev = pos + ln
    us.append(tuple(word[prev:]))
    return us, vs


def transducer_image_words(t, word, rat_vars=frozenset()):
    """All images of one concrete word under the letter-to-letter
    transducer: every letter is rewritten, in place, by some rule whose
    guard it meets."""
    out = {()}
    for a in word:
        images = set()
        for rule in t.rules:
            if atom_matches_guard(a, rule.guard):
                img = eval_letter_out_concrete(rule.output, (a,), word, rat_vars)
                if img is not None:
                    images.add(img)
        out = {prefix + (img,) for prefix in out for img in images}
    return out


def path_labels(a, q, n: int):
    """All (label sequence, end state) for the paths of length n from
    state q of a lattice automaton, read off its transition set."""
    acc = [((), q)]
    for _ in range(n):
        acc = [(labels + (l,), t) for labels, cur in acc
               for (s, l, t) in a.transitions if s == cur]
    return acc


def load_program(name: str) -> str:
    return (PROGRAMS / name).read_text(encoding="utf-8")
