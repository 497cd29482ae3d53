"""Arithmetic and comparison expressions.

The same small AST is shared by the program parser, the concrete
interpreter and the abstract domains.  Expressions are pure data; every
evaluator lives with its own number representation.  Walks that only
read a tree go through nodes(), which needs no recursion; rewrites that
replace leaves (nprocs, partner frames, fresh identifiers) go through
substitute().
"""
from __future__ import annotations

import operator
from fractions import Fraction

from .value import frozen


@frozen
class Const:
    value: Fraction

    def __str__(self) -> str:
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"({self.value.numerator} / {self.value.denominator})"


@frozen
class Var:
    """A program variable; the reserved name ``id`` is the process identifier."""

    name: str

    def __str__(self) -> str:
        return self.name


@frozen
class PosVar:
    """Variable of the letter matched at a given position of a rewrite rule.

    Never produced by the surface parser; rule generators build these so a
    rewriter can mention its communication partner's environment.
    """

    pos: int
    name: str

    def __str__(self) -> str:
        return f"@{self.pos}.{self.name}"


@frozen
class NProcs:
    """Compile-time process count; only legal under a fixed --procs n."""

    def __str__(self) -> str:
        return "nprocs"


@frozen
class FreshId:
    """Identifier handed out by a create step; resolved at rule application."""

    def __str__(self) -> str:
        return "fresh_id"


@frozen
class IntervalConst:
    """A range of possible values (integral); bounds are Fractions or the
    float infinities.  Built only while resolving FreshId, never parsed."""

    lo: object
    hi: object

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@frozen
class Neg:
    arg: "Expr"

    def __str__(self) -> str:
        return f"(- {self.arg})"


@frozen
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


@frozen
class Nondet:
    """The ``*`` condition: both branches of the test are possible."""

    def __str__(self) -> str:
        return "*"


Expr = object  # Const | Var | PosVar | NProcs | FreshId | Neg | BinOp | Nondet

COMPARISONS = ("<", "<=", "==", "!=", ">=", ">")
_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            "!=": operator.ne, ">=": operator.ge, ">": operator.gt}
ARITH_OPS = ("+", "-", "*", "/", "%", "^")

# Size cap on the result of every arithmetic operator: a number whose
# numerator or denominator is 2 ** (MAX_POW_BITS + 1) or more is never
# kept (top, with an alarm, in the abstract domains; undefined in the
# concrete interpreter), so neither a user's 2 ^ 1000000000 nor a product
# of allowed powers can build an unbounded number.
MAX_POW_BITS = 4096


def number_too_big(q: Fraction) -> bool:
    """True when the numerator or denominator of q is at least
    2 ** (MAX_POW_BITS + 1)."""
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length()) - 1 > MAX_POW_BITS


def pow_too_big(base: Fraction, k: int) -> bool:
    """True when base ** k is too big to compute, estimated from below as
    |k| * (bit length - 1) bits, so a power that passes has at most about
    twice MAX_POW_BITS bits before number_too_big checks its result."""
    size = max(abs(base.numerator).bit_length(), base.denominator.bit_length())
    return abs(k) * (size - 1) > MAX_POW_BITS


def compare(op: str, a, b) -> bool:
    """Whether a <op> b holds, op one of COMPARISONS."""
    return _COMPARE[op](a, b)


def is_comparison(e) -> bool:
    return isinstance(e, BinOp) and e.op in COMPARISONS


NEGATED = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def negate_comparison(e: BinOp) -> BinOp:
    return BinOp(NEGATED[e.op], e.left, e.right)


def nodes(e):
    """Every node of e with its depth, the root at depth 1, in pre-order
    (a node, then its left operand's nodes, then its right's).  Iterative,
    so a tree of any height is walked without recursion."""
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, BinOp):
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
        elif isinstance(node, Neg):
            stack.append((node.arg, depth + 1))


def substitute(e, leaf):
    """e with every leaf node x (one that is neither Neg nor BinOp)
    replaced by leaf(x).  Recursive, so it is for parsed expressions,
    whose height the parser caps, and the rules built from them."""
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, leaf))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, leaf), substitute(e.right, leaf))
    return leaf(e)


def bind_nprocs(e, procs):
    """e with nprocs replaced by procs, a fixed process count; under
    'unbounded' or 'any', e itself, or a ValueError if e reads nprocs."""
    if isinstance(procs, int):
        return substitute(e, lambda x: Const(Fraction(procs)) if isinstance(x, NProcs) else x)
    if any(isinstance(node, NProcs) for node, _ in nodes(e)):
        raise ValueError("nprocs is only available under a fixed --procs n")
    return e


def to_affine(e):
    """Write e as sum(coeff * atom) + const, or None if that is impossible.

    Atoms are Var/PosVar occurrences; the result is (dict atom -> Fraction,
    Fraction constant).
    """
    if isinstance(e, Const):
        return {}, e.value
    if isinstance(e, (Var, PosVar)):
        return {e: Fraction(1)}, Fraction(0)
    if isinstance(e, Neg):
        aff = to_affine(e.arg)
        if aff is None:
            return None
        coeffs, c = aff
        return {a: -k for a, k in coeffs.items()}, -c
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        lhs = to_affine(e.left)
        rhs = to_affine(e.right)
        if lhs is None or rhs is None:
            return None
        lc, lk = lhs
        rc, rk = rhs
        sign = 1 if e.op == "+" else -1
        merged = dict(lc)
        for a, k in rc.items():
            merged[a] = merged.get(a, Fraction(0)) + sign * k
        merged = {a: k for a, k in merged.items() if k != 0}
        return _within_cap(merged, lk + sign * rk)
    if isinstance(e, BinOp) and e.op == "*":
        lhs = to_affine(e.left)
        rhs = to_affine(e.right)
        if lhs is None or rhs is None:
            return None
        lc, lk = lhs
        rc, rk = rhs
        if not lc:  # constant * affine
            return _within_cap({a: lk * k for a, k in rc.items() if lk * k != 0}, lk * rk)
        if not rc:
            return _within_cap({a: rk * k for a, k in lc.items() if rk * k != 0}, lk * rk)
        return None
    if isinstance(e, BinOp) and e.op == "/":
        rhs = to_affine(e.right)
        if rhs is None or rhs[0]:
            return None
        divisor = rhs[1]
        if divisor == 0:
            return None
        lhs = to_affine(e.left)
        if lhs is None:
            return None
        lc, lk = lhs
        return _within_cap({a: k / divisor for a, k in lc.items()}, lk / divisor)
    return None


def _within_cap(coeffs: dict, const: Fraction):
    """The affine form, or None when a number in it is past the size cap
    (the caller then falls back to the capped interval evaluation)."""
    if number_too_big(const) or any(number_too_big(k) for k in coeffs.values()):
        return None
    return coeffs, const


def at_position(e, pos: int):
    """Move every Var of e into the frame of the letter matched at pos."""
    return substitute(e, lambda x: PosVar(pos, x.name) if isinstance(x, Var) else x)


def to_source(e) -> str:
    """Deterministic surface form.  PosVar and FreshId, which the surface
    grammar lacks, print readably for dumps as @pos.var and fresh_id."""
    return str(e)
