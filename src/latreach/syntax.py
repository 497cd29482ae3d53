"""Surface syntax: lexer, parser, AST and the instruction set.

The surface language is a small C-flavoured imperative language with
synchronous communications (send/receive/broadcast), dynamic process
creation and an all-to-one reduce.  ``//`` comments run to end of line;
variables default to integers, a ``rat`` declaration makes them exact
rationals, and declaring a variable both ``rat`` and ``int`` is an error;
the condition ``*`` is a nondeterministic coin flip.

Primitive statements parse directly into the instructions that label the
edges of the control-flow graph (``frontend.build_cfg``).  Declarations
make no node: the parser records them in the ``Ast``.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from . import expr as E
from .value import frozen


# Longest number literal accepted; longer ones are parse errors, so no
# user literal builds an unbounded number.
MAX_LITERAL_DIGITS = 1000

# Deepest nesting accepted, counted separately for the statements of a
# program (blocks, ifs and whiles) and for an expression (parentheses,
# operands and the height of its tree).  Deeper input is a parse error,
# so the parser and every recursive walker over what it builds stay far
# below the interpreter's recursion limit.
MAX_NESTING = 32


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# instructions


class Instr:
    """An edge instruction.  ``EXPRS`` names its expression fields."""

    EXPRS = ()


def instr_exprs(instr: Instr) -> dict:
    """The expression fields of an instruction, by name.  An ``any_id``
    argument is None and a ``*`` condition is ``Nondet``; the expr helpers
    read both as an expression without variables."""
    return {f: getattr(instr, f) for f in instr.EXPRS}


@frozen
class Assign(Instr):
    var: str
    expr: object
    EXPRS = ("expr",)


@frozen
class Filter(Instr):
    cond: object
    branch: str  # "then" | "else"
    EXPRS = ("cond",)


@frozen
class Skip(Instr):
    pass


@frozen
class Send(Instr):
    target: Optional[object]  # None = any_id
    var: str
    EXPRS = ("target",)


@frozen
class Receive(Instr):
    source: Optional[object]  # None = any_id
    var: str
    EXPRS = ("source",)


@frozen
class Broadcast(Instr):
    root: object
    var: str
    EXPRS = ("root",)


@frozen
class Create(Instr):
    var: str


@frozen
class Reduce(Instr):
    acc: str
    src: str
    op: str
    root: object
    EXPRS = ("root",)


# ---------------------------------------------------------------------------
# AST


@frozen
class Block:
    body: tuple


@frozen
class IfStmt:
    cond: object
    then_body: object
    else_body: Optional[object]


@frozen
class WhileStmt:
    cond: object
    body: object


@frozen
class Ast:
    block: Block
    rat_vars: frozenset
    variables: tuple  # every variable, declared or by use, sorted


# ---------------------------------------------------------------------------
# lexer


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|<=|>=|==|!=|[-+*/%^<>(){},;])
    """,
    re.VERBOSE,
)

# fresh_id is no expression: it is reserved because --dump-semantics
# writes create's fresh identifier under that name, which must not be
# mistaken for a program variable.
KEYWORDS = {
    "if", "else", "while", "create", "send", "receive", "broadcast",
    "reduce", "any_id", "rat", "int", "min", "max", "id", "nprocs",
    "fresh_id",
}


@frozen
class Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        value = m.group()
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "name" and value in KEYWORDS:
                tokens.append(Token(value, value, line, col))
            elif kind == "num":
                tokens.append(Token("num", value, line, col))
            elif kind == "name":
                tokens.append(Token("ident", value, line, col))
            else:
                tokens.append(Token(value, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.pos = 0
        self.names = set()  # every variable declared, read or written
        self.kinds = {}  # variable -> "rat" or "int", as declared
        self.depth = {"statement": 0, "expression": 0}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def error(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    @contextmanager
    def nested(self, kind: str):
        """One level deeper in kind; past MAX_NESTING, a parse error.  A
        with block adds no frame, so the recursion is not deepened."""
        self.depth[kind] += 1
        if self.depth[kind] > MAX_NESTING:
            self.error(f"{kind}s nested deeper than {MAX_NESTING} levels")
        yield
        self.depth[kind] -= 1

    def ident(self) -> str:
        name = self.expect("ident").text
        self.names.add(name)
        return name

    def declare(self, kind: str) -> None:
        t = self.peek()
        name = self.ident()
        if self.kinds.setdefault(name, kind) != kind:
            raise ParseError(f"{name} is declared both rat and int", t.line, t.col)

    # expressions ----------------------------------------------------------
    def parse_expr(self):
        """An expression; the nesting cap applies to each side of a
        comparison, so x == e is allowed wherever x := e is."""
        e = self._cmp()
        sides = (e.left, e.right) if E.is_comparison(e) else (e,)
        if max(depth for side in sides for _, depth in E.nodes(side)) > MAX_NESTING:
            self.error(f"expressions nested deeper than {MAX_NESTING} levels")
        return e

    def _cmp(self):
        left = self._add()
        if self.peek().kind in E.COMPARISONS:
            op = self.next().kind
            right = self._add()
            return E.BinOp(op, left, right)
        return left

    def _add(self):
        out = self._mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            out = E.BinOp(op, out, self._mul())
        return out

    def _mul(self):
        out = self._unary()
        while self.peek().kind in ("*", "/", "%"):
            op = self.next().kind
            out = E.BinOp(op, out, self._unary())
        return out

    def _unary(self):
        # every nested operand is parsed here, so counting these calls
        # bounds the parser's recursion
        with self.nested("expression"):
            if self.peek().kind == "-":
                self.next()
                return E.Neg(self._unary())
            return self._pow()

    def _pow(self):
        base = self._atom()
        if self.peek().kind == "^":
            self.next()
            return E.BinOp("^", base, self._unary())
        return base

    def _atom(self):
        t = self.peek()
        if t.kind == "num":
            if len(t.text) > MAX_LITERAL_DIGITS:
                self.error(f"number literal longer than {MAX_LITERAL_DIGITS} digits")
            self.next()
            return E.Const(Fraction(int(t.text)))
        if t.kind == "ident":
            return E.Var(self.ident())
        if t.kind == "id":
            self.next()
            return E.Var("id")
        if t.kind == "nprocs":
            self.next()
            return E.NProcs()
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind in ("min", "max"):
            op = self.next().kind
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return E.BinOp(op, a, b)
        if t.kind == "any_id":
            self.error("any_id is only legal as the id argument of send/receive")
        self.error(f"expected an expression, found {t.text or t.kind!r}")

    def parse_condition(self):
        if self.peek().kind == "*" and self.toks[self.pos + 1].kind == ")":
            self.next()
            return E.Nondet()
        return self.parse_expr()

    def _id_arg(self):
        if self.peek().kind == "any_id":
            self.next()
            return None
        return self.parse_expr()

    # statements -----------------------------------------------------------
    def parse_block(self, end: str) -> Block:
        """Statements up to and including the ``end`` token."""
        body = []
        while self.peek().kind != end:
            if self.peek().kind == "eof":
                self.error("unterminated block")
            stmt = self.parse_stmt()
            if stmt is not None:
                body.append(stmt)
        self.next()
        return Block(tuple(body))

    def parse_body(self):
        """The body of if, else or while; a declaration there is an empty
        block, as ``{ int y; }`` is."""
        return self.parse_stmt() or Block(())

    def parse_stmt(self):
        """One statement: a Block, IfStmt, WhileStmt or instruction, or
        None for a declaration."""
        with self.nested("statement"):
            return self._stmt()

    def _stmt(self):
        t = self.peek()
        if t.kind == "{":
            self.next()
            return self.parse_block("}")
        if t.kind == "if":
            self.next()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            then_body = self.parse_body()
            else_body = None
            if self.peek().kind == "else":
                self.next()
                else_body = self.parse_body()
            return IfStmt(cond, then_body, else_body)
        if t.kind == "while":
            self.next()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            return WhileStmt(cond, self.parse_body())
        if t.kind == "create":
            self.next()
            self.expect("(")
            var = self.ident()
            self.expect(")")
            self.expect(";")
            return Create(var)
        if t.kind == "send" or t.kind == "receive":
            kind = self.next().kind
            self.expect("(")
            target = self._id_arg()
            self.expect(",")
            var = self.ident()
            self.expect(")")
            self.expect(";")
            if kind == "send":
                return Send(target, var)
            return Receive(target, var)
        if t.kind == "broadcast":
            self.next()
            self.expect("(")
            root = self.parse_expr()
            self.expect(",")
            var = self.ident()
            self.expect(")")
            self.expect(";")
            return Broadcast(root, var)
        if t.kind == "reduce":
            self.next()
            self.expect("(")
            acc = self.ident()
            self.expect(",")
            src = self.ident()
            self.expect(",")
            op_tok = self.next()
            if op_tok.kind not in ("+", "*", "min", "max"):
                raise ParseError("reduce operator must be +, *, min or max",
                                 op_tok.line, op_tok.col)
            self.expect(",")
            root = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return Reduce(acc, src, op_tok.kind, root)
        if t.kind in ("rat", "int"):
            kind = self.next().kind
            self.declare(kind)
            while self.peek().kind == ",":
                self.next()
                self.declare(kind)
            self.expect(";")
            return None
        if t.kind == "ident":
            var = self.ident()
            self.expect(":=")
            e = self.parse_expr()
            self.expect(";")
            return Assign(var, e)
        self.error(f"expected a statement, found {t.text or t.kind!r}")


def parse(text: str) -> Ast:
    """Parse a program; raises ParseError with line/column on bad input."""
    p = _Parser(text)
    block = p.parse_block("eof")
    rats = frozenset(name for name, kind in p.kinds.items() if kind == "rat")
    if "id" in rats:
        raise ParseError("id cannot be declared rational", 1, 1)
    return Ast(block, rats, tuple(sorted(p.names)))


def parse_expr(text: str):
    """Parse a single expression (both sides of a property constraint)."""
    p = _Parser(text)
    e = p.parse_expr()
    p.expect("eof")
    return e
