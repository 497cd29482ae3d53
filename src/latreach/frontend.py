"""Language frontend: parser, control-flow graph and semantics compiler.

The surface language is a small C-flavoured imperative language with
synchronous communications (send/receive/broadcast), dynamic process
creation and an all-to-one reduce.  ``//`` comments run to end of line;
variables default to integers, a ``rat`` declaration makes them exact
rationals; the condition ``*`` is a nondeterministic coin flip.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import expr as E
from .automaton import LatticeAutomaton, normalize
from .domain import DomainContext, GuardElement, Interval, POS_INF, TOP_GUARD
from .rules import (
    collector_loc,
    lock_loc,
    make_broadcast_rule,
    make_create_rule,
    make_reduce_rules,
    make_send_receive_rule,
    rule_from_json,
    rule_to_json,
)
from .transducer import (
    LatticeTransducer,
    LetterOut,
    TransducerRule,
    transducer_from_json,
    transducer_to_json,
)


# Longest number literal accepted; longer ones are parse errors, so no
# user literal builds an unbounded number.
MAX_LITERAL_DIGITS = 1000


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Block:
    body: tuple


@dataclass(frozen=True)
class AssignStmt:
    var: str
    expr: object


@dataclass(frozen=True)
class IfStmt:
    cond: object
    then_body: object
    else_body: Optional[object]


@dataclass(frozen=True)
class WhileStmt:
    cond: object
    body: object


@dataclass(frozen=True)
class CreateStmt:
    var: str


@dataclass(frozen=True)
class SendStmt:
    target: Optional[object]  # None = any_id
    var: str


@dataclass(frozen=True)
class ReceiveStmt:
    source: Optional[object]
    var: str


@dataclass(frozen=True)
class BroadcastStmt:
    root: object
    var: str


@dataclass(frozen=True)
class ReduceStmt:
    acc: str
    src: str
    op: str
    root: object


@dataclass(frozen=True)
class DeclStmt:
    kind: str  # "int" | "rat"
    names: tuple


@dataclass(frozen=True)
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
  | (?P<posvar>@\d+\.[A-Za-z_][A-Za-z_0-9]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|<=|>=|==|!=|[-+*/%^<>(){},;])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "if", "else", "while", "create", "send", "receive", "broadcast",
    "reduce", "any_id", "rat", "int", "min", "max", "id", "nprocs",
    "fresh_id",
}


@dataclass
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
            elif kind == "posvar":
                tokens.append(Token("posvar", value, line, col))
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

    # expressions ----------------------------------------------------------
    def parse_expr(self):
        return self._cmp()

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
            self.next()
            return E.Var(t.text)
        if t.kind == "id":
            self.next()
            return E.Var("id")
        if t.kind == "nprocs":
            self.next()
            return E.NProcs()
        if t.kind == "fresh_id":
            self.next()
            return E.FreshId()
        if t.kind == "posvar":
            # partner-frame atom @<pos>.<var>; only produced by dumps
            self.next()
            pos, _, name = t.text[1:].partition(".")
            return E.PosVar(int(pos), name)
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
    def parse_program(self) -> Block:
        body = []
        while self.peek().kind != "eof":
            body.append(self.parse_stmt())
        return Block(tuple(body))

    def parse_stmt(self):
        t = self.peek()
        if t.kind == "{":
            self.next()
            body = []
            while self.peek().kind != "}":
                if self.peek().kind == "eof":
                    self.error("unterminated block")
                body.append(self.parse_stmt())
            self.next()
            return Block(tuple(body))
        if t.kind == "if":
            self.next()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            then_body = self.parse_stmt()
            else_body = None
            if self.peek().kind == "else":
                self.next()
                else_body = self.parse_stmt()
            return IfStmt(cond, then_body, else_body)
        if t.kind == "while":
            self.next()
            self.expect("(")
            cond = self.parse_condition()
            self.expect(")")
            return WhileStmt(cond, self.parse_stmt())
        if t.kind == "create":
            self.next()
            self.expect("(")
            var = self.expect("ident").text
            self.expect(")")
            self.expect(";")
            return CreateStmt(var)
        if t.kind == "send" or t.kind == "receive":
            kind = self.next().kind
            self.expect("(")
            target = self._id_arg()
            self.expect(",")
            var = self.expect("ident").text
            self.expect(")")
            self.expect(";")
            if kind == "send":
                return SendStmt(target, var)
            return ReceiveStmt(target, var)
        if t.kind == "broadcast":
            self.next()
            self.expect("(")
            root = self.parse_expr()
            self.expect(",")
            var = self.expect("ident").text
            self.expect(")")
            self.expect(";")
            return BroadcastStmt(root, var)
        if t.kind == "reduce":
            self.next()
            self.expect("(")
            acc = self.expect("ident").text
            self.expect(",")
            src = self.expect("ident").text
            self.expect(",")
            op_tok = self.next()
            if op_tok.kind not in ("+", "*", "min", "max"):
                raise ParseError("reduce operator must be +, *, min or max",
                                 op_tok.line, op_tok.col)
            self.expect(",")
            root = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ReduceStmt(acc, src, op_tok.kind, root)
        if t.kind in ("rat", "int"):
            kind = self.next().kind
            names = [self.expect("ident").text]
            while self.peek().kind == ",":
                self.next()
                names.append(self.expect("ident").text)
            self.expect(";")
            return DeclStmt(kind, tuple(names))
        if t.kind == "ident":
            var = self.next().text
            self.expect(":=")
            e = self.parse_expr()
            self.expect(";")
            return AssignStmt(var, e)
        self.error(f"expected a statement, found {t.text or t.kind!r}")


def _collect_vars(node, names, rats):
    if isinstance(node, Block):
        for s in node.body:
            _collect_vars(s, names, rats)
    elif isinstance(node, AssignStmt):
        names.add(node.var)
        names.update(E.free_vars(node.expr) - {"id"})
    elif isinstance(node, IfStmt):
        if not isinstance(node.cond, E.Nondet):
            names.update(E.free_vars(node.cond) - {"id"})
        _collect_vars(node.then_body, names, rats)
        if node.else_body is not None:
            _collect_vars(node.else_body, names, rats)
    elif isinstance(node, WhileStmt):
        if not isinstance(node.cond, E.Nondet):
            names.update(E.free_vars(node.cond) - {"id"})
        _collect_vars(node.body, names, rats)
    elif isinstance(node, CreateStmt):
        names.add(node.var)
    elif isinstance(node, (SendStmt, ReceiveStmt)):
        names.add(node.var)
        arg = node.target if isinstance(node, SendStmt) else node.source
        if arg is not None:
            names.update(E.free_vars(arg) - {"id"})
    elif isinstance(node, BroadcastStmt):
        names.add(node.var)
        names.update(E.free_vars(node.root) - {"id"})
    elif isinstance(node, ReduceStmt):
        names.add(node.acc)
        names.add(node.src)
        names.update(E.free_vars(node.root) - {"id"})
    elif isinstance(node, DeclStmt):
        names.update(node.names)
        if node.kind == "rat":
            rats.update(node.names)


def parse(text: str) -> Ast:
    """Parse a program; raises ParseError with line/column on bad input."""
    block = _Parser(text).parse_program()
    names, rats = set(), set()
    _collect_vars(block, names, rats)
    if "id" in rats:
        raise ParseError("id cannot be declared rational", 1, 1)
    return Ast(block, frozenset(rats), tuple(sorted(names)))


def parse_expr(text: str):
    """Parse a single expression (used by property files and JSON dumps)."""
    p = _Parser(text)
    if p.peek().kind == "*":
        p.next()
        e = E.Nondet()
    else:
        e = p.parse_expr()
    p.expect("eof")
    return e


# ---------------------------------------------------------------------------
# control-flow graph


@dataclass(frozen=True)
class Assign:
    var: str
    expr: object


@dataclass(frozen=True)
class Filter:
    cond: object
    branch: str  # "then" | "else"


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Send:
    target: Optional[object]
    var: str


@dataclass(frozen=True)
class Receive:
    source: Optional[object]
    var: str


@dataclass(frozen=True)
class Broadcast:
    root: object
    var: str


@dataclass(frozen=True)
class Create:
    var: str


@dataclass(frozen=True)
class Reduce:
    acc: str
    src: str
    op: str
    root: object


@dataclass(frozen=True)
class Edge:
    src: str
    instr: object
    dst: str


@dataclass(frozen=True)
class Cfg:
    locations: tuple
    edges: tuple
    entry: str
    exit: str
    loop_heads: frozenset


class _CfgBuilder:
    def __init__(self):
        self.count = 0
        self.edges = []
        self.loop_heads = set()

    def fresh(self) -> str:
        loc = f"l{self.count}"
        self.count += 1
        return loc

    def add(self, src, instr, dst):
        self.edges.append(Edge(src, instr, dst))

    def stmt(self, node, entry, exit_) -> None:
        if isinstance(node, Block):
            if not node.body:
                # no-op block still needs an edge to keep the graph connected
                self.add(entry, Skip(), exit_)
                return
            cur = entry
            for i, s in enumerate(node.body):
                nxt = exit_ if i == len(node.body) - 1 else self.fresh()
                self.stmt(s, cur, nxt)
                cur = nxt
        elif isinstance(node, AssignStmt):
            self.add(entry, Assign(node.var, node.expr), exit_)
        elif isinstance(node, IfStmt):
            then_entry = self.fresh()
            self.add(entry, Filter(node.cond, "then"), then_entry)
            self.stmt(node.then_body, then_entry, exit_)
            if node.else_body is not None:
                else_entry = self.fresh()
                self.add(entry, Filter(node.cond, "else"), else_entry)
                self.stmt(node.else_body, else_entry, exit_)
            else:
                self.add(entry, Filter(node.cond, "else"), exit_)
        elif isinstance(node, WhileStmt):
            self.loop_heads.add(entry)
            body_entry = self.fresh()
            self.add(entry, Filter(node.cond, "then"), body_entry)
            self.stmt(node.body, body_entry, entry)
            self.add(entry, Filter(node.cond, "else"), exit_)
        elif isinstance(node, CreateStmt):
            self.add(entry, Create(node.var), exit_)
        elif isinstance(node, SendStmt):
            self.add(entry, Send(node.target, node.var), exit_)
        elif isinstance(node, ReceiveStmt):
            self.add(entry, Receive(node.source, node.var), exit_)
        elif isinstance(node, BroadcastStmt):
            self.add(entry, Broadcast(node.root, node.var), exit_)
        elif isinstance(node, ReduceStmt):
            self.add(entry, Reduce(node.acc, node.src, node.op, node.root), exit_)
        else:
            raise TypeError(f"unknown statement {node!r}")


def _strip_decls(node):
    if isinstance(node, Block):
        return Block(tuple(
            _strip_decls(s) for s in node.body if not isinstance(s, DeclStmt)
        ))
    if isinstance(node, IfStmt):
        return IfStmt(node.cond, _strip_decls(node.then_body),
                      None if node.else_body is None else _strip_decls(node.else_body))
    if isinstance(node, WhileStmt):
        return WhileStmt(node.cond, _strip_decls(node.body))
    return node


def build_cfg(ast: Ast) -> Cfg:
    """Locations are numbered in source order; while heads are the widening
    anchors; every edge carries one primitive instruction or filter.
    Declarations produce no edge."""
    b = _CfgBuilder()
    entry = b.fresh()
    block = _strip_decls(ast.block)
    if not block.body:
        exit_ = b.fresh()
        b.add(entry, Skip(), exit_)
    else:
        cur = entry
        for i, s in enumerate(block.body):
            nxt = b.fresh()
            b.stmt(s, cur, nxt)
            cur = nxt
        exit_ = cur
    locations = tuple(f"l{i}" for i in range(b.count))
    return Cfg(locations, tuple(b.edges), entry, exit_, frozenset(b.loop_heads))


# ---------------------------------------------------------------------------
# compilation into transducer + rules + initial automaton


INACTIVITY = TransducerRule("inactivity", (TOP_GUARD,), (LetterOut(base=0),))


@dataclass(frozen=True)
class CompiledSemantics:
    ctx: DomainContext
    cfg: Cfg
    transducer: LatticeTransducer
    rules: tuple
    initial: LatticeAutomaton
    widen_locs: frozenset
    blocking_locs: frozenset  # locations where only rules can move a letter
    procs: object  # int | "unbounded" | "any"


class CompileError(Exception):
    pass


def _local_rule(edge: Edge) -> TransducerRule:
    instr = None if isinstance(edge.instr, Skip) else edge.instr
    out = LetterOut(base=0, loc=edge.dst, instr=instr)
    return TransducerRule(
        f"local[{edge.src}->{edge.dst}]",
        (GuardElement.at(edge.src),),
        (out,),
    )


def initial_automaton(ctx: DomainContext, entry: str, procs) -> LatticeAutomaton:
    """Chain of pinned letters for a fixed count; the root letter for the
    unbounded-creation mode; a letter loop for an unknown initial count."""
    if procs == "unbounded":
        procs = 1
    if procs == "any":
        letter = ctx.zero_letter(Interval(Fraction(0), POS_INF), entry)
        return normalize(LatticeAutomaton(
            frozenset({0, 1}), frozenset({0}), frozenset({1}),
            frozenset({(0, letter, 1), (1, letter, 1)}),
        ))
    letters = [ctx.zero_letter(Interval.point(i), entry) for i in range(procs)]
    return normalize(LatticeAutomaton.from_word(letters))


def compile_program(ast: Ast, domain: str, procs) -> CompiledSemantics:
    """Compile into local-step transducer, communication rules and the
    initial automaton.  Every CFG edge lands in exactly one of the two."""
    cfg = build_cfg(ast)
    if domain not in ("interval", "affine"):
        raise CompileError(f"unknown domain {domain!r}")
    if procs not in ("unbounded", "any") and (not isinstance(procs, int) or procs < 1):
        raise CompileError("--procs expects a positive integer, 'unbounded' or 'any'")

    variables = tuple(v for v in ast.variables)
    ctx = DomainContext(domain, variables, frozenset(ast.rat_vars))

    if procs in ("unbounded", "any"):
        for e in cfg.edges:
            for ex in _edge_exprs(e):
                if E.uses_nprocs(ex):
                    raise CompileError("nprocs is only available under a fixed --procs n")
        edges = cfg.edges
    else:
        edges = tuple(Edge(e.src, _subst_instr(e.instr, procs), e.dst) for e in cfg.edges)
        cfg = Cfg(cfg.locations, edges, cfg.entry, cfg.exit, cfg.loop_heads)

    local_rules = []
    comm_rules = []
    receives = [e for e in edges if isinstance(e.instr, Receive)]
    has_create = False
    rat = ast.rat_vars
    for e in edges:
        if isinstance(e.instr, Create) and e.instr.var in rat:
            raise CompileError("create stores an integer id; target must be int")
        if isinstance(e.instr, Reduce) and (e.instr.src in rat) and (e.instr.acc not in rat):
            raise CompileError("reduce of a rational source needs a rational accumulator")
    for e in edges:
        if isinstance(e.instr, (Assign, Filter, Skip)):
            local_rules.append(_local_rule(e))
        elif isinstance(e.instr, Send):
            for er in receives:
                if (e.instr.var in rat) != (er.instr.var in rat):
                    raise CompileError(
                        f"send({e.instr.var})/receive({er.instr.var}) mix rational "
                        "and integer variables")
                comm_rules.extend(make_send_receive_rule(e, er))
        elif isinstance(e.instr, Receive):
            pass  # paired from the send side
        elif isinstance(e.instr, Broadcast):
            comm_rules.append(make_broadcast_rule(e))
        elif isinstance(e.instr, Create):
            has_create = True
            comm_rules.append(make_create_rule(e, cfg.entry))
        elif isinstance(e.instr, Reduce):
            comm_rules.extend(make_reduce_rules(e))
        else:
            raise CompileError(f"cannot compile edge {e!r}")

    transducer = LatticeTransducer.single_state(tuple(local_rules) + (INACTIVITY,))
    widen_locs = set(cfg.loop_heads)
    if has_create:
        # The spawn chain is an implicit loop: its head is the entry and its
        # value feedback re-enters local flow at receive targets.
        widen_locs.add(cfg.entry)
        widen_locs.update(e.dst for e in edges if isinstance(e.instr, Receive))
    blocking = {cfg.exit}
    for e in edges:
        if isinstance(e.instr, Reduce):
            widen_locs.add(collector_loc(e.src))
            blocking.update({e.src, lock_loc(e.src), collector_loc(e.src)})
        if isinstance(e.instr, (Send, Receive, Broadcast)):
            blocking.add(e.src)
    init = initial_automaton(ctx, cfg.entry, procs)
    return CompiledSemantics(ctx, cfg, transducer, tuple(comm_rules), init,
                             frozenset(widen_locs), frozenset(blocking), procs)


def _edge_exprs(e: Edge):
    i = e.instr
    if isinstance(i, Assign):
        return [i.expr]
    if isinstance(i, Filter):
        return [] if isinstance(i.cond, E.Nondet) else [i.cond]
    if isinstance(i, Send):
        return [] if i.target is None else [i.target]
    if isinstance(i, Receive):
        return [] if i.source is None else [i.source]
    if isinstance(i, Broadcast):
        return [i.root]
    if isinstance(i, Reduce):
        return [i.root]
    return []


def _subst_instr(instr, n: int):
    if isinstance(instr, Assign):
        return Assign(instr.var, E.substitute_nprocs(instr.expr, n))
    if isinstance(instr, Filter):
        if isinstance(instr.cond, E.Nondet):
            return instr
        return Filter(E.substitute_nprocs(instr.cond, n), instr.branch)
    if isinstance(instr, Send):
        return Send(None if instr.target is None else E.substitute_nprocs(instr.target, n), instr.var)
    if isinstance(instr, Receive):
        return Receive(None if instr.source is None else E.substitute_nprocs(instr.source, n), instr.var)
    if isinstance(instr, Broadcast):
        return Broadcast(E.substitute_nprocs(instr.root, n), instr.var)
    if isinstance(instr, Reduce):
        return Reduce(instr.acc, instr.src, instr.op, E.substitute_nprocs(instr.root, n))
    return instr


# ---------------------------------------------------------------------------
# semantics dump / reload


def dump_semantics(sem: CompiledSemantics) -> dict:
    from .automaton import to_json

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


def load_semantics(d: dict) -> CompiledSemantics:
    from .automaton import from_json

    ctx = DomainContext(d["domain"], tuple(d["variables"]), frozenset(d["rat_vars"]))
    cfg = Cfg(tuple(d["locations"]), (), d["entry"], d["exit"], frozenset(d["loop_heads"]))
    return CompiledSemantics(
        ctx, cfg,
        transducer_from_json(d["transducer"]),
        tuple(rule_from_json(r) for r in d["rules"]),
        from_json(d["initial"]),
        frozenset(d["widen_locs"]),
        frozenset(d["blocking_locs"]),
        d["procs"],
    )
