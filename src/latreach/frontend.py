"""Language frontend: control-flow graph and semantics compiler.

``build_cfg`` lays a parsed program (``syntax.parse``) out as a graph
whose edges carry one instruction each; ``compile_program`` turns the
graph into the local-step transducer, the communication rules and the
initial automaton, which ``export.dump_semantics`` writes out as JSON
for inspection (``--dump-semantics``).
"""
from __future__ import annotations

from fractions import Fraction

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
)
from .syntax import (
    Assign,
    Ast,
    Block,
    Broadcast,
    Create,
    Filter,
    IfStmt,
    Receive,
    Reduce,
    Send,
    Skip,
    WhileStmt,
    instr_exprs,
)
from .transducer import (
    LatticeTransducer,
    LetterOut,
    TransducerRule,
)
from .value import frozen, replace


@frozen
class Edge:
    src: str
    instr: object
    dst: str


@frozen
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
        else:
            self.add(entry, node, exit_)


def build_cfg(ast: Ast) -> Cfg:
    """Locations are numbered in source order; while heads are the widening
    anchors; every edge carries one primitive instruction or filter.
    Declarations produce no edge."""
    b = _CfgBuilder()
    entry = b.fresh()
    if not ast.block.body:
        exit_ = b.fresh()
        b.add(entry, Skip(), exit_)
    else:
        cur = entry
        for s in ast.block.body:
            nxt = b.fresh()
            b.stmt(s, cur, nxt)
            cur = nxt
        exit_ = cur
    locations = tuple(f"l{i}" for i in range(b.count))
    return Cfg(locations, tuple(b.edges), entry, exit_, frozenset(b.loop_heads))


# ---------------------------------------------------------------------------
# compilation into transducer + rules + initial automaton


INACTIVITY = TransducerRule("inactivity", TOP_GUARD, LetterOut(base=0))


@frozen
class CompiledSemantics:
    ctx: DomainContext
    cfg: Cfg
    transducer: LatticeTransducer
    rules: tuple
    initial: LatticeAutomaton
    widen_locs: frozenset
    # Locations where only rules can move a letter: the exit, the sources
    # of send, receive, broadcast and reduce edges (build_cfg gives each
    # location one statement's edges, and these compile to rules) and the
    # reduce lock and collector locations.  No local rule but inactivity
    # reads them, so the deadlock check asks only the rules.
    blocking_locs: frozenset
    procs: object  # int | "unbounded" | "any"


class CompileError(Exception):
    pass


def _local_rule(edge: Edge) -> TransducerRule:
    instr = None if isinstance(edge.instr, Skip) else edge.instr
    return TransducerRule(f"local[{edge.src}->{edge.dst}]", GuardElement.at(edge.src),
                          LetterOut(base=0, loc=edge.dst, instr=instr))


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

    edges = tuple(replace(e, instr=_bind_nprocs(e.instr, procs)) for e in cfg.edges)
    cfg = replace(cfg, edges=edges)

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

    transducer = LatticeTransducer(tuple(sorted(local_rules + [INACTIVITY],
                                                key=lambda r: r.name)))
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


def _bind_nprocs(instr, procs):
    try:
        exprs = {f: E.bind_nprocs(ex, procs) for f, ex in instr_exprs(instr).items()}
    except ValueError as exc:
        raise CompileError(str(exc)) from None
    return replace(instr, **exprs)
