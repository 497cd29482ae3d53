import json
from fractions import Fraction

import pytest

import latreach.expr as E
from latreach.concrete import bounded_language
from latreach.domain import Interval
from latreach.export import dump_semantics, to_json
from latreach.frontend import (
    CompileError,
    build_cfg,
    compile_program,
)
from latreach.syntax import (
    Assign,
    Broadcast,
    Create,
    Filter,
    IfStmt,
    ParseError,
    Receive,
    Reduce,
    Send,
    WhileStmt,
    parse,
    parse_expr,
)

from helpers import load_program

F = Fraction


# ---------------------------------------------------------------------------
# parsing


def test_parse_running_example_shape():
    ast = parse(load_program("create_chain.prog"))
    body = ast.block.body
    assert isinstance(body[0], IfStmt)
    assert isinstance(body[0].then_body, Assign)
    assert body[0].else_body is not None
    kinds = [type(s).__name__ for s in body[1:]]
    assert kinds == ["Create", "Assign", "Send"]
    assert ast.variables == ("next", "x")


def test_parse_empty_program():
    ast = parse("")
    assert ast.block.body == ()
    cfg = build_cfg(ast)
    assert len(cfg.locations) == 2 and len(cfg.edges) == 1


def test_parse_while_marks_loop_head():
    ast = parse("while (x) x := x - 1;")
    cfg = build_cfg(ast)
    assert cfg.entry in cfg.loop_heads
    loop = [s for s in ast.block.body if isinstance(s, WhileStmt)]
    assert loop


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x := ;")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("x := any_id + 1;")  # any_id outside send/receive
    with pytest.raises(ParseError):
        parse("reduce(t, s, +);")  # missing root argument
    with pytest.raises(ParseError):
        parse("if (x > 1 x := 2;")


def test_parse_comments_and_rationals_decl():
    ast = parse("// leading\nrat a, b;\na := 1;\n")
    assert ast.rat_vars == frozenset({"a", "b"})


def test_parse_expr_round_trip():
    for text in ("x + 4", "1 / 2 ^ (id + 1)", "2 + ((me + 1) % 2)", "min(x, y)"):
        e = parse_expr(text)
        assert parse_expr(E.to_source(e)) == e


# ---------------------------------------------------------------------------
# control-flow graph


def test_cfg_straight_line():
    ast = parse("x := 1; x := 2;")
    cfg = build_cfg(ast)
    assert len(cfg.locations) == 3
    assert len(cfg.edges) == 2
    assert cfg.entry == "l0" and cfg.exit == "l2"


def test_cfg_if_else_diamond():
    ast = parse("if (x > 0) x := 1; else x := 2;")
    cfg = build_cfg(ast)
    filters = [e for e in cfg.edges if isinstance(e.instr, Filter)]
    assigns = [e for e in cfg.edges if isinstance(e.instr, Assign)]
    assert len(filters) == 2 and len(assigns) == 2
    assert {f.instr.branch for f in filters} == {"then", "else"}
    # both branches rejoin at the same exit
    assert {a.dst for a in assigns} == {cfg.exit}


def test_cfg_numbering_stable_across_reparses():
    text = load_program("dining_philosophers.prog")
    c1 = build_cfg(parse(text))
    c2 = build_cfg(parse(text))
    assert c1 == c2
    assert c1.locations == tuple(f"l{i}" for i in range(len(c1.locations)))


def test_every_loop_has_a_widening_anchor():
    ast = parse("while (x < 3) { x := x + 1; while (y) y := y - 1; }")
    cfg = build_cfg(ast)
    # every cycle of the edge graph passes through a loop head
    adj = {}
    for e in cfg.edges:
        adj.setdefault(e.src, []).append(e.dst)

    def cycle_free_without(heads):
        color = {}

        def dfs(u):
            color[u] = 1
            for v in adj.get(u, ()):
                if v in heads:
                    continue
                if color.get(v, 0) == 1:
                    return False
                if color.get(v, 0) == 0 and not dfs(v):
                    return False
            color[u] = 2
            return True

        return all(dfs(q) for q in cfg.locations
                   if color.get(q, 0) == 0 and q not in heads)

    assert cycle_free_without(cfg.loop_heads)
    assert not cycle_free_without(frozenset())


# ---------------------------------------------------------------------------
# compilation


def test_compile_edge_partition():
    ast = parse(load_program("create_chain.prog"))
    cfg = build_cfg(ast)
    sem = compile_program(ast, "interval", 2)
    local = [r for r in sem.transducer.rules if r.name != "inactivity"]
    comm_edges = [e for e in cfg.edges
                  if isinstance(e.instr, (Send, Receive, Broadcast, Create, Reduce))]
    assert len(local) + len(comm_edges) == len(cfg.edges)
    names = [r.name for r in sem.transducer.rules]
    assert "inactivity" in names and names == sorted(set(names))


def test_compile_no_communication_means_no_rules():
    sem = compile_program(parse("x := 1; x := x + 1;"), "interval", 1)
    assert sem.rules == ()


def test_initial_automaton_two_procs():
    sem = compile_program(parse("x := 1;"), "interval", 2)
    labels = sorted(((l.pid, l.loc) for (_, l, _) in sem.initial.transitions),
                    key=lambda pair: pair[0].sort_key())
    assert labels == [(Interval.point(0), "l0"), (Interval.point(1), "l0")]
    for (_, l, _) in sem.initial.transitions:
        assert l.env.get("x") == Interval.point(0)


def test_initial_automaton_unbounded_is_single_root():
    sem = compile_program(parse("create(n);"), "interval", "unbounded")
    labels = [(l.pid, l.loc) for (_, l, _) in sem.initial.transitions]
    assert labels == [(Interval.point(0), "l0")]


def test_initial_automaton_any_is_letter_loop():
    sem = compile_program(parse("x := 1;"), "interval", "any")
    univ = list(range(0, 3))
    lang = bounded_language(sem.ctx, sem.initial, 3, univ)
    lengths = {len(w) for w in lang}
    assert lengths == {1, 2, 3}
    assert all(l.pid == Interval(F(0), float("inf")) for (_, l, _) in sem.initial.transitions)


def test_nprocs_requires_fixed_count():
    ast = parse("x := nprocs;")
    sem = compile_program(ast, "interval", 3)
    (edge_rule,) = [r for r in sem.transducer.rules if r.name != "inactivity"]
    assert edge_rule.output.instr.expr == E.Const(F(3))
    with pytest.raises(CompileError):
        compile_program(ast, "interval", "unbounded")
    with pytest.raises(CompileError):
        compile_program(ast, "interval", "any")


def test_compile_type_checks():
    with pytest.raises(CompileError):
        compile_program(parse("rat q; create(q);"), "interval", 1)
    with pytest.raises(CompileError):
        compile_program(parse("rat q; reduce(t, q, +, 0);"), "interval", 2)
    with pytest.raises(CompileError):
        compile_program(parse(
            "rat q; if (id == 0) send(1, q); else receive(any_id, x);"),
            "interval", 2)


def test_widening_locations():
    sem = compile_program(parse(load_program("create_chain.prog")), "interval", 1)
    assert sem.cfg.entry in sem.widen_locs
    plain = compile_program(parse("x := 1;"), "interval", 1)
    assert plain.widen_locs == frozenset()
    summed = compile_program(parse(load_program("sum_reduce.prog")), "interval", 2)
    assert any(l.endswith("_coll") for l in summed.widen_locs)


def test_blocking_locations():
    sem = compile_program(parse(load_program("sum_reduce.prog")), "interval", 2)
    assert sem.cfg.exit in sem.blocking_locs
    assert "l1" in sem.blocking_locs  # the reduce edge source
    assert "l1_lock" in sem.blocking_locs and "l1_coll" in sem.blocking_locs


# ---------------------------------------------------------------------------
# semantics dump


def test_dump_semantics_json_serializable():
    sem = compile_program(parse(load_program("create_chain.prog")), "affine", 2)
    blob = json.loads(json.dumps(dump_semantics(sem), sort_keys=True))
    assert blob["domain"] == "affine"
    assert blob["variables"] == list(sem.ctx.variables)
    assert blob["widen_locs"] == sorted(sem.widen_locs)
    assert blob["blocking_locs"] == sorted(sem.blocking_locs)
    assert len(blob["rules"]) == len(sem.rules)
    assert blob["initial"] == to_json(sem.initial)
