from fractions import Fraction

from latreach.concrete import (
    ConcreteLocalState,
    eval_expr,
    initial_config,
    is_stuck,
    post,
    reach_bounded,
)
from latreach.frontend import build_cfg
from latreach.syntax import parse, parse_expr

from helpers import load_program

F = Fraction


def chain_setup():
    ast = parse(load_program("create_chain.prog"))
    cfg = build_cfg(ast)
    edges = {type(e.instr).__name__: e for e in cfg.edges}
    return ast, cfg, edges


def mk(pid, loc, **env):
    return ConcreteLocalState(pid, loc, tuple(sorted(
        (n, F(v)) for n, v in env.items())))


def test_post_example_word_communication():
    """The canonical three-process word has exactly one successor: the
    receiver copies the sender's value, both advance, nobody else moves."""
    ast, cfg, edges = chain_setup()
    word = (mk(0, cfg.exit, x=5, next=1),
            mk(1, edges["Send"].src, x=9, next=2),
            mk(2, edges["Receive"].src, x=0, next=2))
    succs = post(cfg, word)
    assert len(succs) == 1
    (succ,) = succs
    assert succ[0] == word[0]
    assert succ[1].loc == edges["Send"].dst and succ[1].rho()["x"] == 9
    assert succ[2].loc == edges["Receive"].dst and succ[2].rho()["x"] == 9


def test_post_partner_mismatch_blocks():
    ast, cfg, edges = chain_setup()
    word = (mk(1, edges["Send"].src, x=13, next=2),
            mk(6, edges["Receive"].src, x=0, next=0))
    assert post(cfg, word) == set()


def test_post_all_at_exit_is_empty():
    ast, cfg, edges = chain_setup()
    word = (mk(0, cfg.exit, x=5, next=1), mk(1, cfg.exit, x=9, next=2))
    assert post(cfg, word) == set()


def test_post_create_appends_zeroed_process():
    ast, cfg, edges = chain_setup()
    word = (mk(0, edges["Create"].src, x=1, next=0),)
    (succ,) = post(cfg, word)
    assert len(succ) == 2
    assert succ[0].rho()["next"] == 1  # fresh id stored
    assert succ[1].pid == 1 and succ[1].loc == cfg.entry
    assert all(v == 0 for v in succ[1].rho().values())


def test_post_deterministic_as_set_function():
    ast, cfg, edges = chain_setup()
    init = initial_config(cfg, ast.variables, 2)
    assert post(cfg, init) == post(cfg, init)


def test_reach_depth_zero():
    ast, cfg, _ = chain_setup()
    init = initial_config(cfg, ast.variables, 1)
    r = reach_bounded(cfg, init, 0, 4)
    assert r.configs == {init} and not r.pruned


def test_reach_straight_line_counts_locations():
    ast = parse("x := 1; x := 2;")
    cfg = build_cfg(ast)
    init = initial_config(cfg, ast.variables, 1)
    r = reach_bounded(cfg, init, 10, 1)
    assert len(r.configs) == len(cfg.locations)


def test_reach_chain_second_process_final_value():
    """Running the chain from one root: process 1 ends with x = 9."""
    ast, cfg, edges = chain_setup()
    init = initial_config(cfg, ast.variables, 1)
    r = reach_bounded(cfg, init, 12, 3)
    hits = [c for c in r.configs
            for s in c if s.pid == 1 and s.loc == cfg.exit and s.rho()["x"] == 9]
    assert hits


def test_eval_expr_c_conventions():
    assert eval_expr(parse_expr("7 % 3"), 0, {}) == 1
    assert eval_expr(parse_expr("-7 % 3"), 0, {}) == -1
    assert eval_expr(parse_expr("1 / 2"), 0, {}) == F(1, 2)
    assert eval_expr(parse_expr("1 / 0"), 0, {}) is None
    assert eval_expr(parse_expr("2 ^ 3"), 0, {}) == 8
    assert eval_expr(parse_expr("2 ^ 4096"), 0, {}) == 2 ** 4096
    assert eval_expr(parse_expr("2 ^ 20000"), 0, {}) is None  # past MAX_POW_BITS
    assert eval_expr(parse_expr("(1 / 3) ^ (-20000)"), 0, {}) is None
    assert eval_expr(parse_expr("1 ^ 1000000000"), 0, {}) == 1
    assert eval_expr(parse_expr("id + 1"), 4, {}) == 5


def test_eval_expr_caps_every_arithmetic_result():
    """Results past the size cap are undefined whatever the operator;
    2 ^ 4096 itself is the largest power of two kept."""
    assert eval_expr(parse_expr("2 ^ 4000 * 2 ^ 96"), 0, {}) == 2 ** 4096
    assert eval_expr(parse_expr("2 ^ 4000 * 2 ^ 97"), 0, {}) is None
    assert eval_expr(parse_expr("2 ^ 4096 + 2 ^ 4096"), 0, {}) is None
    assert eval_expr(parse_expr("1 / 2 ^ 4096 / 2"), 0, {}) is None
    assert eval_expr(parse_expr("3 ^ 4000"), 0, {}) is None  # 6340 bits
    assert eval_expr(parse_expr("2 ^ 4000 * 2 ^ 4000 - 2 ^ 4000 * 2 ^ 4000"), 0, {}) is None


def test_is_stuck():
    ast = parse(load_program("deadlock_random.prog"))
    cfg = build_cfg(ast)
    init = initial_config(cfg, ast.variables, 2)
    r = reach_bounded(cfg, init, 10, 2)
    stuck = {tuple(s.loc for s in c) for c in r.configs if is_stuck(cfg, c, cfg.exit)}
    sends = {e.src for e in cfg.edges if type(e.instr).__name__ == "Send"}
    recvs = {e.src for e in cfg.edges if type(e.instr).__name__ == "Receive"}
    assert any(set(locs) <= sends for locs in stuck)
    assert any(set(locs) <= recvs for locs in stuck)
    done = tuple(mk(i, cfg.exit, x=0) for i in range(2))
    assert not is_stuck(cfg, done, cfg.exit)


def test_reduce_is_atomic():
    ast = parse(load_program("sum_reduce.prog"))
    cfg = build_cfg(ast)
    init = initial_config(cfg, ast.variables, 2)
    r = reach_bounded(cfg, init, 8, 2, rat_vars=ast.rat_vars)
    finals = [c for c in r.configs if all(s.loc == cfg.exit for s in c)]
    assert finals
    for c in finals:
        root = [s for s in c if s.pid == 0][0]
        assert root.rho()["total"] == F(3, 4)
    # no intermediate collector states exist concretely
    assert all(len(c) == 2 for c in r.configs)
