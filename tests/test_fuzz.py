"""Seeded fuzz tests of the program and property parsers, and of the
analysis on longer local programs.

Whatever the input, parsing and compilation end in a result or in the
error the CLI reports with exit 3 (ParseError, CompileError,
PropertyParseError), never in another exception.  Programs come from two
sources: random token streams, and statement mixes built from the
grammar, some with one token dropped or inserted.

Every program compiles to local rules that read no blocking location:
only the inactivity rule, which moves no letter, reads one, so the
deadlock check may ask the communication rules alone.

Programs of local statements only (assignments, branches and loops) are
also analysed under both domains with two processes, and every
configuration the bounded concrete interpreter reaches must be in the
reach automaton.
"""
import random

import pytest

from latreach.cli import PropertyParseError, parse_property
from latreach.concrete import accepts_concrete, config_word, initial_config, reach_bounded
from latreach.engine import AnalysisConfig, fixpoint
from latreach.frontend import INACTIVITY, CompileError, build_cfg, compile_program
from latreach.syntax import KEYWORDS, ParseError, parse

from helpers import PROGRAMS

VARS = ("x", "y", "q")
TOKENS = sorted(KEYWORDS) + list(VARS) + [
    "0", "1", "7", "12345", "@0.x", ":=", "<=", ">=", "==", "!=", "<", ">",
    "+", "-", "*", "/", "%", "^", "(", ")", "{", "}", ",", ";", "// note\n", "$",
]


def _expr(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(VARS + ("id", "nprocs", "fresh_id", "0", "1", "3"))
    kind = rng.random()
    if kind < 0.1:
        return f"-{_expr(rng, depth - 1)}"
    if kind < 0.2:
        return f"{rng.choice(('min', 'max'))}({_expr(rng, depth - 1)}, {_expr(rng, depth - 1)})"
    op = rng.choice(("+", "-", "*", "/", "%", "^", "<", "<=", "==", "!=", ">"))
    return f"({_expr(rng, depth - 1)} {op} {_expr(rng, depth - 1)})"


def _id_arg(rng):
    return "any_id" if rng.random() < 0.4 else _expr(rng, 1)


def _stmt(rng, depth):
    var = rng.choice(VARS)
    kind = rng.randrange(10 if depth > 0 else 7)
    if kind == 0:
        return f"{var} := {_expr(rng, 2)};"
    if kind == 1:
        names = ", ".join(rng.sample(VARS, rng.randint(1, 2)))
        return f"{rng.choice(('int', 'rat'))} {names};"
    if kind == 2:
        return f"create({var});"
    if kind == 3:
        return f"{rng.choice(('send', 'receive'))}({_id_arg(rng)}, {var});"
    if kind == 4:
        return f"broadcast({_expr(rng, 1)}, {var});"
    if kind == 5:
        op = rng.choice(("+", "*", "min", "max"))
        return f"reduce({var}, {rng.choice(VARS)}, {op}, {_expr(rng, 1)});"
    if kind == 6:
        return "{ }"
    cond = "*" if rng.random() < 0.3 else _expr(rng, 1)
    if kind == 7:
        return "{ " + " ".join(_stmt(rng, depth - 1) for _ in range(rng.randint(1, 3))) + " }"
    if kind == 8:
        out = f"if ({cond}) {_stmt(rng, depth - 1)}"
        if rng.random() < 0.5:
            out += f" else {_stmt(rng, depth - 1)}"
        return out
    return f"while ({cond}) {_stmt(rng, depth - 1)}"


def _grammar_program(rng):
    tokens = " ".join(_stmt(rng, 2) for _ in range(rng.randint(1, 4))).split(" ")
    if rng.random() < 0.3:
        del tokens[rng.randrange(len(tokens))]
    if rng.random() < 0.2:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(TOKENS))
    return " ".join(tokens)


def _token_program(rng):
    return " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 25)))


def _compile_all(text):
    try:
        ast = parse(text)
    except ParseError:
        return
    build_cfg(ast)
    for domain in ("interval", "affine"):
        for procs in (2, "unbounded"):
            try:
                compile_program(ast, domain, procs)
            except CompileError:
                pass


@pytest.mark.parametrize("make", [_token_program, _grammar_program],
                         ids=["tokens", "grammar"])
def test_program_parser_fuzz(make):
    rng = random.Random(0)
    for _ in range(1000):
        text = make(rng)
        try:
            _compile_all(text)
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} on {text!r}") from exc


def test_no_local_rule_reads_a_blocking_location():
    """On the demo programs and the seeded grammar and local programs,
    under both domains and every --procs mode they compile under, every
    local rule but inactivity names its locations, none of them blocking."""
    texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.prog"))]
    rng = random.Random(0)
    texts += [_grammar_program(rng) for _ in range(1000)]
    rng = random.Random(0)
    texts += [_local_program(rng) for _ in range(30)]
    checked = 0
    for text in texts:
        try:
            ast = parse(text)
        except ParseError:
            continue
        for domain in ("interval", "affine"):
            for procs in (2, "any", "unbounded"):
                try:
                    sem = compile_program(ast, domain, procs)
                except CompileError:
                    continue
                checked += 1
                for rule in sem.transducer.rules:
                    if rule != INACTIVITY:
                        loc = rule.guard.loc
                        assert loc is not None and loc not in sem.blocking_locs, \
                            (text, rule.name)
                assert INACTIVITY in sem.transducer.rules
    assert checked >= 1000, checked


LABEL_ITEMS = ("true", "loc=l3", "loc=any", "id >= 0", "x != 5 + 4*id", "y < 7",
               "id == nprocs", "x >= -(2 ^ 3) / 5", "id >= 99999999999 # note")
BAD_ITEMS = ("loc=", "loc", "x <= ", "x < (", "any_id > 1", "*", "", "x = 1", "id >= *")
STATES = ("s0", "s1") * 5 + ("s2",)  # s2 is never declared
LINE_PARTS = ("state", "s0", "s1", "s2", "initial", "final", "open", "->", ":", "#", ",")


def _property_text(rng):
    lines = ["state s0 initial", "state s1 final"] if rng.random() < 0.8 else []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.1:
            flags = rng.sample(("initial", "final", "open"), rng.randint(0, 2))
            lines.append(" ".join(["state", rng.choice(("s0", "s1"))] + flags))
        elif kind < 0.9:
            items = ", ".join(rng.choice(BAD_ITEMS if rng.random() < 0.05 else LABEL_ITEMS)
                              for _ in range(rng.randint(1, 3)))
            lines.append(f"{rng.choice(STATES)} -> {rng.choice(STATES)} : {items}")
        else:
            lines.append(" ".join(rng.choice(LINE_PARTS) for _ in range(rng.randint(1, 6))))
    return "\n".join(lines)


def test_property_parser_fuzz():
    rng = random.Random(0)
    for _ in range(1000):
        text = _property_text(rng)
        try:
            parse_property(text)
        except PropertyParseError:
            pass
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} on {text!r}") from exc


def _local_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(VARS + ("id", "0", "1", "2", "3"))
    kind = rng.random()
    if kind < 0.15:
        return f"({_local_expr(rng, depth - 1)} / {rng.choice(('2', '3'))})"
    op = rng.choice(("+", "-", "+", "-", "*"))
    return f"({_local_expr(rng, depth - 1)} {op} {_local_expr(rng, depth - 1)})"


def _local_cond(rng):
    if rng.random() < 0.3:
        return "*"
    op = rng.choice(("<", "<=", "==", "!=", ">", ">="))
    return f"{_local_expr(rng, 1)} {op} {_local_expr(rng, 1)}"


def _local_stmt(rng, depth):
    kind = rng.randrange(6 if depth > 0 else 3)
    if kind < 3:
        return f"{rng.choice(VARS)} := {_local_expr(rng, 2)};"
    body = " ".join(_local_stmt(rng, depth - 1) for _ in range(rng.randint(1, 2)))
    if kind == 3:
        other = _local_stmt(rng, depth - 1)
        return f"if ({_local_cond(rng)}) {{ {body} }} else {{ {other} }}"
    if kind == 4:
        return f"if ({_local_cond(rng)}) {{ {body} }}"
    return f"while ({_local_cond(rng)}) {{ {body} }}"


def _local_program(rng):
    decl = "rat q;\n" if rng.random() < 0.3 else ""
    return decl + "\n".join(_local_stmt(rng, 2) for _ in range(rng.randint(4, 7)))


def test_local_program_analysis_contains_concrete_reach():
    """Seeded local programs of 4 to 7 statements, nested up to two deep:
    under both domains with two processes, the reach automaton accepts
    every configuration of the concrete interpreter's reach to depth 14."""
    rng = random.Random(0)
    for _ in range(30):
        text = _local_program(rng)
        ast = parse(text)
        cfg = build_cfg(ast)
        concrete = reach_bounded(cfg, initial_config(cfg, ast.variables, 2), 14, 2,
                                 rat_vars=ast.rat_vars)
        for domain in ("interval", "affine"):
            sem = compile_program(ast, domain, 2)
            reach = fixpoint(sem, AnalysisConfig()).reach
            for config in concrete.configs:
                word = config_word(config)
                assert accepts_concrete(sem.ctx, reach, word), (domain, text, word)
