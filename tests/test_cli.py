import json
import re
import signal
import subprocess
import sys

import pytest

from latreach import cli, engine
from latreach.cli import main, parse_property, PropertyParseError
from latreach.concrete import accepts_concrete, config_word, initial_config, reach_bounded
from latreach.engine import PropertyAutomaton, fixpoint
from latreach.expr import MAX_POW_BITS
from latreach.frontend import build_cfg, compile_program
from latreach.syntax import MAX_NESTING, ParseError, parse

from helpers import PROGRAMS, load_program


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def chain_prog(tmp_path):
    p = tmp_path / "chain.prog"
    p.write_text(load_program("create_chain.prog"), encoding="utf-8")
    b = tmp_path / "chain.bad"
    b.write_text((PROGRAMS / "chain_end_value.bad").read_text(), encoding="utf-8")
    return p, b


def test_property_parser_shapes():
    bad = parse_property((PROGRAMS / "chain_end_value.bad").read_text())
    assert isinstance(bad, PropertyAutomaton)
    assert len(bad.states) == 2 and len(bad.transitions) == 3
    with pytest.raises(PropertyParseError):
        parse_property("state a initial\n")  # no final state
    with pytest.raises(PropertyParseError):
        parse_property("state a initial final\nb -> a : true\n")
    with pytest.raises(PropertyParseError):
        parse_property("state a initial final\na -> a : loc\n")


def test_exit_zero_safe_chain(chain_prog, capsys):
    prog, bad = chain_prog
    code, out = run_cli(capsys, "analyze", str(prog), "--domain", "affine",
                        "--procs", "unbounded", "--property", str(bad))
    assert code == 0
    assert "property: SAFE" in out
    assert "iterations:" in out and "nodes / " in out


def test_exit_one_property_alarm(chain_prog, capsys):
    prog, bad = chain_prog
    code, out = run_cli(capsys, "analyze", str(prog), "--domain", "interval",
                        "--procs", "unbounded", "--property", str(bad))
    assert code == 1
    assert "property: ALARM" in out and "witness:" in out


def test_exit_two_deadlock(tmp_path, capsys):
    prog = tmp_path / "dead.prog"
    prog.write_text(load_program("deadlock_random.prog"), encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(prog), "--procs", "2", "--deadlock")
    assert code == 2
    assert "deadlock witness:" in out


def test_exit_zero_without_deadlock_flag(tmp_path, capsys):
    prog = tmp_path / "dead.prog"
    prog.write_text(load_program("deadlock_random.prog"), encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(prog), "--procs", "2")
    assert code == 0


def test_affine_constant_condition(tmp_path):
    """A constant loop condition under the affine domain is a false
    equation on the exit branch, not a crash."""
    prog = tmp_path / "spin.prog"
    prog.write_text("x := 0;\nwhile (1)\n  x := x + 1;\n", encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "latreach", "analyze", str(prog),
                        "--domain", "affine"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "Traceback" not in r.stderr


def test_exit_three_parse_error(tmp_path, capsys):
    prog = tmp_path / "broken.prog"
    prog.write_text("x := ;", encoding="utf-8")
    assert main(["analyze", str(prog)]) == 3
    missing = tmp_path / "nope.prog"
    assert main(["analyze", str(missing)]) == 3
    assert main(["analyze"]) == 3  # usage error
    # input that is not UTF-8, and outputs into a missing directory, used
    # to end in a traceback
    latin = tmp_path / "latin.prog"
    latin.write_bytes(b"x := 1; // caf\xe9\n")
    ok = tmp_path / "ok.prog"
    ok.write_text("x := 1;\n", encoding="utf-8")
    bad = tmp_path / "latin.bad"
    bad.write_bytes(b"state s0 initial final # caf\xe9\n")
    nowhere = str(tmp_path / "no" / "such" / "dir")
    capsys.readouterr()
    for args in ([str(latin)], [str(ok), "--property", str(bad)],
                 [str(ok), "--json", nowhere], [str(ok), "--dot", nowhere],
                 [str(ok), "--dump-semantics", nowhere]):
        assert main(["analyze", *args]) == 3, args
        assert capsys.readouterr().err.startswith("error: "), args


@pytest.mark.parametrize("domain", ["interval", "affine"])
@pytest.mark.parametrize("program, label", [
    ("x := @0.y;", None),
    ("x := fresh_id;", None),
    ("if (@0.x) x := 1;", None),
    ("x := 1;", "x == *"),
    ("x := 1;", "id == fresh_id"),
    ("x := 1;", "x == @0.y"),
], ids=["partner-atom", "fresh-id", "partner-condition",
        "label-star", "label-fresh-id", "label-partner-atom"])
def test_dump_only_atoms_are_parse_errors(program, label, domain, tmp_path, capsys):
    """The partner atom @n.v, create's fresh_id and a bare * appear in
    --dump-semantics output but are not expressions of the language: in a
    program or a property label each is a parse error, exit 3 with one
    error line.  They used to end in a traceback or in a silent SAFE."""
    prog = tmp_path / "p.prog"
    prog.write_text(program + "\n", encoding="utf-8")
    args = ["analyze", str(prog), "--procs", "2", "--domain", domain]
    if label is not None:
        bad = tmp_path / "p.bad"
        bad.write_text(f"state s0 initial\nstate s1 final\ns0 -> s1 : {label}\n",
                       encoding="utf-8")
        args += ["--property", str(bad)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("program", [
    "x := 1 < 2;",
    "x := (1 < 2) + 1;",
    "if ((x < 1) == 1) x := 5;",
    "while ((x < 3) == 1) x := x + 1;",
], ids=["assign", "sum", "if", "while"])
@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_comparison_as_value(program, domain, tmp_path, capsys):
    """A comparison used as a value is 0 or 1, as in the concrete
    interpreter; the abstract evaluator used to raise ValueError."""
    prog = tmp_path / "cmp.prog"
    prog.write_text(program + "\n", encoding="utf-8")
    code, _ = run_cli(capsys, "analyze", str(prog), "--procs", "2", "--domain", domain)
    assert code == 0
    ast = parse(program)
    cfg = build_cfg(ast)
    sem = compile_program(ast, domain, 2)
    reach = fixpoint(sem).reach
    concrete = reach_bounded(cfg, initial_config(cfg, ast.variables, 2), 12, 2)
    for config in concrete.configs:
        assert accepts_concrete(sem.ctx, reach, config_word(config)), config


@pytest.mark.parametrize("bare, braced, args", [
    ("x := 1; if (x > 0) int y;", "x := 1; if (x > 0) { int y; }", ("--procs", "2")),
    ("while (*) rat y;", "while (*) { rat y; }", ("--procs", "2", "--domain", "affine")),
    ("if (*) { } else int z;", "if (*) { } else { int z; }", ()),
], ids=["if", "while", "else"])
def test_declaration_as_whole_body(tmp_path, capsys, bare, braced, args):
    """A declaration that is the whole body of if, else or while is an
    empty block, as in braces: same report past the program line, same
    reach (it ended in a TypeError traceback)."""
    results = []
    for name, text in (("bare", bare), ("braced", braced)):
        prog = tmp_path / f"{name}.prog"
        prog.write_text(text, encoding="utf-8")
        reach = tmp_path / f"{name}.json"
        code, out = run_cli(capsys, "analyze", str(prog), *args, "--json", str(reach))
        assert code == 0
        results.append((out.split("\n", 1)[1], reach.read_text()))
    assert results[0] == results[1]


def test_huge_power_is_top_with_alarm(tmp_path, capsys):
    """A power past MAX_POW_BITS is never built: top plus an alarm, under
    both domains, where it used to end in a traceback."""
    prog = tmp_path / "pow.prog"
    prog.write_text("int x;\nx := 2 ^ 20000;\nx := 3 ^ 1000000000;\n", encoding="utf-8")
    for domain in ("interval", "affine"):
        code, out = run_cli(capsys, "analyze", str(prog), "--procs", "2",
                            "--domain", domain, "--deadlock")
        assert code == 0
        assert "alarm[power]: (2 ^ 20000)" in out
        assert "alarm[power]: (3 ^ 1000000000)" in out


def test_remainder_by_zero_is_top_with_alarm(tmp_path, capsys):
    """`%` by a divisor whose range contains 0 is undefined, as in the
    concrete interpreter: top plus a division alarm under both domains,
    as for `/`, where it used to pass without an alarm."""
    prog = tmp_path / "mod.prog"
    prog.write_text("int x;\nint y;\nx := 7 % 0;\nif (*) {\n  y := 1;\n}\nx := 7 % y;\n",
                    encoding="utf-8")
    for domain in ("interval", "affine"):
        code, out = run_cli(capsys, "analyze", str(prog), "--procs", "2", "--domain", domain)
        assert code == 0
        assert "alarm[division]: (7 % 0)" in out
        assert "alarm[division]: (7 % y)" in out


@pytest.mark.parametrize("domain", ["interval", "affine"])
@pytest.mark.parametrize("collective", ["broadcast(10 / x, v);", "reduce(t, v, +, 10 / x);"],
                         ids=["broadcast", "reduce"])
def test_division_in_a_root_expression_is_reported(collective, domain, tmp_path, capsys):
    """The root expression of a broadcast or reduce is met while its guard
    word is matched; a division by a range containing 0 there reports an
    alarm, as the same division in a send target does."""
    prog = tmp_path / "root.prog"
    prog.write_text(f"x := id;\nv := 7;\n{collective}\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(prog), "--procs", "3", "--domain", domain)
    assert code == 0
    assert "alarm[division]: (10 / x)" in out.splitlines()


def test_product_of_powers_is_top_with_alarm(tmp_path, capsys):
    """The size cap holds for the result of every arithmetic operator, not
    only a power: products of allowed powers or of long literals give top
    and an alarm under both domains, where they used to end in a
    traceback from a number of more than 4300 digits."""
    long_literal = "7" * 1000
    cases = [
        ("x := 2 ^ 4000 * 2 ^ 4000 * 2 ^ 4000 * 2 ^ 4000;",
         "alarm[power]: ((2 ^ 4000) * (2 ^ 4000))"),
        ("x := " + " * ".join([long_literal] * 5) + ";",
         f"alarm[power]: ({long_literal} * {long_literal})"),
    ]
    prog = tmp_path / "product.prog"
    for body, alarm in cases:
        prog.write_text(f"int x;\n{body}\n", encoding="utf-8")
        for domain in ("interval", "affine"):
            code = main(["analyze", str(prog), "--procs", "1", "--domain", domain])
            captured = capsys.readouterr()
            assert code == 0
            assert alarm in captured.out
            assert "Traceback" not in captured.err


def test_affine_repeated_product_is_top_with_alarm(tmp_path, capsys):
    """The affine domain keeps x := x * c exactly; repeating it with a long
    literal c crosses the size cap at the first product and gives top and
    an alarm, where the stored c ** k used to end in a traceback."""
    long_literal = "7" * 999
    prog = tmp_path / "repeat.prog"
    prog.write_text("int x;\nx := %s;\n%s" % (long_literal, f"x := x * {long_literal};\n" * 5),
                    encoding="utf-8")
    for domain in ("interval", "affine"):
        code = main(["analyze", str(prog), "--procs", "1", "--domain", domain])
        captured = capsys.readouterr()
        assert code == 0
        assert f"alarm[power]: (x * {long_literal})" in captured.out
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("comm", ["if (id == 0) {\n  receive(2, y);\n} else {\n  send(0, x);\n}",
                                  "broadcast(2, y);"], ids=["send", "broadcast"])
def test_affine_communicated_value_past_cap_is_top_with_alarm(comm, tmp_path, capsys):
    """x = 2^4096 * id is within the size cap while id is unknown; a rule
    that reads x of process 2 projects 2^4097, past it.  The projected
    environments of rules are capped like those of assignments: top plus
    an alarm, where the reach used to keep the huge constant."""
    k = 2 ** 2048
    prog = tmp_path / "comm.prog"
    prog.write_text(f"x := {k} * id;\nx := {k} * x;\ny := x;\n{comm}\n", encoding="utf-8")
    reach = tmp_path / "reach.json"
    code, out = run_cli(capsys, "analyze", str(prog), "--procs", "any", "--domain", "affine",
                        "--json", str(reach))
    assert code == 0
    assert "alarm[power]: y := @" in out
    numbers = re.findall(r"\d+", reach.read_text()) + re.findall(r"\d+", out)
    assert max(int(n).bit_length() for n in numbers) - 1 <= MAX_POW_BITS


@pytest.mark.parametrize("label, code", [
    ("x + 1 == 3", 0), ("2 == x", 0), ("x y == 2", 3), ("== 2", 3),
    ("min(x, 1) == 0", 1), ("max(x,id) > 2", 0), ("x == (y <= 1)", 1),
    ("loc=any, min(x, 1) == 1, id >= 0", 1),
    ("min(x, 1 == 0", 3), ("max(x,) > 2", 3), ("x + 1", 3), ("x == 1,", 3),
    ("x == 1)", 3),
])
def test_property_constraint_sides_are_expressions(label, code, tmp_path, capsys):
    """Both sides of a constraint are expressions.  The left side used to
    name a variable, whatever it said: x + 1 == 3 constrained a variable
    called 'x + 1' and gave a false ALARM.  Items split at commas outside
    parentheses, and each constraint is one comparison: the label used to
    split at every comma and cut an item at the first operator found
    anywhere in it, so min(x, 1) == 0 and x == (y <= 1) exited 3."""
    prog = tmp_path / "one.prog"
    prog.write_text("x := 1;\n", encoding="utf-8")
    bad = tmp_path / "lhs.bad"
    bad.write_text("state s0 initial\nstate s1 final\n"
                   f"s0 -> s1 : {label}\ns1 -> s1 : true\n", encoding="utf-8")
    for domain in ("interval", "affine"):
        assert run_cli(capsys, "analyze", str(prog), "--domain", domain,
                       "--property", str(bad))[0] == code


@pytest.mark.parametrize("label", ["loc=l1, loc == 3", "loc == 3"])
def test_property_item_comparing_a_variable_named_loc(label, tmp_path, capsys):
    """Only loc followed by a single = starts a location item: loc == 3
    compares the program variable loc.  It used to be read as the
    location '= 3', so the property exited 3 with an unknown location, or
    with a second location item after loc=l1."""
    prog = tmp_path / "loc.prog"
    prog.write_text("loc := 3;\n", encoding="utf-8")
    bad = tmp_path / "loc.bad"
    bad.write_text("state s0 initial\nstate s1 final\ns0 -> s0 : true\n"
                   f"s0 -> s1 : {label}\ns1 -> s1 : true\n", encoding="utf-8")
    for domain in ("interval", "affine"):
        code, out = run_cli(capsys, "analyze", str(prog), "--domain", domain,
                            "--property", str(bad))
        assert code == 1 and "property: ALARM" in out, domain


def test_affine_decides_a_comparison_of_constant_sides(tmp_path, capsys):
    """A comparison with a side outside the affine domain is decided when
    both sides are constants on the letter, as under intervals; the affine
    domain used to keep the letter whole, so the then branch stayed
    reachable and the property gave a false ALARM."""
    prog = tmp_path / "cmp.prog"
    prog.write_text("x := 0;\nif ((x < 1) == 1) y := 1; else y := 2;\n", encoding="utf-8")
    bad = tmp_path / "cmp.bad"
    bad.write_text("state s0 initial\nstate s1 final\n"
                   "s0 -> s1 : y == 2\ns1 -> s1 : true\n", encoding="utf-8")
    for domain in ("interval", "affine"):
        code, out = run_cli(capsys, "analyze", str(prog), "--domain", domain,
                            "--property", str(bad))
        assert code == 0 and "property: SAFE" in out, domain


@pytest.mark.parametrize("label", ["z == 5", "x + z == 1"])
def test_property_on_variable_the_program_lacks(label, tmp_path, capsys):
    """A property may name a variable the program never uses.  Both
    domains read it as unconstrained, so the initial letter (x = 0)
    matches; the affine domain used to drop its column, read x + z == 1
    as x == 1 and z == 5 as false, and answer SAFE."""
    prog = tmp_path / "one.prog"
    prog.write_text("x := 1;\n", encoding="utf-8")
    bad = tmp_path / "z.bad"
    bad.write_text("state s0 initial\nstate s1 final\n"
                   f"s0 -> s1 : {label}\ns1 -> s1 : true\n", encoding="utf-8")
    for domain in ("interval", "affine"):
        code, out = run_cli(capsys, "analyze", str(prog), "--domain", domain,
                            "--property", str(bad))
        assert code == 1
        assert "property: ALARM" in out


def test_exit_three_overlong_literal(chain_prog, tmp_path, capsys):
    digits = "7" * 5000
    prog = tmp_path / "lit.prog"
    prog.write_text(f"int x;\nx := {digits};\n", encoding="utf-8")
    assert main(["analyze", str(prog)]) == 3
    assert "number literal longer than" in capsys.readouterr().err
    chain, _ = chain_prog
    bad = tmp_path / "lit.bad"
    bad.write_text(f"state a initial\nstate b final\na -> b : x == {digits}\n",
                   encoding="utf-8")
    assert main(["analyze", str(chain), "--property", str(bad)]) == 3
    assert "number literal longer than" in capsys.readouterr().err


@pytest.mark.parametrize("procs", ["3", "unbounded"])
@pytest.mark.parametrize("domain", ["interval", "affine"])
def test_nesting_cap(domain, procs, tmp_path, capsys):
    """Nesting up to MAX_NESTING analyzes; one level more is a parse error
    (exit 3), never a RecursionError: a sum of that many terms, as many
    nested parentheses or statements, in a program or a property label."""
    def program(sum_terms, parens, ifs):
        return (f"x := {' + '.join(['1'] * sum_terms)};\n"
                f"y := {'(' * parens}x{')' * parens};\n"
                f"{'if (*) ' * ifs}z := 1;\n")

    def label(sum_terms):
        return ("state a initial\nstate b final\na -> a : true\n"
                f"a -> b : x == {' + '.join(['1'] * sum_terms)}\nb -> b : true\n")

    def analyze(prog_text, bad_text):
        prog = tmp_path / "deep.prog"
        prog.write_text(prog_text, encoding="utf-8")
        bad = tmp_path / "deep.bad"
        bad.write_text(bad_text, encoding="utf-8")
        code = main(["analyze", str(prog), "--domain", domain, "--procs", procs,
                     "--property", str(bad)])
        return code, capsys.readouterr().err

    cap = MAX_NESTING
    code, err = analyze(program(cap, cap - 1, cap - 1), label(cap))
    assert code == 1 and err == ""  # some process reaches x == cap
    for too_deep in (program(cap + 1, 0, 0), program(1, cap, 0), program(1, 0, cap)):
        code, err = analyze(too_deep, label(1))
        assert code == 3 and f"nested deeper than {cap} levels" in err
    code, err = analyze(program(1, 0, 0), label(cap + 1))
    assert code == 3 and f"nested deeper than {cap} levels" in err


def test_nesting_cap_applies_to_each_side_of_a_comparison():
    """x == e parses wherever x := e does, in a program condition as in a
    property constraint; one level more on either side is a parse error."""
    deep = " + ".join(["1"] * MAX_NESTING)
    for cond in (f"x == {deep}", f"{deep} < x"):
        parse(f"if ({cond}) x := 1;")
    for cond in (f"x == {deep} + 1", f"1 + {deep} < x"):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
            parse(f"if ({cond}) x := 1;")


@pytest.mark.parametrize("op", ["+", "*"])
def test_operator_chain_is_refused_at_the_operator_past_the_cap(op):
    """A chain of MAX_NESTING operands parses; one more is refused at the
    operator that would add it, before the tree is built further."""
    parse("x := " + f" {op} ".join(["1"] * MAX_NESTING) + ";")
    text = "x := " + f" {op} ".join(["1"] * (MAX_NESTING + 1)) + ";"
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as exc:
        parse(text)
    assert str(exc.value).startswith(f"1:{text.rindex(op) + 1}: ")


def test_long_sum_is_refused_without_recursion(tmp_path, capsys):
    """A sum of 100,000 terms is refused with exit 3 as nested too deep,
    as an assignment and as a property constraint, never with a
    RecursionError."""
    long_sum = " + ".join(["1"] * 100_000)
    prog = tmp_path / "sum.prog"
    bad = tmp_path / "sum.bad"
    bad.write_text("state a initial\nstate b final\na -> b : x == 1\n", encoding="utf-8")
    for prog_text, bad_text in [
            (f"x := {long_sum};\n", None),
            ("x := 1;\n", f"state a initial\nstate b final\na -> b : x == {long_sum}\n")]:
        prog.write_text(prog_text, encoding="utf-8")
        if bad_text is not None:
            bad.write_text(bad_text, encoding="utf-8")
        assert main(["analyze", str(prog), "--property", str(bad)]) == 3
        assert f"nested deeper than {MAX_NESTING} levels" in capsys.readouterr().err


def test_nprocs_in_a_property_label(tmp_path, capsys):
    """nprocs in a property label is the process count under --procs n,
    as in a program; under unbounded or any it is an error, exit 3 before
    the analysis, not a traceback after it."""
    bad = tmp_path / "n.bad"

    def analyze(label, procs):
        bad.write_text("state a initial\nstate b final\na -> a : true\n"
                       f"a -> b : {label}\nb -> b : true\n", encoding="utf-8")
        code = main(["analyze", str(PROGRAMS / "sum_reduce.prog"), "--procs", procs,
                     "--property", str(bad)])
        return code, capsys.readouterr()

    code, out = analyze("loc=l1, nprocs == 2", "2")
    assert code == 1 and "property: ALARM" in out.out
    code, out = analyze("loc=l1, nprocs == 3", "2")
    assert code == 0 and "property: SAFE" in out.out
    for procs in ("unbounded", "any"):
        code, out = analyze("loc=l1, nprocs == 2", procs)
        assert code == 3 and out.out == ""
        assert "nprocs is only available under a fixed --procs n" in out.err


def test_exit_three_property_location_mismatch(chain_prog, tmp_path, capsys):
    prog, _ = chain_prog
    bad = tmp_path / "odd.bad"
    bad.write_text("state a initial\nstate b final\na -> b : loc=l99, x == 0\n",
                   encoding="utf-8")
    assert main(["analyze", str(prog), "--property", str(bad)]) == 3


@pytest.mark.parametrize("text, line", [
    ("state s0 initial\nstate s1 final\ns0 -> s1 : loc=l0, loc=l1\n", 3),
    ("state s0 initial\nstate s1 final\ns0 -> s1 : loc=l1, loc=any\n", 3),
    ("state s0 initial\nstate s0 final\ns0 -> s0 : true\n", 2),
], ids=["two-locations", "location-then-any", "state-twice"])
def test_exit_three_self_contradicting_property(text, line, tmp_path, capsys):
    """A second location item in one label, or a second declaration of a
    state, is refused at its line.  Each used to replace the first: the
    label loc=l0, loc=l1 read as loc=l1, loc=l1, loc=any as any location,
    and a state declared initial, then final, was only final."""
    prog = tmp_path / "ok.prog"
    prog.write_text("x := 1;\n", encoding="utf-8")
    bad = tmp_path / "twice.bad"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", str(prog), "--property", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("source, where", [
    ("rat x;\nint x;\nx := 1 / 2;\n", "2:5"),
    ("int x;\nrat y, x;\nx := 1 / 2;\n", "2:8"),
], ids=["rat-then-int", "int-then-rat"])
def test_exit_three_variable_declared_rat_and_int(source, where, tmp_path, capsys):
    """A variable declared both rat and int is a parse error at the second
    declaration; it used to stay rational, so x kept the value 1/2."""
    prog = tmp_path / "both.prog"
    prog.write_text(source, encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", str(prog)]) == 3
    assert capsys.readouterr().err == f"error: {where}: x is declared both rat and int\n"
    assert parse("rat x;\nrat x;\n").rat_vars == {"x"}
    assert parse("int x;\nint x;\n").rat_vars == set()


def test_unknown_property_location_stops_before_the_analysis(monkeypatch, tmp_path, capsys):
    """A property naming an unknown location is refused before the
    semantics dump and the fixpoint: nothing on stdout, one error line."""
    bad = tmp_path / "p.bad"
    bad.write_text("state s0 initial\nstate s1 final\ns0 -> s1 : loc=l99\n",
                   encoding="utf-8")
    dump = tmp_path / "sem.json"

    def no_fixpoint(*args, **kwargs):
        raise AssertionError("fixpoint called")

    monkeypatch.setattr(cli, "fixpoint", no_fixpoint)
    code = main(["analyze", str(PROGRAMS / "sum_reduce.prog"), "--procs", "4",
                 "--property", str(bad), "--dump-semantics", str(dump)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: property mentions unknown locations: l99\n"
    assert not dump.exists()


def test_exit_four_budget(chain_prog, capsys):
    prog, _ = chain_prog
    code, _ = run_cli(capsys, "analyze", str(prog), "--procs", "unbounded",
                      "--budget", "2")
    assert code == 4


def test_deadlock_check_cut_at_its_candidate_cap_says_so(monkeypatch, capsys):
    """deadlock_random with two processes has 5 candidate paths.  Cut
    after 2, the check lists the one deadlock found so far and says the
    list is incomplete; a cap of 5 cuts nothing and changes no byte."""
    prog = str(PROGRAMS / "deadlock_random.prog")
    full = run_cli(capsys, "analyze", prog, "--procs", "2", "--deadlock")
    assert full[0] == 2 and "potential deadlocks: 2\n" in full[1]
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 5)
    assert run_cli(capsys, "analyze", prog, "--procs", "2", "--deadlock") == full
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 2)
    code, out = run_cli(capsys, "analyze", prog, "--procs", "2", "--deadlock")
    assert code == 2
    assert out.splitlines()[-3:] == [
        "potential deadlocks: 1", full[1].splitlines()[-2],
        "deadlock list incomplete: the check stopped after 2 candidate paths"]


def test_deadlock_check_cut_before_a_deadlock_exits_four(monkeypatch, capsys):
    """sum_reduce with four processes has 7 candidate paths and no
    deadlock.  Cut after 4, the check cannot say there is none: the run
    ends with an error line and exit 4, as a spent step budget does."""
    prog = str(PROGRAMS / "sum_reduce.prog")
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 7)
    code, out = run_cli(capsys, "analyze", prog, "--procs", "4", "--deadlock")
    assert code == 0 and out.endswith("potential deadlocks: 0\n")
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 4)
    code = main(["analyze", prog, "--procs", "4", "--deadlock"])
    captured = capsys.readouterr()
    assert code == 4
    assert "potential deadlocks" not in captured.out
    assert captured.err == ("error: deadlock check incomplete: the check stopped after"
                            " 4 candidate paths, no deadlock found\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_the_run_quietly():
    """A reader that closes the pipe before the report is written, as
    head does, ends the run without a traceback."""
    p = subprocess.Popen([sys.executable, "-m", "latreach", "analyze",
                          str(PROGRAMS / "deadlock_random.prog"), "--procs", "2", "--deadlock"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait() == -signal.SIGPIPE
    assert err == b""


def test_report_byte_identical(tmp_path, chain_prog):
    prog, bad = chain_prog
    args = ["analyze", str(prog), "--domain", "affine", "--procs", "unbounded",
            "--property", str(bad), "--deadlock"]
    r1 = subprocess.run([sys.executable, "-m", "latreach", *args],
                        capture_output=True, text=True)
    r2 = subprocess.run([sys.executable, "-m", "latreach", *args],
                        capture_output=True, text=True)
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode


def test_dot_and_json_outputs(tmp_path, chain_prog, capsys):
    prog, _ = chain_prog
    dot = tmp_path / "reach.dot"
    js = tmp_path / "reach.json"
    code, _ = run_cli(capsys, "analyze", str(prog), "--procs", "1",
                      "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert dot.read_text().startswith("digraph")
    blob = json.loads(js.read_text())
    assert {"states", "initial", "final", "transitions"} <= set(blob)
    # run twice: byte identical artifacts
    dot2 = tmp_path / "reach2.dot"
    js2 = tmp_path / "reach2.json"
    run_cli(capsys, "analyze", str(prog), "--procs", "1",
            "--dot", str(dot2), "--json", str(js2))
    assert dot.read_text() == dot2.read_text()
    assert js.read_text() == js2.read_text()


def test_dump_semantics_round_trip(tmp_path, chain_prog, capsys):
    """The dumped semantics is JSON, byte-identical across two runs."""
    prog, _ = chain_prog
    dumps = []
    for name in ("sem1.json", "sem2.json"):
        dump = tmp_path / name
        code, _ = run_cli(capsys, "analyze", str(prog), "--domain", "affine",
                          "--procs", "unbounded", "--dump-semantics", str(dump))
        assert code == 0
        dumps.append(dump.read_text())
    assert json.loads(dumps[0])["procs"] == "unbounded"
    assert dumps[0] == dumps[1]


def test_widening_flags_accepted(chain_prog, capsys):
    prog, _ = chain_prog
    code, _ = run_cli(capsys, "analyze", str(prog), "--procs", "1",
                      "--widening-delay", "4", "--shape-k", "2", "--budget", "300")
    assert code == 0
