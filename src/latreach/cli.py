"""Command-line driver: parse, analyze, check properties, export automata.

Exit codes: 0 safe / no alarms, 1 property alarm, 2 potential deadlock
(with --deadlock and no property alarm), 3 usage, parse or file error, 4
step budget exhausted, or a deadlock check cut at its candidate cap that
found no deadlock.  Identical inputs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import json
import re
import signal
import sys

from .domain import GuardElement, TOP_GUARD
from .engine import (
    AnalysisConfig,
    BudgetExhausted,
    DeadlockCheckIncomplete,
    PropertyAutomaton,
    PropertyLocationError,
    check_deadlock,
    check_property_locations,
    check_safety,
    fixpoint,
)
from .expr import is_comparison
from .export import dump_semantics, to_dot, to_json
from .frontend import CompileError, compile_program
from .syntax import ParseError, parse, parse_expr


class PropertyParseError(Exception):
    pass


def parse_property(text: str) -> PropertyAutomaton:
    """Textual bad-configuration automaton.

    Lines: ``state NAME [initial] [final]`` declares a state, once;
    ``A -> B : items`` adds a transition where items are comma-separated:
    ``true`` (any letter), at most one ``loc=lN`` or ``loc=any``, and
    comparisons ``expr <op> expr`` over id, the letter's variables and
    constants.  Each label is one guard element: its location, or any
    location, plus its comparisons.  An item is a location item when
    ``loc`` is followed by a single ``=``, so ``loc == 3`` compares a
    program variable named loc."""
    states = {}
    transitions = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("state "):
            parts = line.split()
            name = parts[1]
            flags = parts[2:]
            bad = [f for f in flags if f not in ("initial", "final")]
            if bad:
                raise PropertyParseError(f"line {lineno}: unknown flag {bad[0]!r}")
            if name in states:
                raise PropertyParseError(f"line {lineno}: state {name!r} declared twice")
            states[name] = ("initial" in flags, "final" in flags)
            continue
        if "->" not in line or ":" not in line:
            raise PropertyParseError(f"line {lineno}: expected 'src -> dst : label'")
        head, label = line.split(":", 1)
        src, _, dst = head.partition("->")
        src, dst = src.strip(), dst.strip()
        if src not in states or dst not in states:
            raise PropertyParseError(f"line {lineno}: undeclared state in {src!r} -> {dst!r}")
        transitions.add((src, _parse_label(label.strip(), lineno), dst))
    if not states:
        raise PropertyParseError("property declares no states")
    initial = frozenset(n for n, (ini, _) in states.items() if ini)
    final = frozenset(n for n, (_, fin) in states.items() if fin)
    if not initial or not final:
        raise PropertyParseError("property needs at least one initial and one final state")
    return PropertyAutomaton(frozenset(states), initial, final, frozenset(transitions))


def _parse_label(label: str, lineno: int) -> GuardElement:
    if label == "true":
        return TOP_GUARD
    loc = None  # the location item's value, "any" included
    comparisons = []
    for item in _top_level_items(label):
        if not item:
            raise PropertyParseError(f"line {lineno}: empty label item")
        if re.match(r"loc\s*=(?!=)", item):
            value = item.partition("=")[2].strip()
            if not value:
                raise PropertyParseError(f"line {lineno}: bad location item {item!r}")
            if loc is not None:
                raise PropertyParseError(f"line {lineno}: second location item {item!r}")
            loc = value
            continue
        try:
            e = parse_expr(item)
        except ParseError as exc:
            raise PropertyParseError(f"line {lineno}: {exc}") from exc
        if not is_comparison(e):
            raise PropertyParseError(f"line {lineno}: cannot parse label item {item!r}")
        comparisons.append(e)
    return GuardElement(None if loc == "any" else loc, tuple(comparisons))


def _top_level_items(label: str):
    """The label's comma-separated items, stripped; a comma inside
    parentheses, as in min(x, 1), does not split."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(label):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(label[start:i].strip())
            start = i + 1
    items.append(label[start:].strip())
    return items


def _procs_value(text: str):
    if text in ("unbounded", "any"):
        return text
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--procs expects an integer, 'unbounded' or 'any'")
    if n < 1:
        raise argparse.ArgumentTypeError("--procs must be at least 1")
    return n


def _bounded_int(minimum):
    def convert(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return n
    return convert


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latreach", add_help=True)
    sub = ap.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze a program")
    an.add_argument("program", help="program source file")
    an.add_argument("--domain", choices=("interval", "affine"), default="interval")
    an.add_argument("--procs", type=_procs_value, default=1)
    an.add_argument("--property", dest="property_file")
    an.add_argument("--deadlock", action="store_true")
    an.add_argument("--dot")
    an.add_argument("--json", dest="json_path")
    an.add_argument("--widening-delay", type=_bounded_int(0), default=2)
    an.add_argument("--shape-k", type=_bounded_int(1), default=1)
    an.add_argument("--budget", type=_bounded_int(1), default=500)
    an.add_argument("--dump-semantics", dest="dump_semantics_path")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0

    out = sys.stdout
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        ast = parse(source)
        sem = compile_program(ast, args.domain, args.procs)
    except (ParseError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    bad = None
    if args.property_file:
        try:
            with open(args.property_file, "r", encoding="utf-8") as fh:
                bad = parse_property(fh.read())
            check_property_locations(sem, bad)
        except (OSError, UnicodeDecodeError, PropertyParseError, PropertyLocationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    if args.dump_semantics_path:
        try:
            _write(args.dump_semantics_path, _json_text(dump_semantics(sem)))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3

    config = AnalysisConfig(widening_delay=args.widening_delay,
                            shape_k=args.shape_k, step_budget=args.budget)
    try:
        result = fixpoint(sem, config)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    nodes, trans = result.reach.size()
    print(f"program: {args.program}", file=out)
    print(f"domain: {args.domain}  procs: {args.procs}", file=out)
    print(f"iterations: {result.iterations}", file=out)
    print(f"reach automaton: {nodes} nodes / {trans} transitions", file=out)
    for kind, desc in result.alarms:
        print(f"alarm[{kind}]: {desc}", file=out)

    exit_code = 0
    if bad is not None:
        verdict = check_safety(sem, result, bad)
        if verdict.safe:
            print("property: SAFE", file=out)
        else:
            print("property: ALARM", file=out)
            print(f"witness: {verdict.witness}", file=out)
            exit_code = 1

    if args.deadlock:
        incomplete = None
        try:
            witnesses = check_deadlock(sem, result)
        except DeadlockCheckIncomplete as exc:
            if not exc.witnesses:
                print(f"error: deadlock check incomplete: {exc}, no deadlock found",
                      file=sys.stderr)
                return 4
            witnesses, incomplete = exc.witnesses, exc
        if witnesses:
            print(f"potential deadlocks: {len(witnesses)}", file=out)
            for w in witnesses[:20]:
                print(f"deadlock witness: {w.description}", file=out)
            if incomplete is not None:
                print(f"deadlock list incomplete: {incomplete}", file=out)
            if exit_code == 0:
                exit_code = 2
        else:
            print("potential deadlocks: 0", file=out)

    try:
        if args.dot:
            _write(args.dot, to_dot(result.reach))
        if args.json_path:
            _write(args.json_path, _json_text(to_json(result.reach)))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return exit_code


def _json_text(blob) -> str:
    return json.dumps(blob, indent=2, sort_keys=True)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def console_main() -> None:
    # a reader that closes the pipe early, as head does, ends the run
    # quietly, as it would any Unix filter
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
