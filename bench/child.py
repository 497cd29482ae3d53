"""One latreach analysis, or the reference job, in a child process, for
the benchmark's in-process measurements.

    python bench/child.py run <stamp> analyze <args...>
        Runs the CLI as ``python -m latreach`` does and writes to <stamp>
        the ``time.perf_counter()`` reading at which the fixpoint starts;
        the parent subtracts its own reading at spawn to get the set-up
        time: interpreter start, import, argument handling and
        parse+compile of program and property.
    python bench/child.py setup analyze <args...>
        Runs the CLI up to the fixpoint and stops there: the warm-up before
        a run, so that bytecode caches exist.
    python bench/child.py trace <summary.json> analyze <args...>
        Runs the CLI with every layer traced (see layers.py) and writes the
        tracer's summary, also when the analysis raises.
    python bench/child.py ref
        Runs the reference job: fixed pure-Python work that does not touch
        latreach.  The benchmark times it before every analysis and reports
        analysis times as multiples of it, which cancels the drift in the
        speed of a shared machine.

The package is found through PYTHONPATH, as for ``python -m latreach``.
"""
import sys


class _Stop(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stop


def reference(size: int = 40000) -> int:
    """Fixed work in the style of the analyzer: small frozensets of tuples
    as dictionary keys, Fraction arithmetic, sorting; about a third of a
    second on one 2.0 GHz Xeon vCPU."""
    from fractions import Fraction

    acc = {}
    for i in range(1, size):
        j = i % 997
        key = frozenset(((j % 7, j % 11), (j % 13, Fraction(j % 17, 7))))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(1, i % 5 + 1)
        if i % 1000 == 0:
            sorted(acc.items(), key=lambda kv: kv[1])
    return len(acc)


def main(argv) -> int:
    if argv[0] == "ref":
        reference()
        return 0

    import latreach.cli as cli

    if argv[0] == "run":
        import time

        fixpoint = cli.fixpoint

        def stamped(*args, **kwargs):
            with open(argv[1], "w", encoding="utf-8") as fh:
                fh.write(repr(time.perf_counter()))
            return fixpoint(*args, **kwargs)

        cli.fixpoint = stamped
        return cli.main(argv[2:])

    if argv[0] == "setup":
        cli.fixpoint = _stop
        try:
            code = cli.main(argv[1:])
        except _Stop:
            return 0
        print(f"setup probe: the CLI returned {code} without reaching the fixpoint",
              file=sys.stderr)
        return 100

    if argv[0] == "trace":
        import json

        from layers import Tracer

        tracer = Tracer()
        try:
            with tracer:
                return cli.main(argv[2:])
        finally:
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump(tracer.summary(), fh)

    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 100


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
