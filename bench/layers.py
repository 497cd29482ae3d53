"""Per-layer tracing of latreach from outside the program.

The tracer wraps each layer's public functions in every ``latreach``
module namespace that binds them (``rules`` and ``transducer`` import
``normalize`` by name, for example), keeps a span stack to split each
call's time into self time and child time, and puts the original
functions back when it is closed.  Each ``engine.step`` call is one
fixpoint iteration; the tracer writes one row per iteration with the
automaton size and the self time each layer spent in it.

A target that no longer exists is listed as absent and reads zero, so a
change that removes a call such as ``normalize`` can still be traced.  A
count whose hook no longer fits the target's arguments or result is
listed as unreadable.
"""
from __future__ import annotations

import sys
import time

# (module, function) pairs; the module is the one that defines the function
TARGETS = (
    ("frontend", "parse"),
    ("frontend", "compile_program"),
    ("cli", "parse_property"),
    ("engine", "fixpoint"),
    ("engine", "step"),
    ("engine", "check_safety"),
    ("engine", "check_deadlock"),
    ("transducer", "apply_transducer"),
    ("rules", "apply_rule"),
    ("automaton", "matches"),
    ("automaton", "normalize"),
    ("automaton", "trim"),
    ("automaton", "union_all"),
    ("automaton", "includes"),
    ("automaton", "widen_automata"),
    ("domain", "meet_guard"),
    ("domain", "letter_join"),
)

PACKAGE = "latreach"


class Span:
    """Calls, inclusive time (outermost calls only) and self time of one
    target."""

    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.summary()``."""

    def __init__(self):
        self.spans = {f"{m}.{f}": Span() for m, f in TARGETS}
        self.counts = {"normalize_noop": 0, "meet_guard_bottom": 0, "rule_fired": 0,
                       "match_triples": 0, "reach_states": 0, "reach_transitions": 0}
        self.absent = []
        self.unreadable = set()
        self.rows = []
        self._stack = []  # child time accumulated by each open span
        self._saved = []  # (module, attribute, original)
        self._iteration = None

    # -- installation ---------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TARGETS:
            key = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- spans ----------------------------------------------------------

    def _wrap(self, key, fn):
        span = self.spans[key]
        stack = self._stack
        clock = time.perf_counter
        before = self._before.get(key)
        after = self._after.get(key)

        def traced(*args, **kwargs):
            if before is not None:
                # bookkeeping time is kept out of the caller's self time
                t0 = clock()
                self._hook(key, before, args)
                if stack:
                    stack[-1][0] += clock() - t0
            child = [0.0]
            stack.append(child)
            span.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_time += elapsed - child[0]
                if span.depth == 0:
                    span.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                t0 = clock()
                self._hook(key, after, args, result)
                if stack:
                    stack[-1][0] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, key, hook, *args):
        """Hooks read arguments and results; if a later signature no longer
        fits, the count is reported as unreadable instead of failing the run."""
        try:
            hook(self, *args)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.unreadable.add(key)

    # hooks: (tracer, args) before the call, (tracer, args, result) after

    def _normalize_done(self, args, result):
        if result == args[0]:
            self.counts["normalize_noop"] += 1

    def _meet_guard_done(self, args, result):
        if result is None:
            self.counts["meet_guard_bottom"] += 1

    def _apply_rule_done(self, args, result):
        if result.initial:
            self.counts["rule_fired"] += 1

    def _matches_done(self, args, result):
        self.counts["match_triples"] += len(result)

    def _fixpoint_done(self, args, result):
        states, transitions = result.reach.size()
        self.counts["reach_states"] += states
        self.counts["reach_transitions"] += transitions

    def _step_start(self, args):
        states, transitions = args[1].size()
        self._iteration = (time.perf_counter(), states, transitions,
                           {k: s.self_time for k, s in self.spans.items()})

    def _step_done(self, args, result):
        start, states, transitions, before = self._iteration
        image_states, image_transitions = result.size()
        self_s = {k: round(s.self_time - before[k], 6) for k, s in self.spans.items()
                  if s.self_time != before[k]}
        self.rows.append({"iteration": len(self.rows) + 1, "states": states,
                          "transitions": transitions, "image_states": image_states,
                          "image_transitions": image_transitions,
                          "wall_s": round(time.perf_counter() - start, 6), "self_s": self_s})

    _before = {"engine.step": _step_start}
    _after = {"automaton.normalize": _normalize_done, "domain.meet_guard": _meet_guard_done,
              "rules.apply_rule": _apply_rule_done, "automaton.matches": _matches_done,
              "engine.fixpoint": _fixpoint_done, "engine.step": _step_done}

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        return {"spans": {k: [s.calls, s.total, s.self_time] for k, s in self.spans.items()},
                "counts": dict(self.counts), "absent": list(self.absent),
                "unreadable": sorted(self.unreadable), "rows": self.rows}


def per_layer(summaries) -> dict:
    """Per-layer metrics summed over the analyses' tracer summaries:
    name -> (value, unit)."""
    spans = {}
    counts = {}
    for s in summaries:
        for k, (calls, total, self_time) in s["spans"].items():
            acc = spans.setdefault(k, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_time
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def calls(k):
        return spans.get(k, (0, 0.0, 0.0))[0]

    def total(k):
        return spans.get(k, (0, 0.0, 0.0))[1]

    def self_s(k):
        return spans.get(k, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "frontend.compile_s": (total("frontend.parse") + total("frontend.compile_program")
                               + total("cli.parse_property"), "s"),
        "engine.iterations": (calls("engine.step"), "count"),
        "engine.check_deadlock_s": (total("engine.check_deadlock"), "s"),
        "engine.check_safety_s": (total("engine.check_safety"), "s"),
        "transducer.apply_calls": (calls("transducer.apply_transducer"), "count"),
        "transducer.apply_self_s": (self_s("transducer.apply_transducer"), "s"),
        "rules.apply_calls": (calls("rules.apply_rule"), "count"),
        "rules.apply_s": (total("rules.apply_rule"), "s"),
        "rules.apply_self_s": (self_s("rules.apply_rule"), "s"),
        "rules.match_triples": (counts.get("match_triples", 0), "count"),
        "rules.fire_ratio": (ratio(counts.get("rule_fired", 0), calls("rules.apply_rule")),
                             "ratio"),
        "automaton.normalize_calls": (calls("automaton.normalize"), "count"),
        "automaton.normalize_self_s": (self_s("automaton.normalize"), "s"),
        "automaton.normalize_noop_ratio": (ratio(counts.get("normalize_noop", 0),
                                                 calls("automaton.normalize")), "ratio"),
        "automaton.trim_self_s": (self_s("automaton.trim"), "s"),
        "automaton.union_all_s": (total("automaton.union_all"), "s"),
        "automaton.includes_calls": (calls("automaton.includes"), "count"),
        "automaton.includes_s": (total("automaton.includes"), "s"),
        "automaton.widen_calls": (calls("automaton.widen_automata"), "count"),
        "automaton.widen_s": (total("automaton.widen_automata"), "s"),
        "automaton.reach_states": (counts.get("reach_states", 0), "count"),
        "automaton.reach_transitions": (counts.get("reach_transitions", 0), "count"),
        "domain.meet_guard_calls": (calls("domain.meet_guard"), "count"),
        "domain.meet_guard_self_s": (self_s("domain.meet_guard"), "s"),
        "domain.meet_guard_bottom_ratio": (ratio(counts.get("meet_guard_bottom", 0),
                                                 calls("domain.meet_guard")), "ratio"),
        "domain.letter_join_calls": (calls("domain.letter_join"), "count"),
        "domain.letter_join_self_s": (self_s("domain.letter_join"), "s"),
    }
