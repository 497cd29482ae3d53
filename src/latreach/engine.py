"""Fixpoint engine: reachability computation, safety and deadlock checks.

One analysis step applies the local-step transducer and every
communication rule, then normalizes the union.  The inactivity rule
copies every letter, so each step's image includes its iterate: the
join rounds take the image as the next iterate, and the later rounds
widen; label-level widening fires only at loop heads, the entry
location of creating programs, and collector locations.
"""
from __future__ import annotations

import itertools
from typing import List, Optional

from .automaton import (
    LatticeAutomaton,
    includes,
    normalize,
    trim,
    union_all,
    widen_automata,
)
from .domain import (
    AbstractLocalState,
    AlarmSink,
    Interval,
    IntervalEnv,
    is_finite,
    loc_sort_key,
    meet_guard,
)
from .frontend import CompiledSemantics
from .rules import StarImages, WordFits, apply_rule, fires
from .transducer import apply_transducer
from .value import frozen


# Widening rounds restricted to the program's widening locations; after
# them fixpoint widens at every location, so an increasing chain that the
# widening locations alone do not cut still ends.
ESCALATION_DELAY = 40

# The deadlock check decides on at most this many candidate paths; a reach
# automaton with more makes the check incomplete (DeadlockCheckIncomplete).
CANDIDATE_CAP = 4096

# The deadlock check tries a movable candidate's atom refinements only
# when they number at most this many (_atom_refinements).
ATOM_CAP = 512


@frozen
class AnalysisConfig:
    widening_delay: int = 2
    shape_k: int = 1
    step_budget: int = 500

    def __post_init__(self):
        assert self.step_budget >= 1 and self.widening_delay >= 0 and self.shape_k >= 1


@frozen
class AnalysisResult:
    reach: LatticeAutomaton
    iterations: int
    alarms: list  # (kind, description) pairs, sorted


class BudgetExhausted(Exception):
    """The step budget ran out before a post-fixpoint was reached."""


def step(sem: CompiledSemantics, s: LatticeAutomaton, sink: AlarmSink = None
         ) -> LatticeAutomaton:
    """One application of the extended transducer: local steps union the
    image of every communication rule.  The rules share one StarImages of
    the normalized automaton, so guard words and stars that several rules
    read are matched once per step."""
    parts = [apply_transducer(sem.ctx, sem.transducer, s, sink)]
    if sem.rules:
        stars = StarImages(sem.ctx, normalize(s), sink)
        for rule in sem.rules:
            parts.append(apply_rule(sem.ctx, rule, s, sink, stars))
    return union_all(parts)


def fixpoint(sem: CompiledSemantics, config: AnalysisConfig = AnalysisConfig()
             ) -> AnalysisResult:
    """Iterate to a post-fixpoint of the extended transducer.

    Joins only for the first widening_delay rounds, then widening
    restricted to the program's widening locations; if the iteration still
    has not settled ESCALATION_DELAY rounds past that point, the
    restriction is dropped so every increasing chain is eventually cut.
    The inactivity rule makes each image include its iterate: a join round
    takes the image itself, the union of the two, and a widening round
    meets widen_automata's precondition L(s) <= L(image): it widens the
    labels of equal shapes, quotients an image whose words keep growing
    longer, and otherwise takes the image."""
    sink = AlarmSink()
    s = normalize(sem.initial)
    escalate_at = config.widening_delay + ESCALATION_DELAY
    for k in range(config.step_budget):
        image = step(sem, s, sink)
        if includes(s, image):
            return AnalysisResult(s, k + 1, sorted(sink.alarms))
        if k < config.widening_delay:
            s = image
        else:
            s = widen_automata(s, image, sem.widen_locs if k < escalate_at else None,
                               config.shape_k)
    raise BudgetExhausted(f"no post-fixpoint within {config.step_budget} steps")


# ---------------------------------------------------------------------------
# safety properties


@frozen
class PropertyAutomaton:
    """Bad-configuration automaton; labels are guard elements."""

    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: frozenset  # (src, GuardElement, dst)

    def locations(self):
        return {g.loc for (_, g, _) in self.transitions if g.loc is not None}


@frozen
class SafetyVerdict:
    safe: bool
    witness: Optional[str] = None


class PropertyLocationError(Exception):
    pass


def _product_with_property(sem, reach: LatticeAutomaton, bad: PropertyAutomaton):
    """Product automaton of the reach set with the bad automaton; labels
    are reach letters refined by the guards."""
    trans = set()
    for (sa, letter, ta) in reach.transitions:
        for (sb, guard, tb) in bad.transitions:
            m = meet_guard(sem.ctx, letter, guard)
            if m is not None:
                trans.add(((sa, sb), m, (ta, tb)))
    states = {q for (q, _, _) in trans} | {q for (_, _, q) in trans}
    initial = {(qa, qb) for qa in reach.initial for qb in bad.initial}
    final = {(qa, qb) for qa in reach.final for qb in bad.final}
    states |= initial | final
    return LatticeAutomaton(frozenset(states), frozenset(initial),
                            frozenset(final), frozenset(trans))


def _shortest_witness(product: LatticeAutomaton) -> Optional[str]:
    """Deterministic BFS witness: shortest accepting word, ties broken by
    the lexicographic order of the location sequence."""
    product = trim(product)
    if product.is_trivially_empty:
        return None
    edges = sorted(product.transitions,
                   key=lambda e: (repr(e[0]), e[1].sort_key(), repr(e[2])))
    best = {}
    frontier = {q: () for q in sorted(product.initial, key=repr)}
    for q, path in frontier.items():
        best[q] = path
    for _ in range(len(product.states) + 1):
        hits = [best[q] for q in best if q in product.final]
        if hits:
            word = min(hits, key=lambda w: [loc_sort_key(l.loc) for l in w])
            return " . ".join(str(letter) for letter in word)
        nxt = {}
        for (s, l, t) in edges:
            if s in best:
                cand = best[s] + (l,)
                if t not in nxt or [loc_sort_key(x.loc) for x in cand] < \
                        [loc_sort_key(x.loc) for x in nxt[t]]:
                    nxt[t] = cand
        best = nxt
        if not best:
            return None
    return None


def check_property_locations(sem: CompiledSemantics, bad: PropertyAutomaton) -> None:
    """Raise PropertyLocationError when the property names a location
    that is neither a program location nor one the rules introduce (the
    reduce lock and collector locations, which are blocking)."""
    unknown = bad.locations() - set(sem.cfg.locations) - sem.blocking_locs
    if unknown:
        raise PropertyLocationError(
            f"property mentions unknown locations: {', '.join(sorted(unknown))}")


def check_safety(sem: CompiledSemantics, result: AnalysisResult,
                 bad: PropertyAutomaton) -> SafetyVerdict:
    """Safe iff the reach set misses the bad language; on alarm, produce
    one shortest witness word template.  The property's locations are
    checked beforehand (check_property_locations)."""
    product = _product_with_property(sem, result.reach, bad)
    witness = _shortest_witness(product)
    if witness is None:
        return SafetyVerdict(True)
    return SafetyVerdict(False, witness)


# ---------------------------------------------------------------------------
# deadlock detection


@frozen
class DeadlockWitness:
    locations: tuple
    description: str


class DeadlockCheckIncomplete(Exception):
    """The reach automaton has more than CANDIDATE_CAP candidate paths;
    witnesses holds the deadlocks found among the first CANDIDATE_CAP."""

    def __init__(self, witnesses):
        super().__init__(f"the check stopped after {CANDIDATE_CAP} candidate paths")
        self.witnesses = witnesses


def _candidate_paths(reach: LatticeAutomaton, blocking: frozenset,
                     limit: int = CANDIDATE_CAP):
    """Accepting paths whose labels all sit at blocking/exit locations;
    each transition is used at most twice (one loop unrolling).  Paths come
    in depth-first order over sorted transitions, at most limit of them."""
    out = []
    succ = {}
    for e in reach.sorted_transitions():
        if e[1].loc in blocking:
            succ.setdefault(e[0], []).append(e)
    for q0 in sorted(reach.initial, key=repr):
        used = {}
        stack = [((), iter(succ.get(q0, ())), None)]  # (word, edges left, edge in)
        while stack:
            word, edges, _ = stack[-1]
            for e in edges:
                if used.get(e, 0) < 2:
                    if len(out) >= limit:
                        return out
                    used[e] = used.get(e, 0) + 1
                    longer = word + (e[1],)
                    if e[2] in reach.final:
                        out.append(longer)
                    stack.append((longer, iter(succ.get(e[2], ())), e))
                    break
            else:
                _, _, e = stack.pop()
                if e is not None:
                    used[e] -= 1
    return out


def _letter_atoms(letter) -> list:
    """The single-id, single-value letters that the letter splits into
    when its id and value ranges are small and finite; [] when it does
    not split."""
    pid = letter.pid
    if not (is_finite(pid.lo) and is_finite(pid.hi)) or pid.hi - pid.lo > 8:
        return []
    if not isinstance(letter.env, IntervalEnv):
        return []
    ids = [pid.lo + i for i in range(int(pid.hi - pid.lo) + 1)]
    var_choices = []
    for name, itv in letter.env.items:
        if not (is_finite(itv.lo) and is_finite(itv.hi)):
            var_choices.append([(name, None)])
            continue
        if itv.hi - itv.lo > 4 or (itv.hi - itv.lo).denominator != 1:
            var_choices.append([(name, None)])
            continue
        var_choices.append([(name, itv.lo + k) for k in range(int(itv.hi - itv.lo) + 1)])
    options = []
    for pid_v in ids:
        for combo in itertools.product(*var_choices):
            env = dict(letter.env.items)
            for name, val in combo:
                if val is not None:
                    env[name] = Interval.point(val)
            refined = IntervalEnv.make(env)
            if refined is not None:
                options.append(AbstractLocalState(Interval.point(pid_v), letter.loc, refined))
    return options


def _atom_refinements(word, atoms: dict):
    """Split every letter of the word into its atoms (_letter_atoms); []
    when a letter does not split or the words would number more than
    ATOM_CAP.
    atoms memoizes the split by letter for the words of one check."""
    per_letter = []
    total = 1
    for letter in word:
        options = atoms.get(letter)
        if options is None:
            options = atoms[letter] = _letter_atoms(letter)
        if not options:
            return []
        per_letter.append(options)
        total *= len(options)
        if total > ATOM_CAP:
            return []
    return [tuple(w) for w in itertools.product(*per_letter)]


def check_deadlock(sem: CompiledSemantics, result: AnalysisResult) -> List[DeadlockWitness]:
    """Potential deadlocks: abstract words whose letters all wait at
    blocking locations (at least one off the exit) and that no rule can
    advance.  Alarms may be spurious; when the coarse letters are joins,
    the word's small finite refinements (when they number at most
    ATOM_CAP) are tried until one is stuck, so that a genuinely stuck
    combination inside a joined label is still reported.

    Only the rules are asked: compilation gives every location the edges
    of one statement, so no local rule but inactivity, which moves no
    letter, reads a blocking location (CompiledSemantics.blocking_locs).
    A word, coarse or refined, is movable when some rule fires on some
    concretisation of it.  Whether a rule fires is decided on the word,
    with no automaton built: the rule's guard words are placed on the
    word's positions, and a placement whose segments fit their stars and
    whose f-images have no bottom letter is an instance (rules.fires).
    A rule whose guard words read a location that no letter of the
    candidate sits at does not fire on it, so only the other rules are
    asked; a refinement keeps the candidate's locations, and so its
    rules.  The rules share one WordFits per word.

    At most CANDIDATE_CAP candidate paths are decided; when the reach
    automaton has more, DeadlockCheckIncomplete is raised with the
    witnesses found among them."""

    def movable(word, rules) -> bool:
        fits = WordFits(sem.ctx, word)
        return any(fires(sem.ctx, rule, word, fits) for rule in rules)

    witnesses = {}
    atoms = {}
    asked = {}  # the locations of a word -> the rules that may fire on it
    blocking = sem.blocking_locs
    exit_loc = sem.cfg.exit
    words = _candidate_paths(result.reach, blocking, CANDIDATE_CAP + 1)
    for word in words[:CANDIDATE_CAP]:
        if all(l.loc == exit_loc for l in word):
            continue
        locs = frozenset(l.loc for l in word)
        rules = asked.get(locs)
        if rules is None:
            rules = asked[locs] = [r for r in sem.rules if r.guard_locs <= locs]
        chosen = word
        if movable(word, rules):
            chosen = next((w for w in _atom_refinements(word, atoms)
                           if not (all(l.loc == exit_loc for l in w) or movable(w, rules))),
                          None)
            if chosen is None:
                continue
        locs = tuple(l.loc for l in chosen)
        if locs not in witnesses:
            witnesses[locs] = DeadlockWitness(
                locs, " . ".join(str(l) for l in chosen))
    found = [witnesses[k] for k in sorted(witnesses, key=lambda ls: [loc_sort_key(l) for l in ls])]
    if len(words) > CANDIDATE_CAP:
        raise DeadlockCheckIncomplete(found)
    return found
