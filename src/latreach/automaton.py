"""Lattice automata over the letter domain.

Transitions carry non-bottom letters; every label lives in a single
partition class (its location).  normalize() produces the canonical form
used everywhere: deterministic over partition keys, minimized over keys,
one transition per (state, key, target), states renamed by BFS discovery
order.  Canonical forms make structural equality meaningful, which the
widening relies on.

Two paths produce the canonical form and share its tail (_canonical):
normalize() determinizes any automaton by the subset construction,
trimming as it goes, and union_all() takes the product of two canonical
operands, whose pairs are the subsets that determinizing their
juxtaposition would visit.  The tail minimizes an acyclic automaton by
one signature pass (Revuz 1992) and any other by Hopcroft's partition
refinement; both give the coarsest key bisimulation, so the bytes do not
depend on the path.

Being canonical is a property of the automaton: only the canonical tail
sets the ``canonical`` flag, and normalize() and trim() return a flagged
automaton unchanged, so a consumer may normalize its inputs without
paying twice.  Every other constructor leaves the flag off.  The flag
takes no part in ``==``, ``hash`` or ``repr``.
"""
from __future__ import annotations

from functools import cached_property

from .domain import (
    DomainContext,
    letter_join,
    letter_leq,
    letter_meet,
    letter_widen,
    loc_sort_key,
    meet_guard,
)
from .graph import live, path_lengths, reachable
from .value import frozen, hidden


@frozen
class LatticeAutomaton:
    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: frozenset  # of (src, AbstractLocalState, dst)
    canonical: bool = hidden(False)

    @staticmethod
    def empty() -> "LatticeAutomaton":
        return LatticeAutomaton(frozenset(), frozenset(), frozenset(), frozenset())

    @staticmethod
    def from_word(letters) -> "LatticeAutomaton":
        """Chain automaton accepting exactly the given label word."""
        trans = frozenset((i, letter, i + 1) for i, letter in enumerate(letters))
        n = len(letters)
        return LatticeAutomaton(frozenset(range(n + 1)), frozenset({0}), frozenset({n}), trans)

    @property
    def is_trivially_empty(self) -> bool:
        return not self.initial

    @cached_property
    def out_by_src(self) -> dict:
        """state -> [(letter, dst)], built once and in the iteration order
        of the transitions, so walks over it see paths in the same order
        as a scan of the transitions would."""
        out = {}
        for (s, l, t) in self.transitions:
            out.setdefault(s, []).append((l, t))
        return out

    @cached_property
    def by_loc(self) -> dict:
        """location -> {state: [(letter, dst)]}, built once, each list in
        the order of out_by_src: the moves at one location, by source.
        Matching and star images read only the locations their guards
        name (rules.StarImages)."""
        out = {}
        for (s, l, t) in self.transitions:
            out.setdefault(l.loc, {}).setdefault(s, []).append((l, t))
        return out

    @cached_property
    def out_by_key(self) -> dict:
        """(state, key) -> (letter, dst), built once; complete for a
        key-deterministic automaton, which every canonical one is."""
        return {(s, l.loc): (l, t) for (s, l, t) in self.transitions}

    def sorted_transitions(self):
        return sorted(self.transitions, key=lambda t: (t[0], t[1].sort_key(), t[2]))

    def size(self):
        return (len(self.states), len(self.transitions))

    def __str__(self) -> str:
        lines = [f"states={sorted(self.states)} init={sorted(self.initial)} final={sorted(self.final)}"]
        for s, l, t in self.sorted_transitions():
            lines.append(f"  {s} --{l}--> {t}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction helper (epsilon edges allowed, eliminated on build)


class Builder:
    """Accumulates transitions, label paths and epsilon links, then builds
    an automaton without epsilon links.  The result may keep dead states:
    every caller normalizes it, and normalize drops them."""

    def __init__(self):
        self.trans = set()
        self.eps = set()
        self.initial = set()
        self.final = set()
        self._fresh = 0

    def fresh(self, tag="f"):
        self._fresh += 1
        return ("#", tag, self._fresh)

    def add(self, src, letter, dst):
        assert letter is not None
        self.trans.add((src, letter, dst))

    def add_eps(self, src, dst):
        if src != dst:
            self.eps.add((src, dst))

    def add_path(self, src, letters, dst, tag="p"):
        """A path labelled by the letter sequence (epsilon when empty)."""
        if not letters:
            self.add_eps(src, dst)
            return
        cur = src
        for letter in letters[:-1]:
            nxt = self.fresh(tag)
            self.add(cur, letter, nxt)
            cur = nxt
        self.add(cur, letters[-1], dst)

    def include(self, auto: LatticeAutomaton, rename=lambda q: q):
        for (s, l, t) in auto.transitions:
            self.add(rename(s), l, rename(t))

    def build(self) -> LatticeAutomaton:
        states = set(self.initial) | set(self.final)
        for (s, _, t) in self.trans:
            states.add(s)
            states.add(t)
        if not self.eps:
            return LatticeAutomaton(frozenset(states), frozenset(self.initial),
                                    frozenset(self.final), frozenset(self.trans))
        succ = {}
        for a, b in self.eps:
            succ.setdefault(a, set()).add(b)
            states.add(a)
            states.add(b)

        out_by_src = {}
        for (s, l, t) in self.trans:
            out_by_src.setdefault(s, []).append((l, t))
        trans = set(self.trans)
        final = set(self.final)
        # only epsilon sources gain lifted transitions / finality
        for s0 in succ:
            reach = reachable({s0}, succ)
            for s in reach:
                if s != s0:
                    for (l, t) in out_by_src.get(s, ()):
                        trans.add((s0, l, t))
            if reach & final:
                final.add(s0)
        return LatticeAutomaton(frozenset(states), frozenset(self.initial),
                                frozenset(final), frozenset(trans))


def trim(a: LatticeAutomaton) -> LatticeAutomaton:
    """Drop states that are unreachable or cannot reach a final state."""
    if a.canonical:
        return a
    keep = live(a.transitions, a.initial & a.states, a.final & a.states)
    if not keep:
        return LatticeAutomaton.empty()
    return LatticeAutomaton(
        frozenset(keep),
        frozenset(a.initial & keep),
        frozenset(a.final & keep),
        frozenset((s, l, t) for (s, l, t) in a.transitions if s in keep and t in keep),
    )


# ---------------------------------------------------------------------------
# normalization


def normalize(a: LatticeAutomaton) -> LatticeAutomaton:
    """Canonical form: key-deterministic, key-minimized, labels merged by
    join within each (state, key, state') class, states renamed by BFS.

    An automaton that is already canonical is returned as it is; the
    result of any other input carries the canonical flag.  Determinization
    is the subset construction over partition keys (locations), joining
    labels that share a key.  It trims as it goes: one backward pass finds
    the states that reach a final state, and a subset keeps only those;
    the subsets met are all reachable.  That is exactly the subset
    construction of the trimmed automaton, so no separate trim runs.
    _canonical then minimizes (see _key_bisimulation), joins the labels of
    merged transitions and renames the states.  The atom language is
    preserved or enlarged, and normalize is idempotent.
    """
    if a.canonical:
        return a
    back = {}
    for (s, _, t) in a.transitions:
        back.setdefault(t, []).append(s)
    coreach = reachable(a.final & a.states, back)
    start = frozenset(a.initial & coreach)
    if not start:
        return LatticeAutomaton(frozenset(), frozenset(), frozenset(), frozenset(), True)

    # subset construction over keys; subsets are numbered as discovered
    subsets = [start]
    index = {start: 0}
    by_src = a.out_by_src
    rows = []  # per subset: key -> (label, subset number)
    for subset in subsets:
        grouped = {}
        for q in subset:
            for (l, t) in by_src.get(q, ()):
                if t in coreach:
                    hit = grouped.get(l.loc)
                    if hit is None:
                        grouped[l.loc] = (l, {t})
                    else:
                        hit[1].add(t)
                        grouped[l.loc] = (letter_join(hit[0], l), hit[1])
        row = {}
        for key, (lbl, tgt) in grouped.items():
            tgt = frozenset(tgt)
            j = index.get(tgt)
            if j is None:
                j = index[tgt] = len(subsets)
                subsets.append(tgt)
            row[key] = (lbl, j)
        rows.append(row)
    return _canonical(rows, [not a.final.isdisjoint(s) for s in subsets])


def _canonical(rows, final) -> LatticeAutomaton:
    """The canonical automaton of a trimmed key-deterministic one whose
    states 0..n-1 are all reachable from the initial state 0.  rows[i]
    maps each key state i moves on to (label, target); final[i] says
    whether i is final.

    The states are partitioned by _signature_classes when the automaton
    is acyclic and by _key_bisimulation otherwise: both give the coarsest
    key bisimulation.  The transitions of merged states are merged too,
    their labels joined.  States are then renamed by BFS over keys in
    loc_sort_key order, so the names do not depend on how the input or
    the partition numbered them."""
    class_of = _signature_classes(rows, final)
    if class_of is None:
        class_of = _key_bisimulation(final, {(i, key): move for i, row in enumerate(rows)
                                             for key, move in row.items()})
    merged = {}  # class -> {key: (label, class)}
    for i, row in enumerate(rows):
        moves = merged.get(class_of[i])
        if moves is None:
            merged[class_of[i]] = {key: (lbl, class_of[j]) for key, (lbl, j) in row.items()}
        else:
            for key, (lbl, j) in row.items():
                moves[key] = (letter_join(moves[key][0], lbl), moves[key][1])

    keys = {key for moves in merged.values() for key in moves}
    rank = {key: loc_sort_key(key) for key in keys}
    name = {class_of[0]: 0}
    bfs = [class_of[0]]
    for c in bfs:
        moves = merged[c]
        for key in sorted(moves, key=rank.__getitem__):
            nxt = moves[key][1]
            if nxt not in name:
                name[nxt] = len(name)
                bfs.append(nxt)
    transitions = frozenset((name[c], lbl, name[d]) for c, moves in merged.items()
                            for (lbl, d) in moves.values())
    return LatticeAutomaton(frozenset(range(len(name))), frozenset({0}),
                            frozenset(name[class_of[i]] for i, f in enumerate(final) if f),
                            transitions, True)


def _signature_classes(rows, final):
    """The coarsest key bisimulation of an acyclic automaton given as for
    _canonical, or None when it has a cycle.

    Revuz's pass (1992): in reverse topological order (Kahn's), each state
    gets the class of its signature, its finality and the set of (key,
    class of target) pairs.  On an acyclic automaton two states are
    bisimilar exactly when their signatures are equal, by induction on the
    longest path from them, so one pass gives Hopcroft's partition."""
    indeg = [0] * len(rows)
    for row in rows:
        for (_, j) in row.values():
            indeg[j] += 1
    order = [i for i, d in enumerate(indeg) if d == 0]
    for i in order:
        for (_, j) in rows[i].values():
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < len(rows):
        return None
    class_of = [0] * len(rows)
    classes = {}
    for i in reversed(order):
        sig = (final[i], frozenset((key, class_of[j]) for key, (_, j) in rows[i].items()))
        class_of[i] = classes.setdefault(sig, len(classes))
    return class_of


def _key_bisimulation(final, moves) -> list:
    """Coarsest partition of the states 0..n-1 of a key-deterministic
    automaton that separates final from non-final states and in which the
    states of a block either all move on a key into one block or all have
    no move on it (a missing move goes to an implicit dead state, which no
    state of a trimmed automaton equals).  moves maps (state, key) to
    (label, state); the result gives each state's block number.

    Hopcroft's partition refinement (Hopcroft 1971) in the form Valmari
    (2012) gives for partial automata: every initial block splits by every
    key, and of a block that splits, only the smaller half is queued, so a
    state is scanned O(log n) times per key.  _canonical runs it only on
    automata with a cycle (under --procs any or unbounded, and on
    quotient-widened iterates); an acyclic one gets the same partition
    from one signature pass (_signature_classes).
    """
    pre = {}  # (key, dst) -> sources
    keys = {}
    for (s, key), (_, t) in moves.items():
        pre.setdefault((key, t), []).append(s)
        keys[key] = None
    blocks = [b for b in ({q for q, f in enumerate(final) if f},
                          {q for q, f in enumerate(final) if not f}) if b]
    block_of = [0] * len(final)
    for b, members in enumerate(blocks):
        for q in members:
            block_of[q] = b
    work = [(b, key) for b in range(len(blocks)) for key in keys]
    while work:
        b, key = work.pop()
        hits = {}
        for t in blocks[b]:
            for s in pre.get((key, t), ()):
                hits.setdefault(block_of[s], []).append(s)
        for c, hit in hits.items():
            members = blocks[c]
            if len(hit) == len(members):
                continue
            if 2 * len(hit) <= len(members):
                part = set(hit)
            else:
                part = members.difference(hit)
            members -= part
            for q in part:
                block_of[q] = len(blocks)
            # queued or not, block c keeps its role; the new, smaller
            # block is queued for every key
            work.extend((len(blocks), k) for k in keys)
            blocks.append(part)
    return block_of


# ---------------------------------------------------------------------------
# boolean operations


def _product_union(a: LatticeAutomaton, b: LatticeAutomaton) -> LatticeAutomaton:
    """The canonical union of two canonical, non-empty automata, by a
    direct product.

    A state is a pair (p, q) of a state of each, where None stands for a
    side that has no move left.  The pair moves on every key either side
    moves on, with the label of the side that moves, or the join of both
    labels when both do; it is final when either side is.  Each reachable
    pair is exactly a subset that the determinization of the two
    juxtaposed automata visits, since key-deterministic operands put at
    most one state of each into a subset, with the same moves, labels and
    finality.  Every pair reaches a final pair along the path of a side
    that is not None, so the product is trim, and _canonical gives the
    bytes that normalizing the juxtaposition gave."""
    a_out, b_out = a.out_by_src, b.out_by_src
    start = (0, 0)  # a canonical automaton starts in state 0
    pairs = [start]
    index = {start: 0}
    rows = []  # per pair: key -> (label, pair number)
    for (p, q) in pairs:
        moves = {}
        for (l, t) in a_out.get(p, ()):
            moves[l.loc] = (l, t, None)
        for (l, t) in b_out.get(q, ()):
            hit = moves.get(l.loc)
            moves[l.loc] = (l, None, t) if hit is None else (letter_join(hit[0], l), hit[1], t)
        row = {}
        for key, (lbl, s, t) in moves.items():
            j = index.get((s, t))
            if j is None:
                j = index[(s, t)] = len(pairs)
                pairs.append((s, t))
            row[key] = (lbl, j)
        rows.append(row)
    return _canonical(rows, [p in a.final or q in b.final for (p, q) in pairs])


def union_all(autos) -> LatticeAutomaton:
    """Union of many automata.

    Each argument is canonicalized first and duplicates are dropped; the
    union then folds pairwise, smallest first by (states, transitions)
    and in input order among equal sizes, each step the product of two
    canonical operands (_product_union), so no step determinizes a
    juxtaposition of its operands.  A step gives what determinizing its
    two operands side by side gives, but the fold as a whole need not
    equal one determinization of all of them: each step minimizes, which
    joins the labels of the states it merges, so which operands meet
    first shows in the labels, and the fold order is part of the result.

    A fold whose operand already includes the other takes the including
    one as it is.  That is exact: when nxt simulates out, every pair of
    the product holds a state of nxt, with its keys, finality and, since
    letter_leq(x, y) makes letter_join(x, y) == y, its labels, so the
    product would give back nxt itself.  The larger operand nxt is
    asked first, the likely hit; two canonical automata that include
    each other are equal, and equal operands were dropped, so the order
    does not change the result."""
    canon = []
    seen = set()
    for a in autos:
        a = normalize(a)
        if a.is_trivially_empty or a in seen:
            continue
        seen.add(a)
        canon.append(a)
    if not canon:
        return LatticeAutomaton.empty()
    canon.sort(key=lambda a: (len(a.states), len(a.transitions)))
    out = canon[0]
    for nxt in canon[1:]:
        if includes(nxt, out):
            out = nxt
        elif not includes(out, nxt):
            out = _product_union(out, nxt)
    return out


def union(a: LatticeAutomaton, b: LatticeAutomaton) -> LatticeAutomaton:
    return union_all([a, b])


def intersection(a: LatticeAutomaton, b: LatticeAutomaton) -> LatticeAutomaton:
    """Product construction with label meets, bottom products dropped."""
    bld = Builder()
    bld.initial = {(qa, qb) for qa in a.initial for qb in b.initial}
    bld.final = {(qa, qb) for qa in a.final for qb in b.final}
    for (sa, la, ta) in a.transitions:
        for (sb, lb, tb) in b.transitions:
            m = letter_meet(la, lb)
            if m is not None:
                bld.add((sa, sb), m, (ta, tb))
    return normalize(bld.build())


def is_empty(a: LatticeAutomaton) -> bool:
    return trim(a).is_trivially_empty


def includes(big: LatticeAutomaton, small: LatticeAutomaton) -> bool:
    """Decide L(small) subseteq L(big); may answer False on an inclusion
    that holds (sound direction only).  Simulation over the canonical
    key-deterministic forms with labelwise leq."""
    big = normalize(big)
    small = normalize(small)
    if small.is_trivially_empty:
        return True
    if big.is_trivially_empty:
        return False
    big_out = big.out_by_key
    small_out = small.out_by_src
    pairs = {(next(iter(small.initial)), next(iter(big.initial)))}
    seen = set()
    while pairs:
        qs, qb = pairs.pop()
        if (qs, qb) in seen:
            continue
        seen.add((qs, qb))
        if qs in small.final and qb not in big.final:
            return False
        for (l, t) in small_out.get(qs, ()):
            hit = big_out.get((qb, l.loc))
            if hit is None:
                return False
            lbl, tb = hit
            if not letter_leq(l, lbl):
                return False
            pairs.add((t, tb))
    return True


# ---------------------------------------------------------------------------
# matching utilities


@frozen
class MatchTriple:
    begin: object
    labels: tuple  # matched letters, all non-bottom
    end: object


def matches(ctx: DomainContext, w, a: LatticeAutomaton, sink=None):
    """Matching sequences of a guard word against the automaton: every
    (q_b, v, q_e) with a path of length |w| whose pointwise meet with the
    guard word is non-bottom.

    Paths start only from the states that have a move at the first guard
    element's location (every state with a move, for a guard reading any
    location) and grow one guard element at a time over the moves at its
    location (a.by_loc), so a letter the guard cannot read is never met,
    and each prefix is met once with the guard's comparisons.  The
    triples come in the order of the start states sorted by repr, then
    of out_by_src along the path: a state with no move at the first
    location starts no triple, so this is the order of a scan of every
    state.  The meets raise their alarms (a division in a broadcast or
    reduce root expression) into sink."""
    assert len(w) >= 1
    rows = [a.out_by_src if g.loc is None else a.by_loc.get(g.loc, {}) for g in w]
    out = []
    for q in sorted(rows[0], key=repr):
        acc = [((), q)]
        for g, row in zip(w, rows):
            acc = [(vs + (m,), t) for vs, cur in acc for (l, t) in row.get(cur, ())
                   for m in (meet_guard(ctx, l, g, sink),) if m is not None]
        out.extend(MatchTriple(q, vs, end) for vs, end in acc)
    return out


# ---------------------------------------------------------------------------
# shape and widening


def shape(a: LatticeAutomaton):
    """The automaton over partition keys obtained by erasing labels, as a
    (states, initial, final, transitions) tuple."""
    return (a.states, a.initial, a.final,
            frozenset((s, l.loc, t) for (s, l, t) in a.transitions))


def _length_bound(a: LatticeAutomaton):
    """Longest accepted word length, or None when unbounded (a useful
    cycle)."""
    return path_lengths(a.transitions, a.initial, a.final)[1]


def _signature_quotient(a: LatticeAutomaton, k: int) -> LatticeAutomaton:
    """Merge states with the same bounded incoming-key history, initiality
    and finality; the quotient's language contains the original's."""
    a = trim(a)
    if not a.states:
        return a
    preds = {q: set() for q in a.states}
    for (s, l, t) in a.transitions:
        preds[t].add((s, l.loc))

    # after round d, history[q] holds the last d keys of every path into q,
    # or the whole key word of a shorter path from an initial state
    history = dict.fromkeys(a.states, frozenset({()}))
    for _ in range(k):
        history = {
            q: frozenset({h + (key,) for (p, key) in preds[q] for h in history[p]}
                         | ({()} if q in a.initial else set()))
            for q in a.states
        }
    sig = {
        q: (q in a.initial, q in a.final, history[q])
        for q in a.states
    }
    classes = {}
    for q in sorted(a.states, key=repr):
        classes.setdefault(sig[q], []).append(q)
    rep = {}
    for members in classes.values():
        for q in members:
            rep[q] = members[0]
    return LatticeAutomaton(
        frozenset(rep[q] for q in a.states),
        frozenset(rep[q] for q in a.initial),
        frozenset(rep[q] for q in a.final),
        frozenset((rep[s], l, rep[t]) for (s, l, t) in a.transitions),
    )


def _widen_matched_labels(a: LatticeAutomaton, b: LatticeAutomaton, widen_locs):
    """Labelwise widening of two automata with identical canonical shape,
    whose transitions pair up by source and key."""
    a_out = a.out_by_key
    trans = set()
    for (s, l, t) in b.transitions:
        prev = a_out[(s, l.loc)][0]
        label = letter_join(prev, l)
        if widen_locs is None or l.loc in widen_locs:
            label = letter_widen(prev, label)
        trans.add((s, label, t))
    return normalize(LatticeAutomaton(b.states, b.initial, b.final, frozenset(trans)))


def widen_automata(a: LatticeAutomaton, b: LatticeAutomaton,
                   widen_locs=None, k: int = 1) -> LatticeAutomaton:
    """Widening of lattice automata for L(a) <= L(b), with three outcomes:
    - equal canonical shapes: matched labels are widened at widen_locs
      (None: everywhere) and joined elsewhere;
    - words still growing longer: b quotiented by its k-bounded
      incoming-key history;
    - otherwise b, whose shape settles by itself.
    Canonical shapes are minimal location-DFAs, so the quotient, whose
    location language contains b's and so strictly contains a's, never
    has a's shape."""
    a = normalize(a)
    b = normalize(b)
    if shape(a) == shape(b):
        return _widen_matched_labels(a, b, widen_locs)
    la = _length_bound(a)
    lb = _length_bound(b)
    if lb is None or (la is not None and lb > la):
        return normalize(_signature_quotient(b, k))
    return b
