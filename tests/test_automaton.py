import json
import random
import time
from fractions import Fraction

import pytest

from latreach.automaton import (
    Builder,
    LatticeAutomaton,
    _key_classes,
    _length_bound,
    _product_union,
    _signature_quotient,
    includes,
    intersection,
    is_empty,
    matches,
    normalize,
    shape,
    trim,
    union,
    union_all,
    widen_automata,
)
from latreach.concrete import accepts_concrete, bounded_language
from latreach.domain import (
    AbstractLocalState,
    AffineEnv,
    DomainContext,
    GuardElement,
    Interval,
    IntervalEnv,
    letter_join,
    loc_sort_key,
)
from latreach.export import to_dot, to_json
from latreach.graph import live, topological_order

from helpers import path_labels

F = Fraction
CTX = DomainContext("interval", ("x",))
CTX0 = DomainContext("interval", ())


def iv(lo, hi, loc="l0", **vars_):
    env = IntervalEnv.make({n: Interval.range(a, b) for n, (a, b) in vars_.items()})
    return AbstractLocalState(Interval.range(lo, hi), loc, env)


def auto(edges, initial={0}, final=None):
    states = set(initial) | (set(final) if final else set())
    for (s, _, t) in edges:
        states.add(s)
        states.add(t)
    if final is None:
        final = {max(states)}
    return LatticeAutomaton(frozenset(states), frozenset(initial),
                            frozenset(final), frozenset(edges))


# ---------------------------------------------------------------------------
# normalization


def test_three_equivalent_automata_normalize_identically():
    a1 = auto([(0, iv(0, 2), 1), (0, iv(2, 4), 1)])
    a2 = auto([(0, iv(0, 3), 1), (0, iv(3, 4), 1)])
    a3 = auto([(0, iv(0, 4), 1)])
    n1, n2, n3 = normalize(a1), normalize(a2), normalize(a3)
    assert n1 == n2 == n3
    (_, label, _), = n1.transitions
    assert label.pid == Interval.range(0, 4)


def test_normalize_empty():
    assert normalize(LatticeAutomaton.empty()) == LatticeAutomaton.empty()


def test_normalize_merges_same_class_parallel_edges():
    a = auto([(0, iv(0, 0, "l1"), 1), (0, iv(1, 1, "l1"), 1)])
    n = normalize(a)
    (_, label, _), = n.transitions
    assert label.pid == Interval.range(0, 1)
    assert label.loc == "l1"


def test_normalize_idempotent_on_random_automata():
    rng = random.Random(23)
    locs = ["l0", "l1", "l2"]
    for _ in range(40):
        edges = set()
        for _ in range(rng.randint(1, 7)):
            s, t = rng.randint(0, 3), rng.randint(0, 3)
            lo = rng.randint(-2, 2)
            hi = rng.randint(lo, 2)
            edges.add((s, iv(lo, hi, rng.choice(locs)), t))
        a = LatticeAutomaton(frozenset(range(4)), frozenset({0}),
                             frozenset({rng.randint(0, 3)}), frozenset(edges))
        n = normalize(a)
        assert normalize(n) is n
        # the same automaton without the canonical flag goes through the
        # whole construction again and must come back unchanged
        rebuilt = LatticeAutomaton(n.states, n.initial, n.final, n.transitions)
        assert not rebuilt.canonical
        again = normalize(rebuilt)
        assert again == n and again.sorted_transitions() == n.sorted_transitions()


def _interval_letter(rng, locs):
    lo = rng.randint(-2, 2)
    return iv(lo, rng.randint(lo, 2), rng.choice(locs))


def _affine_letter(rng, locs):
    """An affine letter: x = k * id + c, sometimes with id fixed, or top."""
    lo = rng.randint(-2, 2)
    rows = []
    if rng.random() < 0.7:
        rows.append(({"x": F(1), "id": F(-rng.randint(-1, 1))}, F(rng.randint(-2, 2))))
    if rng.random() < 0.3:
        rows.append(({"id": F(1)}, F(lo)))
    pid = Interval.point(lo) if len(rows) == 2 else Interval.range(lo, rng.randint(lo, 2))
    return AbstractLocalState(pid, rng.choice(locs), AffineEnv.from_rows(("id", "x"), rows))


def _random_automaton(rng, n_states, n_edges, locs, letter=_interval_letter):
    edges = set()
    for _ in range(n_edges):
        s, t = rng.randrange(n_states), rng.randrange(n_states)
        edges.add((s, letter(rng, locs), t))
    final = {q for q in range(n_states) if rng.random() < 0.3} or {n_states - 1}
    return LatticeAutomaton(frozenset(range(n_states)),
                            frozenset(rng.sample(range(n_states), rng.randint(1, 2))),
                            frozenset(final), frozenset(edges))


def _distinguishable_pairs(a):
    """Naive fixed point: pairs of states told apart by finality, by the
    keys they can move on, or by a key whose successors are told apart."""
    succ = {q: {} for q in a.states}
    for (s, l, t) in a.transitions:
        succ[s][l.loc] = t
    apart = {(p, q) for p in a.states for q in a.states
             if (p in a.final) != (q in a.final) or succ[p].keys() != succ[q].keys()}
    changed = True
    while changed:
        changed = False
        for p in a.states:
            for q in a.states:
                if (p, q) not in apart and any(
                        (succ[p][k], succ[q][k]) in apart for k in succ[p]):
                    apart.add((p, q))
                    changed = True
    return apart


def test_normalize_is_deterministic_minimal_and_language_preserving():
    rng = random.Random(41)
    for _ in range(60):
        a = _random_automaton(rng, rng.randint(2, 7), rng.randint(1, 14), ["l0", "l1", "l2"])
        n = normalize(a)
        assert n.canonical
        keys = [(s, l.loc) for (s, l, _) in n.transitions]
        assert len(keys) == len(set(keys))  # key-deterministic
        assert len(n.initial) <= 1
        apart = _distinguishable_pairs(n)
        assert all((p, q) in apart for p in n.states for q in n.states if p != q)
        assert includes(n, a) and includes(a, n)


@pytest.mark.parametrize("letter", [_interval_letter, _affine_letter],
                         ids=["interval", "affine"])
def test_union_of_a_covered_operand_is_the_full_union(letter):
    """union_all takes an operand that includes the other as it is, with
    no product; determinizing the juxtaposition gives the same automaton,
    to the byte."""
    rng = random.Random(53)
    locs = ["l0", "l1", "l2"]
    hits = shortcuts = 0
    for _ in range(80):
        a, c = (normalize(_random_automaton(rng, rng.randint(2, 5), rng.randint(1, 9),
                                            locs, letter)) for _ in range(2))
        b = normalize(union(a, c))
        if not includes(b, a):
            continue
        hits += 1
        shortcuts += not includes(a, b)
        full = _reference_normalize(_raw_union(a, b))
        for got in (union_all([a, b]), union_all([b, a])):
            assert got == full
            assert got.sorted_transitions() == full.sorted_transitions()
            assert json.dumps(to_json(got)) == json.dumps(to_json(full))
    assert hits >= 60 and shortcuts >= 40


# The canonical form as it was built before the product union and the
# signature partition: trim, then the subset construction, Hopcroft's
# partition, merged labels and the BFS renaming.  union_all's fold then
# determinized the juxtaposition of its operands (_raw_union).


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
    state is scanned O(log n) times per key.  An algorithm independent
    of _key_classes, which must give the same partition.
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


def _reference_trim(a):
    keep = live(a.transitions, a.initial, a.final)
    return LatticeAutomaton(frozenset(keep), frozenset(a.initial & keep),
                            frozenset(a.final & keep),
                            frozenset((s, l, t) for (s, l, t) in a.transitions
                                      if s in keep and t in keep))


def _reference_normalize(a):
    a = _reference_trim(a)
    if not a.states:
        return LatticeAutomaton.empty()
    subsets = [frozenset(a.initial)]
    index = {subsets[0]: 0}
    det = {}  # (i, key) -> (label, j)
    queue = [0]
    while queue:
        cur = queue.pop()
        grouped = {}
        for (s, l, t) in a.transitions:
            if s in subsets[cur]:
                lbl, tgt = grouped.get(l.loc, (l, frozenset()))
                grouped[l.loc] = (letter_join(lbl, l), tgt | {t})
        for key, (lbl, tgt) in grouped.items():
            if tgt not in index:
                index[tgt] = len(subsets)
                subsets.append(tgt)
                queue.append(index[tgt])
            det[(cur, key)] = (lbl, index[tgt])
    final = [bool(S & a.final) for S in subsets]
    class_of = _key_bisimulation(final, det)
    merged = {}
    for (i, key), (lbl, j) in det.items():
        edge = (class_of[i], key, class_of[j])
        merged[edge] = letter_join(merged[edge], lbl) if edge in merged else lbl
    adj = {}
    for (c1, key, c2) in merged:
        adj.setdefault(c1, []).append((key, c2))
    order = {class_of[0]: 0}
    bfs = [class_of[0]]
    for cur in bfs:
        for key, nxt in sorted(adj.get(cur, ()), key=lambda kv: loc_sort_key(kv[0])):
            if nxt not in order:
                order[nxt] = len(order)
                bfs.append(nxt)
    return LatticeAutomaton(
        frozenset(order.values()), frozenset({0}),
        frozenset(order[class_of[i]] for i, f in enumerate(final) if f),
        frozenset((order[c1], lbl, order[c2]) for (c1, _, c2), lbl in merged.items()))


def _raw_union(a, b):
    bld = Builder()
    bld.initial = {("a", q) for q in a.initial} | {("b", q) for q in b.initial}
    bld.final = {("a", q) for q in a.final} | {("b", q) for q in b.final}
    bld.include(a, lambda q: ("a", q))
    bld.include(b, lambda q: ("b", q))
    return bld.build()


def _assert_same_bytes(got, want):
    assert got == want
    assert got.sorted_transitions() == want.sorted_transitions()
    assert json.dumps(to_json(got)) == json.dumps(to_json(want))


def _oracle_automaton(rng, letter, acyclic):
    """A random automaton over three locations with several initial
    states, parallel edges on one key (to one target and to two), a dead
    state n (reached, never final) and an unreachable state n + 1."""
    n = rng.randint(2, 6)
    edges = set()
    for _ in range(rng.randint(1, 12)):
        s, t = rng.randrange(n), rng.randrange(n)
        if acyclic:
            if s == t:
                continue
            s, t = min(s, t), max(s, t)
        l = letter(rng, ["l0", "l1", "l2"])
        edges.add((s, l, t))
        if rng.random() < 0.3:
            edges.add((s, letter(rng, [l.loc]), rng.choice([t, rng.randint(t, n - 1)])))
    edges.add((rng.randrange(n), letter(rng, ["l0", "l1", "l2"]), n))
    edges.add((n + 1, letter(rng, ["l0", "l1", "l2"]), rng.randrange(n)))
    final = {q for q in range(n) if rng.random() < 0.3} or {n - 1}
    return LatticeAutomaton(frozenset(range(n + 2)),
                            frozenset(rng.sample(range(n), rng.randint(1, min(3, n)))),
                            frozenset(final), frozenset(edges))


@pytest.mark.parametrize("letter", [_interval_letter, _affine_letter],
                         ids=["interval", "affine"])
def test_canonical_forms_match_the_subset_construction_reference(letter):
    """normalize and the product union give, to the byte, what trimming,
    determinizing and minimizing by Hopcroft's refinement gave, on
    acyclic and cyclic automata; union_all and the product are tried in
    both orders."""
    rng = random.Random(83)
    products = 0
    shapes = [0, 0]  # non-empty unions: acyclic, cyclic
    for trial in range(150):
        a, b = (_oracle_automaton(rng, letter, acyclic=trial % 3 == 0) for _ in range(2))
        ca, cb = normalize(a), normalize(b)
        _assert_same_bytes(ca, _reference_normalize(a))
        _assert_same_bytes(cb, _reference_normalize(b))
        want = _reference_normalize(_raw_union(ca, cb))
        for got in (union_all([a, b]), union_all([cb, ca])):
            _assert_same_bytes(got, want)
        if not (ca.is_trivially_empty or cb.is_trivially_empty):
            products += 1
            for got in (_product_union(ca, cb), _product_union(cb, ca)):
                _assert_same_bytes(got, want)
        if not want.is_trivially_empty:
            shapes[_length_bound(want) is None] += 1
    assert products >= 80 and min(shapes) >= 40, (products, shapes)


def _partition(class_of):
    blocks = {}
    for q, c in enumerate(class_of):
        blocks.setdefault(c, set()).add(q)
    return sorted(sorted(b) for b in blocks.values())


def test_signature_partition_and_hopcroft_agree():
    """On random key-deterministic automata, acyclic and with cycles, the
    signature partition (one pass or Moore's rounds) and Hopcroft's
    refinement give the same partition."""
    rng = random.Random(89)
    seen = [0, 0]  # automata: acyclic, cyclic
    merged = [0, 0]  # states merged in them
    for trial in range(800):
        n = rng.randint(1, 12)
        rows = [{} for _ in range(n)]
        for i in range(n - 1):
            for key in rng.sample(["l0", "l1", "l2"], rng.randint(0, 2)):
                rows[i][key] = (None, rng.randint(max(i + 1, n - 3), n - 1))
        if trial % 2:
            for i in rng.sample(range(n), rng.randint(1, n)):
                rows[i][rng.choice(["l0", "l1", "l2"])] = (None, rng.choice([0, i]))
        final = [not rows[i] or rng.random() < 0.2 for i in range(n)]
        moves = {(i, key): move for i, row in enumerate(rows) for key, move in row.items()}
        signature = _partition(_key_classes(rows, final))
        assert signature == _partition(_key_bisimulation(final, moves))
        cyclic = topological_order([[j for (_, j) in row.values()] for row in rows]) is None
        seen[cyclic] += 1
        merged[cyclic] += n - len(signature)
    assert min(seen) >= 300 and min(merged) >= 300, (seen, merged)


def _two_copies(a):
    """a unrolled over two copies of its states: each transition crosses
    from one copy to the other, and the language stays the same."""
    return LatticeAutomaton(
        frozenset((q, i) for q in a.states for i in (0, 1)),
        frozenset((q, 0) for q in a.initial),
        frozenset((q, i) for q in a.final for i in (0, 1)),
        frozenset(((s, i), l, (t, 1 - i)) for (s, l, t) in a.transitions for i in (0, 1)))


@pytest.mark.parametrize("letter", [_interval_letter, _affine_letter],
                         ids=["interval", "affine"])
def test_canonical_automata_that_include_each_other_are_equal(letter):
    """Two canonical automata that include each other are equal, to the
    byte, so union_all may ask either operand first.  Pairs come from a
    pool of small random automata over two locations, and each automaton
    is also paired with its two-copy unrolling."""
    rng = random.Random(61)
    pool = [normalize(_random_automaton(rng, rng.randint(2, 3), rng.randint(1, 4),
                                        ["l0", "l1"], letter)) for _ in range(150)]
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i + 1:]]
    pairs += [(a, normalize(_two_copies(a))) for a in pool]
    mutual = apart = 0
    for a, b in pairs:
        if includes(a, b) and includes(b, a):
            assert a == b and json.dumps(to_json(a)) == json.dumps(to_json(b))
            mutual += not a.is_trivially_empty
        else:
            apart += 1
    assert mutual >= 400 and apart >= 5000, (mutual, apart)


def test_canonical_flag_hygiene():
    a = auto([(0, iv(0, 2, "l0"), 1), (0, iv(2, 4, "l0"), 1), (1, iv(1, 1, "l1"), 2)],
             final={2})
    c = normalize(a)
    assert c.canonical and normalize(c) is c
    plain = LatticeAutomaton(c.states, c.initial, c.final, c.transitions)
    assert not plain.canonical
    assert plain == c and hash(plain) == hash(c) and repr(plain) == repr(c)
    assert not a.canonical
    assert not LatticeAutomaton.from_word([iv(0, 0)]).canonical
    assert normalize(LatticeAutomaton.empty()).canonical


def test_normalize_preserves_language_on_exact_join_inputs():
    """Bounded-word enumeration agrees before/after normalization when the
    only merges join adjacent intervals exactly."""
    a = auto([(0, iv(0, 2), 1), (0, iv(2, 4), 1), (1, iv(0, 1, "l1"), 2)],
             final={2})
    universe = list(range(0, 5))
    before = bounded_language(CTX0, a, 2, universe)
    after = bounded_language(CTX0, normalize(a), 2, universe)
    assert before == after


# ---------------------------------------------------------------------------
# boolean operations


def test_intersection_with_self_language_equal():
    a = normalize(auto([(0, iv(0, 3), 1), (1, iv(1, 2, "l1"), 2)], final={2}))
    assert normalize(intersection(a, a)) == a


def test_intersection_with_empty():
    a = normalize(auto([(0, iv(0, 3), 1)]))
    assert is_empty(intersection(a, LatticeAutomaton.empty()))


def test_intersection_gamma_enumeration():
    universe = list(range(-2, 3))
    a = auto([(0, iv(-2, 1), 1)])
    b = auto([(0, iv(0, 2), 1)])
    inter = intersection(a, b)
    ga = bounded_language(CTX0, a, 1, universe)
    gb = bounded_language(CTX0, b, 1, universe)
    gi = bounded_language(CTX0, inter, 1, universe)
    assert gi == (ga & gb)


def test_is_empty_cases():
    unreachable = LatticeAutomaton(frozenset({0, 1}), frozenset({0}),
                                   frozenset({1}), frozenset())
    assert is_empty(unreachable)
    single = auto([(0, iv(0, 0), 1)])
    assert not is_empty(single)
    disjoint = intersection(auto([(0, iv(0, 0), 1)]), auto([(0, iv(5, 6), 1)]))
    assert is_empty(disjoint)


def test_includes_basic():
    a = normalize(auto([(0, iv(0, 5), 1)]))
    b = normalize(auto([(0, iv(0, 9), 1)]))
    assert includes(a, a)
    assert includes(a, LatticeAutomaton.empty())
    assert not includes(a, b)
    assert includes(b, a)


# ---------------------------------------------------------------------------
# matching utilities


def test_matches_single_letter():
    a = normalize(auto([(0, iv(0, 0, "l8"), 1)]))
    found = matches(CTX0, (GuardElement.at("l8"),), a)
    assert len(found) == 1
    assert found[0].labels[0].loc == "l8"
    assert matches(CTX0, (GuardElement.at("l9"),), a) == []


def test_matches_two_letter_path_enumeration():
    # brute-force oracle: all length-2 paths whose locations fit
    a = normalize(auto([
        (0, iv(0, 0, "l8"), 1), (1, iv(1, 1, "l4"), 2), (1, iv(2, 2, "l8"), 2),
        (2, iv(3, 3, "l4"), 3)], final={3}))
    w = (GuardElement.at("l8"), GuardElement.at("l4"))
    got = {(m.begin, tuple(l.pid for l in m.labels), m.end)
           for m in matches(CTX0, w, a)}
    expect = set()
    for q in a.states:
        for labels, end in path_labels(a, q, 2):
            if labels[0].loc == "l8" and labels[1].loc == "l4":
                expect.add((q, tuple(l.pid for l in labels), end))
    assert got == expect and len(got) == 2


# ---------------------------------------------------------------------------
# widening


def test_widen_isomorphic_shapes_lifts_interval_widening():
    a = normalize(auto([(0, iv(0, 1, "l0"), 1)]))
    b = normalize(auto([(0, iv(0, 2, "l0"), 1)]))
    w = widen_automata(a, b, widen_locs={"l0"})
    (_, label, _), = w.transitions
    assert label.pid == Interval(F(0), float("inf"))


def test_widen_same_automaton_is_identity():
    a = normalize(auto([(0, iv(0, 1, "l0"), 1), (1, iv(0, 0, "l1"), 2)], final={2}))
    assert widen_automata(a, a) == a


def test_widen_restricted_off_widening_points_joins():
    a = normalize(auto([(0, iv(0, 1, "l0"), 1)]))
    b = normalize(auto([(0, iv(0, 2, "l0"), 1)]))
    w = widen_automata(a, b, widen_locs={"l5"})
    (_, label, _), = w.transitions
    assert label.pid == Interval.range(0, 2)


def test_widen_bounded_growth_returns_b():
    """Shapes that differ while the longest word keeps its length: the
    widening returns the larger operand, and the shapes settle by
    themselves."""
    a = normalize(LatticeAutomaton.from_word([iv(0, 0, "l0"), iv(0, 0, "l1")]))
    b = union(a, LatticeAutomaton.from_word([iv(1, 1, "l2")]))
    assert shape(a) != shape(b) and _length_bound(a) == _length_bound(b) == 2
    assert widen_automata(a, b, widen_locs={"l0", "l1", "l2"}) == b


def test_widen_growing_chains_quotients_to_loop():
    """Chain automata of lengths 2 and 3 (create-style growth) widen into
    a loop accepting every length >= 2; checked by bounded enumeration.
    The chains are not nested, so the second operand is their union."""
    l2 = normalize(LatticeAutomaton.from_word([iv(0, 0), iv(0, 0)]))
    l3 = normalize(LatticeAutomaton.from_word([iv(0, 0), iv(0, 0), iv(0, 0)]))
    w = widen_automata(l2, union(l2, l3), widen_locs=set())
    universe = [0]
    lang_w = bounded_language(CTX0, w, 5, universe)
    lang_union = bounded_language(CTX0, union(l2, l3), 5, universe)
    assert lang_union <= lang_w
    assert any(len(word) >= 4 for word in lang_w)  # the loop generalizes
    assert all(len(word) >= 2 for word in lang_w)  # finality kept precise
    assert w == normalize(_signature_quotient(union(l2, l3), 1))


def test_widen_iterated_on_a_growing_chain_stabilizes():
    """Iterating s := widen(s, s | chain(n)) over chains 0 . 1 . ... . n-1
    of growing length ends: the quotient folds the chain into a loop, and
    the label widening then lets the loop's ids grow.  Each iterate
    includes the last and the chain it took in, and the limit includes
    every longer chain."""
    def chain(n):
        return LatticeAutomaton.from_word([iv(i, i) for i in range(n)])

    s = normalize(chain(1))
    for n in range(2, 12):
        if includes(s, chain(n)):
            break
        w = widen_automata(s, union(s, chain(n)), widen_locs={"l0"})
        assert includes(w, s) and includes(w, chain(n))
        s = w
    else:
        pytest.fail("the widening did not stabilize")
    assert n == 4
    assert all(includes(s, chain(m)) for m in range(1, 40))


def test_widen_upper_bounds_union_random():
    rng = random.Random(31)
    universe = list(range(0, 3))
    for _ in range(25):
        def rnd():
            edges = set()
            for _ in range(rng.randint(1, 4)):
                s, t = rng.randint(0, 2), rng.randint(0, 2)
                lo = rng.randint(0, 2)
                edges.add((s, iv(lo, rng.randint(lo, 2), f"l{rng.randint(0, 1)}"), t))
            return LatticeAutomaton(frozenset(range(3)), frozenset({0}),
                                    frozenset({rng.randint(0, 2)}), frozenset(edges))

        a, b0 = rnd(), rnd()
        b = union(a, b0)
        w = widen_automata(a, b)
        la = bounded_language(CTX0, a, 3, universe)
        lb = bounded_language(CTX0, b, 3, universe)
        lw = bounded_language(CTX0, w, 3, universe)
        assert la | lb <= lw


def _explicit_history_quotient(a, k):
    """_signature_quotient with each state's history an explicit set of
    key words: the last k keys of every path into the state, or the whole
    key word of a shorter path from an initial state."""
    a = _reference_trim(a)
    history = dict.fromkeys(a.states, frozenset({()}))
    for _ in range(k):
        history = {q: frozenset({h + (l.loc,) for (p, l, t) in a.transitions if t == q
                                 for h in history[p]} | ({()} if q in a.initial else set()))
                   for q in a.states}
    first = {}
    rep = {q: first.setdefault((q in a.initial, q in a.final, history[q]), q)
           for q in sorted(a.states, key=repr)}
    return LatticeAutomaton(frozenset(rep.values()), frozenset(rep[q] for q in a.initial),
                            frozenset(rep[q] for q in a.final),
                            frozenset((rep[s], l, rep[t]) for (s, l, t) in a.transitions))


def test_signature_quotient_matches_explicit_histories():
    """Naming each history by its initiality and its key-predecessors'
    histories one round before merges exactly the states that explicit
    sets of key words merge."""
    rng = random.Random(97)
    merged = 0
    for _ in range(1000):
        locs = ["l0", "l1", "l2"][:rng.randint(1, 3)]
        a = _random_automaton(rng, rng.randint(2, 7), rng.randint(1, 20), locs)
        k = rng.randint(1, 4)
        got, want = _signature_quotient(a, k), _explicit_history_quotient(a, k)
        assert got == want
        merged += len(got.states) < len(trim(a).states)
    assert merged >= 100, merged


def test_signature_quotient_of_a_deep_history_is_fast():
    """With every state moving to every state on each of three keys, a
    history after 40 rounds has 3 ** 40 words; named, it takes a few
    rounds over three state sets.  The histories stop changing after two
    rounds, so the explicit quotient at k = 3 is the same."""
    a = auto([(s, iv(0, 0, key), t) for s in range(3) for key in ("l0", "l1", "l2")
              for t in range(3)], final={1, 2})
    start = time.perf_counter()
    q = _signature_quotient(a, 40)
    assert time.perf_counter() - start < 1.0
    assert q == _explicit_history_quotient(a, 3)
    assert q.states == {0, 1}


def test_quotient_shape_never_equals_the_smaller_operand():
    """Why a quotient is never label-widened against a: canonical shapes
    are minimal location-DFAs, the quotient's location language contains
    b's, and b's strictly contains a's when the shapes differ.  Checked on
    random canonical a and b = a | b0 with different shapes, each drawn
    as a path from the initial to the final state plus random edges."""
    rng = random.Random(4177)

    def rnd():
        def label():
            lo = rng.randint(0, 2)
            return iv(lo, rng.randint(lo, 2), f"l{rng.randint(0, 1)}")
        edges = {(i, label(), i + 1) for i in range(3)}
        edges |= {(rng.randrange(4), label(), rng.randrange(4))
                  for _ in range(rng.randint(0, 3))}
        return LatticeAutomaton(frozenset(range(4)), frozenset({0}),
                                frozenset({rng.randint(1, 3)}), frozenset(edges))

    checked = merged = 0
    for _ in range(200):
        a = normalize(rnd())
        b = union(a, rnd())
        if shape(a) == shape(b):
            continue
        for k in (1, 2, 3):
            q = normalize(_signature_quotient(b, k))
            assert includes(q, b)
            assert shape(q) != shape(a)
            merged += shape(q) != shape(b)
        checked += 1
    assert checked >= 150 and merged >= 100  # most quotients merge states


# ---------------------------------------------------------------------------
# shape, export, membership


def test_normalize_and_includes_long_chain():
    """Minimization and inclusion stay near-linear on a long word (the
    former Moore refinement took one signature round per letter)."""
    chain = LatticeAutomaton.from_word([iv(i, i) for i in range(3000)])
    assert normalize(chain).size() == (3001, 3000)
    assert includes(chain, chain) is True


def test_length_bound_long_chain():
    """Word length is not limited by the interpreter's recursion limit."""
    chain = LatticeAutomaton.from_word([iv(i, i) for i in range(3000)])
    assert _length_bound(chain) == 3000


def test_shape_erases_labels():
    a = normalize(auto([(0, iv(0, 4, "l2"), 1)]))
    states, initial, final, keyed = shape(a)
    assert (states, initial, final) == (a.states, a.initial, a.final)
    assert keyed == {(s, l.loc, t) for (s, l, t) in a.transitions}


def test_json_round_trip_bit_exact():
    a = normalize(auto([
        (0, AbstractLocalState(Interval.point(F(1, 2)), "l0",
                               IntervalEnv.make({"x": Interval.range(F(-1, 3), F(5, 7))})), 1)]))
    label = to_json(a)["transitions"][0]["label"]
    assert label["id"] == {"lo": "1/2", "hi": "1/2"}
    assert label["env"]["vars"]["x"] == {"lo": "-1/3", "hi": "5/7"}


def test_dot_output_mentions_labels():
    a = normalize(auto([(0, iv(0, 4, "l2"), 1)]))
    dot = to_dot(a)
    assert "doublecircle" in dot and "l2" in dot


def test_accepts_concrete():
    a = normalize(LatticeAutomaton.from_word([iv(0, 1, "l0", x=(0, 2))]))
    assert accepts_concrete(CTX, a, ((0, "l0", (("x", F(1)),)),))
    assert not accepts_concrete(CTX, a, ((0, "l1", (("x", F(1)),)),))
    assert not accepts_concrete(CTX, a, ((5, "l0", (("x", F(1)),)),))


def test_union_all_fold_order_is_part_of_the_result():
    """union_all folds its operands smallest first, by (states,
    transitions), and in input order among equal sizes; the order shows in
    the result.  Each fold minimizes, which merges states whose keys agree
    and joins their labels, so which operands meet first decides which
    labels are joined.  Of three chains of one size, A = l1(v=0).l3(v=1),
    B = l2(v=0).l3(v=2) and C = l1(v=0).l4(v=0): folding A with B first
    merges the two l3 states, and the l1 branch reads l3 {v=[1,2]};
    folding A with C first keeps v=[1,1] there.  Only the union of two
    operands equals the determinization of their juxtaposition."""
    def chain(*letters):
        return LatticeAutomaton.from_word([iv(0, 0, loc, v=(x, x)) for loc, x in letters])

    a = chain(("l1", 0), ("l3", 1))
    b = chain(("l2", 0), ("l3", 2))
    c = chain(("l1", 0), ("l4", 0))

    def l3_after_l1(u):
        q = u.out_by_key[(0, "l1")][1]
        return dict(u.out_by_key[(q, "l3")][0].env.items)["v"]

    abc, acb = union_all([a, b, c]), union_all([a, c, b])
    assert l3_after_l1(abc) == Interval.range(1, 2)
    assert l3_after_l1(acb) == Interval.point(1)
    assert abc != acb and to_json(abc) != to_json(acb)
    assert abc == union_all([union_all([a, b]), c]) == union_all([b, a, c])
    assert acb == union_all([union_all([a, c]), b]) == union_all([c, a, b])
    # a larger operand is folded last wherever it stands
    big = chain(("l1", 0), ("l3", 5), ("l3", 5))
    assert union_all([big, a, c, b]) == union_all([acb, big])
