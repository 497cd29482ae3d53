import random

from latreach.graph import live, path_lengths, reachable, topological_order


def edges(*pairs):
    return {(s, "a", t) for s, t in pairs}


def test_reachable_and_live():
    assert reachable({0}, {0: {1}, 1: {2}, 3: {0}}) == {0, 1, 2}
    # 3 is a dead end and 4 is not reached from the start
    g = edges((0, 1), (1, 2), (1, 3), (4, 2))
    assert live(g, {0}, {2}) == {0, 1, 2}


def test_path_lengths_cycle_is_unbounded():
    assert path_lengths(edges((0, 1), (1, 2), (2, 1), (2, 3)), {0}, {3}) == (3, None)


def test_path_lengths_unreachable_end():
    assert path_lengths(edges((0, 1), (2, 3)), {0}, {3}) == (0, 0)


def test_path_lengths_diamond():
    assert path_lengths(edges((0, 3), (0, 1), (1, 3)), {0}, {3}) == (1, 2)


def test_path_lengths_start_is_end():
    assert path_lengths(set(), {0}, {0}) == (0, 0)


def _random_graph(rng):
    n = rng.randint(1, 5)
    g = {(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
         for _ in range(rng.randint(0, 7))}
    if rng.random() < 0.5:  # acyclic: keep the edges that go up
        g = {(s, l, t) for (s, l, t) in g if s < t}
    return n, g


def _walks(g, starts, most):
    """Every walk of at most most edges from a start, as a node list."""
    out = []
    stack = [[q] for q in starts]
    while stack:
        w = stack.pop()
        out.append(w)
        if len(w) <= most:
            stack.extend(w + [t] for (s, _, t) in g if s == w[-1])
    return out


def test_topological_order_against_walks():
    """The order puts every node once and every edge forward, and is None
    exactly when some walk comes back to where it began."""
    rng = random.Random(61)
    found = [0, 0]  # acyclic, cyclic
    for _ in range(300):
        n, g = _random_graph(rng)
        cyclic = any(len(w) > 1 and w[0] == w[-1] for w in _walks(g, range(n), n))
        order = topological_order([[t for (s, _, t) in g if s == q] for q in range(n)])
        found[cyclic] += 1
        if cyclic:
            assert order is None
        else:
            assert sorted(order) == list(range(n))
            assert all(order.index(s) < order.index(t) for (s, _, t) in g)
    assert min(found) >= 100, found


def test_path_lengths_against_walks():
    """The shortest and longest walk from a start to an end, longest None
    when a walk of n or more edges gets there: such a walk repeats a node,
    and going round that cycle again makes walks of every greater length.
    A walk through a cycle needs at most 3n - 2 edges, so enumerating
    walks up to 3n edges finds one whenever lengths are unbounded."""
    rng = random.Random(67)
    found = [0, 0, 0]  # no end reached, bounded, unbounded
    for _ in range(300):
        n, g = _random_graph(rng)
        starts = set(rng.sample(range(n), rng.randint(1, n)))
        ends = set(rng.sample(range(n), rng.randint(1, n)))
        lengths = {len(w) - 1 for w in _walks(g, starts, 3 * n) if w[-1] in ends}
        if not lengths:
            want = (0, 0)
        elif max(lengths) >= n:
            want = (min(lengths), None)
        else:
            want = (min(lengths), max(lengths))
        assert path_lengths(g, starts, ends) == want
        found[0 if not lengths else 1 if want[1] is not None else 2] += 1
    assert min(found) >= 20, found
