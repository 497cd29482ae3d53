from latreach.graph import live, path_lengths, reachable


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
