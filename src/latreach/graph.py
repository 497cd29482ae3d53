"""Iterative graph helpers over transition sets.

Edges are (src, label, dst) triples and labels are ignored.  Nothing here
recurses, so the length of a word is bounded by memory, not by the
interpreter's recursion limit.
"""
from __future__ import annotations


def reachable(seeds, adj) -> set:
    """The seeds and every state reachable from them; adj maps a state to
    its successors."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def live(edges, starts, ends) -> set:
    """States on some path from a start to an end (a state in both sets
    lies on the empty path)."""
    fwd, bwd = {}, {}
    for (s, _, t) in edges:
        fwd.setdefault(s, set()).add(t)
        bwd.setdefault(t, set()).add(s)
    return reachable(starts, fwd) & reachable(ends, bwd)


def topological_order(succ):
    """The nodes 0..n-1 in an order in which every edge goes forward
    (Kahn's), or None when the edges have a cycle.  succ[q] lists the
    successors of node q."""
    indeg = [0] * len(succ)
    for nexts in succ:
        for t in nexts:
            indeg[t] += 1
    order = [q for q, d in enumerate(indeg) if d == 0]
    for q in order:
        for t in succ[q]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return order if len(order) == len(succ) else None


def path_lengths(edges, starts, ends):
    """(shortest, longest) length of a path from the state set starts to
    the state set ends.

    longest is None when a cycle lies on such a path, so that lengths are
    unbounded.  Both are 0 when no end is reachable."""
    keep = list(live(edges, starts, ends))
    num = {q: i for i, q in enumerate(keep)}
    succ = [set() for _ in keep]
    for (s, _, t) in edges:
        if s in num and t in num:
            succ[num[s]].add(num[t])
    first = [num[q] for q in starts if q in num]
    last = [num[q] for q in ends if q in num]

    dist = dict.fromkeys(first, 0)
    layer = list(dist)
    while layer:
        nxt = []
        for q in layer:
            for t in succ[q]:
                if t not in dist:
                    dist[t] = dist[q] + 1
                    nxt.append(t)
        layer = nxt
    shortest = min((dist[q] for q in last), default=0)

    order = topological_order(succ)
    if order is None:
        return shortest, None
    longest = dict.fromkeys(first, 0)
    for q in order:
        for t in succ[q]:  # every kept state is reached from a start
            longest[t] = max(longest.get(t, 0), longest[q] + 1)
    return shortest, max((longest[q] for q in last), default=0)
