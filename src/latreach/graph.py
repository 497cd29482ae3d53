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


def path_lengths(edges, starts, ends):
    """(shortest, longest) length of a path from the state set starts to
    the state set ends.

    longest is None when a cycle lies on such a path, so that lengths are
    unbounded; the cycle shows up as states left over by Kahn's
    topological order.  Both are 0 when no end is reachable."""
    keep = live(edges, starts, ends)
    succ = {q: set() for q in keep}
    indeg = dict.fromkeys(keep, 0)
    for (s, _, t) in edges:
        if s in keep and t in keep and t not in succ[s]:
            succ[s].add(t)
            indeg[t] += 1

    dist = dict.fromkeys(starts & keep, 0)
    layer = list(dist)
    while layer:
        nxt = []
        for q in layer:
            for t in succ[q]:
                if t not in dist:
                    dist[t] = dist[q] + 1
                    nxt.append(t)
        layer = nxt
    shortest = min((dist[q] for q in ends & keep), default=0)

    longest = dict.fromkeys(starts & keep, 0)
    ready = [q for q, d in indeg.items() if d == 0]
    done = 0
    while ready:
        q = ready.pop()
        done += 1
        for t in succ[q]:  # every kept state is reached from a start
            longest[t] = max(longest.get(t, 0), longest[q] + 1)
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if done < len(keep):
        return shortest, None
    return shortest, max((longest[q] for q in ends & keep), default=0)
