"""Bitmask helpers, the infinity marker INF (math.inf itself, so `is INF`
tests hold), and the union-find, BFS and disjoint-paths kernels behind every
graph question the package answers."""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator

INF = math.inf


def _byte_table(offset: int) -> list[tuple[int, ...]]:
    """The set bit positions plus offset of each byte value, by doubling."""
    table = [()]
    for i in range(offset, offset + 8):
        table += [t + (i,) for t in table]
    return table


_BYTE_BITS = [_byte_table(8 * k) for k in range(4)]


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, ascending, read a byte at a time: four
    table lookups below 2^32, else one pass over the nonzero bytes."""
    if mask >> 32 == 0:
        b0, b1, b2, b3 = _BYTE_BITS
        return b0[mask & 255] + b1[mask >> 8 & 255] + b2[mask >> 16 & 255] + b3[mask >> 24]
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    low = _BYTE_BITS[0]
    return tuple([8 * k + i for k, byte in enumerate(data) if byte for i in low[byte]])


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending, including mask and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def down_closure(tops) -> frozenset[int]:
    """Every submask of every mask in tops."""
    return frozenset().union(*map(submasks, tops))


# ---------------------------------------------------------------------------
# graph kernels: adjacency is a dict vertex -> iterable of neighbours


def adjacency(nodes, edges) -> dict:
    """Vertex -> neighbour list of an undirected multigraph; each edge is a
    tuple whose first two fields are its endpoints."""
    adj = {n: [] for n in nodes}
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


class UnionFind:
    """Parent pointers over hashable items, with path halving."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Join the classes of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return ra != rb


def spanning_forest(edges) -> list[int]:
    """Indices of the edges (u, v) that join two components of the edges
    kept before them, in list order."""
    uf = UnionFind()
    return [i for i, (u, v) in enumerate(edges) if uf.union(u, v)]


def bfs_path(adj, a, b):
    """One shortest vertex path from a to b, or None when b is unreachable."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            path = []
            while u is not None:
                path.append(u)
                u = parent[u]
            return path[::-1]
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return None


def closing_paths(edges) -> Iterator[tuple]:
    """(edge, path) for each edge (u, v, ...), in order, whose ends the kept
    edges join, path a shortest u-v path over them; the rest, kept, are a forest."""
    adj: dict = {}
    for edge in edges:
        u, v = edge[0], edge[1]
        path = bfs_path(adj, u, v) if u in adj and v in adj else None
        if path is None:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        else:
            yield edge, path


def disjoint_paths(adj, sources, sinks) -> list[list]:
    """As many vertex-disjoint source-to-sink paths as exist (Menger).

    Every vertex has capacity 1, so a vertex that is a source and a sink is a
    path on its own.  Each round finds a shortest augmenting path by BFS over
    the vertex-split residual graph, state (v, 0) entering v and (v, 1)
    leaving it (Edmonds-Karp), so the number of paths is the max-flow value.
    """
    sinks = set(sinks)
    enter: dict = {}   # v -> previous vertex on its path, None at a source
    leave: dict = {}   # v -> next vertex on its path, None at a sink
    while True:
        # the source arc into v is free unless v already starts a path
        parent = {(s, 0): None for s in sources if enter.get(s, 0) is not None}
        queue = deque(parent)
        end = None
        while queue:
            v, side = state = queue.popleft()
            if side == 0:
                # pass through a free v, else cancel the arc that enters it
                back = enter.get(v, v)
                steps = [] if back is None else [(back, 1)]
            elif v in sinks:
                end = state
                break
            else:
                steps = [(w, 0) for w in adj[v] if w != v]
                if v in enter:
                    steps.append((v, 0))     # cancel the flow through v
            for nxt in steps:
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
        if end is None:
            break
        # only out-to-in moves change the paths: u -> v adds that arc, and
        # v -> v frees v; the overwritten entries of a cancelled arc are
        # rewritten by the moves next to it, each written once per round
        leave[end[0]] = None
        state = end
        while parent[state] is not None:
            prev = parent[state]
            (u, u_side), (v, v_side) = prev, state
            if u_side == 1 and v_side == 0:
                if u == v:
                    del enter[u], leave[u]
                else:
                    leave[u], enter[v] = v, u
            state = prev
        enter[state[0]] = None
    paths = []
    for s in sources:
        if enter.get(s, 0) is None:
            path = [s]
            while leave[path[-1]] is not None:
                path.append(leave[path[-1]])
            paths.append(path)
    return paths
