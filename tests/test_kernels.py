"""The graph kernels in util against networkx, the bit kernels against direct
reads of the masks, and the runtime import boundary."""

import os
import subprocess
import sys

import networkx as nx
from hypothesis import example, given, settings, strategies as st

import matroidlab
from matroidlab.core import _holders
from matroidlab.util import bfs_path, disjoint_paths, iter_bits, spanning_forest


@st.composite
def graphs_with_terminals(draw):
    n = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    sources = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    sinks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return n, edges, sources, sinks


def adjacency(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def oracle_path_count(n, edges, sources, sinks):
    """Max number of vertex-disjoint source-to-sink paths, every vertex of
    capacity 1, via networkx node_disjoint_paths between two super vertices.
    A vertex that is both a source and a sink is a path of its own."""
    both = set(sources) & set(sinks)
    H = nx.Graph()
    H.add_nodes_from(v for v in range(n) if v not in both)
    H.add_edges_from((u, v) for u, v in edges if u != v and u not in both and v not in both)
    H.add_edges_from(("SRC", s) for s in sources if s not in both)
    H.add_edges_from(("SNK", t) for t in sinks if t not in both)
    if "SRC" not in H or "SNK" not in H:
        return len(both)
    try:
        return len(both) + sum(1 for _ in nx.node_disjoint_paths(H, "SRC", "SNK"))
    except nx.NetworkXNoPath:
        return len(both)


@settings(max_examples=300, deadline=None)
@given(graphs_with_terminals())
def test_disjoint_paths_match_networkx(case):
    n, edges, sources, sinks = case
    adj = adjacency(n, edges)
    paths = disjoint_paths(adj, sources, sinks)
    assert len(paths) == oracle_path_count(n, edges, sources, sinks)
    seen = set()
    for path in paths:
        assert path[0] in sources and path[-1] in sinks
        for a, b in zip(path, path[1:]):
            assert b in adj[a]
        assert seen.isdisjoint(path) and len(set(path)) == len(path)
        seen.update(path)


@settings(max_examples=200, deadline=None)
@given(graphs_with_terminals())
def test_bfs_path_is_a_shortest_path(case):
    n, edges, _, _ = case
    adj = adjacency(n, edges)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    for b in range(n):
        path = bfs_path(adj, 0, b)
        if not nx.has_path(G, 0, b):
            assert path is None
            continue
        assert path[0] == 0 and path[-1] == b
        assert all(v in adj[u] for u, v in zip(path, path[1:]))
        assert len(path) - 1 == nx.shortest_path_length(G, 0, b)


@settings(max_examples=200, deadline=None)
@given(graphs_with_terminals())
def test_spanning_forest_spans_every_component(case):
    n, edges, _, _ = case
    kept = spanning_forest(edges)
    G = nx.MultiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    F = nx.Graph()
    F.add_nodes_from(range(n))
    F.add_edges_from(edges[i] for i in kept)
    assert nx.is_forest(F) and F.number_of_edges() == len(kept)
    assert nx.number_connected_components(F) == nx.number_connected_components(G)


def binary_positions(mask):
    return tuple(i for i, digit in enumerate(reversed(bin(mask))) if digit == "1")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2100).flatmap(lambda n: st.integers(0, (1 << n) - 1)))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**32 + 1)
@example((1 << 2080) - 1)
def test_iter_bits_reads_the_binary_digits(mask):
    assert iter_bits(mask) == binary_positions(mask)


@st.composite
def sized_masks(draw):
    size = draw(st.integers(0, 12))
    return size, draw(st.lists(st.integers(0, (1 << size) - 1), max_size=40))


@settings(max_examples=200, deadline=None)
@given(sized_masks())
def test_holders_match_the_per_element_sums(case):
    size, masks = case
    want = [sum(1 << i for i, m in enumerate(masks) if m >> e & 1) for e in range(size)]
    assert _holders(masks, size) == want


def test_runtime_imports_leave_networkx_out():
    code = "import sys, matroidlab, matroidlab.cli; print('networkx' in sys.modules)"
    src = os.path.dirname(os.path.dirname(matroidlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
