"""Glued independence and base tests against a slow reference.

The reference keeps the straightforward algorithm: it always packs the glued
rays into a truncation and searches for pairwise disjoint arcs between them,
always builds the finite-cycle witness, and takes corridor widths from
networkx max flow across a long strip.  The library decides circles from ray
counts per (component, glue point) alone, answers the absent-representative
loops with boolean tests and caches widths on the lane-restricted pattern;
every verdict must be the same, and the circle witnesses must agree as far as
both name the same circle.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from collections import Counter
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, reject, settings, strategies as st

import matroidlab
from matroidlab import periodic
from matroidlab.cycles import (
    GluingSpec,
    _addable,
    _bits_meeting,
    _candidate_bits,
    _component_spectrum,
    _decode,
    _glued_bases,
    _gluing,
    _independent,
    _point_widths,
    _prefix_forest,
    _project_glue,
    _unit_is_base,
    _units,
    absent_representatives,
    cycle_independent,
    cycle_is_base,
    defect,
    edge_sets_difference,
    edge_sets_intersect,
    edge_sets_union,
    extend_to_fin_base,
    fin_is_base,
    glue_all,
    hat_check,
    mk_spectrum,
    nearly_finitary_verdict,
    spectrum_search,
    verify_i3_violation,
)
from matroidlab.errors import InputError, ResourceLimitError, StructuralMismatchError
from matroidlab.families import ContractedSystem, _collect_finite, contract_coloops
from matroidlab.io import load_family
from matroidlab.periodic import (
    PeriodicGraphSpec,
    UPEdgeSet,
    _has_finite_cycle,
    _lane_classes,
    _lane_ends,
    _repeat_part,
    _tail_start,
    bean_family,
    contains_finite_cycle,
    corridor_width,
    corridors,
    edges_by_role,
    full_edge_set,
    ladder_family,
    run_machine,
    split_components,
    surviving_classes,
    truncate_graph,
)
from matroidlab.util import INF, adjacency, bfs_path, disjoint_paths

LANES = ("a", "b", "c")
PREFIX = ("p", "q")


def _candidate_sets(g, p):
    """Every edge set explicit over p windows, the k-th with bit mask k."""
    names = _candidate_bits(g, p)
    for mask in range(1 << len(names)):
        yield _decode(names, p, mask)


# ---------------------------------------------------------------------------
# random small specs and gluings


def build_spec(pv, lanes, pre, win, spl, apx):
    """The spec with its end count found by trying each; None if none builds."""
    for n in range(len(lanes) + 1):
        try:
            return PeriodicGraphSpec(
                prefix_vertices=pv,
                repeat_vertices=lanes,
                prefix_edges=tuple((u, v, "link") for u, v in pre),
                window_edges=tuple((u, v, "rung") for u, v in win),
                splice_edges=tuple((u, v, role) for u, v, role in spl),
                apex_edges=tuple((a, v, "spoke") for a, v in apx),
                ends=tuple(f"e{i}" for i in range(n)),
            )
        except InputError:
            continue
        except ResourceLimitError:
            return None
    return None


@st.composite
def specs(draw):
    """At most 3 lanes, 2 prefix vertices and 7 free instance choices at p = 0."""
    lanes = LANES[: draw(st.integers(1, 3))]
    pv = PREFIX[: draw(st.integers(0, 2))]
    lane = st.sampled_from(lanes)
    win = draw(st.lists(st.tuples(lane, lane).filter(lambda e: e[0] != e[1]), max_size=2)
               if len(lanes) > 1 else st.just([]))
    spl = draw(st.lists(st.tuples(lane, lane, st.sampled_from(("top", "bottom"))),
                        min_size=1, max_size=3))
    refs = st.sampled_from(list(pv) + [("r", l) for l in lanes])
    pre = draw(st.lists(st.tuples(refs, refs).filter(lambda e: e[0] != e[1]), max_size=1))
    apx = draw(st.lists(st.tuples(st.sampled_from(pv), lane), max_size=1)) if pv else []
    g = build_spec(pv, lanes, pre, win, spl, apx)
    if g is None:
        reject()
    return g


@st.composite
def gluings(draw, g):
    if draw(st.booleans()):
        return glue_all(g)
    owner = [draw(st.integers(0, len(g.ends) - 1)) for _ in g.ends]
    groups = tuple(
        tuple(e for e, o in zip(g.ends, owner) if o == k) for k in sorted(set(owner))
    )
    psi = tuple(i for i in range(len(groups)) if draw(st.booleans()))
    return GluingSpec(groups, psi)


def endpoint_multiset(edges, node=lambda n: n):
    """Counter of unordered end pairs, each end renamed through node."""
    return Counter(tuple(sorted((node(a), node(b)), key=repr)) for a, b, *_ in edges)


def declared_ends(g, depth):
    """The edges of g over windows 0..depth-1, read off its declarations alone."""
    def ref(r):
        return ("p", r) if isinstance(r, str) else (r[1], 0)

    edges = [(ref(u), ref(v)) for u, v, _ in g.prefix_edges]
    for w in range(depth):
        edges += [((u, w), (v, w)) for u, v, _ in g.window_edges]
        edges += [(("p", a), (v, w)) for a, v, _ in g.apex_edges]
    edges += [((u, w), (v, w + 1)) for w in range(depth - 1) for u, v, _ in g.splice_edges]
    return endpoint_multiset(edges)


def unrolled_node(n, k):
    """A node of a truncation of unroll(g, k) as a node of g: the prefix
    vertex lane@w is lane at window w, and window W is window W + k."""
    if n[0] != "p":
        return (n[0], n[1] + k)
    lane, _, w = n[1].rpartition("@")
    return (lane, int(w)) if lane else n


def reblocked_node(n, q):
    """A node of a truncation of reblock(g, q) as a node of g: lane%r at
    window W is lane at window W*q + r."""
    if n[0] == "p":
        return n
    lane, _, r = n[0].rpartition("%")
    return (lane, n[1] * q + int(r))


def truncated_ends(spec, depth, node=lambda n: n):
    """endpoint_multiset of the full truncation of spec over depth windows."""
    return endpoint_multiset(truncate_graph(spec, full_edge_set(spec), depth)[1], node)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(specs())
def test_unroll_and_reblock_describe_the_same_graph(g):
    ends = truncated_ends
    for d in (1, 2):
        for k in (1, 2):
            assert ends(g, d + k) == declared_ends(g, d + k)
            assert ends(periodic.unroll(g, k), d, lambda n: unrolled_node(n, k)) == ends(g, d + k)
        for q in (2, 3):
            assert ends(periodic.reblock(g, q), d, lambda n: reblocked_node(n, q)) == ends(g, d * q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(specs())
def test_unrolling_twice_describes_one_unroll(g):
    # the second unroll's copies of window 0 would be named as the first
    # unroll's prefix vertices, so they take names of their own
    twice, once = periodic.unroll(periodic.unroll(g, 1), 1), periodic.unroll(g, 2)
    assert len(twice.prefix_vertices) == len(once.prefix_vertices)
    name = dict(zip(twice.prefix_vertices, once.prefix_vertices))
    for d in (1, 2):
        renamed = truncated_ends(twice, d, lambda n: ("p", name[n[1]]) if n[0] == "p" else n)
        assert renamed == truncated_ends(once, d)


# ---------------------------------------------------------------------------
# the spec writers against the hand-written ones they replaced


def ref_unrolled(g, k):
    """_unrolled as it wrote its spec by hand, naming copies lane@w."""
    if k < 0:
        raise InputError("unroll depth must be a natural number")
    if k == 0:
        return g, {}
    rows, heads = periodic._slot_table(g)
    n_pre = len(g.prefix_edges)
    placed = [(0, row) for row in rows[:n_pre]]
    placed += [(w, row) for w in range(k) for _, group in heads for row in group]
    new_prefix_edges = tuple(
        tuple(
            x if d is None else f"{x}@{w + d}" if w + d < k else ("r", x)
            for x, d in ((a, da), (b, db))
        ) + (role,)
        for w, (_, _, a, da, b, db, role) in placed
    )
    absorbed = {(row[0], row[1], w): i for i, (w, row) in enumerate(placed) if i >= n_pre}
    new_prefix_vertices = g.prefix_vertices + tuple(
        f"{lane}@{w}" for w in range(k) for lane in g.repeat_vertices
    )
    rolled = PeriodicGraphSpec(
        prefix_vertices=new_prefix_vertices,
        repeat_vertices=g.repeat_vertices,
        prefix_edges=new_prefix_edges,
        window_edges=g.window_edges,
        splice_edges=g.splice_edges,
        apex_edges=g.apex_edges,
        ends=g.ends,
    )
    return rolled, absorbed


def ref_reblock(g, q):
    """reblock as it wrote its spec by hand, naming copies lane%r."""
    if q < 1:
        raise InputError("reblock factor must be positive")
    if q == 1:
        return g
    rows, heads = periodic._slot_table(g)
    n_pre = len(g.prefix_edges)
    placed = [(0, row) for row in rows[:n_pre]]
    placed += [(r, row) for _, group in heads for r in range(q) for row in group]
    kind_of = {offsets: kind for kind, offsets in periodic._OFFSETS.items()}
    out = {kind: [] for kind in ("pre", *periodic._OFFSETS)}
    for i, (r, (_, _, a, da, b, db, role)) in enumerate(placed):
        (a, da), (b, db) = (
            (x, d) if d is None else (f"{x}%{(r + d) % q}", (r + d) // q)
            for x, d in ((a, da), (b, db))
        )
        if i < n_pre:
            out["pre"].append((a if da is None else ("r", a), b if db is None else ("r", b), role))
        else:
            out[kind_of[da, db]].append((a, b, role))
    return PeriodicGraphSpec(
        prefix_vertices=g.prefix_vertices,
        repeat_vertices=tuple(f"{n}%{r}" for r in range(q) for n in g.repeat_vertices),
        prefix_edges=tuple(out["pre"]),
        window_edges=tuple(out["win"]),
        splice_edges=tuple(out["spl"]),
        apex_edges=tuple(out["apx"]),
        ends=g.ends,
    )


def ref_split_components(g, links=()):
    """split_components as it wrote each piece's spec by hand."""
    nodes = list(g.prefix_vertices) + list(g.repeat_vertices)
    rows = periodic._slot_table(g)[0]
    uf = periodic.UnionFind()
    for _, _, a, _, b, _, _ in rows:
        uf.union(a, b)
    for a, b in links:
        uf.union(a, b)
    groups = {}
    for n in nodes:
        groups.setdefault(uf.find(n), []).append(n)
    comps = []
    end_map = periodic.ends_of(g)
    for root in sorted(groups, key=lambda r: sorted(groups[r])[0]):
        names = set(groups[root])
        rep = tuple(l for l in g.repeat_vertices if l in names)
        ids = {kind: [] for kind in ("pre", *periodic._OFFSETS)}
        for row in rows:
            if row[2] in names:
                ids[row[0]].append(row[1])
        if not rep:
            comps.append((None, {"pre": ids["pre"]}))
            continue
        ends = tuple(label for label, lanes in end_map.items() if lanes <= names)
        spec = g if len(groups) == 1 else PeriodicGraphSpec(
            prefix_vertices=tuple(p for p in g.prefix_vertices if p in names),
            repeat_vertices=rep,
            prefix_edges=tuple(g.prefix_edges[i] for i in ids["pre"]),
            window_edges=tuple(g.window_edges[j] for j in ids["win"]),
            splice_edges=tuple(g.splice_edges[j] for j in ids["spl"]),
            apex_edges=tuple(g.apex_edges[j] for j in ids["apx"]),
            ends=ends,
        )
        comps.append((spec, ids))
    return comps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(specs(), st.data())
def test_the_spec_writer_matches_the_hand_written_specs(g, data):
    assert periodic._from_rows(g.prefix_vertices, g.repeat_vertices,
                               periodic._slot_table(g)[0], g.ends) == g
    for k in range(4):
        assert periodic._unrolled(g, k) == ref_unrolled(g, k)
    for q in (1, 2, 3):
        assert periodic.reblock(g, q) == ref_reblock(g, q)
    lane = st.sampled_from(g.repeat_vertices)
    links = data.draw(st.lists(st.tuples(lane, lane), max_size=2))
    for pairs in ((), links):
        assert split_components(g, pairs) == ref_split_components(g, pairs)


# ---------------------------------------------------------------------------
# the reference


def nx_width(g, lanes, s):
    """Vertex-disjoint paths across a strip of 8(n+2) windows for n lanes.

    That is no shorter than the strip length K = 2^m + n + 1 past which the
    flow is constant (m <= n window-edge components, periodic._strip_width)
    whenever n <= 5, which holds for every corridor drawn here.
    """
    k = 8 * (len(lanes) + 2)
    G = nx.Graph()
    G.add_nodes_from((l, w) for l in lanes for w in range(k))
    for j, (u, v, _) in enumerate(g.window_edges):
        if ("win", j) in s.pattern and u in lanes and v in lanes:
            G.add_edges_from(((u, w), (v, w)) for w in range(k))
    for j, (u, v, _) in enumerate(g.splice_edges):
        if ("spl", j) in s.pattern and u in lanes and v in lanes:
            G.add_edges_from(((u, w), (v, w + 1)) for w in range(k - 1))
    G.add_edges_from(("S", (l, 0)) for l in lanes)
    G.add_edges_from(((l, k - 1), "T") for l in lanes)
    try:
        return len(list(nx.node_disjoint_paths(G, "S", "T")))
    except nx.NetworkXNoPath:
        return 0


def ref_pieces(g, s, point_map):
    classes = _lane_classes(run_machine(g, s))
    lane_cid = {lane: cid for cid, lanes in enumerate(classes) for lane in lanes}
    lane_end = _lane_ends(g)
    out = []
    for piece in surviving_classes(g, s):
        label = lane_end[min(piece)]
        if label in point_map:
            width = nx_width(g, piece, s)
            if width:
                out.append((piece, point_map[label], width, lane_cid[min(piece)]))
    return out


def _glued_slots(g, s, pieces):
    """Ray slots of the glued pieces: one entry per disjoint ray.

    Returns (slots, adjacency of the truncation); each slot has the unglued
    component id, the glue point, and its ray's vertex path inside the
    truncation.
    """
    full = run_machine(g, s)
    stab2 = run_machine(g, _repeat_part(s)).depth
    start = max(full.depth, stab2, s.p) + 1
    depth = start + max(len(p) for p, _, _, _ in pieces) + sum(w for _, _, w, _ in pieces) + 4
    nodes, edges = truncate_graph(g, s, depth)
    slots = []
    for piece, point, width, cid in pieces:
        for path in _disjoint_forward_paths(edges, piece, start, depth, width):
            slots.append({"cid": cid, "point": point, "path": path})
    return slots, adjacency(nodes, edges)


def _disjoint_forward_paths(edges, lanes, start, depth, width):
    """width vertex-disjoint paths from window `start` to the last window,
    inside the given lanes; realizes the corridor width in the truncation."""
    lanes = sorted(lanes)
    nodes = {(l, w) for l in lanes for w in range(start, depth)}
    strip = [e for e in edges if e[0] in nodes and e[1] in nodes]
    paths = disjoint_paths(
        adjacency(nodes, strip), [(l, start) for l in lanes], [(l, depth - 1) for l in lanes]
    )
    if len(paths) < width:
        raise ResourceLimitError(
            f"expected {width} forward paths, packed {len(paths)} in the truncation"
        )
    return paths[:width]


def _minimal_arc(adj, slot_a, slot_b):
    """Least vertex set realizing a double ray through the two slots' rays.

    Only valid inside a finite-cycle-free set: the component is a tree, so the
    bridge between the two rays is unique and every realization contains it.
    """
    walk = bfs_path(adj, slot_a["path"][0], slot_b["path"][0])
    if walk is None:
        return None
    set_a, set_b = set(slot_a["path"]), set(slot_b["path"])
    last_a = max(i for i, v in enumerate(walk) if v in set_a)
    first_b = min(i for i, v in enumerate(walk) if v in set_b)
    if last_a > first_b:
        return None  # overlapping rays cannot seat two tails
    attach_a, attach_b = walk[last_a], walk[first_b]
    tail_a = slot_a["path"][slot_a["path"].index(attach_a):]
    tail_b = slot_b["path"][slot_b["path"].index(attach_b):]
    return frozenset(walk[last_a : first_b + 1]) | frozenset(tail_a) | frozenset(tail_b)


def _circle_in_slots(slots, adj):
    """A circle witness through the packed ray slots, or None."""
    # one segment: two rays to the same point inside one component; the tree
    # path between them always completes the double ray
    counts = Counter((sl["cid"], sl["point"]) for sl in slots)
    for (cid, point), n in sorted(counts.items()):
        if n >= 2:
            lanes = sorted(
                {v[0] for sl in slots if (sl["cid"], sl["point"]) == (cid, point) for v in sl["path"]}
            )
            return {
                "kind": "glued-circle",
                "points": [point],
                "segments": 1,
                "component": cid,
                "ray_lanes": lanes,
            }
    # several segments: arcs between distinct points, pairwise vertex-disjoint
    arcs = []
    for i, a in enumerate(slots):
        for b in slots[i + 1 :]:
            if a["cid"] != b["cid"] or a["point"] == b["point"]:
                continue
            vertices = _minimal_arc(adj, a, b)
            if vertices is not None:
                arcs.append({"pts": (a["point"], b["point"]), "vertices": vertices, "cid": a["cid"]})
    if not arcs:
        return None

    def extend(path_points, used, first):
        cur = path_points[-1]
        for arc in arcs:
            if cur not in arc["pts"]:
                continue
            nxt = arc["pts"][1] if arc["pts"][0] == cur else arc["pts"][0]
            if any(arc["vertices"] & u["vertices"] for u in used):
                continue
            if nxt == first and len(used) >= 1:
                return used + [arc]
            if nxt in path_points:
                continue
            res = extend(path_points + [nxt], used + [arc], first)
            if res:
                return res
        return None

    for start in sorted({p for arc in arcs for p in arc["pts"]}):
        found = extend([start], [], start)
        if found:
            return {
                "kind": "glued-circle",
                "points": sorted({p for arc in found for p in arc["pts"]}),
                "segments": len(found),
                "component": sorted({arc["cid"] for arc in found}),
            }
    return None


def ref_find_circle(g, s, glue):
    point_map = glue.as_map()
    if not point_map:
        return None
    pieces = ref_pieces(g, s, point_map)
    if not pieces:
        return None
    slots, adj = _glued_slots(g, s, pieces)
    if len(slots) > 12:
        raise ResourceLimitError("too many glued ray slots to arrange")
    return _circle_in_slots(slots, adj)


def ref_independent(g, s, glue):
    present, wit = contains_finite_cycle(g, s)
    if present:
        return False, {"kind": "finite-cycle", **wit}
    circle = ref_find_circle(g, s, glue)
    return (True, None) if circle is None else (False, circle)


def ref_is_base(g, s, glue):
    ok, why = ref_independent(g, s, glue)
    if not ok:
        return False, why
    for rep in absent_representatives(g, s):
        if ref_independent(g, s.with_edge(rep), glue)[0]:
            return False, {"kind": "addable", "edge": rep}
    return True, None


def ref_fin_is_base(g, s):
    present, wit = contains_finite_cycle(g, s)
    if present:
        return False, {"kind": "finite-cycle", **wit}
    for rep in absent_representatives(g, s):
        if not contains_finite_cycle(g, s.with_edge(rep))[0]:
            return False, {"kind": "addable", "edge": rep}
    return True, None


def outcome(fn, *args):
    try:
        return fn(*args)
    except ResourceLimitError:
        return "resource bound"


def same_answer(new, ref):
    """Assert that two outcomes agree; returns the circle's segment count
    when both name a glued circle.

    The two circle searches may name different witnesses for the same verdict:
    a one-segment circle lists the lanes of every glued piece at its pair,
    where the reference lists only the lanes its packed rays visit, and a
    multi-segment circle is whichever cycle each search meets first.
    """
    if not (isinstance(new, tuple) and isinstance(ref, tuple)):
        assert new == ref
        return None
    (ok, why), (ref_ok, ref_why) = new, ref
    assert ok == ref_ok
    if why is None or ref_why is None or ref_why["kind"] != "glued-circle":
        assert why == ref_why
        return None
    assert why["kind"] == "glued-circle", why
    if ref_why["segments"] == 1:
        assert (why["segments"], why["points"], why["component"]) == (1, ref_why["points"], ref_why["component"])
        assert set(ref_why["ray_lanes"]) <= set(why["ray_lanes"])
    else:
        assert why["segments"] == len(why["points"]) == len(why["component"]) >= 2, why
    return why["segments"]


def check_against_reference(g, glue, sets=None):
    """Every given set (default: every profile-0 candidate) gets the
    reference's answers, and the library builds a truncation only for the
    witness of a finite cycle.  Returns the segment counts of the circles met.
    """
    segments = Counter()

    def witness_spy(g_, s, depth):
        assert run_machine(g_, s).cycle_event is not None, f"truncated {s} without a finite cycle"
        return truncate_graph(g_, s, depth)

    with mock.patch.object(periodic, "truncate_graph", witness_spy):
        for cand in _candidate_sets(g, 0) if sets is None else sets:
            segments[same_answer(outcome(cycle_independent, g, cand, glue),
                                 outcome(ref_independent, g, cand, glue))] += 1
            same_answer(outcome(cycle_is_base, g, cand, glue), outcome(ref_is_base, g, cand, glue))
            assert outcome(fin_is_base, g, cand) == outcome(ref_fin_is_base, g, cand)
    return segments


# ---------------------------------------------------------------------------
# tests

# one component, two corridors joined only through the prefix
CROSS = PeriodicGraphSpec(
    prefix_vertices=("c",),
    repeat_vertices=("t0", "b0", "t1", "b1"),
    prefix_edges=(("c", ("r", "t0"), "link"), ("c", ("r", "t1"), "link")),
    window_edges=(("t0", "b0", "rung"), ("t1", "b1", "rung")),
    splice_edges=(("t0", "t0", "rail"), ("b0", "b0", "rail"),
                  ("t1", "t1", "rail"), ("b1", "b1", "rail")),
    ends=("end0", "end1"),
)


@pytest.mark.parametrize(
    "g, glue",
    [
        (ladder_family(1), glue_all(ladder_family(1))),
        (ladder_family(2), glue_all(ladder_family(2))),
        (ladder_family(2), GluingSpec((("end0",), ("end1",)), (0, 1))),
        (bean_family(), glue_all(bean_family())),
        (bean_family(), GluingSpec((("end_top",), ("end_bottom",)), (1,))),
        (CROSS, GluingSpec((("end0",), ("end1",)), (0, 1))),
    ],
    ids=["ladder", "ladder2", "ladder2-two-points", "bean", "bean-bottom", "cross"],
)
def test_canned_families_match_the_reference(g, glue):
    check_against_reference(g, glue)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_specs_match_the_reference(data):
    g = data.draw(specs())
    check_against_reference(g, data.draw(gluings(g)))


@st.composite
def hub_specs(draw):
    """4-7 single-lane rails, 2-4 prefix hubs linked to some of them and 2-4
    glue points, with a few random edge subsets: enough glued rays for
    circles of several segments, which the specs above cannot seat."""
    rails = tuple(f"r{i}" for i in range(draw(st.integers(4, 7))))
    hubs = tuple(f"h{i}" for i in range(draw(st.integers(2, 4))))
    # rails spread evenly over the hubs and over the glue points, so most hubs
    # send rays to distinct points; extra links merge components or close
    # finite cycles
    spread = draw(st.permutations(range(len(rails))))
    links = [(hubs[i % len(hubs)], rails[k]) for k, i in enumerate(spread)]
    extra = draw(st.lists(st.tuples(st.sampled_from(hubs), st.sampled_from(rails)), max_size=2))
    links = list(dict.fromkeys(links + extra))
    g = PeriodicGraphSpec(
        prefix_vertices=hubs,
        repeat_vertices=rails,
        prefix_edges=tuple((h, ("r", r), "link") for h, r in links),
        splice_edges=tuple((r, r, "rail") for r in rails),
        ends=tuple(f"e{i}" for i in range(len(rails))),
    )
    points = draw(st.integers(2, 4))
    owner = [i % points for i in draw(st.permutations(range(len(g.ends))))]
    groups = tuple(
        tuple(e for e, o in zip(g.ends, owner) if o == k) for k in sorted(set(owner))
    )
    glue = GluingSpec(groups, tuple(range(len(groups))))
    subsets = draw(st.lists(
        st.tuples(st.sets(st.integers(0, len(links) - 1)), st.sets(st.integers(0, len(rails) - 1))),
        max_size=3,
    ))
    sets = [full_edge_set(g)] + [
        UPEdgeSet(prefix_present=frozenset(pre), pattern=frozenset(("spl", j) for j in spl))
        for pre, spl in subsets
    ]
    return g, glue, sets


def test_hub_specs_match_the_reference():
    segments = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hub_specs())
    def check(case):
        segments.update(check_against_reference(*case))

    check()
    assert any(n and n >= 2 for n in segments), f"no multi-segment circle met: {segments}"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corridor_width_reads_only_the_pattern_inside_its_lanes(data):
    g = data.draw(specs())
    slots = sorted(full_edge_set(g).pattern)
    decls = {"win": g.window_edges, "spl": g.splice_edges, "apx": g.apex_edges}
    pattern = frozenset(data.draw(st.sets(st.sampled_from(slots))))
    s = UPEdgeSet(pattern=pattern)
    for lanes in set(corridors(g)) | set(surviving_classes(g, s)):
        inside = {
            slot for slot in slots
            if slot[0] != "apx" and {decls[slot[0]][slot[1]][0], decls[slot[0]][slot[1]][1]} <= lanes
        }
        outside = frozenset(data.draw(st.sets(st.sampled_from(slots)))) - inside
        other = UPEdgeSet(
            p=1,
            prefix_present=frozenset(range(len(g.prefix_edges))),
            explicit=frozenset((kind, j, 0) for kind, j in slots),
            pattern=(pattern & inside) | outside,
        )
        width = corridor_width(g, lanes, s)
        assert corridor_width(g, lanes, other) == width
        assert width == nx_width(g, lanes, s)
    for lanes in corridors(g):
        assert corridor_width(g, lanes) == nx_width(g, lanes, full_edge_set(g))


@settings(max_examples=60, deadline=None)
@given(specs())
def test_equal_specs_hash_equal(g):
    rebuilt = PeriodicGraphSpec(**{f.name: getattr(g, f.name) for f in dataclasses.fields(g)})
    for twin in (rebuilt, dataclasses.replace(g)):
        assert twin is not g
        assert twin == g and hash(twin) == hash(g)
    assert {g: 1}[rebuilt] == 1


def test_spec_hash_is_recomputed_after_unpickling():
    # str hashes are salted per process; a spec pickled in one process must
    # hash like a freshly built equal spec in another
    g = ladder_family(2)
    hash(g)
    code = (
        "import pickle, sys\n"
        "from matroidlab.periodic import ladder_family\n"
        "g = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(g) == hash(ladder_family(2)) and g == ladder_family(2)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(matroidlab.__file__)),
           "PYTHONHASHSEED": "12345"}
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(g),
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


# ---------------------------------------------------------------------------
# hat checks and coloop certificates against the per-caller candidate loops
# they used before sharing one candidate walk (kept verbatim as references,
# but for the coloop loop, which now walks each structural component as the
# hat check's does)


def _remap_instance(maps, inst):
    if inst[0] == "pre":
        return ("pre", maps["pre"][inst[1]])
    if len(inst) == 2:
        return (inst[0], maps[inst[0]][inst[1]])
    return (inst[0], maps[inst[0]][inst[1]], inst[2])


def _remap_edge_set(maps, s: UPEdgeSet) -> UPEdgeSet:
    return UPEdgeSet(
        s.p,
        frozenset(maps["pre"][i] for i in s.prefix_present),
        frozenset(_remap_instance(maps, e) for e in s.explicit),
        frozenset(_remap_instance(maps, e) for e in s.pattern),
    )


def ref_hat_check(
    g: PeriodicGraphSpec,
    glue: GluingSpec | None,
    s: UPEdgeSet,
    profile: tuple = (2, 1),
):
    glue = _gluing(g, glue)
    p, q = profile
    if q != 1:
        raise InputError("only period-1 profiles are supported here")
    chosen = []
    for spec, maps in split_components(g):
        if spec is None:
            # the base spans the piece, so an edge of s in it closes a cycle
            if any(i in s.prefix_present for i in maps["pre"]):
                return False, None
            ids = _prefix_forest(g, maps["pre"])
            chosen.append(UPEdgeSet(0, frozenset(ids), frozenset(), frozenset()))
            continue
        local_glue = _project_glue(glue, spec.ends)
        # restrict the fixed set to this component's edges
        local_s = UPEdgeSet(
            s.p,
            frozenset(maps["pre"].index(i) for i in s.prefix_present if i in maps["pre"]),
            frozenset(
                (kind, maps[kind].index(j), w)
                for kind, j, w in s.explicit
                if j in maps[kind]
            ),
            frozenset(
                (kind, maps[kind].index(j))
                for kind, j in s.pattern
                if j in maps[kind]
            ),
        )
        found = None
        for cand in _candidate_sets(spec, p):
            if edge_sets_intersect(cand, local_s):
                continue
            joint = edge_sets_union(cand, local_s)
            if _has_finite_cycle(spec, joint):
                continue
            if defect(spec, joint) is INF:
                # no finite extension reaches a spanning set
                continue
            if cycle_is_base(spec, cand, local_glue)[0]:
                found = cand
                break
        if found is None:
            return False, None
        chosen.append(_remap_edge_set(maps, found))
    witness = UPEdgeSet()
    for part in chosen:
        witness = edge_sets_union(witness, part)
    return True, {"base": witness.to_obj(), "raw": witness}


def ref_contract_coloops(
    g: PeriodicGraphSpec,
    glue: GluingSpec | None,
    t,
    profile: tuple = (2, 1),
) -> ContractedSystem:
    glue = _gluing(g, glue)
    t_set = _collect_finite(g, t)
    p, q = profile
    if q != 1:
        raise InputError("coloop certificates use period-1 profiles")

    def fail(missing, base):
        raise InputError(
            f"not a coloop set within bounds: {missing.to_obj()} stays outside "
            f"the base {base.to_obj()}"
        )

    # each structural component on its own, as ref_hat_check walks them
    for spec, maps in split_components(g):
        if spec is None:
            # a forest avoiding a bridge is smaller than the piece's forests
            size = len(_prefix_forest(g, maps["pre"]))
            part = frozenset(i for i in t_set.prefix_present if i in maps["pre"])
            for i in sorted(part):
                forest = frozenset(_prefix_forest(g, [j for j in maps["pre"] if j != i]))
                if len(forest) == size:
                    fail(UPEdgeSet(0, part - forest), UPEdgeSet(0, forest))
            continue
        local_glue = _project_glue(glue, spec.ends)
        local_t = UPEdgeSet(
            t_set.p,
            frozenset(maps["pre"].index(i) for i in t_set.prefix_present if i in maps["pre"]),
            frozenset(
                (kind, maps[kind].index(j), w)
                for kind, j, w in t_set.explicit
                if j in maps[kind]
            ),
            frozenset(),
        )
        if not (local_t.prefix_present or local_t.explicit):
            continue
        for cand in _candidate_sets(spec, p):
            missing = edge_sets_difference(local_t, cand)
            if not (missing.prefix_present or missing.explicit):
                continue
            if _has_finite_cycle(spec, cand):
                continue
            if cycle_is_base(spec, cand, local_glue)[0]:
                fail(_remap_edge_set(maps, missing), _remap_edge_set(maps, cand))
    return ContractedSystem(g, glue, t_set, profile)


def answer_or_error(fn, *args):
    try:
        return fn(*args)
    except (InputError, ResourceLimitError, StructuralMismatchError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def spec_profile_and_instances(draw):
    """A random spec, its gluing, a prefix bound of 0 or 1 and the finite
    instances over windows 0-1; prefix 1 only where it spans at most 11
    free instance choices, to keep each walk short."""
    g = draw(specs())
    slots = sorted(full_edge_set(g).pattern)
    p = draw(st.integers(0, 1 if 2 * len(slots) + len(g.prefix_edges) <= 11 else 0))
    finite = [("pre", i) for i in range(len(g.prefix_edges))]
    finite += [(kind, j, w) for w in range(2) for kind, j in slots]
    return g, draw(gluings(g)), p, slots, finite


# two lanes whose splices swap them, with a link from p to lane a at window
# 0: the full sweep alternates between {p, a} and {p, b} and never settles
SWAP_LINK = PeriodicGraphSpec(
    prefix_vertices=("p",),
    repeat_vertices=("a", "b"),
    prefix_edges=(("p", ("r", "a"), "link"),),
    splice_edges=(("a", "b", "top"), ("b", "a", "bottom")),
    ends=("e0", "e1"),
)


def test_hat_check_matches_the_reference_on_an_oscillating_sweep():
    # a draw of test_hat_check_matches_the_reference that failed there when a
    # sweep that never stabilizes named whichever window bound it hit first:
    # the two sides sweep different sets, with bounds of 40 and 38 windows
    g = PeriodicGraphSpec(
        prefix_vertices=("p",),
        repeat_vertices=("a", "b", "c"),
        splice_edges=(("a", "c", "top"), ("b", "a", "top"), ("c", "a", "top")),
        apex_edges=(("p", "b", "spoke"),),
        ends=("e0", "e1", "e2"),
    )
    glue = GluingSpec((("e0", "e1", "e2"),), ())
    s = UPEdgeSet(2, pattern=frozenset({("apx", 0)}))
    answer = answer_or_error(hat_check, g, glue, s, (1, 1))
    assert answer == answer_or_error(ref_hat_check, g, glue, s, (1, 1))
    assert answer == ("ResourceLimitError",
                      "window sweep repeats every 2 windows and never stabilizes")


@pytest.mark.xfail(
    strict=True,
    reason="defect's full-graph sweep of the swap ladder has period 2; the "
    "period-aware sweep of ROADMAP item 1 would answer it",
)
def test_contract_coloops_matches_the_reference_on_an_oscillating_sweep():
    # a draw of test_contract_coloops_matches_the_reference: the candidate
    # walk reads defect, whose sweep of the whole graph never stabilizes,
    # while the reference never reads the defect and answers
    t = [("spl", 0, 0)]
    assert (answer_or_error(contract_coloops, SWAP_LINK, glue_all(SWAP_LINK), t, (0, 1))
            == answer_or_error(ref_contract_coloops, SWAP_LINK, glue_all(SWAP_LINK), t, (0, 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_hat_check_matches_the_reference(data):
    g, glue, p, slots, finite = data.draw(spec_profile_and_instances())
    fixed = data.draw(st.sets(st.sampled_from(finite), max_size=3))
    s = UPEdgeSet(
        2,
        frozenset(inst[1] for inst in fixed if inst[0] == "pre"),
        frozenset(inst for inst in fixed if inst[0] != "pre"),
        frozenset(data.draw(st.sets(st.sampled_from(slots), max_size=2))),
    )
    assert (answer_or_error(hat_check, g, glue, s, (p, 1))
            == answer_or_error(ref_hat_check, g, glue, s, (p, 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_contract_coloops_matches_the_reference(data):
    g, glue, p, _, finite = data.draw(spec_profile_and_instances())
    t = data.draw(st.lists(st.sampled_from(finite), min_size=1, max_size=3))
    assert (answer_or_error(contract_coloops, g, glue, t, (p, 1))
            == answer_or_error(ref_contract_coloops, g, glue, t, (p, 1)))


# ---------------------------------------------------------------------------
# the candidate walk passes over infinite defects


def _walk_profiles(g):
    """Prefix 0, plus prefix 1 where it spans at most 11 free instance choices."""
    slots = full_edge_set(g).pattern
    return (0, 1) if 2 * len(slots) + len(g.prefix_edges) <= 11 else (0,)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_infinite_defects_are_never_bases(data):
    # a candidate of infinite defect is a base of neither system, a glued
    # base of finite defect keeps a finite defect in every superset, and
    # the walk yields exactly the candidates the base test accepts; a
    # candidate whose sweeps hit the window bound has no verdict to compare,
    # and neither has a walk over it
    g = data.draw(specs())
    glue = _gluing(g, data.draw(gluings(g)))
    profiles = _walk_profiles(g)
    seen, bases = [], []
    for p in profiles:
        expected, bounded = [], False
        for cand in _candidate_sets(g, p):
            answers = outcome(lambda: (defect(g, cand), _has_finite_cycle(g, cand),
                                       cycle_is_base(g, cand, glue)[0], fin_is_base(g, cand)[0]))
            if answers == "resource bound":
                bounded = True
                continue
            d, cyclic, is_base, is_fin_base = answers
            seen.append((cand.normalized(max(profiles)), d))
            if d is INF:
                assert not (is_base or is_fin_base), cand
            elif not cyclic and is_base:
                expected.append((cand, d))
        if not bounded:
            assert list(_glued_bases(g, glue, p)) == expected
        bases += [cand.normalized(max(profiles)) for cand, _ in expected]
    for base in bases:
        for cand, d in seen:
            if (base.prefix_present <= cand.prefix_present and base.explicit <= cand.explicit
                    and base.pattern <= cand.pattern):
                assert d is not INF, (base, cand)


@pytest.mark.parametrize("g", [ladder_family(1), ladder_family(2), bean_family()],
                         ids=["ladder", "ladder2", "bean"])
def test_walk_never_base_tests_an_infinite_defect(g):
    glue = glue_all(g)
    # a warm memo answers without a walk, so the spy would see none
    _component_spectrum.cache_clear()
    _unit_is_base.cache_clear()
    tested = []

    def spy(g_, s, glue_=None):
        tested.append((g_, s))
        return cycle_is_base(g_, s, glue_)

    with mock.patch.object(matroidlab.cycles, "cycle_is_base", spy):
        for p in (0, 1):
            spectrum_search(g, glue, (p, 1))
            hat_check(g, glue, UPEdgeSet(), (p, 1))
    assert tested
    assert all(defect(g_, s) is not INF for g_, s in tested)
    # the walk did meet candidates it passed over for their defect alone
    assert any(defect(g, cand) is INF and not _has_finite_cycle(g, cand)
               for cand in _candidate_sets(g, 1))


# ---------------------------------------------------------------------------
# the walk against the candidates it filters


def ref_glued_bases(g, glue, p, skip=lambda cand: False, known=()):
    """_glued_bases without its pruning: every candidate skip lets through is
    swept for a finite cycle."""
    for cand in _candidate_sets(g, p):
        if skip(cand) or _has_finite_cycle(g, cand):
            continue
        d = defect(g, cand)
        if d is not INF and d not in known and cycle_is_base(g, cand, glue)[0]:
            yield cand, d


def walk(fn, *args):
    return answer_or_error(lambda: list(fn(*args)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_pruned_walk_matches_the_reference(data):
    # blocked is hat_check's filter: a fixed set the candidate must avoid and
    # stay finite-cycle-free beside, so it can raise a bound too; sized skips
    # the candidates of one size, which their supersets are not
    g = data.draw(specs())
    glue = _gluing(g, data.draw(gluings(g)))
    slots = sorted(full_edge_set(g).pattern)
    finite = [(kind, j, w) for w in range(2) for kind, j in slots]
    fixed = UPEdgeSet(
        2,
        frozenset(data.draw(st.sets(st.sampled_from(range(len(g.prefix_edges))), max_size=1)))
        if g.prefix_edges else frozenset(),
        frozenset(data.draw(st.sets(st.sampled_from(finite), max_size=2))),
        frozenset(data.draw(st.sets(st.sampled_from(slots), max_size=1))),
    )

    size = data.draw(st.integers(1, 3))

    def blocked(cand):
        return edge_sets_intersect(cand, fixed) or _has_finite_cycle(g, edge_sets_union(cand, fixed))

    def sized(cand):
        return len(cand.prefix_present) + len(cand.explicit) + len(cand.pattern) == size

    for p in _walk_profiles(g):
        # the walk's filter reads a candidate's bit mask, its index here
        cands = list(_candidate_sets(g, p))
        for skip in (lambda cand: False, blocked, sized):
            assert (walk(_glued_bases, g, glue, p, lambda mask: skip(cands[mask]))
                    == walk(ref_glued_bases, g, glue, p, skip))


def test_walk_over_parallel_prefix_edges_matches_the_reference():
    # the two links close a cycle at window 0, and so does every candidate
    # that holds both
    g = PeriodicGraphSpec(
        prefix_vertices=("p",),
        repeat_vertices=("a",),
        prefix_edges=(("p", ("r", "a"), "link"), ("p", ("r", "a"), "link")),
        splice_edges=(("a", "a", "top"),),
        ends=("e0",),
    )
    glue = glue_all(g)
    assert list(_glued_bases(g, glue, 0)) == list(ref_glued_bases(g, glue, 0))


@pytest.mark.parametrize("glued", [False, True], ids=["unglued", "glued"])
def test_walk_sweeps_its_candidates_without_run_machine(glued):
    # the walk reads each candidate's sweep off its mask, so run_machine
    # serves only base tests and defect reads: 20 and 226 calls here, against
    # 34,789 and 51,031 when every swept candidate was a run_machine call
    g = ladder_family(1)
    _component_spectrum.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return run_machine(*args)

    with mock.patch.object(periodic, "run_machine", counted), \
            mock.patch.object(matroidlab.cycles, "run_machine", counted):
        spectrum_search(g, glue_all(g) if glued else None, (4, 1))
    assert len(calls) <= 1000


def test_hat_check_filters_its_candidates_without_run_machine():
    # hat_check's filter reads each candidate's union with the fixed set off
    # its mask, so run_machine serves only base tests and defect reads: 792
    # calls here, against 2,424 when the filter swept every union
    g = ladder_family(1)
    calls = []

    def counted(*args):
        calls.append(args)
        return run_machine(*args)

    with mock.patch.object(periodic, "run_machine", counted), \
            mock.patch.object(matroidlab.cycles, "run_machine", counted):
        assert hat_check(g, glue_all(g), UPEdgeSet(), (3, 1))[0]
    assert len(calls) <= 1000


# ---------------------------------------------------------------------------
# the spectrum walk stops at the glued ray bound


def ref_component_spectrum(g, glue, p):
    """(defect -> first base, error) from the unbounded reference walk; error
    names the exception that ended the walk, or is None."""
    out = {}
    try:
        for cand, d in ref_glued_bases(g, glue, p, known=out):
            out[d] = cand
    except (InputError, ResourceLimitError, StructuralMismatchError) as exc:
        return out, (type(exc).__name__, str(exc))
    return out, None


def lane_moving(g):
    """Does g have a splice u->v with u != v?"""
    return any(u != v for u, v, _ in g.splice_edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_bounded_spectrum_walk_matches_the_reference(data):
    # the bounded walk keeps the reference's values up to the glue point
    # bound, each with its first witness; where the reference walk hits a
    # sweep bound after the bounded walk has stopped, they agree up to that
    # candidate.  Without a lane-moving splice the cut removes nothing
    g = data.draw(specs())
    glue = _gluing(g, data.draw(gluings(g)))
    check_bounded_walk(g, glue)


def glue_point_bound(g, glue):
    """The sum over glue points x of max(0, k_x - 1), k_x the rays into x."""
    return sum(max(0, k - 1) for k in _point_widths(g, glue).values())


def check_bounded_walk(g, glue):
    for spec, local_glue, _, _ in _units(g, glue):
        if spec is None:
            continue
        bound = answer_or_error(glue_point_bound, spec, local_glue)
        for p in _walk_profiles(spec):
            got = answer_or_error(_component_spectrum, spec, local_glue, p)
            if isinstance(bound, tuple):
                assert got == bound
                continue
            ref, error = ref_component_spectrum(spec, local_glue, p)
            if isinstance(got, tuple):
                assert got == error
                continue
            got = {d: base for d, (base, _) in got.items()}
            cut = {d: base for d, base in ref.items() if d <= bound}
            if error is None:
                assert got == cut
                if not lane_moving(g):
                    assert cut == ref
            else:
                assert cut.items() <= got.items() and max(got, default=0) <= bound


@pytest.mark.parametrize("g", [ladder_family(1), ladder_family(2), bean_family()],
                         ids=["ladder", "ladder2", "bean"])
def test_spectrum_walk_base_tests_no_defect_above_the_bound(g):
    # a warm memo answers without a walk, so the spy would see none
    _component_spectrum.cache_clear()
    _unit_is_base.cache_clear()
    tested = []

    def spy(g_, s, glue_=None):
        tested.append((g_, s))
        return cycle_is_base(g_, s, glue_)

    with mock.patch.object(matroidlab.cycles, "cycle_is_base", spy):
        for p in (0, 1):
            spectrum_search(g, glue_all(g), (p, 1))
    assert tested
    # gluing every end of g glues every end of each component
    assert all(defect(g_, s) <= max(0, nearly_finitary_verdict(g_, glue_all(g_)).k - 1)
               for g_, s in tested)



@st.composite
def spread_specs(draw):
    """One structural component of 2-3 lanes, each with a splice of its
    own, that meet only at the prefix vertex p, by a link at window 0 or by
    spokes; a lane-moving splice may join two of them too."""
    lanes = LANES[: draw(st.integers(2, 3))]
    roles = st.sampled_from(("top", "bottom"))
    spl = [(lane, lane, draw(roles)) for lane in lanes]
    if draw(st.booleans()):
        spl.append((*draw(st.permutations(lanes))[:2], draw(roles)))
    linked = [draw(st.booleans()) for _ in lanes]
    pre = [("p", ("r", lane)) for lane, link in zip(lanes, linked) if link]
    apx = [("p", lane) for lane, link in zip(lanes, linked) if not link]
    g = build_spec(("p",), lanes, pre, [], spl, apx)
    if g is None or len(g.ends) < 2:
        reject()
    return g


@st.composite
def spread_gluings(draw, g):
    """g's ends over n >= 2 glue points, the first n ends one to a point and
    each other end at one of them or in an unglued group n."""
    n = draw(st.integers(2, len(g.ends)))
    owner = list(range(n)) + [draw(st.integers(0, n)) for _ in g.ends[n:]]
    groups = tuple(
        tuple(e for e, o in zip(g.ends, owner) if o == k) for k in sorted(set(owner))
    )
    return GluingSpec(groups, tuple(range(n)))


def test_glue_point_bound_matches_the_reference_on_ends_glued_apart():
    # with the ends of one component glued to different points the bound
    # sums max(0, k_x - 1) per point, below max(0, k - 1); the walk still
    # finds every value the unbounded reference finds
    sharper = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        g = data.draw(spread_specs())
        glue = _gluing(g, data.draw(spread_gluings(g)))
        check_bounded_walk(g, glue)
        for spec, local_glue, _, _ in _units(g, glue):
            if spec is not None:
                old = answer_or_error(lambda: max(0, nearly_finitary_verdict(spec, local_glue).k - 1))
                new = answer_or_error(glue_point_bound, spec, local_glue)
                sharper[isinstance(new, int) and new < old] += 1

    check()
    assert sharper[True], sharper


def test_bean_glued_apart_stops_at_its_first_base():
    # each end of the bean carries one ray to a point of its own, so the
    # bound is 0 where one point would give 1, and the prefix-2 walk stops
    # at its first base (mask 431) instead of sweeping on to mask 893
    g = bean_family()
    glue = GluingSpec(tuple((e,) for e in g.ends), tuple(range(len(g.ends))))
    assert nearly_finitary_verdict(g, glue).k == 2
    assert glue_point_bound(g, glue) == 0
    _component_spectrum.cache_clear()
    walked = []
    candidate_sweep = matroidlab.cycles._candidate_sweep

    def spy(*args):
        sweep = candidate_sweep(*args)
        return lambda mask: walked.append(mask) or sweep(mask)

    with mock.patch.object(matroidlab.cycles, "_candidate_sweep", spy):
        report = spectrum_search(g, glue, (2, 1))
    assert report.values == (0,)
    base = report.raw["witnesses"][0][0]
    assert walked[-1] == _bits_meeting(_candidate_bits(g, 2), 2, base)
    assert list(ref_component_spectrum(g, glue, 2)[0]) == [0]


# ---------------------------------------------------------------------------
# component spectra are memoized


def spectrum_answer(g, glue, p):
    report = spectrum_search(g, glue, (p, 1))
    return report.to_dict(), report.raw["witnesses"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_memoized_spectra_match_a_cold_walk(data):
    # the memo is keyed on equal specs, not the same objects; specs() draws
    # lane-moving splices, and spread_specs() ends glued apart
    g = data.draw(st.one_of(specs(), spread_specs()))
    glue = data.draw(gluings(g))
    p = data.draw(st.sampled_from(_walk_profiles(g)))
    _component_spectrum.cache_clear()
    cold = answer_or_error(spectrum_answer, g, glue, p)
    warm = answer_or_error(spectrum_answer, dataclasses.replace(g), dataclasses.replace(glue), p)
    assert warm == cold


def test_a_repeated_component_is_walked_once():
    _component_spectrum.cache_clear()
    walks = []
    glued_bases = matroidlab.cycles._glued_bases

    def spy(*args, **kwargs):
        walks.append(args[:3])
        return glued_bases(*args, **kwargs)

    with mock.patch.object(matroidlab.cycles, "_glued_bases", spy):
        first = spectrum_search(ladder_family(1), glue_all(ladder_family(1)))
        assert len(walks) == 1
        second = spectrum_search(ladder_family(1), glue_all(ladder_family(1)))
    assert len(walks) == 1
    assert second.to_dict() == first.to_dict()


def test_changing_a_report_leaves_the_next_answer_alone():
    g = ladder_family(1)
    glue = glue_all(g)
    _component_spectrum.cache_clear()
    expected = mk_spectrum(g, glue, 1).to_dict()
    _component_spectrum.cache_clear()
    report = spectrum_search(g, glue)
    report.witnesses[0]["base"]["repeat_edges"].clear()
    report.raw["witnesses"][1] = report.raw["witnesses"][0]
    with pytest.raises(TypeError):
        _component_spectrum(g, glue, 2)[0] = None
    assert mk_spectrum(g, glue, 1).to_dict() == expected


def test_a_walk_bound_is_never_memoized():
    # ladder:1 has 3 slots, so prefix 5 spans 18 free instance choices
    g = ladder_family(1)
    glue = glue_all(g)
    _component_spectrum.cache_clear()
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="capped at 16"):
            spectrum_search(g, glue, (5, 1))
    assert _component_spectrum.cache_info().currsize == 0

# lanes a and b, a rung a-b and splices b->b and a->b: the two splices join
# every vertex into one tree, the b lane with each a hanging off the next
# window's b, so that tree is a base of defect 0
TWO_LANES = PeriodicGraphSpec(
    repeat_vertices=("a", "b"),
    window_edges=(("a", "b", "rung"),),
    splice_edges=(("b", "b", "top"), ("a", "b", "top")),
    ends=("e0",),
)
SPLICES = UPEdgeSet(pattern=frozenset({("spl", 0), ("spl", 1)}))


@pytest.mark.xfail(
    strict=True,
    reason="defect counts past-only sweep classes, and lane a's class joins lane "
    "b's only one window later; the two-sided corridors of ROADMAP item 1 "
    "would merge them",
)
def test_defect_of_a_tree_through_a_lane_moving_splice_is_zero():
    assert defect(TWO_LANES, SPLICES) == 0


def test_unglued_spectrum_through_a_lane_moving_splice_is_zero():
    # with nothing glued every base is a finite-cycle base, of defect 0, while
    # defect reads the splices' tree as 1 (the xfail above)
    assert fin_is_base(TWO_LANES, SPLICES)[0]
    assert spectrum_search(TWO_LANES, None, (0, 1)).values == (0,)


# ---------------------------------------------------------------------------
# the tail window of the representatives


def ref_absent_representatives(g, s):
    """absent_representatives with a fixed margin in place of the tail start:
    pattern windows up to the sweep depth of s plus 2."""
    hi = max(s.p, run_machine(g, s).depth) + 3
    reps = [("pre", i) for i in range(len(g.prefix_edges)) if i not in s.prefix_present]
    for kind, n in g.slot_counts().items():
        for j in range(n):
            reps.extend((kind, j, w) for w in range(s.p) if not s.has(kind, j, w))
            if (kind, j) not in s.pattern:
                reps.extend((kind, j, w) for w in range(s.p, hi))
    return reps


def ref_present_representatives(g, s, context):
    """present_representatives with the same fixed margin."""
    hi = max(s.p, context.p, run_machine(g, context).depth) + 3
    reps = [("pre", i) for i in sorted(s.prefix_present)]
    reps += sorted(s.explicit)
    for kind, j in sorted(s.pattern):
        reps.extend((kind, j, w) for w in range(s.p, hi))
    return reps


def subset(draw, items):
    return frozenset(draw(st.sets(st.sampled_from(items)))) if items else frozenset()


@st.composite
def edge_sets_of(draw, g, p=None):
    """An edge set of g, explicit over p windows, or over 0-2 when p is None."""
    slots = sorted(full_edge_set(g).pattern)
    p = draw(st.integers(0, 2)) if p is None else p
    return UPEdgeSet(
        p,
        subset(draw, range(len(g.prefix_edges))),
        subset(draw, [(kind, j, w) for w in range(p) for kind, j in slots]),
        subset(draw, slots),
    )


def tail_answers(g, glue, s):
    return (
        answer_or_error(cycle_is_base, g, s, glue),
        answer_or_error(extend_to_fin_base, g, s),
        answer_or_error(verify_i3_violation, g),
    )


def test_tail_window_matches_the_margin_reference():
    met = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        g = data.draw(specs())
        glue = data.draw(gluings(g))
        s = data.draw(edge_sets_of(g))
        new = tail_answers(g, glue, s)
        # base verdicts are memoized, so each side computes its own
        _unit_is_base.cache_clear()
        with mock.patch.object(matroidlab.cycles, "absent_representatives", ref_absent_representatives), \
                mock.patch.object(matroidlab.cycles, "present_representatives", ref_present_representatives):
            assert tail_answers(g, glue, s) == new
        _unit_is_base.cache_clear()
        ok, why = new[0]
        met[why["kind"] if isinstance(why, dict) else ok] += 1

    check()
    assert met["addable"] and met[True], met


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_absent_instances_from_the_tail_start_on_agree(data):
    g = data.draw(specs())
    glue = _gluing(g, data.draw(gluings(g)))
    s = data.draw(edge_sets_of(g))
    try:
        start = _tail_start(g, s)
    except ResourceLimitError:
        return
    for kind, j in sorted(full_edge_set(g).pattern - s.pattern):
        verdicts = {
            outcome(_independent, g, s.with_edge((kind, j, w)), glue)
            for w in (start, start + 1, start + 2)
        }
        assert len(verdicts) == 1, (kind, j, verdicts)


def diagonal_v(n):
    """n lanes with splices down a diagonal chain, a rung from lane a to lane b,
    an apex on lane a, and links from p to the other lanes at window 0."""
    lanes = tuple("abcdefg"[:n])
    return PeriodicGraphSpec(
        prefix_vertices=("p",),
        repeat_vertices=lanes,
        prefix_edges=tuple(("p", ("r", lane), "link") for lane in lanes[2:]),
        window_edges=(("a", "b", "rung"),),
        splice_edges=tuple((u, v, "top") for u, v in zip(lanes, lanes[1:])),
        apex_edges=(("p", "a", "spoke"),),
        ends=("e0",),
    )


@pytest.mark.parametrize("n", [5, 6, 7])
def test_tail_start_can_lie_past_the_reference_margin(n):
    # the rung at window 0 rides the diagonal down the lanes, so the
    # repeat-only sweep settles only at window n, while the links and the
    # apex put every lane in p's class from window 0 and the plain sweep
    # settles at window 2; the verdicts are those of the reference, whose
    # margin stops at window 4
    g = diagonal_v(n)
    slots = sorted(full_edge_set(g).pattern)
    s = UPEdgeSet(
        1,
        frozenset(range(len(g.prefix_edges))),
        frozenset((kind, j, 0) for kind, j in slots),
        frozenset(slot for slot in slots if slot[0] != "win"),
    )
    assert run_machine(g, s).depth == 2 and _tail_start(g, s) == n
    reps = absent_representatives(g, s)
    assert ("win", 0, n) in reps and ("win", 0, 5) not in ref_absent_representatives(g, s)
    for glue in (glue_all(g), None):
        assert cycle_is_base(g, s, glue) == (True, None)
        _unit_is_base.cache_clear()
        with mock.patch.object(matroidlab.cycles, "absent_representatives", ref_absent_representatives):
            assert cycle_is_base(g, s, glue) == (True, None)
        _unit_is_base.cache_clear()
    assert extend_to_fin_base(g, s) == s


# ---------------------------------------------------------------------------
# base tests read their units' memoized verdicts


def ref_cycle_is_base(g, s, glue=None):
    """cycle_is_base as one test on the whole family."""
    glue = _gluing(g, glue)
    ok, why = cycle_independent(g, s, glue)
    if not ok:
        return False, why
    rep = _addable(g, s, glue, absent_representatives(g, s))
    if rep is not None:
        return False, {"kind": "addable", "edge": rep}
    return True, None


def joined(g, h):
    """g and h side by side as one family, h's vertices primed."""
    def name(v):
        return v + "'"

    def ref(r):
        return name(r) if isinstance(r, str) else ("r", name(r[1]))

    return PeriodicGraphSpec(
        prefix_vertices=g.prefix_vertices + tuple(map(name, h.prefix_vertices)),
        repeat_vertices=g.repeat_vertices + tuple(map(name, h.repeat_vertices)),
        prefix_edges=g.prefix_edges + tuple((ref(u), ref(v), r) for u, v, r in h.prefix_edges),
        window_edges=g.window_edges + tuple((name(u), name(v), r) for u, v, r in h.window_edges),
        splice_edges=g.splice_edges + tuple((name(u), name(v), r) for u, v, r in h.splice_edges),
        apex_edges=g.apex_edges + tuple((name(a), name(v), r) for a, v, r in h.apex_edges),
        ends=tuple(f"e{i}" for i in range(len(g.ends) + len(h.ends))),
    )


@st.composite
def linked_gluings(draw, g):
    """Two ends of each of two structural components glued pairwise to two
    points, which puts both components on a cycle through the points; every
    other end alone, glued or not.  Where no two components have two ends
    each, any gluing."""
    ends = [spec.ends for spec, _ in split_components(g) if spec is not None and len(spec.ends) > 1]
    if len(ends) < 2:
        return draw(gluings(g))
    (a1, b1), (a2, b2) = (draw(st.permutations(e))[:2] for e in ends[:2])
    rest = tuple((e,) for e in g.ends if e not in (a1, b1, a2, b2))
    psi = (0, 1) + tuple(i + 2 for i in range(len(rest)) if draw(st.booleans()))
    return GluingSpec(((a1, a2), (b1, b2)) + rest, psi)


def grown(s, rep):
    """s with the instance rep, and with the rest of its slot's tail when
    rep lies past the explicit zone."""
    if rep[0] == "pre" or rep[2] < s.p:
        return s.with_edge(rep)
    kind, j, w = rep
    s = s.normalized(w)
    return UPEdgeSet(w, s.prefix_present, s.explicit, s.pattern | {(kind, j)})


def test_base_tests_by_unit_match_the_whole_family_test():
    # two random specs and a finite piece side by side, lane-moving splices
    # included, with gluings that join the specs into one unit or leave them
    # apart (spread_specs gives components two ends to link by); each drawn
    # set grows along its addable edges (grown), so bases are met too
    met = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        g = joined(*(data.draw(st.one_of(specs(), spread_specs(), spread_specs())) for _ in range(2)))
        # a finite all-prefix piece beside them, perhaps with a cycle
        x = st.sampled_from(("x0", "x1", "x2"))
        finite = data.draw(st.lists(st.tuples(x, x).filter(lambda e: e[0] != e[1]), max_size=3))
        g = dataclasses.replace(g, prefix_vertices=g.prefix_vertices + ("x0", "x1", "x2"),
                                prefix_edges=g.prefix_edges + tuple((u, v, "link") for u, v in finite))
        glue = _gluing(g, data.draw(st.one_of(gluings(g), linked_gluings(g), linked_gluings(g))))
        linked = len(_units(g, glue)) < len(split_components(g))

        def compare(s):
            new = answer_or_error(cycle_is_base, g, s, glue)
            assert new == answer_or_error(ref_cycle_is_base, g, s, glue)
            assert answer_or_error(fin_is_base, g, s) == answer_or_error(ref_cycle_is_base, g, s)
            ok, why = new
            met[why["kind"] if isinstance(why, dict) else ok] += 1
            met["linked", ok] += linked
            return new

        for p in (0, 1):
            s = data.draw(edge_sets_of(g, p))
            for _ in range(30):
                ok, why = compare(s)
                if not (isinstance(why, dict) and why["kind"] == "addable"):
                    break
                s = grown(s, why["edge"])
            if ok is True:
                # a base takes no absent edge: each closes a finite cycle or a circle
                for rep in absent_representatives(g, s)[:4]:
                    compare(s.with_edge(rep))

    check()
    assert met["linked", True] and met["addable"] and met["glued-circle"], met


def test_a_base_test_runs_the_family_test_once():
    # a family of one unit answers from the unit's memo, which runs the
    # family test itself; a family of more runs it on the whole family, for
    # the obstruction, once a unit fails.  The first ladder of ladder:2 is
    # ladder:1, so its failing verdict comes from the memo
    tested = []
    family_is_base = matroidlab.cycles._family_is_base

    def spy(g_, s, glue_):
        tested.append(g_)
        return family_is_base(g_, s, glue_)

    one, two = ladder_family(1), ladder_family(2)
    _unit_is_base.cache_clear()
    with mock.patch.object(matroidlab.cycles, "_family_is_base", spy):
        ok, why = cycle_is_base(one, edges_by_role(one, "top"), glue_all(one))
        assert not ok and tested == [one]
        # the memo hands out copies, so changing one leaves the next answer alone
        why["edge"] = None
        assert cycle_is_base(one, edges_by_role(one, "top"), glue_all(one)) == (
            False, {"kind": "addable", "edge": ("win", 0, 0)})
        assert tested == [one]
        tested.clear()
        assert not cycle_is_base(two, edges_by_role(two, "top"), glue_all(two))[0]
    assert tested == [two]


TWO_BEANS = load_family({
    "prefix": {"vertices": ["v", "u"], "edges": [["v", ["r", "x"], "top"], ["u", ["r", "a"], "top"]]},
    "repeat": {"vertices": ["x", "y", "a", "b"], "edges": []},
    "splice": [["x", "x", "top"], ["y", "y", "bottom"], ["a", "a", "top"], ["b", "b", "bottom"]],
    "apex": [{"vertex": "u", "per_block_edges": [["b", "spoke"]]},
             {"vertex": "v", "per_block_edges": [["y", "spoke"]]}],
    "ends": ["t1", "b1", "t2", "b2"],
})
TOPS_AND_BOTTOMS = GluingSpec((("t1", "t2"), ("b1", "b2")), (0, 1))


def test_glue_linked_components_walk_as_one_unit():
    # the beans' top ends meet at one point and their bottom ends at another,
    # so a circle can run through both beans and their bases do not factor:
    # the value-1 base cuts the u-bean's b rail between windows 0 and 1.
    # Walked bean by bean, the spectrum read (0,) at prefix 1 and 2
    g, glue = TWO_BEANS, TOPS_AND_BOTTOMS
    assert len(split_components(g)) == 2 and len(_units(g, glue)) == 1
    _component_spectrum.cache_clear()
    report = spectrum_search(g, glue, (1, 1))
    assert report.values == (0, 1)
    assert sorted({d for _, d in _glued_bases(g, glue, 1)}) == [0, 1]
    for base, fin in report.raw["witnesses"].values():
        assert cycle_is_base(g, base, glue) == (True, None) and fin_is_base(g, fin) == (True, None)
    with pytest.raises(ResourceLimitError, match="profile spans 20 free instance choices"):
        spectrum_search(g, glue, (2, 1))
