"""Glued independence and base tests against a slow reference.

The reference keeps the straightforward algorithm: it always packs the glued
rays into a truncation before looking for a circle, always builds the
finite-cycle witness, and takes corridor widths from networkx max flow across
a long strip.  The library counts rays per component first, answers the
absent-representative loops with boolean tests and caches widths on the
lane-restricted pattern; every answer must be the same.
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
from matroidlab import cycles
from matroidlab.cycles import (
    GluingSpec,
    _candidate_sets,
    _circle_in_slots,
    _disjoint_forward_paths,
    absent_representatives,
    cycle_independent,
    cycle_is_base,
    fin_is_base,
    glue_all,
)
from matroidlab.errors import InputError, ResourceLimitError
from matroidlab.periodic import (
    PeriodicGraphSpec,
    UPEdgeSet,
    _lane_ends,
    _live_lanes,
    bean_family,
    contains_finite_cycle,
    corridor_width,
    corridors,
    full_edge_set,
    ladder_family,
    run_machine,
    surviving_classes,
    truncate_graph,
)
from matroidlab.util import adjacency

LANES = ("a", "b", "c")
PREFIX = ("p", "q")


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


# ---------------------------------------------------------------------------
# the reference


def nx_width(g, lanes, s):
    """Vertex-disjoint paths across a strip longer than any width plateau."""
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
    lane_cid = _live_lanes(run_machine(g, s))
    lane_end = _lane_ends(g)
    out = []
    for piece in surviving_classes(g, s):
        label = lane_end[min(piece)]
        if label in point_map:
            width = nx_width(g, piece, s)
            if width:
                out.append((piece, point_map[label], width, lane_cid[min(piece)]))
    return out


def ref_find_circle(g, s, glue):
    point_map = glue.as_map()
    if not point_map:
        return None
    pieces = ref_pieces(g, s, point_map)
    if not pieces:
        return None
    start = max(run_machine(g, s).depth,
                run_machine(g, s, use_prefix=False, use_apex=False).depth, s.p) + 1
    depth = start + max(len(p) for p, _, _, _ in pieces) + sum(w for _, _, w, _ in pieces) + 4
    nodes, edges = truncate_graph(g, s, depth)
    slots = [
        {"cid": cid, "point": point, "path": path}
        for piece, point, width, cid in pieces
        for path in _disjoint_forward_paths(edges, piece, start, depth, width)
    ]
    if len(slots) > 12:
        raise ResourceLimitError("too many glued ray slots to arrange")
    return _circle_in_slots(slots, adjacency(nodes, edges))


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


def check_against_reference(g, glue):
    """Every profile-0 candidate: same answers, and rays are packed only for
    sets with two glued rays in one component."""
    point_map = glue.as_map()

    def packing_spy(g_, s, depth):
        rays = Counter()
        for _, _, width, cid in ref_pieces(g_, s, point_map):
            rays[cid] += width
        assert max(rays.values(), default=0) >= 2, f"packed rays of {s} without a pair"
        return truncate_graph(g_, s, depth)

    with mock.patch.object(cycles, "truncate_graph", packing_spy):
        for cand in _candidate_sets(g, 0):
            assert outcome(cycle_independent, g, cand, glue) == outcome(ref_independent, g, cand, glue)
            assert outcome(cycle_is_base, g, cand, glue) == outcome(ref_is_base, g, cand, glue)
            assert outcome(fin_is_base, g, cand) == outcome(ref_fin_is_base, g, cand)


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
