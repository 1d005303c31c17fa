"""Window-sweep engine vs explicit truncations of the same infinite graphs."""

from collections import Counter
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from matroidlab import periodic
from matroidlab.errors import InputError, ResourceLimitError
from matroidlab.periodic import (
    PeriodicGraphSpec,
    UPEdgeSet,
    _finite_degree,
    _strip_width,
    bean_family,
    component_summary,
    contains_double_ray,
    contains_finite_cycle,
    corridor_width,
    corridors,
    domination_witness,
    edges_by_role,
    ends_of,
    full_edge_set,
    ladder_family,
    ray_count,
    reblock,
    run_machine,
    shift_edge_set,
    split_components,
    surviving_classes,
    truncate_graph,
    unroll,
)
from matroidlab.util import INF, adjacency, disjoint_paths

from test_glued_equivalence import specs

LADDER = ladder_family(1)
BEAN = bean_family()

# rails only, no rungs: two disjoint rays
RAILS = UPEdgeSet(pattern=frozenset({("spl", 0), ("spl", 1)}))
# top rail plus every rung: a one-ended tree
COMB = UPEdgeSet(pattern=frozenset({("spl", 0), ("win", 0)}))


def trunc_multigraph(g, s, depth):
    nodes, edges = truncate_graph(g, s, depth)
    G = nx.MultiGraph()
    G.add_nodes_from(nodes)
    for u, v, key in edges:
        G.add_edge(u, v, key=key)
    return G


def trunc_components(g, s, depth):
    return nx.number_connected_components(trunc_multigraph(g, s, depth))


def trunc_has_cycle(g, s, depth):
    G = trunc_multigraph(g, s, depth)
    return G.number_of_edges() > G.number_of_nodes() - nx.number_connected_components(G)


# ---------------------------------------------------------------------------
# spec construction


def test_spec_rejects_duplicate_names():
    with pytest.raises(InputError):
        PeriodicGraphSpec(repeat_vertices=("a", "a"), ends=("e",))


def test_spec_rejects_empty_repeat():
    with pytest.raises(InputError):
        PeriodicGraphSpec(prefix_vertices=("v",), ends=())


def test_spec_rejects_undeclared_endpoints():
    with pytest.raises(InputError):
        PeriodicGraphSpec(
            repeat_vertices=("a",),
            splice_edges=(("a", "z", "rail"),),
            ends=("e",),
        )


def test_spec_rejects_apex_outside_prefix():
    with pytest.raises(InputError):
        PeriodicGraphSpec(
            repeat_vertices=("a",),
            splice_edges=(("a", "a", "rail"),),
            apex_edges=(("a", "a", "spoke"),),
            ends=("e",),
        )


def test_spec_checks_declared_end_count():
    # a single two-rail family has one corridor, not two
    with pytest.raises(InputError):
        PeriodicGraphSpec(
            repeat_vertices=("t", "b"),
            window_edges=(("t", "b", "rung"),),
            splice_edges=(("t", "t", "top"), ("b", "b", "bottom")),
            ends=("e1", "e2"),
        )


def test_ladder_and_bean_construct():
    assert ladder_family(2).ends == ("end0", "end1")
    assert BEAN.apexes == ("v",)
    assert BEAN.roles() == {"top", "bottom", "spoke"}


# ---------------------------------------------------------------------------
# edge sets


def test_edge_set_rejects_instance_outside_zone():
    with pytest.raises(InputError):
        UPEdgeSet(p=1, explicit=frozenset({("win", 0, 3)}))


def test_edge_set_membership_split_at_p():
    s = UPEdgeSet(p=2, explicit=frozenset({("win", 0, 0)}), pattern=frozenset({("win", 0)}))
    assert s.has("win", 0, 0)
    assert not s.has("win", 0, 1)  # inside the zone, not listed
    assert s.has("win", 0, 7)


def test_with_edge_preserves_pattern_instances():
    s = RAILS.with_edge(("win", 0, 0))
    # widening the zone must not drop the rail copies at window 0
    assert s.has("spl", 0, 0) and s.has("spl", 1, 0)
    assert s.has("win", 0, 0) and not s.has("win", 0, 1)


def test_without_edge_round_trip():
    full = full_edge_set(LADDER)
    s = full.without_edge(("spl", 0, 2))
    assert not s.has("spl", 0, 2)
    assert s.has("spl", 0, 1) and s.has("spl", 0, 3)
    assert s.with_edge(("spl", 0, 2)).has("spl", 0, 2)


def test_edges_by_role_picks_declarations():
    top = edges_by_role(BEAN, "top")
    assert top.prefix_present == frozenset({0})
    assert top.pattern == frozenset({("spl", 0)})
    rails = edges_by_role(BEAN, {"top", "bottom"})
    assert rails.pattern == frozenset({("spl", 0), ("spl", 1)})


def test_validate_rejects_undeclared_slot():
    with pytest.raises(InputError):
        component_summary(LADDER, UPEdgeSet(pattern=frozenset({("win", 5)})))


# ---------------------------------------------------------------------------
# component summaries


@pytest.mark.parametrize(
    "s,expected",
    [
        (full_edge_set(LADDER), 1),
        (RAILS, 2),
        (COMB, 1),
        pytest.param(UPEdgeSet(), INF, id="s3-expected3"),
        # bottom lane dies alone
        pytest.param(UPEdgeSet(pattern=frozenset({("spl", 0)})), INF, id="s4-expected4"),
    ],
)
def test_ladder_component_counts(s, expected):
    assert component_summary(LADDER, s).count == expected


def test_glued_component_counts():
    assert component_summary(LADDER, RAILS, {"end0": "w"}).count == 1
    # open gluing map leaves the rays separate
    assert component_summary(LADDER, RAILS, {}).count == 2


def test_two_ladder_gluing_variants():
    g = ladder_family(2)
    rails = UPEdgeSet(pattern=frozenset({("spl", j) for j in range(4)}))
    assert component_summary(g, rails).count == 4
    assert component_summary(g, rails, {"end0": "w", "end1": "w"}).count == 1
    assert component_summary(g, rails, {"end0": "w0", "end1": "w1"}).count == 2
    assert component_summary(g, rails, {"end0": "w0"}).count == 3


def test_bean_component_counts():
    assert component_summary(BEAN, full_edge_set(BEAN)).count == 1
    rails = edges_by_role(BEAN, {"top", "bottom"})
    assert component_summary(BEAN, rails).count == 2
    assert component_summary(BEAN, rails, {"end_top": "w", "end_bottom": "w"}).count == 1


def test_summary_reports_interface_partition():
    rep = component_summary(LADDER, RAILS)
    assert rep.interface["t0"] != rep.interface["b0"]
    glued = component_summary(LADDER, RAILS, {"end0": "w"})
    assert glued.interface["t0"] == glued.interface["b0"] == glued.interface["point:w"]


def test_summary_serialization_marks_infinity():
    d = component_summary(LADDER, UPEdgeSet()).to_dict()
    assert d["count"] == "inf"
    assert d["closing_rate"] == 2


def test_finite_count_matches_truncation():
    for s in [full_edge_set(LADDER), RAILS, COMB]:
        rep = component_summary(LADDER, s)
        d = rep.depth + 4
        assert trunc_components(LADDER, s, d) == rep.count
        assert trunc_components(LADDER, s, d + 1) == rep.count


def test_infinite_count_growth_rate_matches_truncation():
    s = UPEdgeSet(pattern=frozenset({("spl", 0)}))
    rep = component_summary(LADDER, s)
    assert rep.count is INF and rep.closing_rate == 1
    d = rep.depth + 4
    growth = trunc_components(LADDER, s, d + 3) - trunc_components(LADDER, s, d)
    assert growth == 3 * rep.closing_rate


# ---------------------------------------------------------------------------
# finite cycles


def test_square_cycle_found_with_witness():
    sq = RAILS.with_edge(("win", 0, 0)).with_edge(("win", 0, 3))
    present, wit = contains_finite_cycle(LADDER, sq)
    assert present
    cyc = wit["cycle_vertices"]
    assert ("t0", 0) in cyc or ("t0", 3) in cyc
    assert wit["closing_edge"][0] in ("win", "spl")


def test_rails_are_acyclic():
    assert contains_finite_cycle(LADDER, RAILS) == (False, None)
    assert contains_finite_cycle(LADDER, COMB) == (False, None)


def test_full_ladder_has_cycle():
    present, _ = contains_finite_cycle(LADDER, full_edge_set(LADDER))
    assert present


def test_window_snapshot_misses_joins_of_later_windows():
    # the rails and the rung at window 1: after window 0, t0 and b0 are in
    # separate classes, yet the rung at window 0 closes a square through
    # window 1, so a window-0 snapshot cannot tell that the rung is not addable
    s = RAILS.with_edge(("win", 0, 1))
    assert contains_finite_cycle(LADDER, s) == (False, None)
    assert trunc_components(LADDER, s, 1) == 2
    present, wit = contains_finite_cycle(LADDER, s.with_edge(("win", 0, 0)))
    assert present
    assert sorted(wit["cycle_vertices"]) == [("b0", 0), ("b0", 1), ("t0", 0), ("t0", 1)]


def test_bean_hub_triangle():
    # two consecutive spokes plus the lower rail edge between them
    s = UPEdgeSet(pattern=frozenset({("apx", 0), ("spl", 1)}))
    present, wit = contains_finite_cycle(BEAN, s)
    assert present
    assert ("p", "v") in wit["cycle_vertices"]


def test_parallel_splices_form_a_lens():
    g = PeriodicGraphSpec(
        repeat_vertices=("x",),
        splice_edges=(("x", "x", "a"), ("x", "x", "b")),
        ends=("e",),
    )
    present, wit = contains_finite_cycle(g, full_edge_set(g))
    assert present
    assert len(wit["cycle_vertices"]) == 2


def test_loop_edge_is_a_cycle():
    g = PeriodicGraphSpec(
        repeat_vertices=("x",),
        window_edges=(("x", "x", "loop"),),
        splice_edges=(("x", "x", "rail"),),
        ends=("e",),
    )
    present, _ = contains_finite_cycle(g, full_edge_set(g))
    assert present


# ---------------------------------------------------------------------------
# double rays


def test_double_ray_requires_two_ray_capacity():
    assert contains_double_ray(LADDER, RAILS) == (False, None)
    present, wit = contains_double_ray(LADDER, RAILS.with_edge(("win", 0, 0)))
    assert present
    assert sum(p["width"] for p in wit["ray_pieces"]) >= 2
    assert not contains_double_ray(LADDER, COMB)[0]


def test_bean_double_rays():
    rails = edges_by_role(BEAN, {"top", "bottom"})
    assert not contains_double_ray(BEAN, rails)[0]
    joined = rails.with_edge(("apx", 0, 0))
    assert contains_double_ray(BEAN, joined)[0]


def test_spoke_stars_carry_no_ray():
    # hub plus spokes alone: infinite star, no ray at all
    s = edges_by_role(BEAN, "spoke")
    assert surviving_classes(BEAN, s) == ()
    assert not contains_double_ray(BEAN, s)[0]


# ---------------------------------------------------------------------------
# corridors, ends, rays


def test_ladder_has_one_corridor_of_width_two():
    assert corridors(LADDER) == (frozenset({"b0", "t0"}),)
    assert corridor_width(LADDER, frozenset({"b0", "t0"})) == 2
    assert ray_count(LADDER) == 2


def test_bean_has_two_corridors():
    assert corridors(BEAN) == (frozenset({"x"}), frozenset({"y"}))
    assert ends_of(BEAN) == {
        "end_top": frozenset({"x"}),
        "end_bottom": frozenset({"y"}),
    }
    assert ray_count(BEAN) == 2


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 6)])
def test_disjoint_ladders_add_rays(n, expected):
    assert ray_count(ladder_family(n)) == expected


def test_width_respects_edge_set():
    lanes = frozenset({"b0", "t0"})
    assert corridor_width(LADDER, lanes, RAILS) == 2
    assert corridor_width(LADDER, lanes, COMB) == 1


def strip_flow(lane_list, win_present, spl_present, k):
    """Vertex-disjoint paths across a k-window strip, by networkx."""
    G = nx.Graph()
    G.add_nodes_from((l, w) for l in lane_list for w in range(k))
    G.add_edges_from(((u, w), (v, w)) for u, v in win_present for w in range(k))
    G.add_edges_from(((u, w), (v, w + 1)) for u, v in spl_present for w in range(k - 1))
    G.add_edges_from(("S", (l, 0)) for l in lane_list)
    G.add_edges_from(((l, k - 1), "T") for l in lane_list)
    try:
        return len(list(nx.node_disjoint_paths(G, "S", "T")))
    except nx.NetworkXNoPath:
        return 0


@st.composite
def corridor_strips(draw, max_lanes=4):
    lane_list = ("a", "b", "c", "d", "e")[: draw(st.integers(1, max_lanes))]
    lane = st.sampled_from(lane_list)
    win = draw(st.lists(st.tuples(lane, lane).filter(lambda e: e[0] != e[1]), max_size=4)
               if len(lane_list) > 1 else st.just([]))
    spl = draw(st.lists(st.tuples(lane, lane), max_size=6))
    return lane_list, tuple(win), tuple(spl)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(corridor_strips())
def test_width_plateau_equals_the_flow_at_the_last_strip_length(strip):
    # the flow at the proved strip length K = 2^m + n + 1 is the flow at every
    # longer strip; for n <= 4 lanes K <= 8(n+2) - 1, so this checks the width
    # against a longer strip than the proof needs
    lane_list, win, spl = strip
    try:
        width = _strip_width(lane_list, win, spl)
    except ResourceLimitError:
        return
    assert width == strip_flow(lane_list, win, spl, 8 * (len(lane_list) + 2) - 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(corridor_strips(max_lanes=5))
def test_width_is_the_flow_at_the_proved_strip_length(strip):
    # K = 2^m + n + 1 windows, m the number of window-edge components
    lane_list, win, spl = strip
    G = nx.Graph(win)
    G.add_nodes_from(lane_list)
    m, n = nx.number_connected_components(G), len(lane_list)
    k = 2**m + n + 1
    width = _strip_width(lane_list, win, spl)
    assert width == strip_flow(lane_list, win, spl, k) == strip_flow(lane_list, win, spl, k + 2**m)


# ---------------------------------------------------------------------------
# domination


def test_hub_dominates_at_increasing_depths():
    depths = [domination_witness(BEAN, "v", k) for k in range(1, 7)]
    assert all(d is not None for d in depths)
    assert depths == sorted(depths)
    assert depths[-1] > depths[0]


def test_rail_vertices_do_not_dominate():
    assert domination_witness(LADDER, ("t0", 0), 2) is not None
    assert domination_witness(LADDER, ("t0", 0), 3) is None  # degree 2
    assert domination_witness(LADDER, ("t0", 5), 2) is not None
    assert domination_witness(LADDER, ("t0", 5), 3) is None  # only two escapes
    assert domination_witness(LADDER, ("t0", 5), 4) is None  # degree 3


def test_domination_monotone_in_k():
    d2 = domination_witness(BEAN, "v", 2)
    d5 = domination_witness(BEAN, "v", 5)
    assert d2 <= d5


def ref_domination_witness(g, v, k):
    """domination_witness with a fixed search cap in place of the proved
    bound: every depth from horizon + 1 to horizon + max(4k, 32)."""
    if k < 1:
        raise InputError("path count must be at least 1")
    if isinstance(v, str):
        if v not in g.prefix_vertices:
            raise InputError(f"unknown prefix vertex {v!r}")
    else:
        lane, w = v
        if lane not in g.repeat_vertices or w < 0:
            raise InputError(f"unknown repeat vertex {v!r}")
    deg = _finite_degree(g, v)
    if deg is not None and deg < k:
        return None
    s = full_edge_set(g)
    horizon = run_machine(g, s).depth + 1
    if not isinstance(v, str):
        horizon = max(horizon, v[1] + 1)
    src = ("p", v) if isinstance(v, str) else (v[0], v[1])
    for depth in range(horizon + 1, horizon + max(4 * k, 32) + 1):
        nodes, edges = truncate_graph(g, s, depth)
        adj = adjacency(nodes, edges)
        starts = list(dict.fromkeys(n for n in adj.pop(src) if n != src))
        for n in starts:
            adj[n] = [m for m in adj[n] if m != src]
        deep = [(lane, w) for lane in g.repeat_vertices for w in range(horizon, depth)]
        if len(disjoint_paths(adj, starts, [n for n in deep if n != src])) >= k:
            return depth
    return None


def depth_or_bound(fn, g, v, k):
    try:
        return fn(g, v, k)
    except ResourceLimitError as exc:
        return str(exc)


def test_domination_matches_the_linear_search():
    met = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        g = data.draw(specs())
        refs = list(g.prefix_vertices) + [(lane, w) for lane in g.repeat_vertices for w in range(4)]
        v = data.draw(st.sampled_from(refs))
        k = data.draw(st.integers(1, 6))
        with mock.patch.object(periodic, "disjoint_paths", wraps=disjoint_paths) as flows:
            depth = depth_or_bound(domination_witness, g, v, k)
        assert depth == depth_or_bound(ref_domination_witness, g, v, k)
        if depth is None:
            assert flows.call_count <= k
        met["apex" if v in g.apexes else "prefix" if isinstance(v, str) else "lane"] += 1

    check()
    assert all(met[kind] for kind in ("apex", "prefix", "lane")), met


def test_hub_domination_depths_are_pinned():
    # the hub's horizon is 2, so the bound horizon + k is one past each depth
    assert [domination_witness(BEAN, "v", k) for k in range(1, 9)] == [3, 3, 4, 5, 6, 7, 8, 9]


def test_failing_domination_query_makes_k_flow_calls():
    # one flow per depth from horizon + 1 to horizon + k
    with mock.patch.object(periodic, "disjoint_paths", wraps=disjoint_paths) as flows:
        assert domination_witness(LADDER, ("t0", 5), 3) is None
    assert flows.call_count == 3


def test_domination_input_validation():
    with pytest.raises(InputError):
        domination_witness(BEAN, "nope", 1)
    with pytest.raises(InputError):
        domination_witness(BEAN, "v", 0)
    with pytest.raises(InputError):
        domination_witness(LADDER, ("t9", 0), 1)


# ---------------------------------------------------------------------------
# truncation backend


def test_truncation_shape():
    G = trunc_multigraph(LADDER, full_edge_set(LADDER), 4)
    assert G.number_of_nodes() == 8
    # 4 rungs + 3 splices per rail
    assert G.number_of_edges() == 4 + 6


def test_truncation_keeps_parallel_edges():
    g = PeriodicGraphSpec(
        repeat_vertices=("x",),
        splice_edges=(("x", "x", "a"), ("x", "x", "b")),
        ends=("e",),
    )
    G = trunc_multigraph(g, full_edge_set(g), 3)
    assert G.number_of_edges(("x", 0), ("x", 1)) == 2


# ---------------------------------------------------------------------------
# transforms


def test_unroll_absorbs_windows():
    u = unroll(LADDER, 2)
    assert "t0@0" in u.prefix_vertices and "b0@1" in u.prefix_vertices
    assert u.repeat_vertices == LADDER.repeat_vertices
    assert ray_count(u) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unroll_preserves_summaries(k):
    u = unroll(LADDER, k)
    for s in [full_edge_set(LADDER), RAILS, COMB, RAILS.with_edge(("win", 0, 1))]:
        shifted = shift_edge_set(LADDER, s, k)
        assert component_summary(u, shifted).count == component_summary(LADDER, s).count
        assert (
            contains_finite_cycle(u, shifted)[0]
            == contains_finite_cycle(LADDER, s)[0]
        )


def test_unroll_preserves_bean_cycles():
    tri = UPEdgeSet(pattern=frozenset({("apx", 0), ("spl", 1)}))
    for k in (1, 2):
        u = unroll(BEAN, k)
        assert contains_finite_cycle(u, shift_edge_set(BEAN, tri, k))[0]


def test_reblock_same_graph():
    r = reblock(LADDER, 2)
    assert ray_count(r) == 2
    assert component_summary(r, full_edge_set(r)).count == 1
    assert len(corridors(r)) == 1


def test_split_components_recovers_single_ladders():
    parts = split_components(ladder_family(3))
    assert len(parts) == 3
    for spec, maps in parts:
        assert ray_count(spec) == 2
        assert len(maps["win"]) == 1 and len(maps["spl"]) == 2


@pytest.mark.parametrize("g", [LADDER, BEAN], ids=["ladder", "bean"])
def test_split_components_returns_a_single_component_itself(g):
    [(spec, maps)] = split_components(g)
    assert spec is g
    counts = {"pre": len(g.prefix_edges), **g.slot_counts()}
    assert maps == {kind: list(range(n)) for kind, n in counts.items()}


# ---------------------------------------------------------------------------
# randomized cross-checks against truncations


def edge_sets_for(g):
    slots = (
        [("win", j) for j in range(len(g.window_edges))]
        + [("spl", j) for j in range(len(g.splice_edges))]
        + [("apx", j) for j in range(len(g.apex_edges))]
    )

    @st.composite
    def build(draw):
        p = draw(st.integers(min_value=0, max_value=2))
        pattern = frozenset(
            slot for slot in slots if draw(st.booleans())
        )
        explicit = frozenset(
            (kind, j, w)
            for (kind, j) in slots
            for w in range(p)
            if draw(st.booleans())
        )
        prefix = frozenset(
            i for i in range(len(g.prefix_edges)) if draw(st.booleans())
        )
        return UPEdgeSet(p, prefix, explicit, pattern)

    return build()


@settings(max_examples=60, deadline=None)
@given(s=edge_sets_for(LADDER))
def test_random_ladder_cycle_verdict_matches_truncation(s):
    present, _ = contains_finite_cycle(LADDER, s)
    depth = run_machine(LADDER, s).depth + 4
    assert present == trunc_has_cycle(LADDER, s, depth)


@settings(max_examples=60, deadline=None)
@given(s=edge_sets_for(BEAN))
def test_random_bean_cycle_verdict_matches_truncation(s):
    present, _ = contains_finite_cycle(BEAN, s)
    depth = run_machine(BEAN, s).depth + 4
    assert present == trunc_has_cycle(BEAN, s, depth)


@settings(max_examples=60, deadline=None)
@given(s=edge_sets_for(LADDER))
def test_random_ladder_counts_match_truncation(s):
    rep = component_summary(LADDER, s)
    d = rep.depth + 4
    at_d = trunc_components(LADDER, s, d)
    growth = trunc_components(LADDER, s, d + 2) - at_d
    if rep.count is INF:
        assert growth == 2 * rep.closing_rate > 0
    else:
        assert growth == 0
        assert at_d == rep.count


@settings(max_examples=60, deadline=None)
@given(s=edge_sets_for(BEAN))
def test_random_bean_counts_match_truncation(s):
    rep = component_summary(BEAN, s)
    d = rep.depth + 4
    at_d = trunc_components(BEAN, s, d)
    growth = trunc_components(BEAN, s, d + 2) - at_d
    if rep.count is INF:
        assert growth == 2 * rep.closing_rate > 0
    else:
        assert growth == 0
        assert at_d == rep.count


@settings(max_examples=40, deadline=None)
@given(s=edge_sets_for(LADDER), k=st.integers(min_value=1, max_value=2))
def test_random_unroll_consistency(s, k):
    u = unroll(LADDER, k)
    shifted = shift_edge_set(LADDER, s, k)
    assert component_summary(u, shifted).count == component_summary(LADDER, s).count
    assert contains_finite_cycle(u, shifted)[0] == contains_finite_cycle(LADDER, s)[0]
