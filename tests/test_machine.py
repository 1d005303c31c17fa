"""The window-sweep machine against the sweep it replaced, and the periods it names.

ref_run_machine is an earlier run_machine, kept verbatim but for liveness: a
union-find over named tokens that relabels each window's lanes before the next
window, and compares frozenset signatures.  It calls a stationary class live
when it is still inhabited after as many more windows as there are classes,
where the library follows the stationary step's class map to a cycle.  It still takes the glue arguments that put
glue points inside the sweep, and use_prefix: its repeat-only sweep
(use_prefix=False) is the library's sweep of _repeat_part(s), where each
prefix vertex stays a class of its own.  The compiled sweep must give every
MachineResult field the same value on every input, once those singleton
classes are dropped from live, or both must hit a resource bound; it must do
so cold, and again warm, when every step is a hit in the spec's step memo.

ref_component_summary is the component summary that glued inside the sweep:
every copy of a ray-bearing lane joins its glue point from the repeat-only
sweep's depth on.  component_summary reads glued components off the plain
sweep instead.  The two agree wherever no splice moves a lane; elsewhere the
reference can report a finite glued count where the plain count is INF.
"""

import dataclasses
import itertools
import json

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from matroidlab.cycles import _candidate_sweep, _decode, edge_sets_union
from matroidlab.errors import ResourceLimitError
from matroidlab.io import dump_family
from matroidlab.periodic import (
    ComponentSummary,
    MachineResult,
    PeriodicGraphSpec,
    UPEdgeSet,
    _compiled,
    _finite_degree,
    _lane_ends,
    _repeat_part,
    _window_bound,
    component_summary,
    full_edge_set,
    reblock,
    run_machine,
    truncate_graph,
    validate_edge_set,
)
from matroidlab.util import INF

from test_cli_boundary import run_in_process
from test_glued_equivalence import SWAP_LINK, specs

_machine_cache: dict = {}  # ref_run_machine's own cache

# three lanes that rotate, with a link from p to lane a at window 0
ROTATION_LINK = PeriodicGraphSpec(
    prefix_vertices=("p",),
    repeat_vertices=("a", "b", "c"),
    prefix_edges=(("p", ("r", "a"), "link"),),
    splice_edges=(("a", "b", "top"), ("b", "c", "top"), ("c", "a", "top")),
    ends=("e0", "e1", "e2"),
)


def ref_run_machine(
    g: PeriodicGraphSpec,
    s: UPEdgeSet,
    use_prefix: bool = True,
    glue_lanes: dict | None = None,
    glue_from: int = 0,
) -> MachineResult:
    """Sweep windows until the projected partition repeats.

    Tokens: ("P", name) persistent prefix vertices, ("R", lane) the current
    window's repeat vertices, ("G", point) persistent glue points.  glue_lanes
    maps ray-bearing lanes to glue point names; those unions start at window
    glue_from (the caller passes the depth at which ray-bearing is certified).
    use_prefix=False sweeps the repeat-only structure: no prefix vertices and
    no prefix or apex edges.
    """
    glue_lanes = glue_lanes or {}
    cache_key = (g, s, use_prefix, tuple(sorted(glue_lanes.items())), glue_from)
    hit = _machine_cache.get(cache_key)
    if hit is not None:
        return hit  # (g, s) was validated when the entry was made
    validate_edge_set(g, s)

    # class id per token plus member sets, not util.UnionFind: retiring a
    # window's tokens needs to delete them from their class
    parent: dict = {}
    members: dict = {}
    next_id = itertools.count()

    def add_token(tok):
        cid = next(next_id)
        parent[tok] = cid
        members[cid] = {tok}

    closed = 0
    cycle_event = None

    def union(a, b, instance=None, window=None):
        nonlocal cycle_event
        ca, cb = parent[a], parent[b]
        if ca == cb:
            if instance is not None and cycle_event is None:
                cycle_event = (instance, window)
            return
        if len(members[ca]) < len(members[cb]):
            ca, cb = cb, ca
        for tok in members[cb]:
            parent[tok] = ca
        members[ca] |= members[cb]
        del members[cb]

    if use_prefix:
        for name in g.prefix_vertices:
            add_token(("P", name))
    for point in sorted(set(glue_lanes.values())):
        add_token(("G", point))

    def resolve_pref(ref):
        if isinstance(ref, str):
            return ("P", ref)
        return ("R", ref[1])

    def apply_window(w):
        for lane in g.repeat_vertices:
            add_token(("R", lane))
        if w == 0 and use_prefix:
            for i in sorted(s.prefix_present):
                u, v, _ = g.prefix_edges[i]
                union(resolve_pref(u), resolve_pref(v), ("pre", i), 0)
        if w > 0:
            for j, (u, v, _) in enumerate(g.splice_edges):
                if s.has("spl", j, w - 1):
                    union(("Q", u), ("R", v), ("spl", j, w - 1), w)
        for j, (u, v, _) in enumerate(g.window_edges):
            if s.has("win", j, w):
                union(("R", u), ("R", v), ("win", j, w), w)
        if use_prefix:
            for j, (a, v, _) in enumerate(g.apex_edges):
                if s.has("apx", j, w):
                    union(("P", a), ("R", v), ("apx", j, w), w)
        if w >= glue_from:
            for lane, point in glue_lanes.items():
                union(("G", point), ("R", lane))

    def retire():
        d = 0
        for lane in g.repeat_vertices:
            tok = ("Q", lane)
            if tok in parent:
                cid = parent.pop(tok)
                members[cid].discard(tok)
                if not members[cid]:
                    del members[cid]
                    d += 1
        return d

    def relabel():
        for lane in g.repeat_vertices:
            tok = ("R", lane)
            cid = parent.pop(tok)
            members[cid].discard(tok)
            qtok = ("Q", lane)
            parent[qtok] = cid
            members[cid].add(qtok)

    sig_prev = None
    # splices applied at window w have index w-1, so the first window whose
    # step reads only pattern entries is p+1; same shift for glue unions
    min_depth = max(s.p + 1, glue_from + 1)
    bound = _window_bound(g, s)
    w = 0
    while True:
        apply_window(w)
        delta = retire()
        closed += delta
        sig = frozenset(frozenset(c) for c in members.values())
        if w >= min_depth and sig == sig_prev:
            break
        sig_prev = sig
        relabel()
        w += 1
        if w > bound:
            raise ResourceLimitError(
                f"window sweep did not stabilize within {bound} windows"
            )
    # the stationary state can still shed classes every window (delta > 0).
    # Follow one token of each class, through merged class ids, for
    # len(stationary) + 1 more windows: a class still inhabited then has
    # revisited a stationary class, so it persists forever
    stationary = sorted(sig, key=lambda c: sorted(map(str, c)))
    trail = {cls: next(iter(cls)) for cls in stationary}
    for extra in range(len(stationary) + 1):
        relabel()
        apply_window(w + 1 + extra)
        ids = {cls: parent[("Q", tok[1]) if tok[0] == "R" else tok] for cls, tok in trail.items()}
        retire()
        trail = {cls: next(iter(members[cid])) for cls, cid in ids.items() if cid in members}
    live = tuple(cls for cls in stationary if cls in trail)
    result = MachineResult(
        depth=w,
        closed=closed,
        delta=delta,
        live=live,
        cycle_event=cycle_event,
    )
    if len(_machine_cache) >= 16384:
        _machine_cache.clear()
    _machine_cache[cache_key] = result
    return result


# ---------------------------------------------------------------------------
# random inputs


@st.composite
def edge_sets(draw, g):
    """An edge set of g with p <= 2."""
    p = draw(st.integers(0, 2))
    slots = sorted(full_edge_set(g).pattern)
    instances = [(kind, j, w) for w in range(p) for kind, j in slots]
    return UPEdgeSet(
        p,
        frozenset(draw(st.sets(st.integers(0, len(g.prefix_edges) - 1)))) if g.prefix_edges else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(instances)))) if instances else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(slots)))),
    )


@st.composite
def machine_inputs(draw):
    """A random spec (splices may move lanes), an edge set of it and whether
    the sweep reads the prefix."""
    g = draw(specs())
    return g, draw(edge_sets(g)), draw(st.booleans())


def result_or_bound(fn, *args, warm=False):
    # sweep afresh: building the spec already ran some of these keys; a warm
    # sweep keeps each spec's compiled steps, so its steps are memo hits
    run_machine.cache_clear()
    if not warm:
        _compiled.cache_clear()
    _machine_cache.clear()
    try:
        return fn(*args)
    except ResourceLimitError:
        return "resource bound"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(machine_inputs())
# random draws seldom meet a sweep that cycles, so three are given: the swap
# ladder's full sweep has period 2, also read through an explicit zone, and
# the rotation's has period 3
@example((SWAP_LINK, full_edge_set(SWAP_LINK), True))
@example((SWAP_LINK, full_edge_set(SWAP_LINK).normalized(2), True))
@example((ROTATION_LINK, full_edge_set(ROTATION_LINK), True))
def test_machine_matches_the_reference(case):
    g, s, use_prefix = case
    ref = result_or_bound(ref_run_machine, g, s, use_prefix)
    # cold, then warm: the second sweep reads every step from the first's memo
    for warm in (False, True):
        new = result_or_bound(run_machine, g, s if use_prefix else _repeat_part(s), warm=warm)
        assert new == "resource bound" or isinstance(new, MachineResult)
        if new != "resource bound" and not use_prefix:
            lane_classes = tuple(cls for cls in new.live if any(tok[0] == "R" for tok in cls))
            new = dataclasses.replace(new, live=lane_classes)
        assert new == ref
    # a set without prefix or apex instances is its own repeat part, so its
    # full and repeat-only sweeps are one cache entry
    bare = not s.prefix_present and all(item[0] != "apx" for item in s.explicit | s.pattern)
    assert (_repeat_part(s) == s) == bare
    if bare and new != "resource bound":
        run_machine.cache_clear()
        run_machine(g, s)
        run_machine(g, _repeat_part(s))
        assert run_machine.cache_info().misses == 1


# ---------------------------------------------------------------------------
# the sweep split at the explicit zone


def loop_run_machine(g: PeriodicGraphSpec, s: UPEdgeSet) -> MachineResult:
    """run_machine as one plain window loop: every window is stepped in turn
    until the state repeats, and the window bound is checked window by
    window, with no tail memo."""
    validate_edge_set(g, s)
    sweep = _compiled(g)
    masks = sweep.masks(s)
    min_depth = s.p + 1
    bound = _window_bound(g, s)
    seen: dict = {}
    state = tuple(range(sweep.n_pers))
    closed = 0
    cycle_event = None
    w = 0
    while True:
        state, delta, slot, live = sweep.step(masks[min(w, min_depth)], state)
        closed += delta
        if slot is not None and cycle_event is None:
            kind, j, lag = slot
            cycle_event = ((kind, j) if lag is None else (kind, j, w - lag), w)
        if w >= min_depth and state in seen:
            period = w - seen[state]
            if period == 1:
                break
            raise ResourceLimitError(
                f"window sweep repeats every {period} windows and never stabilizes"
            )
        if w >= min_depth - 1:
            seen[state] = w
        w += 1
        if w > bound:
            raise ResourceLimitError(
                f"window sweep did not stabilize within {bound} windows"
            )
    return MachineResult(depth=w, closed=closed, delta=delta, live=live, cycle_event=cycle_event)


def _marker_rotation() -> PeriodicGraphSpec:
    """Three prefix markers linked to lane cycles of lengths 3, 5 and 7; a
    path of window edges joins every lane, so the whole graph settles."""
    cycles = {"a": 3, "b": 5, "c": 7}
    lanes = [f"{x}{i}" for x, n in cycles.items() for i in range(n)]
    return PeriodicGraphSpec(
        prefix_vertices=("m0", "m1", "m2"),
        repeat_vertices=tuple(lanes),
        prefix_edges=tuple((f"m{k}", ("r", f"{x}0"), "link") for k, x in enumerate(cycles)),
        window_edges=tuple((u, v, "rung") for u, v in zip(lanes, lanes[1:])),
        splice_edges=tuple(
            (f"{x}{i}", f"{x}{(i + 1) % n}", "top") for x, n in cycles.items() for i in range(n)
        ),
        ends=("e0",),
    )


# the links and splices alone: each marker's class moves along its cycle, so
# the state after window w repeats every 105 windows, and the sweep of a set
# explicit over p windows finds its repeat at window p + 105.  The window
# bound is 88 + 2p, so below p = 17 the sweep runs out of windows first.
MARKERS = _marker_rotation()
MARKER_LINKS = UPEdgeSet(0, frozenset(range(3)), frozenset(), frozenset(("spl", j) for j in range(15)))


@st.composite
def swept_sets(draw):
    """A random spec (splices may move lanes), an edge set of it explicit
    over 0-3 windows, and how many windows to widen that zone by."""
    g = draw(specs())
    p = draw(st.integers(0, 3))
    slots = sorted(full_edge_set(g).pattern)
    instances = [(kind, j, w) for w in range(p) for kind, j in slots]
    s = UPEdgeSet(
        p,
        frozenset(draw(st.sets(st.integers(0, len(g.prefix_edges) - 1)))) if g.prefix_edges else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(instances)))) if instances else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(slots)))),
    )
    return g, s, draw(st.integers(1, 3))


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ResourceLimitError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(swept_sets())
@example((SWAP_LINK, full_edge_set(SWAP_LINK), 1))
@example((ROTATION_LINK, full_edge_set(ROTATION_LINK), 2))
# out of windows at p = 16 and naming the period at p = 17; at p = 105 the
# tail starts in the state of p = 0, whose 88 windows found no repeat
@example((MARKERS, MARKER_LINKS.normalized(16), 1))
@example((MARKERS, MARKER_LINKS, 105))
def test_split_sweep_matches_the_window_loop(case):
    # run_machine steps the explicit zone and reads the rest from the tail
    # memo; the widened set is swept with the first set's memos warm, so a
    # tail that entered the memo under one window bound is read under another
    g, s, k = case
    run_machine.cache_clear()
    _compiled.cache_clear()
    for t in (s, s.normalized(s.p + k)):
        assert result_or_error(run_machine, g, t) == result_or_error(loop_run_machine, g, t)


def candidate_names(g, p):
    """The candidate bits of cycles._candidate_bits, without its 16-bit cap."""
    slots = sorted(full_edge_set(g).pattern)
    pre = [("pre", i) for i in range(len(g.prefix_edges))]
    return pre + [(kind, j, w) for w in range(p) for kind, j in slots] + slots


@st.composite
def fixed_unions(draw):
    """A random spec (splices may move lanes), a candidate prefix of 0-2
    windows, a fixed set explicit over up to 2 more windows and a few
    candidate masks, the empty and the full candidate among them."""
    g = draw(specs())
    p = draw(st.integers(0, 2))
    names = candidate_names(g, p)
    slots = sorted(full_edge_set(g).pattern)
    fp = draw(st.integers(0, p + 2))
    instances = [(kind, j, w) for w in range(fp) for kind, j in slots]
    fixed = UPEdgeSet(
        fp,
        frozenset(draw(st.sets(st.integers(0, len(g.prefix_edges) - 1)))) if g.prefix_edges else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(instances)))) if instances else frozenset(),
        frozenset(draw(st.sets(st.sampled_from(slots)))),
    )
    top = (1 << len(names)) - 1
    masks = [0, top] + draw(st.lists(st.integers(0, top), max_size=6))
    return g, p, names, fixed, masks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fixed_unions())
# the link and both swapping splices: the union's sweep repeats every 2 windows
@example((SWAP_LINK, 0, candidate_names(SWAP_LINK, 0), UPEdgeSet(2, frozenset({0})), [0b110]))
# the markers' links and splices: the union runs out of the window bound of
# its own explicit zone, 2 windows past the candidate's
@example((MARKERS, 0, candidate_names(MARKERS, 0), UPEdgeSet(2, frozenset(range(3))),
          [sum(1 << 3 + j for j in range(15))]))
def test_fixed_set_sweep_matches_run_machine(case):
    # the walk sweeps candidate plus fixed set on the candidate's mask; every
    # mask shares one closure, so later masks read the memos of earlier ones
    g, p, names, fixed, masks = case
    joint = _candidate_sweep(g, p, names, fixed)
    for mask in masks:
        union = edge_sets_union(_decode(names, p, mask), fixed)
        assert result_or_error(joint, mask) == result_or_error(run_machine, g, union)


# ---------------------------------------------------------------------------
# glued summaries


def ref_component_summary(g, s, gluing):
    """The full sweep of s with glue points attached, from the repeat-only
    sweep's depth on, to every lane of a ray piece whose end is glued."""
    if gluing:
        ray_only = ref_run_machine(g, s, use_prefix=False)
        lane_end = _lane_ends(g)
        glue_lanes = {
            tok[1]: gluing[lane_end[tok[1]]]
            for cls in ray_only.live
            for tok in cls
            if lane_end[tok[1]] in gluing
        }
        res = ref_run_machine(g, s, True, glue_lanes, ray_only.depth)
    else:
        res = ref_run_machine(g, s)
    interface = {}
    for cid, cls in enumerate(res.live):
        for tok in cls:
            interface[f"point:{tok[1]}" if tok[0] == "G" else tok[1]] = cid
    return ComponentSummary(
        count=INF if res.delta > 0 else res.closed + len(res.live),
        interface=interface,
        depth=res.depth,
        closing_rate=res.delta,
    )


@st.composite
def glued_inputs(draw):
    """A random spec, an edge set of it and a map from some of its end labels
    (at least one, if it has any) to the glue points x and y."""
    g = draw(specs())
    labels = draw(st.lists(st.sampled_from(g.ends), min_size=1, unique=True)) if g.ends else []
    return g, draw(edge_sets(g)), {label: draw(st.sampled_from(("x", "y"))) for label in labels}


def fields_of(summary):
    if summary == "resource bound":
        return summary
    return summary.count, summary.interface, summary.closing_rate


@settings(max_examples=400, deadline=None, derandomize=True)
@given(glued_inputs())
def test_glued_summary_matches_the_in_sweep_reference(case):
    g, s, gluing = case
    plain = result_or_bound(component_summary, g, s)
    assert plain == result_or_bound(ref_component_summary, g, s, {})
    glued = result_or_bound(component_summary, g, s, gluing)
    if all(u == v for u, v, _ in g.splice_edges):
        assert fields_of(glued) == fields_of(result_or_bound(ref_component_summary, g, s, gluing))
    if glued == "resource bound":
        return
    assert (glued.count is INF) == (plain.count is INF)
    # gluing only merges plain components, and adds its points
    assert {k for k in glued.interface if not k.startswith("point:")} == set(plain.interface)
    for a in plain.interface:
        for b in plain.interface:
            if plain.interface[a] == plain.interface[b]:
                assert glued.interface[a] == glued.interface[b]


# ---------------------------------------------------------------------------
# live classes


def test_a_class_feeding_a_retiring_class_is_not_live(tmp_path):
    # lane a reaches lane b one window later and b goes nowhere, so every a-b
    # piece is finite and lane c carries the one end; a class that the next
    # step alone keeps inhabited (a's, through b) is not thereby live
    family = {"repeat": {"vertices": ["a", "b", "c"]}, "splice": [["a", "b"], ["c", "c"]]}
    path = tmp_path / "passing.json"
    path.write_text(json.dumps({**family, "ends": ["e0"]}))
    rc, out, err = run_in_process(["rays", "--family", str(path), "--glue", "all"])
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert result["rays"] == 1 and result["corridor_widths"] == {"e0": 1}
    rc, out, _ = run_in_process(["spectrum", "--family", str(path), "--prefix", "1"])
    assert rc == 0 and json.loads(out)["result"]["values"] == [0]
    path.write_text(json.dumps({**family, "ends": ["e0", "e1"]}))
    rc, out, err = run_in_process(["rays", "--family", str(path)])
    assert rc == 2 and out == ""
    assert err == "error: spec declares 2 ends but the repeat structure has 1 corridors\n"


# ---------------------------------------------------------------------------
# sweeps that cycle


def test_swap_ladder_sweep_names_period_two():
    # the link joins p to lane a at window 0, and the swapping splices move
    # that class to lane b, back to a, and so on
    with pytest.raises(ResourceLimitError) as exc:
        run_machine(SWAP_LINK, full_edge_set(SWAP_LINK))
    assert str(exc.value) == "window sweep repeats every 2 windows and never stabilizes"


def test_reblocked_swap_ladder_stabilizes():
    g = reblock(SWAP_LINK, 2)
    res = run_machine(g, full_edge_set(g))
    assert res.delta == 0 and res.cycle_event is None
    assert [sorted(cls) for cls in res.live] == [
        [("P", "p"), ("R", "a%0"), ("R", "b%1")], [("R", "a%1"), ("R", "b%0")]
    ]


def test_spectrum_on_the_swap_ladder_exits_3_naming_the_period(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(dump_family(SWAP_LINK)))
    rc, out, err = run_in_process(["spectrum", "--family", str(path), "--prefix", "0"])
    assert rc == 3 and out == ""
    assert err == "resource bound: window sweep repeats every 2 windows and never stabilizes\n"


# ---------------------------------------------------------------------------
# degrees


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_finite_degree_matches_the_truncation(data):
    g = data.draw(specs())
    refs = list(g.prefix_vertices) + [(lane, w) for lane in g.repeat_vertices for w in range(4)]
    v = data.draw(st.sampled_from(refs))
    if isinstance(v, str) and v in g.apexes:
        assert _finite_degree(g, v) is None
        return
    nodes, edges = truncate_graph(g, full_edge_set(g), 6)
    G = nx.MultiGraph()
    G.add_nodes_from(nodes)
    G.add_edges_from((u, w, key) for u, w, key in edges)
    assert _finite_degree(g, v) == G.degree(("p", v) if isinstance(v, str) else v)
