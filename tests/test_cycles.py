"""Glued cycle systems: independence, bases, defects, spectra, the exchange failure."""

import pytest
from hypothesis import given, settings, strategies as st

from matroidlab.cycles import (
    GluingSpec,
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
    no_glue,
    spectrum_search,
    verify_i3_violation,
)
from matroidlab.errors import InputError, ResourceLimitError, StructuralMismatchError
from matroidlab.io import load_edge_set
from matroidlab.periodic import (
    PeriodicGraphSpec,
    UPEdgeSet,
    bean_family,
    component_summary,
    full_edge_set,
    ladder_family,
)
from matroidlab.util import INF


LADDER = ladder_family(1)
LADDER2 = ladder_family(2)
BEAN = bean_family()
GA = glue_all(LADDER)
GA2 = glue_all(LADDER2)
GAB = glue_all(BEAN)

RAILS = UPEdgeSet(pattern=frozenset({("spl", 0), ("spl", 1)}))
TOP = UPEdgeSet(pattern=frozenset({("spl", 0)}))
COMB = UPEdgeSet(pattern=frozenset({("spl", 0), ("win", 0)}))
# rails of both ladders of the two-component family
RAILS2 = UPEdgeSet(pattern=frozenset({("spl", j) for j in range(4)}))

# one lane, one splice slot: the free single-ray family
RAIL = PeriodicGraphSpec(
    prefix_vertices=(),
    repeat_vertices=("t",),
    prefix_edges=(),
    window_edges=(),
    splice_edges=(("t", "t", "rail"),),
    apex_edges=(),
    ends=("end0",),
)

# one component, two corridors joined only through the prefix, two rungs per
# window so each corridor is a width-1 pair of rails
CROSS = PeriodicGraphSpec(
    prefix_vertices=("c", "d"),
    repeat_vertices=("t0", "b0", "t1", "b1"),
    prefix_edges=(
        ("c", ("r", "t0"), "link"),
        ("c", ("r", "t1"), "link"),
        ("d", ("r", "b0"), "link"),
        ("d", ("r", "b1"), "link"),
    ),
    window_edges=(("t0", "b0", "rung"), ("t1", "b1", "rung")),
    splice_edges=(
        ("t0", "t0", "rail"),
        ("b0", "b0", "rail"),
        ("t1", "t1", "rail"),
        ("b1", "b1", "rail"),
    ),
    apex_edges=(),
    ends=("end0", "end1"),
)
CROSS_TWO_POINTS = GluingSpec((("end0",), ("end1",)), (0, 1))
CROSS_ONE_POINT = GluingSpec((("end0",), ("end1",)), (0,))
# all four rails plus all four prefix links, no rungs
CROSS_ARCS = UPEdgeSet(
    prefix_present=frozenset({0, 1, 2, 3}),
    pattern=frozenset({("spl", j) for j in range(4)}),
)

# six single-lane rails, hub h{i} linked to rails 2i and 2i+1, and glue points
# w0 = {e0, e5}, w1 = {e1, e2}, w2 = {e3, e4}: each hub joins two points, and
# the three hubs close the points into one circle of three segments
HUBS = PeriodicGraphSpec(
    prefix_vertices=("h0", "h1", "h2"),
    repeat_vertices=tuple(f"r{i}" for i in range(6)),
    prefix_edges=tuple((f"h{i // 2}", ("r", f"r{i}"), "link") for i in range(6)),
    splice_edges=tuple((f"r{i}", f"r{i}", "rail") for i in range(6)),
    ends=tuple(f"e{i}" for i in range(6)),
)
HUBS_GLUE = GluingSpec((("e0", "e5"), ("e1", "e2"), ("e3", "e4")), (0, 1, 2))


def edge_sets(pool, max_p=2):
    """Strategy: edge sets over the given slots with small explicit zones."""

    @st.composite
    def build(draw):
        p = draw(st.integers(0, max_p))
        pattern = frozenset(s for s in pool if draw(st.booleans()))
        explicit = frozenset(
            (kind, j, w)
            for (kind, j) in pool
            for w in range(p)
            if draw(st.booleans())
        )
        return UPEdgeSet(p, frozenset(), explicit, pattern)

    return build()


LADDER_SLOTS = [("spl", 0), ("spl", 1), ("win", 0)]


# ---------------------------------------------------------------------------
# gluing specs


def test_gluing_rejects_duplicate_label():
    with pytest.raises(InputError):
        GluingSpec((("e0",), ("e0",)), ())


def test_gluing_rejects_bad_group_index():
    with pytest.raises(InputError):
        GluingSpec((("e0",),), (1,))


def test_gluing_must_cover_declared_ends():
    with pytest.raises(InputError):
        GluingSpec((("end0",),), (0,)).validate_for(LADDER2)


def test_glue_all_and_no_glue_cover():
    assert glue_all(LADDER2).as_map() == {"end0": "w0", "end1": "w0"}
    assert no_glue(LADDER2).as_map() == {}


def flat_family():
    # a pendant bar plus a spliceless lane: no corridors, so no ends
    return PeriodicGraphSpec(
        prefix_vertices=("a", "b"),
        prefix_edges=(("a", "b", "bar"),),
        repeat_vertices=("x",),
        ends=(),
    )


def test_gluing_on_endless_family():
    assert glue_all(flat_family()).groups == ()


# ---------------------------------------------------------------------------
# edge-set algebra


def test_union_normalizes_zones():
    a = UPEdgeSet(1, frozenset(), frozenset({("win", 0, 0)}), frozenset())
    b = UPEdgeSet(pattern=frozenset({("spl", 0)}))
    u = edge_sets_union(a, b)
    assert u.has("win", 0, 0) and u.has("spl", 0, 0) and u.has("spl", 0, 7)
    assert not u.has("win", 0, 3)


def test_difference_respects_pattern_tail():
    d = edge_sets_difference(RAILS, TOP)
    assert not d.has("spl", 0, 5)
    assert d.has("spl", 1, 5)


def test_intersection_sees_explicit_against_pattern():
    a = UPEdgeSet(2, frozenset(), frozenset({("spl", 0, 1)}), frozenset())
    assert edge_sets_intersect(a, RAILS)
    assert not edge_sets_intersect(a, UPEdgeSet(pattern=frozenset({("spl", 1)})))


# ---------------------------------------------------------------------------
# independence


def test_rails_independent_under_glue_all():
    assert cycle_independent(LADDER, RAILS, GA) == (True, None)


def test_rails_plus_rung_closes_a_circle():
    ok, why = cycle_independent(LADDER, RAILS.with_edge(("win", 0, 0)), GA)
    assert not ok
    assert why["kind"] == "glued-circle"
    assert why["points"] == ["w0"]
    assert why["segments"] == 1


def test_rails_independent_without_gluing():
    assert cycle_independent(LADDER, RAILS, no_glue(LADDER)) == (True, None)
    assert cycle_independent(LADDER, RAILS.with_edge(("win", 0, 0)), no_glue(LADDER))[0]


def test_finite_cycle_reported_first():
    square = COMB.with_edge(("spl", 1, 0)).with_edge(("win", 0, 1))
    ok, why = cycle_independent(LADDER, square, GA)
    assert not ok
    assert why["kind"] == "finite-cycle"


def test_two_point_circle_needs_two_disjoint_arcs():
    ok, why = cycle_independent(CROSS, CROSS_ARCS, CROSS_TWO_POINTS)
    assert not ok
    assert why["kind"] == "glued-circle"
    assert why["points"] == ["w0", "w1"]
    assert why["segments"] == 2


def test_one_glued_point_leaves_arcs_independent():
    assert cycle_independent(CROSS, CROSS_ARCS, CROSS_ONE_POINT) == (True, None)


def test_dropping_one_link_breaks_the_circle():
    broken = CROSS_ARCS.without_edge(("pre", 3))
    assert cycle_independent(CROSS, broken, CROSS_TWO_POINTS) == (True, None)


def test_three_hubs_close_a_three_segment_circle():
    everything = full_edge_set(HUBS)
    ok, why = cycle_independent(HUBS, everything, HUBS_GLUE)
    assert not ok
    assert why == {"kind": "glued-circle", "points": ["w0", "w1", "w2"],
                   "segments": 3, "component": [0, 1, 2]}
    for link in range(6):
        broken = everything.without_edge(("pre", link))
        assert cycle_independent(HUBS, broken, HUBS_GLUE) == (True, None)


# ---------------------------------------------------------------------------
# bases


def test_rails_are_a_base_under_glue_all():
    assert cycle_is_base(LADDER, RAILS, GA) == (True, None)


def test_rails_of_seven_ladders_are_a_base_under_glue_all():
    # fourteen glued rays, one per component: no circle however many rays
    ladders = ladder_family(7)
    rails = UPEdgeSet(pattern=frozenset(("spl", j) for j in range(14)))
    assert cycle_independent(ladders, rails, glue_all(ladders)) == (True, None)
    assert cycle_is_base(ladders, rails, glue_all(ladders)) == (True, None)


def test_comb_is_a_base_under_glue_all():
    assert cycle_is_base(LADDER, COMB, GA) == (True, None)


def test_top_alone_is_extendable():
    ok, why = cycle_is_base(LADDER, TOP, GA)
    assert not ok
    assert why == {"kind": "addable", "edge": ("win", 0, 0)}


def test_base_check_reports_dependence():
    ok, why = cycle_is_base(LADDER, RAILS.with_edge(("win", 0, 0)), GA)
    assert not ok
    assert why["kind"] == "glued-circle"


def test_rails_are_not_a_base_without_gluing():
    ok, why = cycle_is_base(LADDER, RAILS, no_glue(LADDER))
    assert not ok and why["kind"] == "addable"


def test_fin_base_examples():
    assert fin_is_base(LADDER, COMB)[0]
    assert not fin_is_base(LADDER, RAILS)[0]
    assert fin_is_base(LADDER, RAILS.with_edge(("win", 0, 0)))[0]


# ---------------------------------------------------------------------------
# defect


def test_defect_of_the_two_fixture_bases():
    assert defect(LADDER, COMB, GA) == 0
    assert defect(LADDER, RAILS, GA) == 1


def test_defect_rails_on_both_components():
    assert defect(LADDER2, RAILS2, GA2) == 2


def test_defect_of_everything_missing():
    assert defect(LADDER, UPEdgeSet()) is INF


def test_defect_matches_component_counts():
    for s in (RAILS, COMB, TOP, UPEdgeSet(pattern=frozenset({("win", 0)}))):
        mine = defect(LADDER, s)
        a = component_summary(LADDER, s).count
        b = component_summary(LADDER, UPEdgeSet(pattern=frozenset(LADDER_SLOTS))).count
        assert mine == (INF if a is INF else a - b)


def test_extension_length_equals_defect():
    fin = extend_to_fin_base(LADDER, RAILS)
    assert fin_is_base(LADDER, fin)[0]
    assert edge_sets_difference(RAILS, fin).pattern == frozenset()
    added = edge_sets_difference(fin, RAILS)
    assert len(added.prefix_present) + len(added.explicit) + len(added.pattern) == 1


def test_infinite_defect_has_no_extension():
    assert extend_to_fin_base(LADDER, UPEdgeSet()) is None


def test_extension_rejects_cyclic_input():
    with pytest.raises(InputError):
        extend_to_fin_base(LADDER, full_ladder_set())


def full_ladder_set():
    return UPEdgeSet(pattern=frozenset(LADDER_SLOTS))


# ---------------------------------------------------------------------------
# spectra


def test_ladder_spectrum_glue_all():
    rep = spectrum_search(LADDER, GA, (2, 1))
    assert rep.values == (0, 1)
    assert rep.complete


def test_two_ladder_spectrum_adds_componentwise():
    assert spectrum_search(LADDER2, GA2, (2, 1)).values == (0, 1, 2)


def test_spectrum_without_gluing_is_trivial():
    assert spectrum_search(LADDER, no_glue(LADDER), (2, 1)).values == (0,)


def test_bean_spectrum_under_three_gluings():
    assert spectrum_search(BEAN, GAB, (2, 1)).values == (0, 1)
    assert spectrum_search(BEAN, no_glue(BEAN), (2, 1)).values == (0,)
    separate = GluingSpec((("end_top",), ("end_bottom",)), (0, 1))
    assert spectrum_search(BEAN, separate, (2, 1)).values == (0,)


def test_spectrum_witnesses_replay():
    rep = spectrum_search(LADDER, GA, (2, 1))
    for value in rep.values:
        base, fin = rep.witnesses[value]["base"], rep.witnesses[value]["fin_base"]
        assert cycle_is_base(LADDER, base, GA)[0]
        assert fin_is_base(LADDER, fin)[0]
        empty = edge_sets_difference(base, fin)
        assert not (empty.prefix_present or empty.explicit or empty.pattern)
        assert defect(LADDER, base, GA) == value


def test_spectrum_profile_period_two():
    rep = spectrum_search(RAIL, glue_all(RAIL), (1, 2))
    assert rep.values == (0,)
    assert rep.bounds["profile_q"] == 2


def test_spectrum_bound_explosion():
    with pytest.raises(ResourceLimitError):
        spectrum_search(LADDER, GA, (5, 1))


def test_spectrum_rejects_bad_profile():
    with pytest.raises(InputError):
        spectrum_search(LADDER, GA, (-1, 1))
    with pytest.raises(InputError):
        spectrum_search(LADDER, GA, (2, 0))


def test_mk_shifts_pointwise():
    assert mk_spectrum(LADDER, GA, 1).values == (1, 2)
    assert mk_spectrum(LADDER2, GA2, 2).values == (2, 3, 4)
    assert mk_spectrum(LADDER, GA, 0).values == spectrum_search(LADDER, GA).values


def test_mk_witness_is_base_minus_removals():
    rep = mk_spectrum(LADDER, GA, 1)
    w = rep.witnesses[1]
    reduced, removed, fin = w["reduced"], w["removed"], w["fin_base"]
    assert len(removed) == 1
    assert cycle_independent(LADDER, reduced, GA)[0]
    assert fin_is_base(LADDER, fin)[0]


def test_mk_rejects_removals_beyond_a_finite_base():
    flat = flat_family()
    assert mk_spectrum(flat, glue_all(flat), 1).values == (1,)
    with pytest.raises(InputError):
        mk_spectrum(flat, glue_all(flat), 2)


@pytest.mark.parametrize("g", [LADDER, LADDER2, BEAN], ids=["ladder:1", "ladder:2", "bean"])
@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mk_witnesses_replay(g, p, k):
    # every value is the defect of its reduced witness; at prefix 0 a base has
    # no explicit zone, so past the prefix edges the removals come from the
    # pattern windows
    rep = mk_spectrum(g, glue_all(g), k, (p, 1))
    assert rep.values
    for value in rep.values:
        reduced, removed = rep.witnesses[value]["reduced"], rep.witnesses[value]["removed"]
        assert len(removed) == k
        assert defect(g, reduced) == value
        if p == 0 and k > len(g.prefix_edges):
            assert removed[-1][0] != "pre"


# ---------------------------------------------------------------------------
# the hatted system


def test_single_rung_sits_outside_some_base():
    one = UPEdgeSet(1, frozenset(), frozenset({("win", 0, 0)}), frozenset())
    ok, wit = hat_check(LADDER, GA, one)
    assert ok
    base = load_edge_set(wit["base"])
    assert cycle_is_base(LADDER, base, GA)[0]
    assert not edge_sets_intersect(base, one)


def test_two_rungs_do_not_fit():
    two = UPEdgeSet(
        2, frozenset(), frozenset({("win", 0, 0), ("win", 0, 1)}), frozenset()
    )
    assert hat_check(LADDER, GA, two) == (False, None)


def test_empty_set_always_fits():
    assert hat_check(LADDER, GA, UPEdgeSet())[0]


def beside_the_ladder(prefix_vertices, prefix_edges):
    """The one-ladder family with a finite all-prefix piece beside it."""
    return PeriodicGraphSpec(
        prefix_vertices=prefix_vertices,
        repeat_vertices=LADDER.repeat_vertices,
        prefix_edges=prefix_edges,
        window_edges=LADDER.window_edges,
        splice_edges=LADDER.splice_edges,
        ends=LADDER.ends,
    )


def test_parallel_prefix_copy_avoids_a_fixed_edge():
    # a prefix-only piece joined by two parallel copies: a base spans the
    # piece with one copy, and a fixed copy closes a 2-cycle with it
    g = beside_the_ladder(("x", "y"), (("x", "y", "link"), ("x", "y", "link")))
    for fixed in ({0}, {1}, {0, 1}):
        assert hat_check(g, glue_all(g), UPEdgeSet(0, frozenset(fixed)), (1, 1)) == (False, None)
    ok, wit = hat_check(g, glue_all(g), UPEdgeSet(), (1, 1))
    assert ok and wit["raw"].prefix_present == {0}


def test_a_fixed_edge_of_a_prefix_triangle_does_not_fit():
    # the other two triangle edges span x, y, z, and with the fixed edge
    # they close the triangle, a finite cycle
    g = beside_the_ladder(
        ("x", "y", "z"), (("x", "y", "link"), ("y", "z", "link"), ("x", "z", "link"))
    )
    assert hat_check(g, glue_all(g), UPEdgeSet(0, frozenset({0})), (1, 1)) == (False, None)
    ok, wit = hat_check(g, glue_all(g), UPEdgeSet(), (1, 1))
    assert ok and wit["raw"].prefix_present == {0, 1}


# ---------------------------------------------------------------------------
# the engineered exchange failure


def test_hub_family_reproduces_the_failure():
    wit = verify_i3_violation(BEAN)
    stranded = load_edge_set(wit["stranded_independent"])
    blocked = load_edge_set(wit["blocked_difference"])
    ok, _ = cycle_independent(BEAN, stranded, GAB)
    assert ok
    assert not cycle_is_base(BEAN, stranded, GAB)[0]
    assert blocked.pattern or blocked.explicit


def test_ladder_has_no_such_failure():
    with pytest.raises(StructuralMismatchError) as err:
        verify_i3_violation(LADDER)
    assert "sub-claim 5" in str(err.value)


def test_roleless_family_is_rejected():
    with pytest.raises(InputError):
        verify_i3_violation(RAIL)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_bounds_by_glued_ray_count():
    assert nearly_finitary_verdict(LADDER, GA).k == 2
    assert nearly_finitary_verdict(LADDER2, GA2).k == 4
    assert nearly_finitary_verdict(BEAN, GAB).k == 2


def test_verdict_without_gluing_is_finitary():
    rep = nearly_finitary_verdict(LADDER, no_glue(LADDER))
    assert rep.verdict == "yes" and rep.k == 0


def test_verdict_note_when_nothing_is_glued():
    rep = nearly_finitary_verdict(LADDER, no_glue(LADDER))
    assert rep.k == 0
    assert rep.notes == (
        "no end class is glued, so the system equals its finite-cycle system",
    )


# lanes a and b swap at every splice; the engine reads each lane as its own
# corridor of width 0 (the lane-permutation defect of the window sweep), so
# both ends are glued yet no glued corridor carries a ray
SWAP = PeriodicGraphSpec(
    repeat_vertices=("a", "b"),
    splice_edges=(("a", "b", "top"), ("b", "a", "bottom")),
    ends=("e0", "e1"),
)


def test_verdict_note_when_glued_ends_carry_no_ray():
    rep = nearly_finitary_verdict(SWAP, glue_all(SWAP))
    assert rep.k == 0
    assert rep.notes == (
        "the glued end classes carry no ray, so the system equals its "
        "finite-cycle system",
    )


def test_verdict_serializes():
    d = nearly_finitary_verdict(LADDER, GA).to_dict()
    assert d["verdict"] == "yes" and d["k"] == 2 and d["notes"]


# ---------------------------------------------------------------------------
# sampled invariants


@settings(max_examples=40, deadline=None)
@given(edge_sets(LADDER_SLOTS))
def test_gluing_only_shrinks_independence(s):
    glued, _ = cycle_independent(LADDER, s, GA)
    open_, _ = cycle_independent(LADDER, s, no_glue(LADDER))
    if glued:
        assert open_


@settings(max_examples=40, deadline=None)
@given(edge_sets(LADDER_SLOTS))
def test_glued_independents_have_no_finite_cycle(s):
    from matroidlab.periodic import contains_finite_cycle

    if cycle_independent(LADDER, s, GA)[0]:
        assert not contains_finite_cycle(LADDER, s)[0]


@settings(max_examples=30, deadline=None)
@given(edge_sets(LADDER_SLOTS, max_p=1))
def test_defect_identity_on_samples(s):
    full = UPEdgeSet(pattern=frozenset(LADDER_SLOTS))
    a = component_summary(LADDER, s).count
    b = component_summary(LADDER, full).count
    expected = INF if a is INF else a - b
    assert defect(LADDER, s) == expected


@settings(max_examples=25, deadline=None)
@given(edge_sets(LADDER_SLOTS, max_p=1))
def test_base_obstructions_are_truthful(s):
    ok, why = cycle_is_base(LADDER, s, GA)
    if ok:
        for rep in absent_representatives(LADDER, s):
            assert not cycle_independent(LADDER, s.with_edge(rep), GA)[0]
    elif why["kind"] == "addable":
        assert cycle_independent(LADDER, s.with_edge(why["edge"]), GA)[0]
