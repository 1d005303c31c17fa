"""Operator tests with brute-force oracles computed over frozenset families."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    InputError,
    check_axioms,
    enumerate_bases,
    explicit_system,
    family_masks,
    free_matroid,
    graphic_matroid,
    is_independent,
    rank_of,
    replay_witness,
    uniform_matroid,
)
from matroidlab.ops import (
    NestedPair,
    ch4_blocks,
    ch4_i3_witness,
    ch4_system,
    check_unionable,
    difference,
    smin_enumerate,
    spectrum,
    truncate_top,
    union,
    verify_difference_duality,
)


def powerset(elems):
    elems = list(elems)
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def family_sets(sys_):
    return {frozenset(sys_.ground.elements(m)) for m in family_masks(sys_)}


def base_sets(sys_):
    return {frozenset(sys_.ground.elements(m)) for m in enumerate_bases(sys_)}


# ---------------------------------------------------------------------------
# union


def test_union_same_ground_uniform():
    g = ("a", "b")
    m = uniform_matroid(1, 2, labels=g)
    u = union(m, m)
    # two rank-1 pickers on two shared elements give the free system
    assert family_sets(u) == {frozenset(s) for s in powerset(range(2))}


def test_union_with_rank_zero_is_identity():
    m = uniform_matroid(2, 4)
    z = uniform_matroid(0, 4, labels=m.ground.labels)
    u = union(m, z)
    assert family_sets(u) == family_sets(m)


def test_union_disjoint_grounds_direct_sum():
    m1 = uniform_matroid(1, 2, labels=("a", "b"))
    m2 = uniform_matroid(1, 2, labels=("c", "d"))
    u = union(m1, m2)
    assert u.ground.labels == ("a", "b", "c", "d")
    oracle = set()
    for s1 in powerset(range(2)):
        for s2 in powerset(range(2, 4)):
            if len(s1) <= 1 and len(s2) - 0 <= 1:
                oracle.add(frozenset(s1) | frozenset(s2))
    assert family_sets(u) == oracle


def test_union_overlapping_grounds_by_label():
    m1 = uniform_matroid(1, 2, labels=("a", "b"))
    m2 = uniform_matroid(1, 2, labels=("b", "c"))
    u = union(m1, m2)
    assert u.ground.labels == ("a", "b", "c")
    # {a, b} arises as {a} from m1 and {b} from m2
    assert is_independent(u, [0, 1])
    # {a, b, c} needs three picks from two rank-1 systems
    assert not is_independent(u, [0, 1, 2])


def test_union_matches_pairwise_oracle():
    def named_family(sys_):
        return {frozenset(sys_.ground.names(m)) for m in family_masks(sys_)}

    m1 = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    # downward closed, not matroids: subsets of {0, 1} or of {2}, on grounds
    # a b c and c d e; the union {c, d} of maximal members lies in {a, b, c, d}
    closed = [s for s in powerset(range(3)) if set(s) <= {0, 1} or set(s) <= {2}]
    pairs = [
        (m1, uniform_matroid(1, 3, labels=m1.ground.labels)),
        (explicit_system(GroundSet.named("abc"), closed), explicit_system(GroundSet.named("cde"), closed)),
    ]
    for m1, m2 in pairs:
        f1 = named_family(m1)
        f2 = named_family(m2)
        assert named_family(union(m1, m2)) == {s1 | s2 for s1 in f1 for s2 in f2}


def test_union_absorption_regains_full_ground():
    # a truncated free system plus any system holding a singleton spans again
    free5 = free_matroid(5)
    once = truncate_top(free5, 1)
    singles = uniform_matroid(1, 5, labels=free5.ground.labels)
    u = union(once, singles)
    assert is_independent(u, list(range(5)))
    assert family_sets(u) == {frozenset(s) for s in powerset(range(5))}


def test_check_unionable_matroids_pass():
    m1 = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    m2 = uniform_matroid(1, 3, labels=("x", "y", "z"))
    rep = check_unionable(m1, m2)
    assert rep.conformant
    rep2 = check_unionable(uniform_matroid(1, 3), uniform_matroid(1, 3))
    assert rep2.conformant


def test_check_unionable_records_nonmatroid_verdict():
    # premise unmet: verdict is recorded, whatever it is
    g = GroundSet.named(["1", "2", "3"])
    bad = explicit_system(g, [[], [0], [1], [2], [1, 2]])
    rep = check_unionable(bad, uniform_matroid(0, 3, labels=g.labels))
    assert rep.verdicts["I3"] in ("pass", "fail")


# ---------------------------------------------------------------------------
# truncation


def test_truncate_free_by_one():
    m = truncate_top(free_matroid(3), 1)
    assert family_sets(m) == {frozenset(s) for s in powerset(range(3)) if len(s) <= 2}


def test_truncate_uniform():
    m = truncate_top(uniform_matroid(2, 4), 1)
    assert family_sets(m) == {frozenset(s) for s in powerset(range(4)) if len(s) <= 1}


def test_truncate_zero_is_identity():
    m = uniform_matroid(2, 4)
    assert family_sets(truncate_top(m, 0)) == family_sets(m)


def test_truncate_rank_drop_and_conformance():
    m = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    t = truncate_top(m, 2)
    assert rank_of(t) == rank_of(m) - 2
    assert check_axioms(t, "I").conformant
    assert check_axioms(t, "B").conformant


def test_truncate_composes():
    m = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    lhs = truncate_top(truncate_top(m, 1), 1)
    rhs = truncate_top(m, 2)
    assert family_masks(lhs) == family_masks(rhs)


def test_truncate_beyond_rank_rejected():
    with pytest.raises(InputError):
        truncate_top(uniform_matroid(2, 4), 3)
    with pytest.raises(InputError):
        truncate_top(uniform_matroid(2, 4), -1)


def test_truncate_explicit_matches_oracle_form():
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    explicit = explicit_system(m.ground, family_masks(m))
    assert family_sets(truncate_top(explicit, 1)) == family_sets(truncate_top(m, 1))


# ---------------------------------------------------------------------------
# nested pairs, difference, duality


def test_nested_pair_validates():
    inner = uniform_matroid(1, 3)
    outer = uniform_matroid(2, 3, labels=inner.ground.labels)
    NestedPair(inner, outer)
    with pytest.raises(InputError):
        NestedPair(outer, inner)
    with pytest.raises(InputError):
        NestedPair(inner, uniform_matroid(2, 3, labels=("x", "y", "z")))


def test_difference_uniform_in_free():
    d = difference(free_matroid(3), uniform_matroid(1, 3, labels=("e0", "e1", "e2")))
    assert family_sets(d) == {frozenset()} | {frozenset({i}) for i in range(3)} | {
        frozenset(p) for p in itertools.combinations(range(3), 2)
    }


def test_difference_self_is_trivial():
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    d = difference(m, m)
    assert family_sets(d) == {frozenset()}


def test_difference_free_over_rank_zero():
    d = difference(free_matroid(2), uniform_matroid(0, 2, labels=("e0", "e1")))
    assert family_sets(d) == {frozenset(s) for s in powerset(range(2))}


def test_difference_downward_closed():
    outer = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    inner = truncate_top(outer, 1)
    d = difference(outer, inner)
    fam = family_sets(d)
    assert frozenset() in fam
    for s in fam:
        for e in s:
            assert s - {e} in fam


def test_difference_duality_uniform():
    outer = uniform_matroid(2, 3)
    inner = uniform_matroid(1, 3, labels=outer.ground.labels)
    ok, witness = verify_difference_duality(outer, inner)
    assert ok and witness is None


def test_difference_duality_self():
    m = uniform_matroid(2, 4)
    ok, _ = verify_difference_duality(m, m)
    assert ok


def test_difference_duality_free_over_uniform():
    outer = free_matroid(4)
    inner = uniform_matroid(2, 4, labels=outer.ground.labels)
    ok, _ = verify_difference_duality(outer, inner)
    assert ok


@st.composite
def nested_matroid_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    n_edges = draw(st.integers(min_value=1, max_value=6))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(n_edges)
    ]
    outer = graphic_matroid(n, edges)
    k = draw(st.integers(min_value=0, max_value=rank_of(outer)))
    return NestedPair(truncate_top(outer, k), outer)


@settings(max_examples=40, deadline=None)
@given(nested_matroid_pairs())
def test_difference_duality_on_random_nested_pairs(pair):
    ok, witness = verify_difference_duality(pair.outer, pair.inner)
    assert ok, witness


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_uniform_in_free():
    pair = NestedPair(uniform_matroid(1, 3), free_matroid(3))
    rep = spectrum(pair)
    assert rep.values == (2,)
    w = rep.witnesses[2]
    assert len(w["base"]) == 1 and len(w["outer_base"]) == 3


def test_spectrum_witness_is_the_first_pair_in_inner_base_order():
    # inner bases {a} < {b}, outer bases {b, c} < {a, d}: both nested pairs
    # have value 1, and the witness is the pair of the first inner base
    ground = GroundSet(("a", "b", "c", "d"))
    inner = explicit_system(ground, [(), (0,), (1,)])
    outer = explicit_system(ground, [(), (0,), (1,), (2,), (3,), (1, 2), (0, 3)])
    rep = spectrum(NestedPair(inner, outer))
    assert rep.values == (1,)
    assert rep.witnesses[1] == {"base": ["a"], "outer_base": ["a", "d"]}


def test_spectrum_self_pair():
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    assert spectrum(NestedPair(m, m)).values == (0,)


def test_spectrum_matroid_pair_is_singleton_rank_gap():
    outer = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    inner = truncate_top(outer, 2)
    rep = spectrum(NestedPair(inner, outer))
    assert rep.values == (2,)


@settings(max_examples=40, deadline=None)
@given(nested_matroid_pairs())
def test_spectrum_singleton_on_matroid_pairs(pair):
    rep = spectrum(pair)
    assert rep.values == (rank_of(pair.outer) - rank_of(pair.inner),)


@settings(max_examples=30, deadline=None)
@given(nested_matroid_pairs())
def test_fixed_base_gap_constant(pair):
    # for a fixed inner base, every outer base above it strips the same count
    inner_bases = enumerate_bases(pair.inner)
    outer_bases = enumerate_bases(pair.outer)
    for b in inner_bases:
        gaps = {(f & ~b).bit_count() for f in outer_bases if b & ~f == 0}
        assert len(gaps) <= 1
    for f in outer_bases:
        gaps = {(f & ~b).bit_count() for b in inner_bases if b & ~f == 0}
        assert len(gaps) <= 1


def test_spectrum_disjoint_additivity():
    in1 = uniform_matroid(1, 3, labels=("a1", "a2", "a3"))
    out1 = uniform_matroid(3, 3, labels=("a1", "a2", "a3"))
    in2 = uniform_matroid(0, 2, labels=("b1", "b2"))
    out2 = uniform_matroid(1, 2, labels=("b1", "b2"))
    joint = NestedPair(union(in1, in2), union(out1, out2))
    s1 = spectrum(NestedPair(in1, out1)).values
    s2 = spectrum(NestedPair(in2, out2)).values
    expected = sorted({a + b for a in s1 for b in s2})
    assert list(spectrum(joint).values) == expected


def test_spectrum_report_serializes():
    pair = ch4_system(2)
    d = spectrum(pair).to_dict()
    assert d["values"] == [1, 2]
    assert set(d["witnesses"]) == {"1", "2"}
    assert d["complete_within_bounds"] is True


# ---------------------------------------------------------------------------
# smin


def test_smin_uniform_in_free():
    pair = NestedPair(uniform_matroid(1, 3), free_matroid(3))
    mins = smin_enumerate(pair)
    assert [pair.ground.names(m) for m in mins] == [("e0",), ("e1",), ("e2",)]


def test_smin_self_pair_is_full_ground():
    m = uniform_matroid(2, 4)
    pair = NestedPair(m, m)
    assert smin_enumerate(pair) == [m.ground.full_mask]


def test_smin_ch4_r2():
    pair = ch4_system(2)
    mins = smin_enumerate(pair)
    assert {pair.ground.names(m) for m in mins} == {("1",), ("2", "3")}


def test_smin_nonempty_on_matroid_pairs():
    outer = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for k in range(rank_of(outer) + 1):
        pair = NestedPair(truncate_top(outer, k), outer)
        assert smin_enumerate(pair)


# ---------------------------------------------------------------------------
# block counterexample


def test_ch4_blocks_layout():
    assert ch4_blocks(3) == [(0,), (1, 2), (3, 4, 5)]
    with pytest.raises(InputError):
        ch4_blocks(0)


def test_ch4_r1():
    pair = ch4_system(1)
    assert pair.ground.labels == ("1",)
    assert family_sets(pair.inner) == {frozenset()}
    assert spectrum(pair).values == (1,)


def test_ch4_r2_structure():
    pair = ch4_system(2)
    assert base_sets(pair.inner) == {frozenset({1, 2}), frozenset({0})}
    assert spectrum(pair).values == (1, 2)


def test_ch4_r3_spectrum_and_independents():
    pair = ch4_system(3)
    assert spectrum(pair).values == (1, 2, 3)
    # inner-independent iff some block is completely avoided
    blocks = [set(b) for b in ch4_blocks(3)]
    for s in powerset(range(6)):
        expected = any(not (set(s) & b) for b in blocks)
        assert is_independent(pair.inner, s) == expected


def test_ch4_inner_fails_i3_for_r2_and_r3():
    for r in (2, 3):
        rep = check_axioms(ch4_system(r).inner, "I")
        assert rep.verdicts["I3"] == "fail"
        assert rep.verdicts["I1"] == "pass"
        assert rep.verdicts["I2"] == "pass"


def test_ch4_i3_witness_replays():
    for r in (2, 3, 4):
        pair = ch4_system(r)
        w = ch4_i3_witness(r)
        assert replay_witness(pair.inner, "I3", w)
    with pytest.raises(InputError):
        ch4_i3_witness(1)


def test_ch4_i3_witness_has_canonical_block_shape():
    pair = ch4_system(3)
    w = ch4_i3_witness(3)
    assert pair.ground.names(w["A"]) == ("3", "4", "5", "6")
    assert pair.ground.names(w["B"]) == ("1", "4", "5", "6")


def test_ch4_minimal_witness_from_checker():
    rep = check_axioms(ch4_system(3).inner, "I")
    w = rep.witnesses["I3"]
    assert rep.ground.names(w["A"]) == ("1", "2")
    assert rep.ground.names(w["B"]) == ("1", "4", "5", "6")
