"""Core finite-system tests against independent brute-force oracles.

The oracle functions below work directly on frozenset families of frozensets,
never on the package's mask encoding, so agreement is meaningful.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab import (
    ExplicitSystem,
    GroundSet,
    InputError,
    OracleMatroid,
    ResourceLimitError,
    check_axioms,
    contract,
    delete,
    dual,
    enumerate_bases,
    enumerate_circuits,
    explicit_system,
    family_masks,
    free_matroid,
    from_explicit,
    graphic_matroid,
    is_independent,
    rank_of,
    replay_witness,
    truncate_top,
    uniform_matroid,
)
from matroidlab import core
from matroidlab.core import closed_system
from matroidlab.ops import ch4_inner


# ---------------------------------------------------------------------------
# oracles


def powerset(elems):
    elems = list(elems)
    for r in range(len(elems) + 1):
        yield from itertools.combinations(elems, r)


def oracle_family(sys_):
    """Independent sets as a set of frozensets, by brute membership queries."""
    n = sys_.ground.size
    out = set()
    for combo in powerset(range(n)):
        if is_independent(sys_, combo):
            out.add(frozenset(combo))
    return out


def oracle_bases(fam):
    return {s for s in fam if not any(t > s for t in fam)}


def oracle_circuits(fam, n):
    dep = [frozenset(c) for c in powerset(range(n)) if frozenset(c) not in fam]
    return {c for c in dep if all(c - {e} in fam for e in c)}


def oracle_rank(fam, subset):
    subset = frozenset(subset)
    return max((len(s) for s in fam if s <= subset), default=0)


def to_sets(ground, masks):
    return {frozenset(ground.elements(m)) for m in masks}


# ---------------------------------------------------------------------------
# ground set basics


def test_ground_set_roundtrip():
    g = GroundSet.named(["a", "b", "c"])
    assert g.size == 3
    assert g.full_mask == 0b111
    assert g.mask([0, 2]) == 0b101
    assert g.elements(0b101) == (0, 2)
    assert g.names(0b110) == ("b", "c")
    assert g.index("b") == 1
    with pytest.raises(InputError):
        g.index("z")
    with pytest.raises(InputError):
        GroundSet.named(["a", "a"])


# ---------------------------------------------------------------------------
# constructors vs oracles


@pytest.mark.parametrize("r,n", [(0, 0), (0, 3), (2, 4), (3, 3), (1, 5)])
def test_uniform_family_matches_oracle(r, n):
    m = uniform_matroid(r, n)
    fam = to_sets(m.ground, family_masks(m))
    expected = {frozenset(c) for c in powerset(range(n)) if len(c) <= r}
    assert fam == expected
    assert rank_of(m) == r


def test_uniform_bad_rank():
    with pytest.raises(InputError):
        uniform_matroid(4, 3)


def test_free_matroid_everything_independent():
    m = free_matroid(4)
    assert len(family_masks(m)) == 16
    assert enumerate_bases(m) == [0b1111]
    assert enumerate_circuits(m) == []


def test_graphic_triangle():
    # K3: one circuit (all three edges), bases are the three 2-edge paths
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    assert rank_of(m) == 2
    assert to_sets(m.ground, enumerate_circuits(m)) == {frozenset({0, 1, 2})}
    assert to_sets(m.ground, enumerate_bases(m)) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }


def test_graphic_loops_and_parallels():
    # edge 0 is a loop, edges 1 and 2 are parallel
    m = graphic_matroid(2, [(0, 0), (0, 1), (0, 1)])
    assert is_independent(m, [1])
    assert not is_independent(m, [0])
    assert to_sets(m.ground, enumerate_circuits(m)) == {
        frozenset({0}),
        frozenset({1, 2}),
    }


def test_graphic_disconnected_forest_rank():
    # two components: path on {0,1,2} and a single edge {3,4}
    m = graphic_matroid(5, [(0, 1), (1, 2), (3, 4)])
    assert rank_of(m) == 3
    assert enumerate_circuits(m) == []


def test_graphic_rejects_bad_edge():
    with pytest.raises(InputError):
        graphic_matroid(2, [(0, 5)])


# ---------------------------------------------------------------------------
# explicit systems


def test_explicit_system_check_rejects_non_closed():
    g = GroundSet.of_size(2)
    with pytest.raises(InputError):
        explicit_system(g, [[], [0, 1]])
    with pytest.raises(InputError):
        explicit_system(g, [[0]])  # missing empty set


def test_explicit_system_unchecked_allows_holes():
    g = GroundSet.of_size(2)
    s = explicit_system(g, [[], [0, 1]], check=False)
    assert is_independent(s, [0, 1])
    assert not is_independent(s, [0])


def test_from_explicit_rank_agrees():
    g = GroundSet.of_size(4)
    s = explicit_system(g, [c for c in powerset(range(4)) if len(c) <= 2])
    m = from_explicit(s)
    for combo in powerset(range(4)):
        assert rank_of(m, combo) == min(len(combo), 2)


# ---------------------------------------------------------------------------
# family / base / circuit enumeration against oracles


def sample_systems():
    yield uniform_matroid(2, 4)
    yield uniform_matroid(0, 3)
    yield free_matroid(3)
    yield graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    yield graphic_matroid(2, [(0, 0), (0, 1), (0, 1)])
    yield graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    g = GroundSet.of_size(4)
    yield explicit_system(
        g, [[], [0], [1], [2], [3], [0, 1], [2, 3]]
    )  # not a matroid, still a system


@pytest.mark.parametrize("sys_", list(sample_systems()), ids=lambda s: getattr(s, "label", "explicit"))
def test_enumeration_matches_oracle(sys_):
    fam = oracle_family(sys_)
    n = sys_.ground.size
    assert to_sets(sys_.ground, family_masks(sys_)) == fam
    assert to_sets(sys_.ground, enumerate_bases(sys_)) == oracle_bases(fam)
    assert to_sets(sys_.ground, enumerate_circuits(sys_)) == oracle_circuits(fam, n)
    for combo in powerset(range(n)):
        assert rank_of(sys_, combo) == oracle_rank(fam, combo)


def test_family_masks_sorted_and_stable():
    m = uniform_matroid(2, 4)
    fam = family_masks(m)
    assert fam == sorted(fam)
    assert fam == family_masks(m)


def test_sweep_cap_enforced():
    m = uniform_matroid(2, 17)
    with pytest.raises(ResourceLimitError):
        family_masks(m)
    fam = family_masks(m, cap=17)
    assert len(fam) == 1 + 17 + 17 * 16 // 2


# ---------------------------------------------------------------------------
# axiom checking


def test_axioms_pass_on_matroids():
    for m in (uniform_matroid(2, 4), graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])):
        for system_id in ("I", "B", "F"):
            rep = check_axioms(m, system_id)
            assert rep.conformant, (m, system_id, rep.verdicts)
    rep = check_axioms(uniform_matroid(2, 4), "I")
    assert rep.verdicts["I4"] == "vacuous-pass"
    assert "I4" in rep.notes


def test_axioms_unknown_system():
    with pytest.raises(InputError):
        check_axioms(uniform_matroid(1, 2), "Z")


def test_i1_failure_detected():
    g = GroundSet.of_size(2)
    s = ExplicitSystem(g, frozenset({0b01}))
    rep = check_axioms(s, "I")
    assert rep.verdicts["I1"] == "fail"
    assert replay_witness(s, "I1", rep.witnesses["I1"])


def test_i2_failure_detected_with_minimal_witness():
    g = GroundSet.of_size(3)
    s = explicit_system(g, [[], [0, 1], [1, 2], [1]], check=False)
    rep = check_axioms(s, "I")
    assert rep.verdicts["I2"] == "fail"
    w = rep.witnesses["I2"]
    # minimal by cardinality then mask: {0,1} loses subset {0}
    assert w["set"] == 0b011
    assert w["missing_subset"] == 0b001 or w["missing_subset"] == 0b010
    assert replay_witness(s, "I2", w)


def test_i3_failure_detected():
    # {0} is non-maximal (extends to {0,1}) but the base {2,3} cannot extend it
    g = GroundSet.of_size(4)
    s = explicit_system(g, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    rep = check_axioms(s, "I")
    assert rep.verdicts["I3"] == "fail"
    w = rep.witnesses["I3"]
    assert replay_witness(s, "I3", w)
    # the minimal witness pairs a singleton with a base avoiding its additions
    assert w["A"].bit_count() == 1


def test_b2_failure_detected():
    # bases {0,1} and {2,3}: removing 0 from the first cannot be repaired
    g = GroundSet.of_size(4)
    s = explicit_system(g, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    rep = check_axioms(s, "B")
    assert rep.verdicts["B1"] == "pass"
    assert rep.verdicts["B2"] == "fail"
    assert replay_witness(s, "B2", rep.witnesses["B2"])


def test_b1_failure_on_empty_family():
    g = GroundSet.of_size(2)
    s = ExplicitSystem(g, frozenset())
    rep = check_axioms(s, "B")
    assert rep.verdicts["B1"] == "fail"


def test_f3_failure_detected():
    g = GroundSet.of_size(4)
    s = explicit_system(g, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    rep = check_axioms(s, "F")
    assert rep.verdicts["F3"] == "fail"
    assert replay_witness(s, "F3", rep.witnesses["F3"])


def test_replay_rejects_stale_witness():
    g = GroundSet.of_size(4)
    broken = explicit_system(g, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    rep = check_axioms(broken, "I")
    w = rep.witnesses["I3"]
    assert not replay_witness(uniform_matroid(2, 4), "I3", w)


def test_b_witnesses_replay_off_the_bases_alone(monkeypatch):
    # the bases {0..17} and {18, 19} span 2^18 + 3 members, past the sweep
    # cap, but the B screen and its replay read only the stored bases
    s = closed_system(GroundSet.of_size(20), [(1 << 18) - 1, 0b11 << 18])
    rep = check_axioms(s, "B")
    assert rep.verdicts["B2"] == "fail"
    listed, family_masks = [], core.family_masks
    monkeypatch.setattr(
        core, "family_masks", lambda *args: listed.append(args) or family_masks(*args)
    )
    assert replay_witness(s, "B2", rep.witnesses["B2"])
    assert not replay_witness(s, "B1", {})
    assert listed == []


def test_closed_i_witnesses_replay_off_the_bases_alone(monkeypatch):
    # ch4_inner(5) spans 23,003 members; replaying its I-screen witnesses on
    # a fresh copy tests membership against its 5 stored bases, listing none
    rep = check_axioms(ch4_inner(5), "I")
    s = ch4_inner(5)
    built = []
    monkeypatch.setattr(core, "down_closure",
                        lambda tops, real=core.down_closure: built.append(tops) or real(tops))
    assert rep.witnesses
    for axiom, witness in rep.witnesses.items():
        assert replay_witness(s, axiom, witness)
    assert built == []


@pytest.mark.parametrize("axiom", ["I4", "B3", "X9"])
def test_replay_rejects_an_unknown_axiom_before_it_sweeps(axiom):
    # U(3,20) is past the sweep cap, so a listing would raise ResourceLimitError
    with pytest.raises(InputError, match="no replay rule"):
        replay_witness(uniform_matroid(3, 20), axiom, {})


def test_report_serialization_is_sorted():
    g = GroundSet.of_size(4)
    s = explicit_system(g, [[], [0], [1], [2], [3], [0, 1], [2, 3]])
    d = check_axioms(s, "I").to_dict()
    assert list(d["verdicts"]) == sorted(d["verdicts"])
    assert d["conformant"] is False


# ---------------------------------------------------------------------------
# duality and minors


def oracle_dual_family(sys_):
    """Subsets of complements of maximal members."""
    fam = oracle_family(sys_)
    bases = oracle_bases(fam)
    ground = frozenset(range(sys_.ground.size))
    out = set()
    for b in bases:
        co = ground - b
        for sub in powerset(co):
            out.add(frozenset(sub))
    return out


@pytest.mark.parametrize(
    "m",
    [
        uniform_matroid(2, 4),
        graphic_matroid(3, [(0, 1), (1, 2), (0, 2)]),
        graphic_matroid(2, [(0, 0), (0, 1), (0, 1)]),
    ],
    ids=lambda m: m.label,
)
def test_dual_family_matches_cobase_construction(m):
    d = dual(m)
    assert to_sets(d.ground, family_masks(d)) == oracle_dual_family(m)


def test_dual_involution():
    m = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    dd = dual(dual(m))
    assert family_masks(dd) == family_masks(m)


def test_dual_sweep_lists_the_primal_bases_under_the_callers_cap():
    # the dual's grow pair is built at sweep time from the primal's bases,
    # listed under the same cap; a minor of a truncated dual sweeps a smaller
    # ground than the dual, so past the cap it falls back on rank calls
    co = dual(uniform_matroid(1, 17))
    assert co.grow is not None
    with pytest.raises(ResourceLimitError):
        family_masks(co)
    assert len(family_masks(co, cap=17)) == 2**17 - 1
    minor = delete(truncate_top(dual(uniform_matroid(1, 18)), 14), [0])
    assert minor.grow(17) is None
    assert len(family_masks(minor, cap=17)) == 1 + 17 + 136 + 680


def test_dual_grows_over_every_grown_primal():
    # the primal's bases come from the sweep pruned to its rank, which visits
    # only subsets of bases, so a dual grows whatever the primal's rank
    for r in (2, 3, 4, 6):
        co = dual(uniform_matroid(r, 6))
        assert co.grow is not None
        assert family_masks(co) == family_masks(uniform_matroid(6 - r, 6))
    assert dual(free_matroid(16)).grow is not None
    assert family_masks(dual(free_matroid(16))) == [0]


def counted_grow(m):
    """m with each step of its grow pair counted, and the count so far."""
    steps = [0]

    def grow(cap):
        root, step = m.grow(cap)

        def counted(state, j):
            steps[0] += 1
            return step(state, j)

        return root, counted

    return dataclasses.replace(m, grow=grow), steps


def test_base_sweep_visits_only_sets_that_can_reach_the_rank():
    # all bases have the rank's size and a set only gains elements below its
    # lowest, so the free matroid's one base costs a step per element and the
    # greedy rank pass another; sweeping the whole family took 65,535 and
    # 65,534 steps
    for r, most in ((16, 32), (14, 999)):
        m, steps = counted_grow(uniform_matroid(r, 16))
        want = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(16), r))
        assert enumerate_bases(m) == want
        assert steps[0] <= most


def test_family_sweep_never_steps_from_a_base(monkeypatch):
    # a set of rank elements is a base, and no base has an independent
    # child; the state of a uniform oracle's step is the set size
    sweep, states = core._grown_family, []

    def spied(size, root, step, *rest):
        def spy(n, j):
            states.append(n)
            return step(n, j)

        return sweep(size, root, spy, *rest)

    monkeypatch.setattr(core, "_grown_family", spied)
    for r in range(1, 7):
        states.clear()
        want = [s for s in range(1 << 6) if s.bit_count() <= r]
        assert family_masks(uniform_matroid(r, 6)) == want
        assert states and max(states) == r - 1


def test_rank_sweep_tests_no_set_larger_than_the_rank(monkeypatch):
    # on the rank-call path a set with more elements than the rank of the
    # ground is dependent, so it is never tested
    tested = []
    is_independent = OracleMatroid.is_independent

    def spy(self, mask):
        tested.append(mask)
        return is_independent(self, mask)

    monkeypatch.setattr(OracleMatroid, "is_independent", spy)
    blocks = closed_system(GroundSet.of_size(6), [0b000111, 0b011100, 0b110001])
    for m in (dataclasses.replace(uniform_matroid(3, 6), grow=None), from_explicit(blocks)):
        tested.clear()
        fam = family_masks(m)
        assert fam == [s for s in range(1 << 6) if s.bit_count() <= 3 and m.rank(s) == s.bit_count()]
        assert tested and max(s.bit_count() for s in tested) == 3


def test_base_sweep_keeps_the_sweep_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_bases(uniform_matroid(14, 16), cap=8)


def test_rank_zero_bases_are_the_empty_set():
    for m in (uniform_matroid(0, 5), graphic_matroid(2, [(0, 0), (1, 1), (0, 0)])):
        assert m.grow is not None and m.full_rank == 0
        assert enumerate_bases(m) == [0]


def test_minor_of_dual_is_dual_of_primal_minor():
    # (M*)\X == (M/X)* and (M*)/X == (M\X)*: the minor keeps its own,
    # smaller primal, so its sweep never lists the bases of all of M
    m = uniform_matroid(8, 16)
    gone = list(range(12))
    for minor, want in (
        (delete(dual(m), gone), uniform_matroid(4, 4)),
        (contract(dual(m), gone), uniform_matroid(0, 4)),
    ):
        assert minor.primal.size == minor.size == 4
        assert minor.ground.labels == ("e12", "e13", "e14", "e15")
        assert family_masks(minor) == family_masks(want)
        assert family_masks(minor) == family_masks(dataclasses.replace(minor, grow=None))


def test_bases_of_a_rank_swept_non_closed_family_are_maximal():
    # the rank sweep of from_explicit keeps {0} and {0,1,2} but not {0,1},
    # so one-bit extension alone would call {0} maximal
    g = GroundSet.of_size(3)
    wrapped = from_explicit(explicit_system(g, [0, 0b1, 0b100, 0b110, 0b111], check=False))
    assert family_masks(wrapped) == [0, 0b1, 0b100, 0b110, 0b111]
    assert enumerate_bases(wrapped) == [0b111]
    assert check_axioms(wrapped, "B").conformant


def test_dual_of_explicit_uses_cobases():
    g = GroundSet.of_size(3)
    s = explicit_system(g, [[], [0], [1], [0, 1]])
    d = dual(s)
    assert isinstance(d, ExplicitSystem)
    # single base {0,1}, cobase {2}
    assert to_sets(d.ground, family_masks(d)) == {frozenset(), frozenset({2})}


def test_delete_restricts_family():
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    d = delete(m, [2])
    assert d.ground.size == 2
    assert len(family_masks(d)) == 4  # both remaining edges free
    assert rank_of(d) == 2


def test_contract_matches_dual_delete_dual():
    m = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for x in ([0], [4], [1, 3]):
        left = contract(m, x)
        right = dual(delete(dual(m), x))
        assert family_masks(left) == family_masks(right)
        assert left.ground.labels == right.ground.labels


def test_contract_rank_drop():
    m = graphic_matroid(3, [(0, 1), (1, 2), (0, 2)])
    c = contract(m, [0])
    assert rank_of(c) == 1
    # the two remaining edges become parallel
    assert to_sets(c.ground, enumerate_circuits(c)) == {frozenset({0, 1})}


def test_minor_label_bookkeeping():
    m = uniform_matroid(2, 4)
    d = delete(m, [1])
    assert d.ground.labels == ("e0", "e2", "e3")
    c = contract(m, [0, 3])
    assert c.ground.labels == ("e1", "e2")


# ---------------------------------------------------------------------------
# property tests


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    n_edges = draw(st.integers(min_value=0, max_value=7))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(n_edges)
    ]
    return n, edges


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_graphic_matroids_satisfy_all_axioms(g):
    n, edges = g
    m = graphic_matroid(n, edges)
    for system_id in ("I", "B", "F"):
        rep = check_axioms(m, system_id)
        assert rep.conformant, (edges, system_id, rep.verdicts, rep.witnesses)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_dual_rank_identity(g):
    n, edges = g
    m = graphic_matroid(n, edges)
    d = dual(m)
    full = m.ground.full_mask
    for mask in range(full + 1):
        assert d.rank(mask) == mask.bit_count() + m.rank(full ^ mask) - m.rank(full)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.data())
def test_contract_identity_on_random_graphs(g, data):
    n, edges = g
    m = graphic_matroid(n, edges)
    if m.ground.size == 0:
        return
    x = data.draw(st.sets(st.integers(0, m.ground.size - 1)))
    left = contract(m, sorted(x))
    right = dual(delete(dual(m), sorted(x)))
    assert family_masks(left) == family_masks(right)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.data())
def test_explicit_minors_match_oracle_minors(g, data):
    # the explicit branches of delete and contract against the rank-oracle
    # minors of the same graphic matroid, mask for mask
    n, edges = g
    m = graphic_matroid(n, edges)
    e = explicit_system(m.ground, family_masks(m))
    x = data.draw(st.integers(0, m.ground.full_mask))
    for minor in (delete, contract):
        left, right = minor(e, x), minor(m, x)
        assert isinstance(left, ExplicitSystem)
        assert left.ground == right.ground
        assert family_masks(left) == family_masks(right)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), max_size=5), st.integers(0, 31))
def test_deleting_from_generators_keeps_them(tops, x):
    # the deletion of a down-closure is the down-closure of its bases less
    # the deleted set: the same family as filtering every member
    g = GroundSet.of_size(5)
    closed = closed_system(g, tops)
    left, right = delete(closed, x), delete(ExplicitSystem(g, closed.independents), x)
    assert left == right
    assert left.closed and not right.closed
    assert enumerate_bases(left) == enumerate_bases(right)


def test_a_generator_outside_the_ground_is_rejected():
    # a closed family checks the sets it is closed from, not each member
    g = GroundSet.of_size(2)
    with pytest.raises(InputError, match="outside ground"):
        closed_system(g, [0b01, 0b100])
    with pytest.raises(InputError, match="outside ground"):
        ExplicitSystem(g, frozenset({0b100}), closed=True)
    assert closed_system(g, [0b11]).independents == {0, 0b01, 0b10, 0b11}


def test_a_kept_listing_is_handed_out_fresh():
    # family_masks and enumerate_bases keep a system's listing on it; a
    # caller that changes the list it got changes no later answer
    m = graphic_matroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    explicit = explicit_system(GroundSet.of_size(3), [(), (0,), (1,), (0, 1), (2,)])
    for listing, sys_ in itertools.product((family_masks, enumerate_bases), (m, explicit)):
        want = listing(sys_)
        listing(sys_).clear()
        listing(sys_).append(1 << 9)
        assert listing(sys_) == want
    assert explicit.family() == family_masks(explicit)
    assert family_masks(dataclasses.replace(m, grow=None)) == family_masks(m)

