"""Bases, the I and F screens, union and the nesting check against the
helpers they replaced.

The reference functions below are copies of the code that read a family
three times: a down-closure test (_downward_closed over _missing_subset),
then a maximality probe per (member, element) pair (_maximal with closed),
and a separate closure-witness scan beside the addable loop.  The package
now reads one table per family (core._family_table) and lists a grown
oracle's bases by rank; bases, reports and union families must agree
exactly, on checked and unchecked explicit families, on grown oracles and
their wrappers, and on from_explicit wraps of them.  Closed families
(core.closed_system, and the dual, difference and union of small systems)
are stored as their bases and read no table at all, so every reader of one
must agree with the same family listed member by member.  The nesting check
must name the same first failing mask as the per-set scan, and a nested pair
must list the same base pairs, in the same order, as the scan of every pair.
"""

from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    InputError,
    check_axioms,
    delete,
    dual,
    enumerate_bases,
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
from matroidlab.core import (
    AxiomReport,
    ExplicitSystem,
    OracleMatroid,
    _expand,
    closed_system,
)
from matroidlab.linear import MatrixRep, linear_matroid
from matroidlab.ops import (
    NestedPair,
    _nested_base_pairs,
    ch4_inner,
    ch4_system,
    difference,
    spectrum,
    union,
)
from matroidlab.util import down_closure

from test_axiom_screens import bits, grown_oracles, raw_families

# ---------------------------------------------------------------------------
# reference: the three-pass helpers, kept as they were


def _by_card(masks):
    return sorted(masks, key=lambda s: (s.bit_count(), s))


def _missing_subset(s: int, fam_set) -> int | None:
    """s less its lowest element whose removal leaves fam_set, None if none does."""
    rest = s
    while rest:
        low = rest & -rest
        if s ^ low not in fam_set:
            return s ^ low
        rest ^= low
    return None


def _downward_closed(fam_set) -> bool:
    """Does every member of the set of masks keep all its one-smaller subsets?"""
    return all(_missing_subset(s, fam_set) is None for s in fam_set)


def _maximal(fam: list[int], fam_set, closed: bool) -> list[int]:
    """Inclusion-maximal members of the ascending family fam, ascending."""
    if closed:
        width = max(fam).bit_length() if fam else 0
        return [
            s
            for s in fam
            if not any(not s & (1 << e) and (s | (1 << e)) in fam_set for e in range(width))
        ]
    return [s for s in fam if not any(t != s and t & s == s for t in fam)]


def ref_enumerate_bases(sys_, cap=None):
    fam = family_masks(sys_, cap)
    fam_set = set(fam)
    grown = isinstance(sys_, OracleMatroid) and sys_.grow is not None
    return _maximal(fam, fam_set, grown or _downward_closed(fam_set))


def _first_unextended(members, candidates, addable):
    """The first A in members and B in candidates(A) with no element of B
    extending A, as {"A": A, "B": B}; None when there is none."""
    for a in members:
        x = addable[a]
        for b in candidates(a):
            if b & x == 0:
                return {"A": a, "B": b}
    return None


def ref_check_axioms(sys_, system_id, cap=None):
    """The I and F screens as they were, the closure witness scanned apart."""
    verdicts, witnesses, notes = {}, {}, {}

    def record(axiom, witness):
        verdicts[axiom] = "pass" if witness is None else "fail"
        if witness is not None:
            witnesses[axiom] = witness

    fam = family_masks(sys_, cap)
    fam_set = set(fam)
    by_card = _by_card(fam)
    missing = ((s, _missing_subset(s, fam_set)) for s in by_card)
    closure = next(({"set": s, "missing_subset": m} for s, m in missing if m is not None), None)
    closed = closure is None
    addable = dict.fromkeys(fam, 0)
    for t in fam:
        for e in bits(t):
            if t ^ 1 << e in addable:
                addable[t ^ 1 << e] |= 1 << e
    record(system_id + "1", None if 0 in fam_set else {})
    record(system_id + "2", closure)
    if system_id == "I":
        maximal = {s for s in fam if not addable[s]} if closed else set(_maximal(fam, fam_set, False))
        bases = _by_card(maximal)
        non_maximal = [a for a in by_card if a not in maximal]
        record("I3", _first_unextended(non_maximal, lambda a: bases, addable))
        verdicts["I4"] = "vacuous-pass"
    else:
        cards = [b.bit_count() for b in by_card]

        def larger(a):
            k = a.bit_count()
            return by_card[bisect_right(cards, k) : bisect_right(cards, k + 1) if closed else None]

        record("F3", _first_unextended(by_card, larger, addable))
        record("F4", closure)
    return AxiomReport(system_id, sys_.ground, verdicts, witnesses, notes)


def ref_union(m1, m2, cap=None):
    seen = set(m1.ground.labels)
    labels = m1.ground.labels + tuple(l for l in m2.ground.labels if l not in seen)
    ground = GroundSet(labels)
    map1 = [ground.index(l) for l in m1.ground.labels]
    map2 = [ground.index(l) for l in m2.ground.labels]
    fam1 = sorted(_expand(s, map1) for s in family_masks(m1, cap))
    fam2 = sorted(_expand(s, map2) for s in family_masks(m2, cap))
    set1, set2 = set(fam1), set(fam2)
    if _downward_closed(set1) and _downward_closed(set2):
        bases2 = _maximal(fam2, set2, True)
        tops = {b1 | b2 for b1 in _maximal(fam1, set1, True) for b2 in bases2}
        out = down_closure(_maximal(sorted(tops), tops, False))
    else:
        out = {s1 | s2 for s1 in fam1 for s2 in fam2}
    return ExplicitSystem(ground, frozenset(out))


def ref_first_unnested(inner, outer, cap=None):
    """The first inner-independent mask the outer rejects, by the per-set scan."""
    return next((s for s in family_masks(inner, cap) if not outer.is_independent(s)), None)


# ---------------------------------------------------------------------------
# inputs


@st.composite
def closed_families(draw):
    """Checked explicit families: the downward closure of a few random tops."""
    m = draw(st.integers(0, 6))
    tops = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    return explicit_system(GroundSet.of_size(m), down_closure(tops))


@st.composite
def wrapped_oracles(draw):
    """A grown oracle with its wrappers, then possibly its from_explicit form,
    which carries no grow pair and so takes the table."""
    sys_ = draw(grown_oracles())
    if draw(st.booleans()):
        sys_ = from_explicit(explicit_system(sys_.ground, family_masks(sys_)))
    return sys_


@st.composite
def generated_families(draw):
    """Closed families: the down-closure of random sets on 0 to 6 elements,
    some repeated and some inside others, or the dual, difference or union
    of small systems."""
    kind = draw(st.sampled_from(("tops", "dual", "difference", "union")))
    closed = st.one_of(closed_families(), grown_oracles())
    if kind == "dual":
        return dual(draw(st.one_of(raw_families(), closed_families())))
    if kind == "difference":
        outer = draw(closed)
        return difference(outer, truncate_top(outer, draw(st.integers(0, rank_of(outer)))))
    if kind == "union":
        # a union is stored closed when both inputs are closed
        return union(draw(closed), draw(closed))
    m = draw(st.integers(0, 6))
    full = (1 << m) - 1
    tops = draw(st.lists(st.integers(0, full), max_size=4))
    # repeat some sets and add subsets of others, so some are not maximal
    tops += draw(st.lists(st.sampled_from(tops), max_size=2)) if tops else []
    tops += [t & draw(st.integers(0, full)) for t in tops[: draw(st.integers(0, 2))]]
    return closed_system(GroundSet.of_size(m), tops)


systems = st.one_of(raw_families(), closed_families(), wrapped_oracles(), generated_families())


@st.composite
def same_ground_members(draw, m):
    """A system on GroundSet.of_size(m): a matroid, its dual or truncation, or
    an explicit family, possibly wrapped by from_explicit."""
    kind = draw(st.sampled_from(("uniform", "graphic", "gf2", "explicit")))
    if kind == "uniform":
        sys_ = uniform_matroid(draw(st.integers(0, m)), m)
    elif kind == "graphic":
        ends = st.integers(0, 3)
        sys_ = graphic_matroid(4, draw(st.lists(st.tuples(ends, ends), min_size=m, max_size=m)))
    elif kind == "gf2":
        rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=1, max_size=3))
        labels = GroundSet.of_size(m).labels
        sys_ = linear_matroid(MatrixRep.from_rows("gf2", rows, col_labels=labels))
    else:
        tops = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=3))
        return explicit_system(GroundSet.of_size(m), down_closure(tops))
    op = draw(st.sampled_from(("none", "dual", "truncate", "from_explicit")))
    if op == "dual":
        sys_ = dual(sys_)
    elif op == "truncate":
        sys_ = truncate_top(sys_, draw(st.integers(0, sys_.full_rank)))
    elif op == "from_explicit":
        sys_ = from_explicit(explicit_system(sys_.ground, family_masks(sys_)))
    return sys_


@st.composite
def member_pairs(draw):
    m = draw(st.integers(1, 6))
    return draw(same_ground_members(m)), draw(same_ground_members(m))


# ---------------------------------------------------------------------------
# tests


# the empty ground closed from no set and from a lone empty one, and repeats
EDGE_GENERATORS = [
    closed_system(GroundSet.of_size(0), []),
    closed_system(GroundSet.of_size(0), [0]),
    closed_system(GroundSet.of_size(3), [0, 0]),
]


@settings(max_examples=300, deadline=None)
@given(systems)
@example(EDGE_GENERATORS[0])
@example(EDGE_GENERATORS[1])
@example(EDGE_GENERATORS[2])
def test_bases_and_screens_match_the_three_pass_reference(sys_):
    assert enumerate_bases(sys_) == ref_enumerate_bases(sys_)
    for system_id in "IF":
        got = check_axioms(sys_, system_id)
        want = ref_check_axioms(sys_, system_id)
        assert got.verdicts == want.verdicts
        assert got.witnesses == want.witnesses


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_families(), grown_oracles(), closed_families(), generated_families()))
@example(ch4_inner(3))
def test_every_failing_witness_replays_off_the_kept_bases(sys_):
    # a replay reads maximality off the system's base listing, once per call
    reports = [check_axioms(sys_, system_id) for system_id in "IBF"]
    calls = []

    def spy(s, cap=None, real=core.enumerate_bases):
        calls.append(s)
        return real(s, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "enumerate_bases", spy)
        for report in reports:
            for axiom, witness in report.witnesses.items():
                calls.clear()
                assert replay_witness(sys_, axiom, witness)
                assert len(calls) == 1 and calls[0] is sys_


@settings(max_examples=200, deadline=None)
@given(systems, systems)
def test_union_matches_the_three_pass_reference(m1, m2):
    got, want = union(m1, m2), ref_union(m1, m2)
    assert got.ground == want.ground
    assert got.independents == want.independents


def _listed(sys_):
    """The same family listed member by member."""
    return ExplicitSystem(sys_.ground, sys_.independents)


@settings(max_examples=300, deadline=None)
@given(generated_families())
@example(EDGE_GENERATORS[0])
@example(EDGE_GENERATORS[1])
@example(EDGE_GENERATORS[2])
def test_generators_give_what_the_table_gives(sys_):
    # the family is exactly the down-closure of its bases
    assert sys_.closed and sys_.independents == down_closure(sys_.sets)
    plain = _listed(sys_)
    assert enumerate_bases(sys_) == enumerate_bases(plain)
    for system_id in "IBF":
        got, want = check_axioms(sys_, system_id), check_axioms(plain, system_id)
        assert got.verdicts == want.verdicts
        assert got.witnesses == want.witnesses


@settings(max_examples=200, deadline=None)
@given(generated_families(), systems)
def test_union_of_generated_families_ignores_the_generators(m1, m2):
    got = union(m1, m2)
    assert got.independents == union(_listed(m1), m2).independents
    if got.closed:
        assert got.independents == down_closure(got.sets)


@settings(max_examples=300, deadline=None)
@given(generated_families(), systems, st.data())
@example(EDGE_GENERATORS[0], EDGE_GENERATORS[0], None)
@example(EDGE_GENERATORS[1], EDGE_GENERATORS[1], None)
@example(EDGE_GENERATORS[2], EDGE_GENERATORS[1], None)
def test_a_closed_family_reads_as_its_members_listed(sys_, other, data):
    # every reader of a family stored as its bases answers what the same
    # family listed member by member answers
    listed = _listed(sys_)
    assert sys_.closed and not listed.closed
    assert family_masks(sys_) == family_masks(listed)
    for mask in range(sys_.ground.full_mask + 1):
        assert is_independent(sys_, mask) == is_independent(listed, mask)
        assert rank_of(sys_, mask) == rank_of(listed, mask)
    assert enumerate_bases(sys_) == enumerate_bases(listed)
    assert sys_ == listed and listed == sys_ and hash(sys_) == hash(listed)
    assert (sys_ == other) == (listed == other) == (other == sys_)
    x = sys_.ground.full_mask if data is None else data.draw(st.integers(0, sys_.ground.full_mask))
    assert delete(sys_, x) == delete(listed, x)
    assert dual(sys_) == dual(listed)
    assert union(sys_, other) == union(listed, other)
    free = free_matroid(sys_.size, labels=sys_.ground.labels)
    assert difference(free, sys_) == difference(free, listed)
    for k in range(rank_of(sys_) + 1):
        inner = truncate_top(listed, k)
        assert difference(sys_, inner) == difference(listed, inner)


@settings(max_examples=300, deadline=None)
@given(member_pairs())
def test_nesting_check_names_the_first_failing_mask(members):
    inner, outer = members
    first = ref_first_unnested(inner, outer)
    if first is None:
        pair = NestedPair(inner, outer)
        assert pair.inner_bases == ref_enumerate_bases(inner)
        outer_bases = ref_enumerate_bases(outer)
        pairs = [(b, f) for b in pair.inner_bases for f in outer_bases if b & ~f == 0]
        assert list(_nested_base_pairs(pair)[1]) == pairs
    else:
        with pytest.raises(InputError, match=f"inner-independent mask {first:#x} is"):
            NestedPair(inner, outer)


@pytest.mark.parametrize(
    "outer",
    [
        uniform_matroid(2, 4),
        from_explicit(explicit_system(GroundSet.of_size(4), family_masks(uniform_matroid(2, 4)))),
    ],
    ids=["grown", "from_explicit"],
)
def test_nesting_violation_names_the_least_failing_mask(outer):
    # U(3,4) has 0b0111 as its first set of three; the grown outer finds a
    # failing base and falls back to the scan, the other scans directly
    with pytest.raises(InputError, match="inner-independent mask 0x7 is outer-dependent"):
        NestedPair(uniform_matroid(3, 4), outer)


def test_block_pair_keeps_its_inner_bases():
    pair = ch4_system(4)
    assert pair.inner_bases == ref_enumerate_bases(ch4_inner(4))
    assert spectrum(pair).values == (1, 2, 3, 4)
