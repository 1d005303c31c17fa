"""The axiom screens and circuit enumeration against a reference copy.

The reference functions below are the direct searches the package used before
its screens learned to skip implied work: every (B1, B2, x, y) exchange is
tested, the closure scan runs twice, and circuits are searched over the whole
powerset.  They run on the rank sweep of each oracle (its grow pair removed),
so the grow pairs of wrapped oracles are checked at the same time.  Verdicts,
witnesses and circuit lists must agree exactly, including on unchecked
explicit families, where I2, I3, B2 and F3 do fail.  The B2 screen is also
held to swaps_check_base_exchange, the per-B1 swap-mask search it replaced,
and family_masks to a test of every subset.
"""

import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matroidlab import (
    GroundSet,
    InputError,
    OracleMatroid,
    check_axioms,
    contract,
    delete,
    dual,
    enumerate_bases,
    enumerate_circuits,
    explicit_system,
    family_masks,
    from_explicit,
    graphic_matroid,
    truncate_top,
    uniform_matroid,
)
from matroidlab import core
from matroidlab.core import AXIOM_SETS, AxiomReport, _check_sweep
from matroidlab.linear import MatrixRep, linear_matroid
from matroidlab.ops import ch4_inner

# ---------------------------------------------------------------------------
# reference: the direct searches, kept as they were


def bits(mask):
    """The set bit positions of mask, ascending, read off its binary digits."""
    return [i for i, digit in enumerate(reversed(bin(mask))) if digit == "1"]


def ref_enumerate_circuits(sys_, cap=None):
    """Minimal dependent sets, ascending masks. Loops are singleton circuits."""
    _check_sweep(sys_.ground.size, cap)
    fam_set = set(family_masks(sys_, cap))
    full = sys_.ground.full_mask
    out = []
    for mask in range(full + 1):
        if mask in fam_set or mask == 0:
            continue
        if all((mask ^ (1 << e)) in fam_set for e in bits(mask)):
            out.append(mask)
    return out


def _by_card(masks):
    return sorted(masks, key=lambda s: (s.bit_count(), s))


def ref_check_axioms(sys_, system_id="I", cap=None):
    """Check one axiom system (I, B, or F) exhaustively on a finite ground set."""
    if system_id not in AXIOM_SETS:
        raise InputError(f"unknown axiom system {system_id!r}; expected I, B, or F")
    fam = family_masks(sys_, cap)
    fam_set = set(fam)
    ground = sys_.ground
    m = ground.size
    verdicts: dict[str, str] = {}
    witnesses: dict[str, dict] = {}
    notes: dict[str, str] = {}

    def downward_witness():
        for s in _by_card(fam):
            for e in bits(s):
                if s ^ (1 << e) not in fam_set:
                    return s, s ^ (1 << e)
        return None

    bases = [s for s in fam if not any(t != s and t & s == s for t in fam)]
    bases_set = set(bases)
    addable: dict[int, int] = {}
    for s in fam:
        a = 0
        for e in range(m):
            b = 1 << e
            if not s & b and (s | b) in fam_set:
                a |= b
        addable[s] = a

    if system_id == "I":
        verdicts["I1"] = "pass" if 0 in fam_set else "fail"
        if verdicts["I1"] == "fail":
            witnesses["I1"] = {}
        dw = downward_witness()
        verdicts["I2"] = "pass" if dw is None else "fail"
        if dw:
            witnesses["I2"] = {"set": dw[0], "missing_subset": dw[1]}
        verdicts["I3"], w3 = _check_i3(fam, addable, bases_set)
        if w3:
            witnesses["I3"] = w3
        verdicts["I4"] = "vacuous-pass"
        notes["I4"] = (
            "every nonempty finite family has a maximal member; the candidate set "
            "always contains A, so the axiom cannot fail on a finite ground set"
        )
    elif system_id == "B":
        verdicts["B1"] = "pass" if bases else "fail"
        if not bases:
            witnesses["B1"] = {}
        verdicts["B2"], w2 = _check_base_exchange(bases)
        if w2:
            witnesses["B2"] = w2
        verdicts["B3"] = "vacuous-pass"
        notes["B3"] = "subsets of maximal members form a finite family; see I4 note"
    else:
        verdicts["F1"] = "pass" if 0 in fam_set else "fail"
        if verdicts["F1"] == "fail":
            witnesses["F1"] = {}
        dw = downward_witness()
        verdicts["F2"] = "pass" if dw is None else "fail"
        if dw:
            witnesses["F2"] = {"set": dw[0], "missing_subset": dw[1]}
        verdicts["F3"], w3 = _check_augmentation(fam, fam_set)
        if w3:
            witnesses["F3"] = w3
        # on a finite ground every subset is finite and contains itself, so the
        # backward direction is automatic and F4 reduces to downward closure
        verdicts["F4"] = "pass" if dw is None else "fail"
        if dw:
            witnesses["F4"] = {"set": dw[0], "missing_subset": dw[1]}
        notes["F4"] = "finite ground: equivalent to downward closure"

    return AxiomReport(system_id, ground, verdicts, witnesses, notes)


def _check_i3(fam, addable, bases_set):
    """Maximality augmentation: non-maximal A, maximal B, some b in B-A extends A.

    A violating pair is one where no element of B extends A, i.e. B avoids A's
    addable mask entirely (addable never meets A, so B & X == 0 is the test).
    """
    base_by_card = _by_card(bases_set)
    for a in _by_card(fam):
        if a in bases_set:
            continue
        x = addable[a]
        for b in base_by_card:
            if b & x == 0:
                return "fail", {"A": a, "B": b}
    return "pass", None


def _check_base_exchange(bases):
    bases_set = set(bases)
    for b1 in _by_card(bases):
        for b2 in _by_card(bases):
            if b1 == b2:
                continue
            for x in bits(b1 & ~b2):
                ok = False
                for y in bits(b2 & ~b1):
                    if (b1 ^ (1 << x)) | (1 << y) in bases_set:
                        ok = True
                        break
                if not ok:
                    return "fail", {"B1": b1, "B2": b2, "x": 1 << x}
    return "pass", None


def swaps_check_base_exchange(bases) -> dict | None:
    """B2: for bases B1 != B2 and x in B1 - B2, some y in B2 - B1 makes
    B1 - x + y a base.  Per B1, swaps pairs each x (ascending, as a bit) with
    the mask of y for which B1 - x + y is a base, so each (B1, B2, x) test is
    one AND and the first failure is the one a direct search finds first."""
    bases_set = set(bases)
    span = 0
    for b in bases:
        span |= b
    ordered = _by_card(bases)
    for b1 in ordered:
        swaps = []
        for x in bits(b1):
            rest = b1 ^ 1 << x
            ys = sum(1 << y for y in bits(span & ~b1) if rest | 1 << y in bases_set)
            swaps.append((1 << x, ys))
        for b2 in ordered:
            if b1 == b2:
                continue
            fresh = b2 & ~b1
            for x, ys in swaps:
                if x & ~b2 and not ys & fresh:
                    return {"B1": b1, "B2": b2, "x": x}
    return None


def _check_augmentation(fam, fam_set):
    by_card = _by_card(fam)
    for a in by_card:
        ca = a.bit_count()
        for b in by_card:
            if b.bit_count() <= ca:
                continue
            if not any((a | (1 << e)) in fam_set for e in bits(b & ~a)):
                return "fail", {"A": a, "B": b}
    return "pass", None


# ---------------------------------------------------------------------------
# inputs


@st.composite
def raw_families(draw):
    """Unchecked explicit families: downward closures of a few random tops,
    then with random members dropped and added, so any axiom may fail."""
    m = draw(st.integers(0, 6))
    full = (1 << m) - 1
    tops = draw(st.lists(st.integers(0, full), max_size=4))
    fam = {s for t in tops for s in range(full + 1) if s & t == s}
    fam -= set(draw(st.lists(st.integers(0, full), max_size=3)))
    fam |= set(draw(st.lists(st.integers(0, full), max_size=2)))
    return explicit_system(GroundSet.of_size(m), fam, check=False)


@st.composite
def grown_oracles(draw):
    """A uniform, graphic or linear oracle, then up to three wrappers."""
    m = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("uniform", "graphic", "gf2", "q")))
    if kind == "uniform":
        sys_ = uniform_matroid(draw(st.integers(0, m)), m)
    elif kind == "graphic":
        ends = st.integers(0, 3)
        edges = draw(st.lists(st.tuples(ends, ends), min_size=m, max_size=m))
        sys_ = graphic_matroid(4, edges)
    else:
        entry = st.integers(0, 1) if kind == "gf2" else st.sampled_from((0, 1, -1, 2, "1/2"))
        rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=3))
        sys_ = linear_matroid(MatrixRep.from_rows(kind, rows))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("dual", "delete", "contract", "truncate")))
        full = sys_.ground.full_mask
        if op == "dual":
            sys_ = dual(sys_)
        elif op == "truncate":
            sys_ = truncate_top(sys_, draw(st.integers(0, sys_.full_rank)))
        elif sys_.size > 1:
            x = draw(st.integers(0, full - 1))  # keeps at least one element
            sys_ = delete(sys_, x) if op == "delete" else contract(sys_, x)
    return sys_


# ---------------------------------------------------------------------------
# tests


def assert_same_screens(sys_, ref):
    for system_id in "IBF":
        got = check_axioms(sys_, system_id)
        want = ref_check_axioms(ref, system_id)
        assert got.verdicts == want.verdicts
        assert got.witnesses == want.witnesses
        assert got.to_dict() == want.to_dict()
    assert enumerate_circuits(sys_) == ref_enumerate_circuits(ref)


@settings(max_examples=300, deadline=None)
@given(raw_families())
# F3's first witness is A = {} and B = {1, 2, 3}: no member has two elements,
# so the scan must read past the members one larger than A
@example(explicit_system(GroundSet.of_size(4), [0, 0b1, 0b1110], check=False))
def test_screens_match_reference_on_unchecked_families(sys_):
    assert_same_screens(sys_, sys_)


@settings(max_examples=200, deadline=None)
@given(grown_oracles())
def test_screens_match_reference_on_grown_oracles(sys_):
    rank_swept = dataclasses.replace(sys_, grow=None)
    assert family_masks(sys_) == family_masks(rank_swept)
    assert_same_screens(sys_, rank_swept)


@settings(max_examples=150, deadline=None)
@given(raw_families())
def test_dual_of_wrapped_family_keeps_the_rank_identity(sys_):
    """from_explicit may wrap a non-matroid, so it has no grow pair, and
    neither does its dual: both take the rank sweep of the rank identity."""
    closed = explicit_system(sys_.ground, {s for t in sys_.independents | {0} for s in _subsets(t)})
    wrapped = from_explicit(closed)
    co = dual(wrapped)
    assert wrapped.grow is None and co.grow is None
    full = closed.ground.full_mask
    r = wrapped.rank(full)
    identity = OracleMatroid(
        closed.ground, lambda s: s.bit_count() + wrapped.rank(full ^ s) - r, label="identity"
    )
    assert family_masks(co) == family_masks(identity)
    assert_same_screens(co, identity)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_screens_match_reference_on_block_systems(r):
    """The block systems are closed but fail F3 only after many members, so
    the screen's one-larger rule for closed families meets a late witness."""
    blocks = ch4_inner(r)
    assert_same_screens(blocks, blocks)
    wrapped = from_explicit(blocks)
    assert_same_screens(wrapped, wrapped)


def test_i_and_f_screens_share_one_scan(monkeypatch):
    seen = []

    def spy(*args, real=core._first_unaugmented):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_first_unaugmented", spy)
    blocks = ch4_inner(3)
    assert check_axioms(blocks, "I").verdicts["I3"] == "fail"
    assert check_axioms(blocks, "F").verdicts["F3"] == "fail"
    assert len(seen) == 2


def test_every_minor_of_small_matroids_grows_exactly():
    """Contraction must skip the dependent elements of X, not stop at them:
    every X of small matroids full of loops, parallels and dependent columns."""
    graph = graphic_matroid(3, [(0, 0), (0, 1), (0, 1), (1, 2), (0, 2), (2, 2)])
    columns = linear_matroid(
        MatrixRep.from_rows("q", [[0, 1, 2, 0, 1, 1], [0, 0, 0, 1, 1, -1]])
    )
    for sys_ in (graph, columns, dual(graph), truncate_top(columns, 1)):
        for x in range(sys_.ground.full_mask + 1):
            for minor in (delete(sys_, x), contract(sys_, x), dual(contract(sys_, x))):
                rank_swept = dataclasses.replace(minor, grow=None)
                assert family_masks(minor) == family_masks(rank_swept)


def _subsets(t):
    return [s for s in range(t + 1) if s & t == s]


def every_independent(sys_):
    return [m for m in range(sys_.ground.full_mask + 1) if sys_.is_independent(m)]


@settings(max_examples=200, deadline=None)
@given(grown_oracles())
def test_family_sweeps_match_a_test_of_every_subset(sys_):
    # both sweeps stop at the rank, so each is held to a reference that
    # stops nowhere
    want = every_independent(sys_)
    assert family_masks(sys_) == want
    assert family_masks(dataclasses.replace(sys_, grow=None)) == want


@settings(max_examples=200, deadline=None)
@given(raw_families())
def test_wrapped_family_sweeps_match_a_test_of_every_subset(sys_):
    # a closed family's rank sweep lists every independent subset; an
    # unchecked one's lists those it reaches, each S from S less its lowest
    # element, from the empty set on
    closed = explicit_system(sys_.ground, {s for t in sys_.independents | {0} for s in _subsets(t)})
    wrapped = from_explicit(closed)
    assert family_masks(wrapped) == every_independent(wrapped) == closed.family()
    raw = from_explicit(sys_)
    reached = set()
    for m in every_independent(raw):
        if m == 0 or m & (m - 1) in reached:
            reached.add(m)
    assert family_masks(raw) == sorted(reached)


masks_of_mixed_sizes = st.integers(1, 7).flatmap(
    lambda m: st.lists(st.integers(0, (1 << m) - 1), unique=True, max_size=24).map(sorted)
)


@settings(max_examples=400, deadline=None)
@given(masks_of_mixed_sizes)
def test_base_exchange_matches_the_swap_search(bases):
    assert core._check_base_exchange(bases) == swaps_check_base_exchange(bases)


@settings(max_examples=200, deadline=None)
@given(raw_families())
def test_base_exchange_failures_match_the_swap_search(sys_):
    # a new element e alone in one member makes {e} a base beside the rest,
    # so B2 fails whenever another base has two elements
    m = sys_.size
    sys_ = explicit_system(GroundSet.of_size(m + 1), sys_.sets | {1 << m}, check=False)
    bases = enumerate_bases(sys_)
    want = swaps_check_base_exchange(bases)
    assume(want is not None)
    assert core._check_base_exchange(bases) == want
    assert check_axioms(sys_, "B").witnesses["B2"] == want
