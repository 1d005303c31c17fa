"""Linear algebra kernels and matrix matroids, checked against brute force."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from matroidlab import (
    InputError,
    OracleMatroid,
    ResourceLimitError,
    check_axioms,
    contract,
    delete,
    dual,
    enumerate_bases,
    enumerate_circuits,
    family_masks,
    graphic_matroid,
    is_independent,
    rank_of,
    truncate_top,
    uniform_matroid,
)
from matroidlab.linear import (
    GF2,
    Q,
    MatrixRep,
    PeriodicMatrixSpec,
    gf2_rank,
    incidence_matrix,
    linear_matroid,
    materialize,
    matrix_rank,
    nearly_thin_count,
    q_rank,
    span_maximality_check,
    verify_thinAC_equiv,
)


def circuits_as_sets(m):
    return {frozenset(m.ground.elements(c)) for c in enumerate_circuits(m)}


# ---------------------------------------------------------------------------
# rank kernels


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0b011, 0b101, 0b110]) == 2  # third is the xor of the first two
    assert gf2_rank([0, 0]) == 0


def test_q_rank_basics():
    assert q_rank([]) == 0
    assert q_rank([(1, 0), (0, 1)]) == 2
    assert q_rank([(1, 2), (2, 4)]) == 1
    assert q_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1  # proportional
    assert q_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 1)]) == 2


def test_q_rank_exactness():
    # a pair that floating point would misjudge: rows differ by 1e-30-ish scale
    huge = Fraction(10) ** 30
    assert q_rank([(1, 1), (1, 1 + Fraction(1, huge))]) == 2


def random_gf2_matrix(rng, n_rows, n_cols):
    return [[rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)]


def test_kernels_agree_on_01_matrices_where_field_allows():
    # over GF(2) vs Q ranks differ in general, but identity blocks agree
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(MatrixRep.from_rows(GF2, m)) == 3
    assert matrix_rank(MatrixRep.from_rows(Q, m)) == 3


def test_field_validation():
    with pytest.raises(InputError):
        MatrixRep.from_rows("gf3", [[1]])
    with pytest.raises(InputError):
        MatrixRep.from_rows(GF2, [[1, 0], [1]])


# ---------------------------------------------------------------------------
# linear matroids


def test_identity_gives_free():
    m = linear_matroid(MatrixRep.from_rows(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert len(family_masks(m)) == 8
    assert rank_of(m) == 3


def test_all_ones_row_gives_rank_one():
    m = linear_matroid(MatrixRep.from_rows(Q, [[1, 1, 1]]))
    assert rank_of(m) == 1
    assert circuits_as_sets(m) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }


def test_gf2_circuits_example():
    rep = MatrixRep.from_rows(GF2, [[1, 0, 1, 1], [0, 1, 1, 1]])
    m = linear_matroid(rep)
    assert circuits_as_sets(m) == {
        frozenset({2, 3}),
        frozenset({0, 1, 2}),
        frozenset({0, 1, 3}),
    }


def test_zero_column_is_loop():
    m = linear_matroid(MatrixRep.from_rows(Q, [[0, 1], [0, 0]]))
    assert not is_independent(m, [0])
    assert is_independent(m, [1])


def brute_rank(field, rows, cols_subset):
    """Independent-subset search: rank = size of largest independent subset."""
    rep = MatrixRep.from_rows(field, rows)
    best = 0
    for r in range(len(cols_subset) + 1):
        for combo in itertools.combinations(cols_subset, r):
            sub = [[row[j] for j in combo] for row in rows]
            if not combo:
                continue
            # columns independent iff no nonzero null combination; test via rank
            # of the transpose growing one column at a time is circular, so use
            # determinant-free elimination on the small literal matrix
            vecs = [tuple(row[j] for row in rows) for j in combo]
            rk = q_rank([tuple(Fraction(x) for x in v) for v in vecs]) if field == Q else gf2_rank(
                [sum((1 << i) for i, x in enumerate(v) if x % 2) for v in vecs]
            )
            if rk == len(combo):
                best = max(best, len(combo))
    return best


def test_random_matrices_conform_and_rank_consistently():
    rng = random.Random(20260818)
    for _ in range(25):
        n_rows = rng.randrange(1, 4)
        n_cols = rng.randrange(1, 5)
        rows = random_gf2_matrix(rng, n_rows, n_cols)
        for field in (GF2, Q):
            rep = MatrixRep.from_rows(field, rows)
            m = linear_matroid(rep)
            rep_ax = check_axioms(m, "I")
            assert rep_ax.conformant, (field, rows, rep_ax.verdicts)
            full = m.ground.full_mask
            for mask in range(full + 1):
                cols = list(m.ground.elements(mask))
                assert m.rank(mask) == brute_rank(field, rows, cols)


# ---------------------------------------------------------------------------
# incidence matrices


def test_incidence_triangle_rationals():
    rep = incidence_matrix(3, [(0, 1), (1, 2), (0, 2)], Q)
    m = linear_matroid(rep)
    assert rank_of(m) == 2
    assert family_masks(m) == family_masks(graphic_matroid(3, [(0, 1), (1, 2), (0, 2)]))


def test_incidence_loop_zero_column():
    rep = incidence_matrix(2, [(1, 1), (0, 1)], Q)
    assert rep.columns[0] == (0, 0)
    assert linear_matroid(rep).rank(0b01) == 0


def test_incidence_parallel_edges():
    rep = incidence_matrix(2, [(0, 1), (1, 0)], Q)
    # canonical orientation makes parallel columns equal regardless of input order
    assert rep.columns[0] == rep.columns[1]
    m = linear_matroid(rep)
    assert circuits_as_sets(m) == {frozenset({0, 1})}


def test_incidence_orientation_canonical():
    rep = incidence_matrix(3, [(2, 0)], Q)
    assert rep.columns[0] == (Fraction(1), Fraction(0), Fraction(-1))


def test_thinac_equiv_examples():
    assert verify_thinAC_equiv(3, [(0, 1), (1, 2), (0, 2)], GF2)
    # depth-3 two-rail strip: squares plus rungs
    edges = [
        (0, 1), (2, 3), (4, 5),          # rungs
        (0, 2), (2, 4),                  # one rail
        (1, 3), (3, 5),                  # other rail
    ]
    assert verify_thinAC_equiv(6, edges, Q)
    assert verify_thinAC_equiv(4, [(0, 1), (2, 3)], Q)


def test_thinac_equiv_random_sweep():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 6)
        n_edges = rng.randrange(1, 8)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n_edges)]
        for field in (GF2, Q):
            assert verify_thinAC_equiv(n, edges, field), (n, edges, field)


# ---------------------------------------------------------------------------
# span maximality


def test_span_maximality_identity():
    rep = MatrixRep.from_rows(GF2, [[1, 0], [0, 1]])
    assert not span_maximality_check(rep, [0])
    assert span_maximality_check(rep, [0, 1])


def test_span_maximality_rank_one():
    rep = MatrixRep.from_rows(Q, [[1, 1, 1]])
    for j in range(3):
        assert span_maximality_check(rep, [j])


def test_span_maximality_rejects_dependent():
    rep = MatrixRep.from_rows(Q, [[1, 1, 1]])
    with pytest.raises(InputError):
        span_maximality_check(rep, [0, 1])


def test_span_maximality_matches_brute_maximality():
    rng = random.Random(99)
    for _ in range(20):
        rows = random_gf2_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 7))
        for field in (GF2, Q):
            rep = MatrixRep.from_rows(field, rows)
            m = linear_matroid(rep)
            fam = set(family_masks(m))
            n = m.ground.size
            for s in fam:
                brute_max = all(
                    s & (1 << e) or (s | (1 << e)) not in fam for e in range(n)
                )
                assert span_maximality_check(rep, s) == brute_max, (field, rows, s)


# ---------------------------------------------------------------------------
# periodic column families


def spec_all_ones():
    return PeriodicMatrixSpec(Q, ("a",), (), ((( ("p", "a"), Fraction(1)),),))


def spec_block_identity():
    return PeriodicMatrixSpec(Q, (), ("r",), ((( ("b", "r", 0), Fraction(1)),),))


def spec_rail_with_apex():
    # each window: one splice column linking consecutive block rows, plus an
    # apex column hitting the persistent row and the window's block row
    return PeriodicMatrixSpec(
        GF2,
        ("apex",),
        ("t",),
        (
            ((("b", "t", 0), 1), (("b", "t", 1), 1)),
            ((("p", "apex"), 1), (("b", "t", 0), 1)),
        ),
    )


def test_materialize_shapes():
    m = materialize(spec_rail_with_apex(), 3)
    assert m.row_labels == ("apex", "t@0", "t@1", "t@2")
    assert m.n_cols == 6
    # forward reference dropped at the boundary window
    last_splice = m.columns[4]
    assert sum(1 for v in last_splice if v) == 1


def test_nearly_thin_all_ones_is_one():
    count, rows = nearly_thin_count(spec_all_ones())
    assert count == 1 and rows == ("a",)


def test_nearly_thin_block_identity_is_zero():
    count, rows = nearly_thin_count(spec_block_identity())
    assert count == 0 and rows == ()


def test_nearly_thin_rail_apex_is_one():
    count, rows = nearly_thin_count(spec_rail_with_apex())
    assert count == 1 and rows == ("apex",)


def reference_thin_count(spec, depth):
    """Growing rows by materialized supports at depth, depth + 1 and depth + 2;
    the two growth steps must agree."""

    def supports(n):
        m = materialize(spec, n)
        return {
            name: sum(1 for col in m.columns if col[i] != 0)
            for i, name in enumerate(spec.persistent_rows)
        }

    s0, s1, s2 = (supports(depth + i) for i in range(3))
    g1 = {name for name in s0 if s1[name] > s0[name]}
    assert g1 == {name for name in s0 if s2[name] > s1[name]}
    return len(g1), tuple(sorted(g1))


@st.composite
def matrix_specs(draw):
    field = draw(st.sampled_from((GF2, Q)))
    persistent = tuple(f"p{i}" for i in range(draw(st.integers(0, 3))))
    block = tuple(f"b{i}" for i in range(draw(st.integers(1, 2))))
    refs = [("p", r) for r in persistent] + [("b", r, d) for r in block for d in (0, 1)]
    if field == GF2:
        values = st.just(1)
    else:
        values = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    # repeated references within one pattern are allowed; the last one wins
    entries = st.tuples(st.sampled_from(refs), values)
    cols = draw(st.lists(st.lists(entries, max_size=4).map(tuple), max_size=4))
    return PeriodicMatrixSpec(field, persistent, block, tuple(cols))


@settings(max_examples=200, deadline=None)
@given(matrix_specs(), st.integers(2, 6))
def test_nearly_thin_matches_materialized_supports(spec, depth):
    assert nearly_thin_count(spec) == reference_thin_count(spec, depth)


def test_periodic_spec_validation():
    with pytest.raises(InputError):
        PeriodicMatrixSpec(Q, ("a",), ("a",), ())
    with pytest.raises(InputError):
        PeriodicMatrixSpec(Q, ("a",), (), ((( ("p", "z"), 1),),))
    with pytest.raises(InputError):
        PeriodicMatrixSpec(Q, ("a",), (), ((( ("p", "a"), 0),),))
    with pytest.raises(InputError):
        PeriodicMatrixSpec(GF2, (), ("r",), ((( ("b", "r", 2), 1),),))


# ---------------------------------------------------------------------------
# integer kernel and incremental sweeps against Fraction references


def fraction_rank(vectors) -> int:
    """Row reduction over Fraction, the reference for q_rank."""
    rows = [[Fraction(a) for a in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] / rows[rank][col]
            rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gf2_reference_rank(vectors) -> int:
    """Row reduction mod 2 over 0/1 lists."""
    rows = [[int(a) % 2 for a in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


rationals = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**24),
)


@st.composite
def rational_vectors(draw):
    """Vectors of one length, some zero, some combinations of earlier ones."""
    width = draw(st.integers(1, 5))
    vectors = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("free", "zero", "combo")))
        if kind == "zero" or (kind == "combo" and not vectors):
            vectors.append([0] * width)
        elif kind == "free":
            vectors.append(draw(st.lists(rationals, min_size=width, max_size=width)))
        else:
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            coeffs = draw(st.lists(rationals, min_size=len(picks), max_size=len(picks)))
            vectors.append([
                sum((c * Fraction(v[i]) for c, v in zip(coeffs, picks)), Fraction(0))
                for i in range(width)
            ])
    return vectors


@settings(max_examples=250, deadline=None)
@given(rational_vectors())
def test_q_rank_matches_fraction_elimination(vectors):
    assert q_rank(vectors) == fraction_rank(vectors)
    # scaling a vector by a nonzero rational never changes the rank
    scaled = [[Fraction(-7, 3) * Fraction(a) for a in v] for v in vectors]
    assert q_rank(scaled) == fraction_rank(vectors)


@st.composite
def oracle_cases(draw):
    """(matroid, reference oracle without a sweep): uniform, or over GF(2), Q or a multigraph."""
    kind = draw(st.sampled_from(("gf2", "q", "graphic", "uniform")))
    m = draw(st.integers(1, 8))
    if kind == "uniform":
        r = draw(st.integers(0, m))

        def ref_rank(mask):
            return min(mask.bit_count(), r)

        sys_ = uniform_matroid(r, m)
    elif kind == "graphic":
        n = draw(st.integers(1, 5))
        # loops and parallel edges arise freely from independent endpoints
        edges = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=m, max_size=m
        ))

        def ref_rank(mask):
            g = nx.MultiGraph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges[i] for i in range(m) if mask >> i & 1)
            return n - nx.number_connected_components(g)

        sys_ = graphic_matroid(n, edges)
    else:
        n_rows = draw(st.integers(1, 4))
        entry = st.integers(0, 1) if kind == "gf2" else rationals
        rows = draw(st.lists(
            st.lists(entry, min_size=m, max_size=m), min_size=n_rows, max_size=n_rows
        ))
        zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
        rows = [[0 if j in zero_cols else a for j, a in enumerate(r)] for r in rows]
        rep = MatrixRep.from_rows(kind, rows)
        ref = fraction_rank if kind == "q" else gf2_reference_rank

        def ref_rank(mask):
            return ref([rep.columns[j] for j in range(m) if mask >> j & 1])

        sys_ = linear_matroid(rep)
    # the reference is pure, so each mask is ranked once per case
    return sys_, OracleMatroid(sys_.ground, functools.cache(ref_rank), label="reference")


def wrappers(sys_, data):
    """Wrappers of sys_ with drawn arguments: dual, delete, contract,
    truncate_top, a truncated dual and a dual of a minor."""
    x = data.draw(st.integers(0, sys_.ground.full_mask))
    y = data.draw(st.integers(0, sys_.ground.full_mask))
    k = data.draw(st.integers(0, sys_.full_rank))

    def nested(s):
        deleted = delete(s, x)
        return dual(contract(deleted, y & deleted.ground.full_mask))

    return (
        dual,
        lambda s: delete(s, x),
        lambda s: contract(s, x),
        lambda s: truncate_top(s, k),
        lambda s: dual(truncate_top(dual(s), min(k, s.size - s.full_rank))),
        nested,
    )


@settings(max_examples=300, deadline=None)
@given(oracle_cases(), st.data())
def test_incremental_sweep_matches_rank_sweep(case, data):
    sys_, ref = case
    assert sys_.grow is not None
    fam = family_masks(sys_)
    assert fam == family_masks(dataclasses.replace(sys_, grow=None))
    assert fam == family_masks(ref) == every_independent_mask(ref)
    # wrappers of a grown oracle list the same sets as the rank sweep of the
    # same wrapper and as brute force over the wrapped reference, and they
    # all grow, duals of a high-rank primal too
    for op in wrappers(sys_, data):
        wrapped = op(sys_)
        assert wrapped.grow is not None
        fam = family_masks(wrapped)
        assert fam == family_masks(dataclasses.replace(wrapped, grow=None))
        assert fam == every_independent_mask(op(ref))


@settings(max_examples=150, deadline=None)
@given(oracle_cases(), st.data())
def test_pruned_base_sweep_matches_rank_sweep(case, data):
    # a grown oracle's bases come from its sweep pruned to the rank; they are
    # the largest sets of the rank sweep of the same oracle, wrappers too
    sys_, _ = case
    for op in (lambda s: s, *wrappers(sys_, data)):
        wrapped = op(sys_)
        fam = family_masks(dataclasses.replace(wrapped, grow=None))
        top = max(s.bit_count() for s in fam)
        assert enumerate_bases(wrapped) == [s for s in fam if s.bit_count() == top]


def every_independent_mask(sys_):
    """Brute force over the whole powerset, without the sweep's pruning."""
    return [s for s in range(sys_.ground.full_mask + 1) if sys_.is_independent(s)]
