"""End-to-end acceptance run: twelve headline checks, one verdict line each.

Every test prints a single `[criterion NN] label: pass` line (the suite runs
with -s); on failure the line says FAIL and the assertion carries the first
few counterexamples.  Sampled sweeps state their floor and enforce it.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx

from matroidlab.core import (
    ExplicitSystem,
    GroundSet,
    check_axioms,
    dual,
    enumerate_bases,
    family_masks,
    graphic_matroid,
    rank_of,
    replay_witness,
    uniform_matroid,
)
from matroidlab.cycles import (
    cycle_independent,
    cycle_is_base,
    defect,
    edge_set_is_empty,
    edge_sets_difference,
    fin_is_base,
    glue_all,
    mk_spectrum,
    nearly_finitary_verdict,
    present_representatives,
    spectrum_search,
    verify_i3_violation,
)
from matroidlab.errors import StructuralMismatchError
from matroidlab.linear import (
    GF2,
    Q,
    MatrixRep,
    linear_matroid,
    span_maximality_check,
    verify_thinAC_equiv,
)
from matroidlab.ops import (
    NestedPair,
    ch4_blocks,
    ch4_i3_witness,
    ch4_system,
    check_unionable,
    smin_enumerate,
    spectrum,
    truncate_top,
    union,
    verify_difference_duality,
)
from matroidlab.periodic import (
    UPEdgeSet,
    bean_family,
    component_summary,
    contains_double_ray,
    domination_witness,
    full_edge_set,
    ladder_family,
    ray_count,
    run_machine,
    truncate_graph,
)
from matroidlab.util import INF


def verdict_line(num: int, label: str, failures) -> None:
    print(f"[criterion {num:02d}] {label}: {'pass' if not failures else 'FAIL'}")
    assert not failures, f"criterion {num}: {failures[:5]}"


# ---------------------------------------------------------------------------
# shared samplers and oracles


def random_matroid(rng: random.Random, labels: tuple, max_rank: int):
    """Uniform, graphic, or binary-linear matroid on the given labels."""
    m = len(labels)
    kind = rng.choice(("uniform", "graphic", "linear"))
    if kind == "uniform":
        return uniform_matroid(rng.randint(0, min(m, max_rank)), m, labels)
    if kind == "graphic":
        n = rng.randint(1, min(6, max_rank + 1))
        edges = tuple(
            tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m)
        )
        return graphic_matroid(n, edges, labels)
    rows = rng.randint(1, min(5, max_rank))
    cols = tuple(tuple(rng.randint(0, 1) for _ in range(rows)) for _ in range(m))
    row_labels = tuple(f"q{i}" for i in range(rows))
    return linear_matroid(MatrixRep(GF2, row_labels, labels, cols))


def random_edge_set(g, rng: random.Random) -> UPEdgeSet:
    slots = (
        [("win", j) for j in range(len(g.window_edges))]
        + [("spl", j) for j in range(len(g.splice_edges))]
        + [("apx", j) for j in range(len(g.apex_edges))]
    )
    p = rng.randint(0, 2)
    pattern = frozenset(s for s in slots if rng.random() < 0.5)
    explicit = frozenset(
        (kind, j, w) for (kind, j) in slots for w in range(p) if rng.random() < 0.5
    )
    prefix = frozenset(i for i in range(len(g.prefix_edges)) if rng.random() < 0.5)
    return UPEdgeSet(p, prefix, explicit, pattern)


def trunc_multigraph(g, s, depth: int) -> nx.MultiGraph:
    nodes, edges = truncate_graph(g, s, depth)
    G = nx.MultiGraph()
    G.add_nodes_from(nodes)
    for u, v, key in edges:
        G.add_edge(u, v, key=key)
    return G


def trunc_components(g, s, depth: int) -> int:
    return nx.number_connected_components(trunc_multigraph(g, s, depth))


def brute_double_ray(g, s, w1: int, w2: int) -> bool:
    """Truncation oracle: two vertex-disjoint lane paths crossing the strip
    [w1, w2), both starting in one component of the full truncation.

    Rays eventually leave the prefix and then shift window by at most one per
    step, so each must cross every column of the strip; conversely a pair of
    disjoint crossings of a strip longer than the stabilization horizon pumps
    into two disjoint rays of the same component.
    """
    G = nx.Graph(trunc_multigraph(g, s, w2))
    comp_of = {}
    for cid, comp in enumerate(nx.connected_components(G)):
        for v in comp:
            comp_of[v] = cid
    lane_nodes = [v for v in G if isinstance(v[1], int) and w1 <= v[1] < w2]
    strip = G.subgraph(lane_nodes)
    per_comp: dict = {}
    for v in lane_nodes:
        if v[1] == w1:
            per_comp.setdefault(comp_of[v], ([], []))[0].append(v)
        elif v[1] == w2 - 1:
            per_comp.setdefault(comp_of[v], ([], []))[1].append(v)
    for sources, sinks in per_comp.values():
        if not sources or not sinks:
            continue
        H = nx.Graph(strip)
        H.add_node("SRC")
        H.add_node("SNK")
        for v in sources:
            H.add_edge("SRC", v)
        for v in sinks:
            H.add_edge("SNK", v)
        try:
            paths = list(nx.node_disjoint_paths(H, "SRC", "SNK", cutoff=2))
        except nx.NetworkXNoPath:
            continue
        if len(paths) >= 2:
            return True
    return False


def connected_multigraphs(max_edges: int):
    """All connected multigraphs with 1..max_edges edges, vertices numbered
    by first use and edges emitted in sorted order, so each labelled multiset
    appears exactly once.  Fresh vertices attach by a non-loop edge, which
    forces connectivity."""
    def rec(edges, n_used):
        if edges:
            yield n_used, tuple(edges)
        if len(edges) == max_edges:
            return
        floor = edges[-1] if edges else (0, 0)
        for u in range(n_used + 1):
            for v in range(u, n_used + 1):
                if (u, v) < floor:
                    continue
                fresh = v == n_used
                if fresh and u == v:
                    continue
                edges.append((u, v))
                yield from rec(edges, n_used + (1 if fresh else 0))
                edges.pop()

    yield from rec([], 1)


def gf2_matrices(n_rows: int, n_cols: int):
    row_labels = tuple(f"r{i}" for i in range(n_rows))
    col_labels = tuple(f"c{j}" for j in range(n_cols))
    col_opts = list(itertools.product((0, 1), repeat=n_rows))
    for combo in itertools.product(col_opts, repeat=n_cols):
        yield MatrixRep(GF2, row_labels, col_labels, combo)


def relabeled(sys_, prefix: str) -> ExplicitSystem:
    labels = tuple(f"{prefix}{name}" for name in sys_.ground.labels)
    return ExplicitSystem(GroundSet(labels), frozenset(family_masks(sys_)))


# ---------------------------------------------------------------------------
# criteria 1..3: glued ladder spectra


def test_01_glued_ladder_unit_spectrum():
    g = ladder_family(1)
    glue = glue_all(g)
    start = time.perf_counter()
    rep = spectrum_search(g, glue, (2, 1))
    elapsed = time.perf_counter() - start
    failures = []
    if rep.values != (0, 1):
        failures.append(f"values {rep.values}")
    if not rep.complete:
        failures.append("sweep reported incomplete")
    for v in rep.values:
        base, fin = rep.witnesses[v]["base"], rep.witnesses[v]["fin_base"]
        ok, why = cycle_is_base(g, base, glue)
        if not ok:
            failures.append(f"witness for {v} is not a base: {why}")
        if defect(g, base) != v:
            failures.append(f"witness for {v} has defect {defect(g, base)}")
        if fin is None:
            failures.append(f"witness for {v} lacks a finite-cycle extension")
        else:
            ok, why = fin_is_base(g, fin)
            if not ok:
                failures.append(f"extension for {v} is not a base: {why}")
            extra = edge_sets_difference(fin, base)
            n_extra = len(extra.prefix_present) + len(extra.explicit)
            if extra.pattern or n_extra != v:
                failures.append(f"extension for {v} adds {n_extra} edges")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s")
    verdict_line(1, "glued one-rung ladder: spectrum {0,1} with replayable witnesses", failures)


def test_02_ladder_spectra_scale_with_rung_count():
    failures = []
    for n in (2, 3):
        g = ladder_family(n)
        start = time.perf_counter()
        rep = spectrum_search(g, glue_all(g), (2, 1))
        elapsed = time.perf_counter() - start
        if rep.values != tuple(range(n + 1)):
            failures.append(f"n={n}: values {rep.values}")
        if elapsed >= 120.0:
            failures.append(f"n={n}: took {elapsed:.1f}s")
    verdict_line(2, "glued n-rung ladders realize exactly the defects 0..n", failures)


def test_03_removal_shifts_spectrum():
    failures = []
    for n in (1, 2):
        g = ladder_family(n)
        glue = glue_all(g)
        for k in (1, 2):
            rep = mk_spectrum(g, glue, k, (2, 1))
            if rep.values != tuple(range(k, k + n + 1)):
                failures.append(f"n={n} k={k}: values {rep.values}")
    verdict_line(3, "removing k edges shifts ladder spectra to {k..k+n}", failures)


# ---------------------------------------------------------------------------
# criteria 4..5: finite operator identities


EDGE_TYPES_3 = tuple(itertools.combinations_with_replacement(range(3), 2))
EDGE_TYPES_4 = tuple(itertools.combinations_with_replacement(range(4), 2))


def duality_outers():
    for m in range(1, 7):
        for r in range(m + 1):
            yield uniform_matroid(r, m)
    for m in range(1, 7):
        for edges in itertools.combinations_with_replacement(EDGE_TYPES_3, m):
            yield graphic_matroid(3, edges)
    for m in range(1, 5):
        for edges in itertools.combinations_with_replacement(EDGE_TYPES_4, m):
            yield graphic_matroid(4, edges)
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 3)):
        yield from map(linear_matroid, gf2_matrices(rows, cols))


def test_04_difference_duality_identity():
    failures = []
    checked = 0
    for outer in duality_outers():
        for k in range(rank_of(outer) + 1):
            inner = truncate_top(outer, k)
            equal, wit = verify_difference_duality(outer, inner)
            checked += 1
            if not equal:
                failures.append((outer, k, wit))
    if checked < 5000:
        failures.append(f"only {checked} pairs swept")
    verdict_line(4, f"difference equals dual-union-dual on {checked} nested pairs", failures)


def test_05_random_unions_stay_matroidal():
    rng = random.Random(40105)
    pool = [f"x{i}" for i in range(9)]
    failures = []
    trials = 500
    for trial in range(trials):
        labels1 = tuple(sorted(rng.sample(pool, rng.randint(1, 7))))
        labels2 = tuple(sorted(rng.sample(pool, rng.randint(1, 7))))
        m1 = random_matroid(rng, labels1, max_rank=3)
        m2 = random_matroid(rng, labels2, max_rank=7)
        rep = check_unionable(m1, m2)
        if not rep.conformant:
            bad = {k: v for k, v in rep.verdicts.items() if v == "fail"}
            failures.append((trial, bad, rep.witnesses))
    verdict_line(5, f"{trials} random unions pass the full independence-axiom screen", failures)


# ---------------------------------------------------------------------------
# criteria 6..7: the maximality exchange failures


def block_shape(pair, r: int, wit: dict):
    """(|missing block of A| , |missing block of B|) when the witness has the
    canonical form: A misses one block plus a single element of another, B
    misses exactly that other block.  None otherwise."""
    ground = pair.inner.ground
    blocks = [ground.mask(b) for b in ch4_blocks(r)]
    full = ground.full_mask
    miss_a, miss_b = full ^ wit["A"], full ^ wit["B"]
    if miss_b not in blocks:
        return None
    x = miss_a & miss_b
    rest = miss_a ^ x
    if x.bit_count() != 1 or rest not in blocks or rest == miss_b:
        return None
    return rest.bit_count(), miss_b.bit_count()


def test_06_block_system_spectra_and_exchange_failure():
    failures = []
    for r in range(1, 6):
        pair = ch4_system(r)
        rep = spectrum(pair)
        if rep.values != tuple(range(1, r + 1)):
            failures.append(f"r={r}: values {rep.values}")
        if r < 2:
            continue
        canonical = ch4_i3_witness(r)
        inner = pair.inner
        if not replay_witness(inner, "I3", canonical):
            failures.append(f"r={r}: canonical witness does not replay")
        if block_shape(pair, r, canonical) != (1, 2):
            failures.append(f"r={r}: canonical witness lost its block shape")
        report = check_axioms(inner, "I")
        found = report.witnesses.get("I3")
        if report.verdicts.get("I3") != "fail" or not found:
            failures.append(f"r={r}: conformance run missed the maximality failure")
        elif not replay_witness(inner, "I3", found):
            failures.append(f"r={r}: reported witness does not replay")
        if r == 2 and found and block_shape(pair, r, found) != (1, 2):
            failures.append(f"r=2: minimal witness {found} is not a relabeling of the canonical pair")
    verdict_line(6, "block systems: spectrum 1..r and the maximality failure replay", failures)


def test_07_hub_witness_and_domination_split():
    bean = bean_family()
    glue = glue_all(bean)
    failures = []
    try:
        wit = verify_i3_violation(bean)
    except StructuralMismatchError as exc:
        failures.append(f"violation check aborted: {exc}")
        wit = None
    if wit is not None:
        base, stranded, diff = wit["raw"]
        if not cycle_is_base(bean, base, glue)[0]:
            failures.append("claimed base fails the base test")
        ok, _ = cycle_independent(bean, stranded, glue)
        if not ok or cycle_is_base(bean, stranded, glue)[0]:
            failures.append("stranded set is not independent-but-not-maximal")
        if edge_set_is_empty(diff):
            failures.append("base difference is empty")
        for rep_ in present_representatives(bean, diff, stranded):
            if cycle_independent(bean, stranded.with_edge(rep_), glue)[0]:
                failures.append(f"difference instance {rep_} can be added back")
    for k in range(1, 7):
        if domination_witness(bean, "v", k) is None:
            failures.append(f"hub fails to dominate at k={k}")
    ladder_vertices = (
        (ladder_family(1), ("t0", "b0"), range(4)),
        (ladder_family(2), ("t0", "b0", "t1", "b1"), range(2)),
    )
    for g, lanes, windows in ladder_vertices:
        for lane in lanes:
            for w in windows:
                if domination_witness(g, (lane, w), 4) is not None:
                    failures.append(f"ladder vertex ({lane},{w}) dominates at k=4")
    verdict_line(7, "hub dominates through k=6, ladder vertices stop at k=4", failures)


# ---------------------------------------------------------------------------
# criterion 8: rays and the finitariness gap


def test_08_ray_counts_and_verdicts():
    failures = []
    for n in range(1, 5):
        g = ladder_family(n)
        count = ray_count(g)
        if count != 2 * n:
            failures.append(f"n={n}: ray count {count}")
        ver = nearly_finitary_verdict(g, glue_all(g))
        if ver.verdict != "yes" or ver.k is INF or ver.k != 2 * n:
            failures.append(f"n={n}: verdict {ver.verdict} with bound {ver.k}")
    verdict_line(8, "ladders carry 2n disjoint rays and a finite gap bound", failures)


# ---------------------------------------------------------------------------
# criteria 9..10: linear representations


def test_09_incidence_columns_match_cycle_structure():
    failures = []
    exhaustive = 0
    for n, edges in connected_multigraphs(6):
        for field in (GF2, Q):
            if not verify_thinAC_equiv(n, edges, field):
                failures.append((n, edges, field))
        exhaustive += 1
    rng = random.Random(90210)
    sampled = 1000
    for _ in range(sampled):
        n = rng.randint(2, 6)
        edges = [tuple(sorted((rng.randrange(v), v))) for v in range(1, n)]
        while len(edges) < rng.choice((7, 8)):
            edges.append(tuple(sorted((rng.randrange(n), rng.randrange(n)))))
        for field in (GF2, Q):
            if not verify_thinAC_equiv(n, tuple(edges), field):
                failures.append((n, tuple(edges), field))
    if exhaustive < 3000:
        failures.append(f"exhaustive sweep shrank to {exhaustive} graphs")
    verdict_line(
        9,
        f"incidence and cycle matroids agree on {exhaustive} small + {sampled} larger multigraphs",
        failures,
    )


def check_span_against_brute_force(m: MatrixRep, failures) -> int:
    fam = set(family_masks(linear_matroid(m)))
    n = len(m.col_labels)
    for s in fam:
        brute = all(s | (1 << e) not in fam for e in range(n) if not s >> e & 1)
        if span_maximality_check(m, s) != brute:
            failures.append((m.field, m.columns, s))
    return len(fam)


def test_10_span_maximality_matches_brute_force():
    failures = []
    checked = 0
    for rows in (1, 2, 3):
        for cols in (1, 2, 3, 4):
            for m in gf2_matrices(rows, cols):
                checked += check_span_against_brute_force(m, failures)
    rng = random.Random(1040)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 8)
        combo = tuple(
            tuple(rng.randint(0, 1) for _ in range(rows)) for _ in range(cols)
        )
        m = MatrixRep(
            GF2,
            tuple(f"r{i}" for i in range(rows)),
            tuple(f"c{j}" for j in range(cols)),
            combo,
        )
        checked += check_span_against_brute_force(m, failures)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        combo = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows))
            for _ in range(cols)
        )
        m = MatrixRep(
            Q,
            tuple(f"r{i}" for i in range(rows)),
            tuple(f"c{j}" for j in range(cols)),
            combo,
        )
        checked += check_span_against_brute_force(m, failures)
    verdict_line(10, f"span test matches brute-force maximality on {checked} independent sets", failures)


# ---------------------------------------------------------------------------
# criterion 11: property suites


def _suite_base_sizes(rng, failures):
    checked = 0
    while checked < 10_000:
        labels = tuple(f"e{i}" for i in range(rng.randint(1, 8)))
        m = random_matroid(rng, labels, max_rank=len(labels))
        bases = enumerate_bases(m)
        if len({b.bit_count() for b in bases}) != 1:
            failures.append(("base-sizes", m))
        checked += len(bases)
    return checked


def _suite_duality_involution(rng, failures):
    matroids = [uniform_matroid(r, 10) for r in range(11)]
    for _ in range(4):
        edges = tuple(
            tuple(sorted((rng.randrange(5), rng.randrange(5)))) for _ in range(10)
        )
        matroids.append(graphic_matroid(5, edges))
    for _ in range(4):
        cols = tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(10))
        matroids.append(
            linear_matroid(
                MatrixRep(GF2, ("r0", "r1", "r2", "r3"), tuple(f"c{j}" for j in range(10)), cols)
            )
        )
    checked = 0
    for m in matroids:
        dd = dual(dual(m))
        for mask in range(m.ground.full_mask + 1):
            if rank_of(dd, mask) != rank_of(m, mask):
                failures.append(("duality", m, mask))
                break
            checked += 1
    return checked


def _suite_exchange_bound(rng, failures):
    checked = 0
    while checked < 10_000:
        labels = tuple(f"e{i}" for i in range(rng.randint(2, 8)))
        m = random_matroid(rng, labels, max_rank=len(labels))
        fam = family_masks(m)
        bases = enumerate_bases(m)
        for i_set in fam:
            for b in bases:
                if (i_set & ~b).bit_count() > (b & ~i_set).bit_count():
                    failures.append(("exchange-bound", m, i_set, b))
                checked += 1
    return checked


def _nested_pairs(rng, count):
    for _ in range(count):
        labels = tuple(f"e{i}" for i in range(rng.randint(2, 7)))
        outer = random_matroid(rng, labels, max_rank=len(labels))
        for k in range(rank_of(outer) + 1):
            yield outer, truncate_top(outer, k)


def _suite_gap_uniqueness(rng, failures):
    checked = 0
    while checked < 10_000:
        for outer, inner in _nested_pairs(rng, 20):
            outer_bases = enumerate_bases(outer)
            inner_bases = enumerate_bases(inner)
            for b in inner_bases:
                above = [(f & ~b).bit_count() for f in outer_bases if b & ~f == 0]
                checked += len(above)
                if len(set(above)) > 1:
                    failures.append(("gap-inner", outer, b, sorted(set(above))))
            for f in outer_bases:
                below = [(f & ~b).bit_count() for b in inner_bases if b & ~f == 0]
                checked += len(below)
                if len(set(below)) > 1:
                    failures.append(("gap-outer", outer, f, sorted(set(below))))
    return checked


def _suite_base_sandwich(rng, failures):
    checked = 0
    while checked < 10_000:
        for outer, inner in _nested_pairs(rng, 20):
            outer_bases = enumerate_bases(outer)
            inner_bases = enumerate_bases(inner)
            for b in inner_bases:
                if not any(b & ~f == 0 for f in outer_bases):
                    failures.append(("sandwich-up", outer, b))
            for f in outer_bases:
                if not any(b & ~f == 0 for b in inner_bases):
                    failures.append(("sandwich-down", outer, f))
            checked += len(outer_bases) + len(inner_bases)
    return checked


def _additivity_catalogue():
    pairs = []
    for m in (2, 3):
        for r2 in range(m + 1):
            for r1 in range(r2 + 1):
                pairs.append((uniform_matroid(r1, m), uniform_matroid(r2, m)))
    triangle = graphic_matroid(3, ((0, 1), (1, 2), (0, 2)))
    for k in range(3):
        pairs.append((truncate_top(triangle, k), triangle))
    return pairs


def _suite_disjoint_additivity(failures):
    catalogue = _additivity_catalogue()
    checked = 0
    for in1, out1 in catalogue:
        s1 = spectrum(NestedPair(relabeled(in1, "a"), relabeled(out1, "a"))).values
        for in2, out2 in catalogue:
            s2 = spectrum(NestedPair(relabeled(in2, "b"), relabeled(out2, "b"))).values
            inner = union(relabeled(in1, "a"), relabeled(in2, "b"))
            outer = union(relabeled(out1, "a"), relabeled(out2, "b"))
            combined = spectrum(NestedPair(inner, outer)).values
            expected = tuple(sorted({a + b for a in s1 for b in s2}))
            checked += 1
            if combined != expected:
                failures.append(("additivity", s1, s2, combined))
    return checked


def _suite_minimal_complements(failures):
    checked = 0
    outers = itertools.chain(
        (uniform_matroid(r, m) for m in range(1, 7) for r in range(m + 1)),
        (
            graphic_matroid(3, edges)
            for m in range(1, 7)
            for edges in itertools.combinations_with_replacement(EDGE_TYPES_3, m)
        ),
        map(linear_matroid, gf2_matrices(2, 3)),
    )
    for outer in outers:
        for k in range(rank_of(outer) + 1):
            pair = NestedPair(truncate_top(outer, k), outer)
            if not smin_enumerate(pair):
                failures.append(("complements", outer, k))
            checked += 1
    return checked


def test_11_property_suites():
    rng = random.Random(1101)
    failures = []
    counts = (
        _suite_base_sizes(rng, failures),
        _suite_duality_involution(rng, failures),
        _suite_exchange_bound(rng, failures),
        _suite_gap_uniqueness(rng, failures),
        _suite_base_sandwich(rng, failures),
        _suite_disjoint_additivity(failures),
        _suite_minimal_complements(failures),
    )
    floors = (10_000, 10_000, 10_000, 10_000, 10_000, 100, 1000)
    for n, floor in zip(counts, floors):
        if n < floor:
            failures.append(("sample-floor", counts))
    verdict_line(11, f"seven property suites, {sum(counts)} checks in total", failures)


# ---------------------------------------------------------------------------
# criterion 12: periodic summaries against explicit truncations


def test_12_summaries_match_explicit_truncations():
    rng = random.Random(1212)
    failures = []
    sampled = 0
    families = (ladder_family(1), ladder_family(2), ladder_family(3), bean_family())
    for g in families:
        full = full_edge_set(g)
        d_full = run_machine(g, full).depth
        for trial in range(31):
            s = full if trial == 0 else random_edge_set(g, rng)
            rep = component_summary(g, s)
            d = max(rep.depth, d_full, s.p)
            w = max(2 * d + 2, d + 4)
            at_w = trunc_components(g, s, w)
            growth = trunc_components(g, s, w + 2) - at_w
            if rep.count is INF:
                if growth != 2 * rep.closing_rate or growth <= 0:
                    failures.append(("components-inf", g.repeat_vertices, s))
            elif growth != 0 or at_w != rep.count:
                failures.append(("components", g.repeat_vertices, s, rep.count, at_w))
            present, _ = contains_double_ray(g, s)
            if present != brute_double_ray(g, s, 2 * d + 4, 4 * d + 8):
                failures.append(("double-ray", g.repeat_vertices, s, present))
            v = defect(g, s)
            gap_now = at_w - trunc_components(g, full, w)
            gap_next = trunc_components(g, s, w + 2) - trunc_components(g, full, w + 2)
            if v is INF:
                if gap_next <= gap_now:
                    failures.append(("defect-inf", g.repeat_vertices, s))
            elif not gap_now == gap_next == v:
                failures.append(("defect", g.repeat_vertices, s, v, gap_now, gap_next))
            sampled += 1
    if sampled < 100:
        failures.append(f"only {sampled} edge sets sampled")
    verdict_line(12, f"summaries match explicit truncations on {sampled} edge sets", failures)
