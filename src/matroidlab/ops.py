"""Operators on finite independence systems.

Covers union, principal truncation, the difference system of a nested pair,
the difference/union duality check, spectra of nested pairs, minimal spanning
complements, the block counterexample generator, and a union conformance
runner.  Everything here is exhaustive and only meant for grounds under the
sweep cap; the symbolic analogues for infinite families live elsewhere.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import reduce
from operator import and_

from .core import (
    AxiomReport,
    ExplicitSystem,
    GroundSet,
    OracleMatroid,
    System,
    _expand,
    _family_table,
    _holders,
    _is_closed,
    _is_grown,
    _maximal,
    _table_bases,
    _wrap_grow,
    check_axioms,
    closed_system,
    dual,
    enumerate_bases,
    family_masks,
    rank_of,
    uniform_matroid,
)
from .errors import InputError, ResourceLimitError
from .periodic import MAX_WINDOW, UPEdgeSet
from .util import iter_bits


@dataclass(frozen=True)
class NestedPair:
    """Two systems on one ground with every inner-independent set outer-independent.

    The inner bases are listed once, under cap, and kept in inner_bases.  A
    grown outer is a matroid and a closed explicit one is stored closed, so
    either is downward closed, and every inner-independent set lies in an
    inner base: the pair nests exactly when every inner base is
    outer-independent.  If one is not, or the outer is neither, the inner
    sets are tested in order and the first outer-dependent one is named."""

    inner: System
    outer: System
    cap: InitVar[int | None] = None
    inner_bases: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self, cap):
        if self.inner.ground.labels != self.outer.ground.labels:
            raise InputError("nested pair members must share one ground set")
        object.__setattr__(self, "inner_bases", enumerate_bases(self.inner, cap))
        outer = self.outer
        closed = _is_grown(outer) or _is_closed(outer)
        if not (closed and all(map(outer.is_independent, self.inner_bases))):
            for s in family_masks(self.inner, cap):
                if not outer.is_independent(s):
                    raise InputError(
                        f"nesting violated: inner-independent mask {s:#x} is outer-dependent"
                    )

    @property
    def ground(self) -> GroundSet:
        return self.inner.ground


@dataclass
class SpectrumReport:
    """Value set of |F - B| over nested base pairs, with one witness per value.

    values is sorted ascending, and every value is finite.  witnesses maps
    each value to its named parts as the search found them: label lists
    here, UPEdgeSets in the periodic engine ("base" and "fin_base"; mk has
    "reduced", "fin_base" and the "removed" instances).  to_dict alone
    writes the parts and the bounds out, an UPEdgeSet through to_obj and
    anything else as it is.  complete is always True: no search stops early
    with a partial answer, since a search that hits a bound raises
    ResourceLimitError instead.  The field stays for the
    "complete_within_bounds" key of the JSON report.
    """

    values: tuple
    witnesses: dict
    bounds: dict
    complete: bool = True

    def to_dict(self) -> dict:
        def written(part):
            return part.to_obj() if isinstance(part, UPEdgeSet) else part

        return {
            "values": list(self.values),
            "witnesses": {
                str(v): {k: written(part) for k, part in self.witnesses[v].items()}
                for v in self.values
            },
            "bounds": {k: written(b) for k, b in sorted(self.bounds.items())},
            "complete_within_bounds": self.complete,
        }


# ---------------------------------------------------------------------------
# union


def union(m1: System, m2: System, cap: int | None = None) -> ExplicitSystem:
    """Independence union: sets S1 | S2 with Si independent in mi.

    Grounds merge by label, so shared labels become shared elements.  For
    downward-closed inputs the family is stored closed, as the maximal ones
    among the distinct unions of bases; otherwise every pair is combined
    directly (diagnostic families are small).  Two grown oracles are
    matroids, so their union is a matroid too (the matroid union theorem),
    all of whose bases have one size: the maximal unions are the largest
    ones, and no two unions are compared.
    """
    seen = set(m1.ground.labels)
    labels = m1.ground.labels + tuple(l for l in m2.ground.labels if l not in seen)
    ground = GroundSet(labels)
    map1 = [ground.index(l) for l in m1.ground.labels]
    map2 = [ground.index(l) for l in m2.ground.labels]
    bases1, bases2 = _closed_bases(m1, cap), _closed_bases(m2, cap)
    if bases1 is not None and bases2 is not None:
        bases1 = [_expand(b, map1) for b in bases1]
        bases2 = [_expand(b, map2) for b in bases2]
        tops = {b1 | b2 for b1 in bases1 for b2 in bases2}
        if _is_grown(m1) and _is_grown(m2):
            size = max(t.bit_count() for t in tops)
            tops = [t for t in tops if t.bit_count() == size]
        return closed_system(ground, tops)
    fam1 = [_expand(s, map1) for s in family_masks(m1, cap)]
    fam2 = [_expand(s, map2) for s in family_masks(m2, cap)]
    return ExplicitSystem(ground, frozenset({s1 | s2 for s1 in fam1 for s2 in fam2}))


def _closed_bases(sys_: System, cap: int | None) -> list[int] | None:
    """The bases of sys_ when its family is downward closed, else None.  A
    grown oracle or a family stored closed is closed as built and lists its
    bases through enumerate_bases; any other family is read through its
    _family_table."""
    if _is_grown(sys_) or _is_closed(sys_):
        return enumerate_bases(sys_, cap)
    fam = family_masks(sys_, cap)
    addable, missing = _family_table(fam)
    return None if missing else _table_bases(fam, addable, missing)


def check_unionable(m1: System, m2: System, cap: int | None = None) -> AxiomReport:
    """Full I-axiom conformance of union(m1, m2); the verdict is the caller's."""
    return check_axioms(union(m1, m2, cap), "I", cap)


# ---------------------------------------------------------------------------
# principal truncation


def truncate_top(m: System, k: int, cap: int | None = None) -> System:
    """Sets independent and still extendable by exactly k more elements.

    On a matroid this is the principal truncation: rank drops by k.  Oracle
    input gives an oracle with rank min(r(S), r(E)-k); explicit input filters
    the family literally, which also covers non-matroid systems.
    """
    if k < 0:
        raise InputError("truncation depth must be a natural number")
    if isinstance(m, OracleMatroid):
        r_total = m.full_rank
        if r_total < k:
            raise InputError(f"cannot truncate rank {r_total} by {k}")
        inner = m.rank_fn
        ceiling = r_total - k

        def rk(mask: int) -> int:
            return min(inner(mask), ceiling)

        def truncated(root, step):
            # state: (inner state, set size); no set grows past the ceiling
            def capped(state, j):
                inner_state, n = state
                grown = step(inner_state, j) if n < ceiling else None
                return None if grown is None else (grown, n + 1)

            return (root, 0), capped

        return OracleMatroid(
            m.ground, rk, label=f"{m.label}[{k}]", grow=_wrap_grow(m, truncated)
        )
    fam = family_masks(m, cap)
    if rank_of(m) < k:
        raise InputError(f"cannot truncate rank {rank_of(m)} by {k}")
    by_size: dict[int, list[int]] = {}
    for s in fam:
        by_size.setdefault(s.bit_count(), []).append(s)
    keep = set()
    for s in fam:
        target = s.bit_count() + k
        if any(t & s == s for t in by_size.get(target, ())):
            keep.add(s)
    return ExplicitSystem(m.ground, frozenset(keep))


# ---------------------------------------------------------------------------
# nested-pair operators


def _nested_base_pairs(pair: NestedPair, cap: int | None = None):
    """(outer bases, nested pairs): the pairs (B, F) of an inner base B inside
    an outer base F, generated B-major, the inner bases read off the pair.
    The F holding B are the AND of the _holders of B's elements."""
    outer_bases = enumerate_bases(pair.outer, cap)
    holds, every = _holders(outer_bases, pair.ground.size), (1 << len(outer_bases)) - 1
    inside = (reduce(and_, [holds[e] for e in iter_bits(b)], every) for b in pair.inner_bases)
    pairs = ((b, outer_bases[i]) for b, m in zip(pair.inner_bases, inside) for i in iter_bits(m))
    return outer_bases, pairs


def difference(outer: System, inner: System, cap: int | None = None) -> ExplicitSystem:
    """The system of subsets of F - B over nested base pairs B of inner, F of outer."""
    pair = NestedPair(inner, outer, cap)
    return closed_system(pair.ground, (f & ~b for b, f in _nested_base_pairs(pair, cap)[1]))


def verify_difference_duality(
    outer: System, inner: System, cap: int | None = None
) -> tuple[bool, int | None]:
    """Compare difference(outer, inner) against dual(union(dual(outer), inner)).

    Returns (equal, witness): witness is the smallest mask in exactly one of
    the two families, None when they agree.  Equality is a theorem for nested
    finite matroids; running it on non-matroid systems may legitimately differ.
    """
    left = set(family_masks(difference(outer, inner, cap), cap))
    right_sys = dual(union(dual(outer), inner, cap))
    right = set(family_masks(right_sys, cap))
    if left == right:
        return True, None
    return False, min(left ^ right)


def spectrum(pair: NestedPair, cap: int | None = None) -> SpectrumReport:
    """All values |F - B| over nested base pairs, one canonical witness each."""
    outer_bases, pairs = _nested_base_pairs(pair, cap)
    raw: dict[int, tuple[int, int]] = {}
    for b, f in pairs:
        raw.setdefault((f & ~b).bit_count(), (b, f))
    ground = pair.ground
    witnesses = {
        v: {"base": list(ground.names(b)), "outer_base": list(ground.names(f))}
        for v, (b, f) in raw.items()
    }
    return SpectrumReport(
        values=tuple(sorted(raw)),
        witnesses=witnesses,
        bounds={"inner_bases": len(pair.inner_bases), "outer_bases": len(outer_bases)},
    )


def smin_enumerate(pair: NestedPair, cap: int | None = None) -> list[int]:
    """Minimal sets (E - F) | B over nested base pairs; ascending masks.

    These are the minimal spanning complements: remove an outer cobase, keep
    an inner base disjoint from it: the complements of the maximal F - B.
    """
    full = pair.ground.full_mask
    complements = (f & ~b for b, f in _nested_base_pairs(pair, cap)[1])
    return sorted(full ^ c for c in _maximal(complements))


# ---------------------------------------------------------------------------
# block counterexample generator


def ch4_blocks(r: int) -> list[tuple[int, ...]]:
    """Consecutive blocks of sizes 1..r over elements 0..r(r+1)/2-1."""
    if r < 1:
        raise InputError("block count must be at least 1")
    out = []
    start = 0
    for i in range(1, r + 1):
        out.append(tuple(range(start, start + i)))
        start += i
    return out


def _ch4_ground(r: int) -> GroundSet:
    """Labels 1..r(r+1)/2 as numerals; r past MAX_WINDOW raises
    ResourceLimitError before any label is built."""
    if r < 1:
        raise InputError("block count must be at least 1")
    if r > MAX_WINDOW:
        raise ResourceLimitError(f"{r} blocks; block systems are capped at {MAX_WINDOW}")
    return GroundSet(tuple(str(i + 1) for i in range(r * (r + 1) // 2)))


def ch4_inner(r: int) -> ExplicitSystem:
    """The block-avoidance system: a set is independent when it misses at
    least one block entirely.  Its bases are the block complements, and for
    r >= 2 it fails I3."""
    ground = _ch4_ground(r)
    return closed_system(ground, (ground.full_mask ^ ground.mask(block) for block in ch4_blocks(r)))


def ch4_system(r: int) -> NestedPair:
    """ch4_inner(r) nested in the free matroid on its ground; the spectrum is
    1..r.  The nesting check reads only the r stored block complements, and
    the spectrum lists the free matroid's one base under its cap."""
    inner = ch4_inner(r)
    free = uniform_matroid(inner.size, inner.size, labels=inner.ground.labels)
    return NestedPair(inner, free)


def ch4_i3_witness(r: int) -> dict[str, int]:
    """The canonical maximality-failure pair for ch4_system(r), r >= 2.

    A drops the first block and the first element of the second block; B is
    the complement of the second block.  A's only extension is the dropped
    second-block element, which B does not contain, and the element B does
    offer leaves every block inhabited.
    """
    if r < 2:
        raise InputError("the block system satisfies I3 for r < 2")
    n = r * (r + 1) // 2
    full = (1 << n) - 1
    t1 = 0b001  # first block = element 0
    t2 = 0b110  # second block = elements 1, 2
    return {"A": full ^ (t1 | 0b010), "B": full ^ t2}
