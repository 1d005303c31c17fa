"""Finite independence systems: explicit set families and rank-oracle matroids.

Subsets of the ground set are encoded as int bitmasks, element i = bit i.
Canonical order on subsets is ascending mask value; families and witnesses are
always reported in that order so repeated runs are byte-stable.

Two system kinds share one functional API:

* ExplicitSystem  -- the family of independent sets, stored outright.
* OracleMatroid   -- a rank function (uniform formula, graphic union-find,
                     linear elimination, or a wrapped explicit family).

family_masks lists an oracle's independent sets in one pass that extends each
set by one element.  Uniform, graphic and linear oracles, and their minors,
truncations and duals, carry a grow pair that takes each step incrementally;
any other oracle (from_explicit and its wrappers) takes the step with a rank
call.  No set of r elements is extended, r the rank of the ground: the rank is
monotone, so a set T with |T| > r >= r(T) is dependent.  A grown oracle is a
matroid, so enumerate_bases lists its bases by the same pass pruned to r: all
bases have r elements, and a set only gains elements below its lowest, so a
branch with too few of those left is dropped without losing a base.  A closed
explicit family is stored as its bases, the antichain of its maximal members,
so its bases, rank and deletions come from them and only a reader that needs
every member lists the down-closure.  The axiom screens, circuit enumeration
and the bases of any other system read the whole family, and each fact about a
family has one helper: _family_table for its one-element extensions and
closure failures (bases, the I and F screens and ops.union read it when the
family is not stored closed), _maximal for the maximal masks of any set of
them, _explicit_rank for an explicit family's rank, closed_system for all
subsets of given sets, and _first_unaugmented for a pair A, B with no element
of B extending A.  I3 and F3 share that one scan, level by level: I3 pairs
the non-maximal members with the bases, F3 the members of each size with the
larger ones, on a closed family only those one larger: a failing B has
failing subsets of that size, and those come first.  The scan and B2 read
_holders, the bitset of the candidates that hold each element.  The scan
finds every B failing with A at once, as the bitset of the candidates that
hold no element of addable[A]; B2 every B2 failing with a pair (B1, x), as the
bitset of the bases that hold neither x nor any y that B1 - x + y makes a base.

Every powerset sweep is capped at SWEEP_CAP elements, overridden per call by
passing cap=... where offered; listing a closed family's members sweeps the
powerset of its largest base.  family_masks and enumerate_bases list each
system object once (_kept); every call checks its own cap first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import accumulate, groupby
from operator import or_
from typing import Callable, Collection, Iterable

from .errors import InputError, ResourceLimitError
from .util import down_closure, iter_bits, spanning_forest

SWEEP_CAP = 16


# ---------------------------------------------------------------------------
# ground sets and subset handling


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite ground set. Element i carries labels[i] and bit i."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate labels in ground set")

    @classmethod
    def of_size(cls, m: int) -> "GroundSet":
        return cls(tuple(f"e{i}" for i in range(m)))

    @classmethod
    def named(cls, labels: Iterable[str]) -> "GroundSet":
        return cls(tuple(str(x) for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"label {label!r} not in ground set") from None

    def mask(self, elements: Iterable[int]) -> int:
        m = 0
        for e in elements:
            if not 0 <= e < self.size:
                raise InputError(f"element {e} outside ground set of size {self.size}")
            m |= 1 << e
        return m

    def elements(self, mask: int) -> tuple[int, ...]:
        return iter_bits(mask)

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))


def as_mask(ground: GroundSet, subset) -> int:
    """Accept an int mask or an iterable of element indices."""
    if isinstance(subset, int):
        if subset < 0 or subset > ground.full_mask:
            raise InputError("subset mask outside ground set")
        return subset
    return ground.mask(subset)


# ---------------------------------------------------------------------------
# system kinds


@dataclass(frozen=True, eq=False)
class ExplicitSystem:
    """An independence system given by an explicit family of sets.

    A closed family (closed_system, explicit_system with check=True) is the
    down-closure of sets, kept as its maximal sets: its bases.  Any other
    family (check=False, and filters or unions of such families) is sets
    itself.  independents lists every member, a closed family's on first
    read.  Families are equal when their members are; two closed ones are
    compared, and any family is hashed, by its bases alone."""

    ground: GroundSet
    sets: frozenset[int]
    closed: bool = False

    def __post_init__(self):
        full = self.ground.full_mask
        for s in self.sets:
            if s < 0 or s > full:
                raise InputError("family member outside ground set")
        if self.closed:
            object.__setattr__(self, "sets", _maximal(self.sets))

    @cached_property
    def independents(self) -> frozenset[int]:
        return down_closure(self.sets) if self.closed else self.sets

    def is_independent(self, mask: int) -> bool:
        if self.closed:
            return any(mask & g == mask for g in self.sets)
        return mask in self.sets

    def family(self) -> list[int]:
        return _kept(self, "_family", lambda: sorted(self.independents))

    @property
    def size(self) -> int:
        return self.ground.size

    def __eq__(self, other):
        if not isinstance(other, ExplicitSystem):
            return NotImplemented
        if self.closed and other.closed:
            return self.ground == other.ground and self.sets == other.sets
        return self.ground == other.ground and self.independents == other.independents

    def __hash__(self):
        # a family's largest members are its largest sets, stored either way
        return hash((self.ground, max(map(int.bit_count, self.sets), default=-1)))


def _maximal(tops) -> frozenset[int]:
    """The inclusion-maximal masks among tops.  A mask lies inside no other
    of its own size, so each is tested only against the larger ones kept."""
    by_size: dict[int, list[int]] = {}
    for t in set(tops):
        by_size.setdefault(t.bit_count(), []).append(t)
    kept: list[int] = []
    for k in sorted(by_size, reverse=True):
        kept += [t for t in by_size[k] if not any(g & t == t for g in kept)]
    return frozenset(kept)


@dataclass(frozen=True)
class OracleMatroid:
    """A matroid presented by its rank function on subset masks.

    grow optionally speeds up the sweeps of family_masks and enumerate_bases
    (module docstring).  grow(cap) returns a pair (state of the empty set,
    step) where step(state, j) is the state of the set plus element j, or
    None when j depends on the set.  It is built at sweep time, so building
    an oracle never sweeps; it returns None instead of a pair when building
    one would sweep a ground past cap, and family_masks then takes rank
    calls.  A grow pair is exact only for matroids: uniform, graphic and
    linear oracles carry one, and delete, contract, truncate_top and dual set
    one exactly when the oracle they wrap has one; dual's lists the primal's
    bases.  from_explicit oracles, which may wrap non-matroids, carry none.

    primal is set on a dual: the oracle it is the dual of.  delete and
    contract take a minor of a dual as the dual of the primal's minor, so the
    minor's sweep lists bases on its own ground, not the whole primal's.
    """

    ground: GroundSet
    rank_fn: Callable[[int], int] = field(compare=False)
    label: str = "matroid"
    grow: Callable[[int | None], tuple | None] | None = field(
        default=None, compare=False, repr=False
    )
    primal: "OracleMatroid | None" = field(default=None, compare=False, repr=False)

    def rank(self, mask: int) -> int:
        return self.rank_fn(mask)

    def is_independent(self, mask: int) -> bool:
        return self.rank_fn(mask) == mask.bit_count()

    @property
    def full_rank(self) -> int:
        return self.rank_fn(self.ground.full_mask)

    @property
    def size(self) -> int:
        return self.ground.size

    def __repr__(self):
        return f"OracleMatroid({self.label}, m={self.size})"


System = ExplicitSystem | OracleMatroid


def explicit_system(ground: GroundSet, subsets, check: bool = True) -> ExplicitSystem:
    """Build an ExplicitSystem from an iterable of element collections or masks.

    check=True insists on a nonempty downward-closed family containing the
    empty set; check=False stores the family raw, so axiom violations of the
    basic kind can be constructed and then diagnosed by check_axioms.
    """
    masks = frozenset(as_mask(ground, s) for s in subsets)
    if not check:
        return ExplicitSystem(ground, masks)
    if 0 not in masks:
        raise InputError("family does not contain the empty set")
    addable, missing = _family_table(masks)
    if missing:
        raise InputError("family is not downward closed")
    # the table has just shown that masks lists every member
    sys_ = closed_system(ground, _table_bases(masks, addable, missing))
    sys_.__dict__["independents"] = masks
    return sys_


def closed_system(ground: GroundSet, tops) -> ExplicitSystem:
    """The family of all subsets of the masks tops, stored as the maximal
    ones."""
    return ExplicitSystem(ground, frozenset(tops), closed=True)


# ---------------------------------------------------------------------------
# canned constructors


def uniform_matroid(rank: int, size: int, labels=None) -> OracleMatroid:
    if rank < 0 or rank > size:
        raise InputError("uniform rank must lie in 0..size")
    ground = GroundSet.named(labels) if labels else GroundSet.of_size(size)

    def rk(mask: int, _r=rank) -> int:
        return min(mask.bit_count(), _r)

    # sweep state: the set size
    def step(n: int, j: int):
        return n + 1 if n < rank else None

    return OracleMatroid(
        ground, rk, label=f"U({rank},{size})", grow=lambda cap: (0, step)
    )


def free_matroid(size: int, labels=None) -> OracleMatroid:
    return uniform_matroid(size, size, labels)


def graphic_matroid(n_vertices: int, edges: Collection[tuple[int, int]], labels=None) -> OracleMatroid:
    """Cycle matroid of a multigraph; ground element i is edges[i]. Loops rank 0."""
    edges = tuple((int(u), int(v)) for u, v in edges)
    for u, v in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise InputError("edge endpoint outside vertex range")
    ground = GroundSet.named(labels) if labels else GroundSet.of_size(len(edges))
    if ground.size != len(edges):
        raise InputError("ground size must match edge count")

    def rk(mask: int) -> int:
        return len(spanning_forest([edges[i] for i in iter_bits(mask)]))

    # sweep state: component label of each vertex an edge touches
    touched = {x: i for i, x in enumerate(sorted({x for e in edges for x in e}))}
    ends = [(touched[u], touched[v]) for u, v in edges]

    def step(labels: tuple, j: int):
        a, b = labels[ends[j][0]], labels[ends[j][1]]
        if a == b:
            return None
        return tuple(a if x == b else x for x in labels)

    return OracleMatroid(
        ground,
        rk,
        label=f"graphic(n={n_vertices},m={len(edges)})",
        grow=lambda cap: (tuple(range(len(touched))), step),
    )


def from_explicit(sys_: ExplicitSystem) -> OracleMatroid:
    """Wrap an explicit family as a rank oracle (max member size inside S)."""
    return OracleMatroid(sys_.ground, lambda mask: _explicit_rank(sys_, mask), label="explicit")


def _explicit_rank(sys_: ExplicitSystem, mask: int) -> int:
    """Size of a largest member of sys_ inside mask: in a closed family, the
    most elements of mask that one base holds."""
    if sys_.closed:
        return max(((g & mask).bit_count() for g in sys_.sets), default=0)
    return max((s.bit_count() for s in sys_.sets if s & ~mask == 0), default=0)


# ---------------------------------------------------------------------------
# family materialization and basic queries


def _fits(n: int, cap: int | None) -> bool:
    """May a powerset sweep cover n elements under cap (SWEEP_CAP when None)?"""
    return n <= (SWEEP_CAP if cap is None else cap)


def _check_sweep(n: int, cap: int | None):
    cap = SWEEP_CAP if cap is None else cap
    if not _fits(n, cap):
        raise ResourceLimitError(f"powerset sweep over {n} elements exceeds cap {cap}")


def _kept(sys_: System, key: str, make) -> list[int]:
    """make() as a fresh list, made on the first call and kept on the object
    sys_, in its __dict__: oracles compare by ground and label alone, so a
    listing is never kept by value.  Callers check their cap first."""
    kept = sys_.__dict__.get(key)
    if kept is None:
        kept = sys_.__dict__[key] = tuple(make())
    return list(kept)


def family_masks(sys_: System, cap: int | None = None) -> list[int]:
    """All independent sets as masks, ascending, listed once per system.

    Oracles are swept with the pair grow(cap) gives when they have one, else
    with one rank call per candidate set.  A closed explicit family lists the
    subsets of its bases, a sweep over the powerset of the largest.
    """
    if isinstance(sys_, ExplicitSystem):
        if sys_.closed:
            _check_sweep(max(map(int.bit_count, sys_.sets), default=0), cap)
        return sys_.family()
    _check_sweep(sys_.ground.size, cap)
    return _kept(sys_, "_family", lambda: _swept_family(sys_, cap))


def _swept_family(sys_: OracleMatroid, cap: int | None) -> list[int]:
    pair = sys_.grow(cap) if sys_.grow is not None else None
    if pair is not None:
        return _grown_family(sys_.ground.size, *pair, _greedy_rank(sys_.ground.size, *pair))
    if not sys_.is_independent(0):
        return []

    def step(mask: int, j: int):
        child = mask | 1 << j
        return child if sys_.is_independent(child) else None

    return _grown_family(sys_.ground.size, 0, step, sys_.full_rank)


def _grown_family(size: int, root, step, rank: int, target: int = 0) -> list[int]:
    """Independent sets that step grows from the empty set, ascending; with
    target > 0, only those of target elements.

    Each set is reached from mask ^ low, its lowest element removed, by one
    step(state, j), which returns the new set's state or None when it is
    dependent.  The children of a set add an element below its lowest one;
    visiting them by ascending element in depth-first preorder lists masks in
    ascending order.  The visit keeps its path in a list, not on the call
    stack, so no base is too large to reach.  A dependent set is never
    extended, so by downward closure no set with a dependent subset is ever
    tested, nor is a set of rank elements, rank being the rank r of the
    ground: the rank is monotone, so all its children T, with |T| > r >=
    r(T), are dependent.  A set of k elements whose lowest is b gains at most
    b more, so a child adding j can reach target only when k + 1 + j >=
    target: start[k] skips smaller j.
    """
    out = [] if target else [0]
    start = [max(0, target - k - 1) for k in range(size + 1)]
    # the path to the set being extended: per set its mask, state and size,
    # and the elements below its lowest still to try, ascending
    path = [(0, root, 0, iter(range(start[0], size)))] if rank else []
    while path:
        mask, state, k, todo = path[-1]
        for j in todo:
            child = step(state, j)
            if child is not None:
                grown = mask | 1 << j
                if k + 1 >= target:
                    out.append(grown)
                if k + 1 == rank:
                    continue
                path.append((grown, child, k + 1, iter(range(start[k + 1], j))))
                break
        else:
            path.pop()
    return out


def is_independent(sys_: System, subset) -> bool:
    return sys_.is_independent(as_mask(sys_.ground, subset))


def rank_of(sys_: System, subset=None) -> int:
    """Rank of a subset: size of a largest independent set inside it."""
    mask = sys_.ground.full_mask if subset is None else as_mask(sys_.ground, subset)
    if isinstance(sys_, OracleMatroid):
        return sys_.rank(mask)
    return _explicit_rank(sys_, mask)


def _family_table(fam) -> tuple[dict[int, int], dict[int, int]]:
    """(addable, missing) for the members fam, from one visit to each member
    and element of it, elements ascending: addable[A] is the mask of the e
    outside A with A + e a member; missing[A] is A less its lowest element
    whose removal leaves the family, for the members that have one, so none
    when the family is closed."""
    addable = dict.fromkeys(fam, 0)
    missing: dict[int, int] = {}
    for e in range(max(addable, default=0).bit_length()):
        bit = 1 << e
        for s in addable:
            if s & bit:
                try:
                    addable[s ^ bit] |= bit
                except KeyError:
                    missing.setdefault(s, s ^ bit)
    return addable, missing


def _table_bases(fam: list[int], addable: dict, missing: dict) -> list[int]:
    """Maximal members of the ascending family fam, given its _family_table.

    In a closed family they are the members nothing extends: for a member S
    inside a larger member T and any e in T - S, S + e lies inside T, so it is
    a member by closure.  Otherwise _maximal compares members."""
    return sorted(_maximal(fam)) if missing else [s for s in fam if not addable[s]]


def _is_grown(sys_: System) -> bool:
    """Is sys_ an oracle with a grow pair, and so a matroid?"""
    return isinstance(sys_, OracleMatroid) and sys_.grow is not None


def _is_closed(sys_: System) -> bool:
    """Is sys_ an explicit family stored closed, as its bases?"""
    return isinstance(sys_, ExplicitSystem) and sys_.closed


def enumerate_bases(sys_: System, cap: int | None = None) -> list[int]:
    """Maximal independent sets, ascending masks.

    A grown oracle is a matroid, whose maximal independent sets all have its
    rank r's size: each extends to a largest one by augmentation.  So its
    bases are the sets _grown_family lists with target r, r read off one
    greedy pass of step: a sweep of only the sets with room below their
    lowest element to reach r, not the whole family.  Any other family may
    not be closed, not even a rank sweep's: from_explicit of {}, {0}, {2},
    {1,2}, {0,1,2} sweeps to {0} and {0,1,2} without {0,1}; its bases come
    from _table_bases.  A closed explicit family is stored as its bases."""
    if _is_closed(sys_):
        return sorted(sys_.sets)
    if isinstance(sys_, OracleMatroid):
        _check_sweep(sys_.ground.size, cap)
    return _kept(sys_, "_bases", lambda: _swept_bases(sys_, cap))


def _swept_bases(sys_: System, cap: int | None) -> list[int]:
    pair = sys_.grow(cap) if _is_grown(sys_) else None
    if pair is not None:
        r = _greedy_rank(sys_.ground.size, *pair)
        return _grown_family(sys_.ground.size, *pair, r, r)
    fam = family_masks(sys_, cap)
    return _table_bases(fam, *_family_table(fam))


def _greedy_rank(size: int, root, step) -> int:
    """Rank of a matroid from its grow pair: the size of the set that takes
    each element, ascending, that step accepts."""
    r = 0
    for j in range(size):
        grown = step(root, j)
        if grown is not None:
            root, r = grown, r + 1
    return r


def enumerate_circuits(sys_: System, cap: int | None = None) -> list[int]:
    """Minimal dependent sets, ascending masks. Loops are singleton circuits.

    A circuit minus any one element is independent, so every circuit is a
    dependent one-element extension of an independent set; only those are
    tested, not the whole powerset.
    """
    _check_sweep(sys_.ground.size, cap)
    fam = family_masks(sys_, cap)
    fam_set = set(fam)
    full = sys_.ground.full_mask
    candidates = {s | 1 << e for s in fam for e in iter_bits(full ^ s)} - fam_set
    return sorted(c for c in candidates if all(c ^ 1 << e in fam_set for e in iter_bits(c)))


# ---------------------------------------------------------------------------
# axiom conformance


AXIOM_SETS = ("I", "B", "F")


@dataclass
class AxiomReport:
    """Outcome of an axiom-system conformance run.

    verdicts maps axiom name to "pass", "fail", or "vacuous-pass"; witnesses
    holds mask payloads for failures, minimized by cardinality then by mask
    value, so reruns always produce the same certificate.
    """

    system_id: str
    ground: GroundSet
    verdicts: dict[str, str]
    witnesses: dict[str, dict]
    notes: dict[str, str]

    @property
    def conformant(self) -> bool:
        return all(v != "fail" for v in self.verdicts.values())

    def to_dict(self) -> dict:
        def namesof(mask):
            return list(self.ground.names(mask))

        wit = {
            ax: {k: namesof(v) for k, v in payload.items()}
            for ax, payload in self.witnesses.items()
        }
        return {
            "system_id": self.system_id,
            "verdicts": dict(sorted(self.verdicts.items())),
            "witnesses": {k: wit[k] for k in sorted(wit)},
            "notes": {k: self.notes[k] for k in sorted(self.notes)},
            "conformant": self.conformant,
        }


def _by_card(masks: list[int]) -> list[int]:
    """The ascending masks ordered by size, then mask: a stable sort by size
    keeps the ascending order within each size."""
    return sorted(masks, key=int.bit_count)


def check_axioms(sys_: System, system_id: str = "I", cap: int | None = None) -> AxiomReport:
    """Check one axiom system (I, B, or F) exhaustively on a finite ground set.

    B reads only the bases.  I and F share the family and its _family_table:
    the closure witness is the least member by size, then mask, in missing,
    and (A, B) breaks augmentation exactly when B & addable[A] == 0.
    I3 and F3 share one scan, level by level (_first_unaugmented): I3 has
    one level, the non-maximal members against the maximal ones; F3 one per
    size k, the members of size k against the larger members, in a closed
    family only those of size k + 1, since a failing B has failing subsets
    of that size, all members, and _by_card lists them first: the first
    witness is the same.  A family stored closed has nothing missing, and
    addable[A] is the union of the bases containing A, less A.  With no more
    bases than elements it builds no table: that union, read only for the A
    the scan visits, costs no more than the table's pass over the elements
    of every member.  The scan and B2 read _holders in _by_card order, so
    each A or (B1, x) tests every candidate with one bitset.
    """
    if system_id not in AXIOM_SETS:
        raise InputError(f"unknown axiom system {system_id!r}; expected I, B, or F")
    verdicts: dict[str, str] = {}
    witnesses: dict[str, dict] = {}
    notes: dict[str, str] = {}

    def record(axiom: str, witness: dict | None):
        verdicts[axiom] = "pass" if witness is None else "fail"
        if witness is not None:
            witnesses[axiom] = witness

    if system_id == "B":
        bases = enumerate_bases(sys_, cap)
        record("B1", None if bases else {})
        record("B2", _check_base_exchange(bases))
        verdicts["B3"] = "vacuous-pass"
        notes["B3"] = "subsets of maximal members form a finite family; see I4 note"
        return AxiomReport(system_id, sys_.ground, verdicts, witnesses, notes)

    fam = family_masks(sys_, cap)
    bases = enumerate_bases(sys_) if _is_closed(sys_) else None
    if bases is not None and len(bases) <= sys_.size:
        addable, missing = _Spanned(bases), {}
    else:
        addable, missing = _family_table(fam)
    by_card = _by_card(fam)
    # the first member by size, then mask, that misses a one-smaller subset
    first = min(missing, key=lambda s: (s.bit_count(), s), default=None)
    closure = None if first is None else {"set": first, "missing_subset": missing[first]}
    record(system_id + "1", None if fam[:1] == [0] else {})
    record(system_id + "2", closure)
    if system_id == "I":
        if bases is None:
            bases = _table_bases(fam, addable, missing)
        maximal = set(bases)
        non_maximal = [a for a in by_card if a not in maximal]
        record("I3", _first_unaugmented([(non_maximal, _by_card(bases))], addable, sys_.size))
        verdicts["I4"] = "vacuous-pass"
        notes["I4"] = (
            "every nonempty finite family has a maximal member; the candidate set "
            "always contains A, so the axiom cannot fail on a finite ground set"
        )
    else:
        # a closed family has every size from 0 up, so sizes[k + 1] holds
        # the members one larger than those of sizes[k]
        sizes = [list(g) for _, g in groupby(by_card, int.bit_count)]
        ends = list(accumulate(map(len, sizes)))
        levels = (
            (sizes[k], by_card[ends[k] :] if missing else sizes[k + 1])
            for k in range(len(sizes) - 1)
        )
        record("F3", _first_unaugmented(levels, addable, sys_.size))
        # on a finite ground every subset is finite and contains itself, so the
        # backward direction is automatic and F4 reduces to downward closure
        record("F4", closure)
        notes["F4"] = "finite ground: equivalent to downward closure"
    return AxiomReport(system_id, sys_.ground, verdicts, witnesses, notes)


class _Spanned:
    """addable of the down-closure of bases, each entry computed when read:
    A + e is a member exactly when a base holds A and e."""

    def __init__(self, bases: list[int]):
        self.bases = bases

    def __getitem__(self, a: int) -> int:
        x = 0
        for b in self.bases:
            if b & a == a:
                x |= b
        return x & ~a


def _holders(ordered: list[int], size: int) -> list[int]:
    """For each element e below size, the bitset of the indices i with e in
    ordered[i].  One pass writes each mask in binary below a leading 1 that
    keeps every digit; read from the last mask to the first, digit column k
    is holders[size - 1 - k] in binary."""
    rows = (format(m | 1 << size, "b")[1:] for m in reversed(ordered))
    return [int("".join(col), 2) for col in zip(*rows)][::-1] or [0] * size


def _first_unaugmented(levels, addable, size: int) -> dict | None:
    """The first A and B, levels in turn, with no element of B extending A,
    as {"A": A, "B": B}; None when there is none.  Each level is a pair
    (members, candidates), both in _by_card order.  addable never meets A,
    so the candidates that fail with A are those outside the OR of the
    _holders of addable[A]'s elements, and the lowest index among them is
    the first B that a pair scan finds.  A level's holders are built only
    when the scan reaches it."""
    for members, candidates in levels:
        holds, every = _holders(candidates, size), (1 << len(candidates)) - 1
        for a in members:
            free = every & ~reduce(or_, [holds[e] for e in iter_bits(addable[a])], 0)
            if free:
                return {"A": a, "B": candidates[(free & -free).bit_length() - 1]}
    return None


def _check_base_exchange(bases) -> dict | None:
    """B2: for bases B1 != B2 and x in B1 - B2, some y in B2 - B1 makes
    B1 - x + y a base.  With the bases indexed in _by_card order and holds[e]
    the bitset of those holding e, the B2 failing with (B1, x) are those
    holding neither x nor any y outside B1 that B1 - x + y makes a base, B1
    itself never among them.  The lowest of them over every x, then the
    first x it fails with, is the first failure a direct search finds."""
    bases_set = set(bases)
    ordered = _by_card(bases)
    holds = _holders(ordered, max(bases, default=0).bit_length())
    for b1 in ordered:
        fails = {}
        for x in iter_bits(b1):
            spared = holds[x]
            for y, held in enumerate(holds):
                if not b1 >> y & 1 and b1 ^ 1 << x | 1 << y in bases_set:
                    spared |= held
            fails[1 << x] = ~spared & (1 << len(ordered)) - 1
        first = min((f & -f for f in fails.values() if f), default=0)
        if first:
            x = next(x for x, f in fails.items() if f & first)
            return {"B1": b1, "B2": ordered[first.bit_length() - 1], "x": x}
    return None


def replay_witness(sys_: System, axiom: str, witness: dict, cap: int | None = None) -> bool:
    """True iff the witness still falsifies the axiom on sys_."""
    if axiom not in ("I1", "I2", "I3", "B1", "B2", "F1", "F2", "F3", "F4"):
        raise InputError(f"no replay rule for axiom {axiom!r}")
    fam_set = set(family_masks(sys_, cap))
    maximal = set(enumerate_bases(sys_, cap))
    if axiom in ("I1", "F1"):
        return 0 not in fam_set
    if axiom in ("I2", "F2", "F4"):
        return witness["set"] in fam_set and witness["missing_subset"] not in fam_set
    if axiom == "B1":
        return not maximal
    if axiom == "B2":
        b1, b2, x = witness["B1"], witness["B2"], witness["x"]
        if not (b1 in maximal and b2 in maximal and b1 & x):
            return False
        return all((b1 ^ x) | (1 << y) not in maximal for y in iter_bits(b2 & ~b1))
    a, b = witness["A"], witness["B"]
    if axiom == "I3":
        fits = a in fam_set and a not in maximal and b in maximal
    else:
        fits = a in fam_set and b in fam_set and a.bit_count() < b.bit_count()
    return fits and all((a | (1 << e)) not in fam_set for e in iter_bits(b & ~a))


# ---------------------------------------------------------------------------
# duality and minors


def dual(sys_: System) -> System:
    """Dual system. Oracles use the rank identity; explicit families use cobases.

    For a non-matroid family the rank identity is meaningless, so the dual is
    taken as all subsets of complements of maximal members.  For matroids the
    two constructions agree.
    """
    if isinstance(sys_, OracleMatroid):
        ground = sys_.ground
        full = ground.full_mask
        r_total = sys_.rank(full)
        inner = sys_.rank_fn

        def rk(mask: int) -> int:
            return mask.bit_count() + inner(full ^ mask) - r_total

        def grow(cap):
            # S is coindependent iff it misses some base; the state is the
            # bitset of bases S misses, listed by the primal's own base sweep
            if not _fits(ground.size, cap):
                return None  # a minor of a truncated dual sweeps a smaller ground
            bases = enumerate_bases(sys_, cap)
            without = _holders([full ^ b for b in bases], ground.size)
            return (1 << len(bases)) - 1, lambda state, j: state & without[j] or None

        return OracleMatroid(
            ground,
            rk,
            label=f"dual({sys_.label})",
            grow=grow if sys_.grow is not None else None,
            primal=sys_,
        )
    full = sys_.ground.full_mask
    return closed_system(sys_.ground, (full ^ b for b in enumerate_bases(sys_)))


def _minor_ground(ground: GroundSet, keep_mask: int) -> tuple[GroundSet, list[int]]:
    keep = list(iter_bits(keep_mask))
    return GroundSet(tuple(ground.labels[i] for i in keep)), keep


def delete(sys_: System, subset) -> System:
    """Restriction to the complement of subset; ground relabels to the survivors."""
    x = as_mask(sys_.ground, subset)
    keep_mask = sys_.ground.full_mask ^ x
    new_ground, keep = _minor_ground(sys_.ground, keep_mask)
    if isinstance(sys_, OracleMatroid):
        if sys_.primal is not None:
            # (M*)\X == (M/X)*, so the minor's sweep stays on its own ground
            return replace(dual(contract(sys_.primal, x)), label=f"{sys_.label}|del")
        inner = sys_.rank_fn

        def rk(mask: int) -> int:
            return inner(_expand(mask, keep))

        def deleted(root, step):
            return root, lambda state, j: step(state, keep[j])

        return OracleMatroid(
            new_ground, rk, label=f"{sys_.label}|del", grow=_wrap_grow(sys_, deleted)
        )
    if _is_closed(sys_):
        # the members avoiding x are the submasks of the bases less x
        return closed_system(new_ground, (_compress(g & ~x, keep) for g in sys_.sets))
    fam = frozenset(_compress(s, keep) for s in sys_.sets if s & x == 0)
    return ExplicitSystem(new_ground, fam)


def contract(sys_: System, subset) -> System:
    """Contraction of subset.  Satisfies contract(m, X) == dual(delete(dual(m), X))."""
    x = as_mask(sys_.ground, subset)
    if isinstance(sys_, OracleMatroid):
        if sys_.primal is not None:
            # (M*)/X == (M\X)*, so the minor's sweep stays on its own ground
            return replace(dual(delete(sys_.primal, x)), label=f"{sys_.label}/con")
        keep_mask = sys_.ground.full_mask ^ x
        new_ground, keep = _minor_ground(sys_.ground, keep_mask)
        inner = sys_.rank_fn
        rx = inner(x)

        def rk(mask: int) -> int:
            return inner(_expand(mask, keep) | x) - rx

        def contracted(root, step):
            # root becomes the state of a basis B_X of X; I is independent in
            # M/X iff I | B_X is independent in M
            for i in iter_bits(x):
                grown = step(root, i)
                if grown is not None:
                    root = grown
            return root, lambda state, j: step(state, keep[j])

        return OracleMatroid(
            new_ground, rk, label=f"{sys_.label}/con", grow=_wrap_grow(sys_, contracted)
        )
    return dual(delete(dual(sys_), subset))


def _wrap_grow(sys_: OracleMatroid, wrap):
    """The grow of an oracle wrapping sys_: wrap(root, step) maps sys_'s grow
    pair to the wrapper's.  None when sys_ has no grow."""
    if sys_.grow is None:
        return None

    def grow(cap):
        pair = sys_.grow(cap)
        return None if pair is None else wrap(*pair)

    return grow


def _expand(mask: int, keep: list[int]) -> int:
    """Move bit i of mask to bit keep[i]."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << keep[i]
    return out


def _compress(mask: int, keep: list[int]) -> int:
    out = 0
    for new_bit, old_bit in enumerate(keep):
        if mask & (1 << old_bit):
            out |= 1 << new_bit
    return out
