"""Finite edits of periodic families: deletions, coloop contraction, batch scans.

Edits touch only finitely many edge instances.  Early-window instances are
first absorbed into the prefix (unrolling), which keeps the repeating zone
untouched and the symbolic engine applicable to the edited family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cycles import (
    GluingSpec,
    _bits_meeting,
    _candidate_bits,
    _glued_bases,
    _gluing,
    _prefix_forest,
    _remap_edge_set,
    _units,
    cycle_independent,
    cycle_is_base,
    edge_set_is_empty,
    edge_sets_difference,
    edge_sets_intersect,
    edge_sets_union,
    glue_all,
    spectrum_search,
)
from .errors import InputError, ResourceLimitError
from .ops import NestedPair, SpectrumReport, spectrum as finite_spectrum
from .periodic import (
    MAX_WINDOW,
    PeriodicGraphSpec,
    UPEdgeSet,
    _unrolled,
    shift_edge_set,
)


def _in_range(index, bound) -> bool:
    # JSON true loads as a bool, which is an int subclass but no index
    return type(index) is int and 0 <= index < bound


def _collect_finite(g: PeriodicGraphSpec, instances) -> UPEdgeSet:
    """Validate an iterable of single edge instances; reject recurring slots."""
    pre = set()
    explicit = set()
    for item in instances:
        inst = tuple(item)
        if len(inst) == 2 and inst[0] == "pre":
            if not _in_range(inst[1], len(g.prefix_edges)):
                raise InputError(f"prefix edge index {inst[1]!r} out of range")
            pre.add(inst[1])
            continue
        if len(inst) == 2:
            raise InputError(
                f"{inst!r} names a recurring slot; finite edits take single instances"
            )
        if len(inst) != 3:
            raise InputError(f"edge instance must be ['pre', i] or [kind, slot, window]: {inst!r}")
        kind, j, w = inst
        if kind not in ("win", "spl", "apx") or not _in_range(j, g.slot_counts()[kind]):
            raise InputError(f"no such edge slot: {inst!r}")
        if type(w) is not int or w < 0:
            raise InputError(f"window index must be a natural number: {inst!r}")
        if w > MAX_WINDOW:
            # an edit at window w unrolls w + 1 windows into the prefix
            raise ResourceLimitError(
                f"edit at window {w}; edits are capped at window {MAX_WINDOW}"
            )
        explicit.add((kind, j, w))
    p = 1 + max((w for _, _, w in explicit), default=-1)
    return UPEdgeSet(p, frozenset(pre), frozenset(explicit), frozenset())


def delete_edges(g: PeriodicGraphSpec, instances) -> PeriodicGraphSpec:
    """Remove finitely many edge instances, returning a standalone family.

    Windows holding a removal are absorbed into the prefix first, so the
    result's window 0 is the first untouched window of the input.
    """
    doomed = _collect_finite(g, instances)
    if not (doomed.prefix_present or doomed.explicit):
        return g
    rolled, absorbed = _unrolled(g, doomed.p)
    ids = doomed.prefix_present | {absorbed[inst] for inst in doomed.explicit}
    kept = tuple(e for i, e in enumerate(rolled.prefix_edges) if i not in ids)
    return replace(rolled, prefix_edges=kept)


def _past_deletion(g: PeriodicGraphSpec, deleted, instances) -> list:
    """instances of g, named as in delete_edges(g, deleted).

    delete_edges unrolls the deletion's k windows into the prefix: an
    instance there becomes a prefix edge, numbered among the kept ones, and
    a later one moves k windows left (shift_edge_set).  Naming a deleted
    instance is bad input.
    """
    doomed = _collect_finite(g, deleted)
    s = _collect_finite(g, instances)
    if edge_sets_intersect(s, doomed):
        gone = edge_sets_difference(s, edge_sets_difference(s, doomed))
        raise InputError(f"the edit contracts edges it deletes: {gone.to_obj()}")
    absorbed = _unrolled(g, doomed.p)[1]
    ids = doomed.prefix_present | {absorbed[inst] for inst in doomed.explicit}
    shifted = shift_edge_set(g, s, doomed.p)
    pre = [("pre", i - sum(d < i for d in ids)) for i in sorted(shifted.prefix_present)]
    return pre + sorted(shifted.explicit)


@dataclass(frozen=True)
class ContractedSystem:
    """The glued system with a certified coloop set removed from every base.

    Independence of s here means s plus the contracted edges is independent
    there; bases correspond by dropping the contracted edges, which leaves
    every defect value unchanged.
    """

    family: PeriodicGraphSpec
    glue: GluingSpec
    contracted: UPEdgeSet
    profile: tuple = (2, 1)

    def _joined(self, s: UPEdgeSet) -> UPEdgeSet:
        if edge_sets_intersect(s, self.contracted):
            raise InputError("the queried set overlaps the contracted edges")
        return edge_sets_union(s, self.contracted)

    def is_independent(self, s: UPEdgeSet) -> bool:
        return cycle_independent(self.family, self._joined(s), self.glue)[0]

    def is_base(self, s: UPEdgeSet) -> bool:
        return cycle_is_base(self.family, self._joined(s), self.glue)[0]

    def spectrum(self) -> SpectrumReport:
        rep = spectrum_search(self.family, self.glue, self.profile)
        witnesses = {}
        raw_witnesses = {}
        for v in rep.values:
            base, fin = rep.raw["witnesses"][v]
            reduced = edge_sets_difference(base, self.contracted)
            fin_red = edge_sets_difference(fin, self.contracted)
            witnesses[v] = {"base": reduced.to_obj(), "fin_base": fin_red.to_obj()}
            raw_witnesses[v] = (reduced, fin_red)
        bounds = dict(rep.bounds)
        bounds["contracted"] = self.contracted.to_obj()
        return SpectrumReport(
            values=rep.values,
            witnesses=witnesses,
            bounds=bounds,
            raw={"parent": rep, "witnesses": raw_witnesses},
        )


def contract_coloops(
    g: PeriodicGraphSpec,
    glue: GluingSpec | None,
    t,
    profile: tuple = (2, 1),
) -> ContractedSystem:
    """View of the glued system with the finite edge set t contracted.

    Every element of t must lie in every base found within the profile.
    Bases are unions of one base per unit (cycles module docstring), so each
    unit holding part of t is certified on its own, as hat_check walks them;
    the first unit base avoiding part of t is named, in the family's edge
    indices, inside the error instead.
    """
    glue = _gluing(g, glue)
    t_set = _collect_finite(g, t)
    p, q = profile
    if q != 1:
        raise InputError("coloop certificates use period-1 profiles")
    for spec, local_glue, up, down in _units(g, glue):
        if spec is None:
            # a finite all-prefix piece: an edge lies in every spanning forest
            # exactly when dropping it shrinks the forest
            ids = list(down["pre"])
            part = UPEdgeSet(0, frozenset(i for i in t_set.prefix_present if i in down["pre"]))
            size = len(_prefix_forest(g, ids))
            forests = (_prefix_forest(g, [j for j in ids if j != i]) for i in sorted(part.prefix_present))
            base = next((UPEdgeSet(0, frozenset(f)) for f in forests if len(f) == size), None)
        else:
            local_t = _remap_edge_set(down, t_set)
            if edge_set_is_empty(local_t):
                continue
            part = _remap_edge_set(up, local_t)
            # each instance of t lies in one candidate bit, so a candidate
            # holds t exactly when it holds every bit meeting t
            need = _bits_meeting(_candidate_bits(spec, p), p, local_t)
            found, _ = next(
                _glued_bases(spec, local_glue, p, lambda mask: (mask & need) == need), (None, None)
            )
            base = None if found is None else _remap_edge_set(up, found)
        if base is not None:
            raise InputError(
                f"not a coloop set within bounds: {edge_sets_difference(part, base).to_obj()} "
                f"stays outside the base {base.to_obj()}"
            )
    return ContractedSystem(g, glue, t_set, profile)


def spectrum_scan(entries, profile: tuple = (2, 1), cap: int | None = None) -> list:
    """Batch spectra with a gap flag per row.

    Each entry is (name, family, gluing) for the symbolic engine,
    (name, nested_pair) for a finite system, swept under cap, or
    (name, contracted_view).  A gap is an absent value strictly between two
    present values.
    """
    rows = []
    for entry in entries:
        name, obj = entry[0], entry[1]
        if isinstance(obj, PeriodicGraphSpec):
            glue = entry[2] if len(entry) > 2 and entry[2] is not None else glue_all(obj)
            rep = spectrum_search(obj, glue, profile)
        elif isinstance(obj, NestedPair):
            rep = finite_spectrum(obj, cap)
        elif isinstance(obj, ContractedSystem):
            rep = obj.spectrum()
        else:
            raise InputError(f"cannot scan {type(obj).__name__}")
        gap = any(b - a > 1 for a, b in zip(rep.values, rep.values[1:]))
        rows.append({"name": name, "values": rep.values, "gap": gap, "report": rep})
    return rows
