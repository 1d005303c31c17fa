"""Cycle systems of glued periodic graphs.

Gluing identifies selected end classes to single points at infinity.  A set of
edges is independent when it contains neither a finite cycle nor a circle
through glue points; a circle is a cyclic arrangement of m >= 1 vertex-disjoint
double rays whose tails converge to the (distinct) glue points it visits, the
minimal case being one double ray with both tails at the same point.

Inside a finite-cycle-free set every component is a tree, and any two disjoint
rays of a tree join into a double ray.  Whether a circle exists therefore
depends only on how many disjoint rays each component sends to each glue
point: there is one exactly when some component sends two rays to one point,
or when the bipartite multigraph with one edge per ray, from its component to
its glue point, has a cycle.

Bases of this system are compared against bases of the plain finite-cycle
system: the defect of a glued base is how many edges it needs to become one of
those, and the spectrum collects the defects of all bases within a search
profile.  The plain system's base test, fin_is_base, is the glued test with
nothing glued.

Spectra, base tests, hat checks and coloop certificates split a family into
units (_units): its structural components, except that components joined by
a cycle through glue points form one unit.  The cycle lies in the
component-point graph, which has a node per structural component and per
glue point, and an edge from a component to each point one of its ends is
glued to.  The split is exact: a set is independent, and a base, exactly
when its part in each unit is.  Finite cycles never leave a component.  A
circle's segments lie in components C_1..C_m, segment i with its tails at
the points x_{i-1} and x_i (indices mod m), and its points are distinct, so
it traces a closed walk C_1 x_1 C_2 .. C_m x_m of the component-point graph
that passes each point once.  Where C_i differs from C_{i+1}, the rest of
the walk joins them without passing x_i, so the two edges at x_i lie on one
cycle, and C_i and C_{i+1} in one unit.  On a tree part of the graph there
is no such cycle, so a circle cannot switch components at a point there.
Every circle of s + e therefore lies in one unit: s + e is independent
exactly when the part of s in e's unit takes e, and s is a base exactly
when the part of s in each unit is one.

Spectra, hat checks and coloop certificates share one candidate walk per
unit: every candidate within the profile in one fixed order, asked
in turn the caller's own filter, the finite-cycle test, whether its defect is
infinite, and only then the glued base test.  A candidate of infinite defect
is no base of either system: retiring more finite components per window than
the graph, it has a finite component C that is not a whole component of the
graph; an absent edge leaving C joins two components, so it closes no finite
cycle, and C carries no ray, so it closes no circle either.  Candidates
come in ascending order of their bit mask (one bit per pattern slot,
explicit instance and prefix edge), which fixes which witness comes first.
Candidates are swept on their masks, not as edge sets.  The windows before
p hold no pattern instance, so every candidate with the same bits below the
pattern's shares the state after them, stepped once; past window p a sweep
reads only its pattern mask, so its tail comes from the spec's tail memo
(periodic._CompiledSweep.tail), shared by every candidate that enters it in
the same state.  The callers' filters read masks too: hat_check sweeps a
candidate joined with its fixed set in the same way, and both it and a
coloop certificate compare the candidate's bits with those that meet their
edge sets.  Only a candidate that reaches the base test is built as an edge
set.

A spectrum walk also stops early, by a bound on the defect.  Take one unit,
and let k_x be the summed width of its corridors glued to the point x
(nearly_finitary_verdict sums them over every point).  Every glued base B
has defect at most the sum over x of max(0, k_x - 1).  Let H be the
multigraph of _find_circle for B: the pieces of B (its components, all
trees) and the glue points are its nodes, and each glued ray is an edge from
its piece to its point.  B holds no circle, so H is a forest with no
parallel pair.  Let e be an edge joining two pieces A and A'.  As e joins
two trees, B + e has no finite cycle, so, B being a base, it holds a circle.
A ray of A + e + A' has its tail in A or in A', so the multigraph of B + e
is a subgraph of H with A and A' merged into one node.  Merging two nodes of
different trees of a forest leaves a forest with no parallel pair, so A and
A' lie in one tree of H.  A graph component C that B splits into m_C pieces
is connected, so its pieces are linked by such edges and lie in one tree T
of H with at least one edge.  (A finite component of the graph holds no ray,
so its pieces are isolated in H and B never splits it.)  In T the pieces
number its edges minus its points plus 1.  Rays in different pieces are
disjoint, and their tails run in glued corridors, so T has at most k_x edges
at its point x (corridor_width counts disjoint rays), and k_x >= 1 at each
point of T.  The pieces of T are the pieces of the graph components it
holds, at least one, so these components add at most the pieces of T minus 1
to the defect, which is at most the sum of k_x - 1 over the points of T.
Each point lies in one tree, and summing over the trees gives the bound.
With one glue point it is max(0, k - 1), k the glued ray count, and rays
spread one to a point give 0.  The walk therefore passes over a candidate
whose defect is above the bound without a base test, and returns once every
value from 0 to the bound has a witness.  The candidate order does not
change, so each value keeps its first witness.  Where defect misreads a
past-only sweep class (lane-moving splices, ROADMAP item 1), the bound can
hide a value that no base has.

A unit's spectrum is memoized for the life of the process, keyed on its
spec, its local gluing and the prefix (_component_spectrum).  The memo is
exact: both specs are frozen and compared by value, and the walk reads
nothing but these three arguments, so equal keys give equal walks.  The
answer is a read-only mapping of frozen edge sets, so no caller can change
a cached answer, and an error is never cached: a bound the walk hits raises
again on every call.  The split into units is memoized on the family and
its gluing (_units), and a unit's base verdicts on its spec, the edge set
and its local gluing (_unit_is_base), all keyed by value.  The walk's base
tests fill that memo, so checking a returned witness reads back verdicts
the walk already computed.  An error is never cached there either, and the
obstruction is handed out as a fresh plain dict, because error texts embed
its repr.

A base test asks whether any of infinitely many absent instances can be
added.  Representatives answer it with finitely many: the explicit-zone
instances one by one, then each absent pattern slot at the windows up to the
tail start T of the set (periodic._tail_start), the first window from which
its plain and repeat-only sweeps both repeat.  From T on, an added instance
enters both sweeps in their stationary states, and the windows after it are
translates of each other, so every later window gives the same verdict as T.

Everything here reduces to the window-sweep machine plus bounded
enumeration, so results are exact within the stated bounds.
"""

from __future__ import annotations

import copy
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import InputError, ResourceLimitError, StructuralMismatchError
from .ops import SpectrumReport
from .periodic import (
    MAX_WINDOW,
    MachineResult,
    PeriodicGraphSpec,
    UPEdgeSet,
    _compiled,
    _has_finite_cycle,
    _ray_pieces,
    _tail_start,
    _window_bound,
    contains_finite_cycle,
    corridor_width,
    edges_by_role,
    ends_of,
    full_edge_set,
    reblock,
    run_machine,
    split_components,
    validate_edge_set,
)
from .util import INF, closing_paths, iter_bits, spanning_forest


# ---------------------------------------------------------------------------
# gluing specs


@dataclass(frozen=True)
class GluingSpec:
    """Partition of the end classes, with the glued groups named by index."""

    groups: tuple = ()
    psi: tuple = ()

    def __post_init__(self):
        seen = set()
        for grp in self.groups:
            for label in grp:
                if label in seen:
                    raise InputError(f"end class {label!r} listed twice")
                seen.add(label)
        if len(set(self.psi)) != len(self.psi):
            raise InputError("glued group indices must be distinct")
        for i in self.psi:
            if not 0 <= i < len(self.groups):
                raise InputError(f"glued group index {i} out of range")

    def validate_for(self, g: PeriodicGraphSpec):
        declared = {label for grp in self.groups for label in grp}
        if declared != set(g.ends):
            raise InputError(
                f"gluing groups cover {sorted(declared)} but the family declares "
                f"ends {sorted(g.ends)}"
            )

    def as_map(self) -> dict:
        """End label -> glue point name, for the glued groups only."""
        out = {}
        for i in self.psi:
            for label in self.groups[i]:
                out[label] = f"w{i}"
        return out


def glue_all(g: PeriodicGraphSpec) -> GluingSpec:
    if not g.ends:
        return GluingSpec((), ())
    return GluingSpec((tuple(g.ends),), (0,))


def no_glue(g: PeriodicGraphSpec) -> GluingSpec:
    return GluingSpec(tuple((e,) for e in g.ends), ())


def _gluing(g, glue):
    glue = no_glue(g) if glue is None else glue
    glue.validate_for(g)
    return glue


# ---------------------------------------------------------------------------
# edge-set algebra


def _fieldwise(op, *sets: UPEdgeSet) -> tuple:
    """(p, prefix, explicit, pattern) of op applied part by part, with every
    set widened once to the widest explicit zone first."""
    p = max((s.p for s in sets), default=0)
    parts = [(s.prefix_present, s.explicit, s.pattern) for s in (t.normalized(p) for t in sets)]
    return (p, *(op(*field) for field in zip(*parts)))


def edge_sets_union(*sets: UPEdgeSet) -> UPEdgeSet:
    return UPEdgeSet(*_fieldwise(lambda *part: frozenset().union(*part), *sets))


def edge_sets_difference(a: UPEdgeSet, b: UPEdgeSet) -> UPEdgeSet:
    return UPEdgeSet(*_fieldwise(operator.sub, a, b))


def edge_sets_intersect(a: UPEdgeSet, b: UPEdgeSet) -> bool:
    return any(_fieldwise(operator.and_, a, b)[1:])


def edge_set_is_empty(s: UPEdgeSet) -> bool:
    return not (s.prefix_present or s.explicit or s.pattern)


def absent_representatives(g: PeriodicGraphSpec, s: UPEdgeSet):
    """Finitely many absent instances standing for all of them.

    Explicit-zone absences are listed one by one.  For a slot missing from the
    pattern, the instances at windows s.p..T follow, T = _tail_start(g, s).
    Adding the slot's instance at any window w >= T gives s + e the same
    finite-cycle verdict, the same live and surviving classes and the same
    pattern widths (the proof is _tail_start's), so when some instance of the
    slot is addable, the first one lies at T or before.
    """
    hi = _tail_start(g, s) + 1
    reps = []
    for i in range(len(g.prefix_edges)):
        if i not in s.prefix_present:
            reps.append(("pre", i))
    for kind, n in g.slot_counts().items():
        for j in range(n):
            for w in range(s.p):
                if not s.has(kind, j, w):
                    reps.append((kind, j, w))
            if (kind, j) not in s.pattern:
                reps.extend((kind, j, w) for w in range(s.p, hi))
    return reps


def present_representatives(g: PeriodicGraphSpec, s: UPEdgeSet, context: UPEdgeSet):
    """Present instances of s, with pattern tails represented up to the tail
    start of the context set (the set the instances will be tested against):
    past it an instance either lies in the context's pattern, and adding it
    changes nothing, or is absent there, and stands for the rest of its tail
    (absent_representatives)."""
    hi = max(s.p, _tail_start(g, context)) + 1
    reps = [("pre", i) for i in sorted(s.prefix_present)]
    reps += sorted(s.explicit)
    for kind, j in sorted(s.pattern):
        reps.extend((kind, j, w) for w in range(s.p, hi))
    return reps


# ---------------------------------------------------------------------------
# glued circles


def _find_circle(g, s, glue):
    """A circle witness in s (assumed finite-cycle-free), or None.

    Free of finite cycles, every component of s is a tree, and two disjoint
    rays of a tree always join into a double ray through the tree path between
    them.  So a circle exists exactly when the glued rays allow one, counted
    per (component, glue point): in the multigraph H with one edge per glued
    ray, from the ray's component to its glue point, a pair with two rays is a
    one-segment circle, and otherwise a cycle of H is a circle whose segments
    are the double rays of the components on it.  Conversely the rays of any
    circle trace a closed trail in H, which holds a parallel pair or a cycle.
    """
    point_map = glue.as_map()
    if not point_map:
        return None
    rays = Counter()
    lanes = {}
    for cid, piece, label in _ray_pieces(g, s):
        width = corridor_width(g, piece, s) if label in point_map else 0
        if width:
            pair = (cid, point_map[label])
            rays[pair] += width
            lanes.setdefault(pair, set()).update(piece)
    for (cid, point), n in sorted(rays.items()):
        if n >= 2:
            return {
                "kind": "glued-circle",
                "points": [point],
                "segments": 1,
                "component": cid,
                "ray_lanes": sorted(lanes[cid, point]),
            }
    # H is simple now: the first edge whose ends are already joined closes a cycle
    edges = ((("component", cid), ("point", point)) for cid, point in sorted(rays))
    for _, path in closing_paths(edges):
        return {
            "kind": "glued-circle",
            "points": sorted(v for kind, v in path if kind == "point"),
            "segments": len(path) // 2,
            "component": sorted(v for kind, v in path if kind == "component"),
        }
    return None


# ---------------------------------------------------------------------------
# independence, bases, defect


def cycle_independent(g: PeriodicGraphSpec, s: UPEdgeSet, glue: GluingSpec | None = None):
    """(independent, violation): violation names its kind with a witness."""
    glue = _gluing(g, glue)
    present, wit = contains_finite_cycle(g, s)
    if present:
        return False, {"kind": "finite-cycle", **wit}
    circle = _find_circle(g, s, glue)
    if circle is not None:
        return False, circle
    return True, None


def _independent(g, s, glue) -> bool:
    """cycle_independent's verdict alone, for a validated gluing."""
    return not _has_finite_cycle(g, s) and _find_circle(g, s, glue) is None


def _addable(g, s, glue, reps):
    """The first of reps that s can take while staying independent, or None."""
    return next((rep for rep in reps if _independent(g, s.with_edge(rep), glue)), None)


def cycle_is_base(g: PeriodicGraphSpec, s: UPEdgeSet, glue: GluingSpec | None = None):
    """(is_base, obstruction): dependent sets return their violation,
    extendable sets return the addable instance.

    s is a base exactly when its part in each unit is one (module
    docstring), so the test reads each unit's memoized verdict
    (_unit_is_base).  A family of one unit returns that verdict; on more,
    a set that fails in some unit is tested again on the whole family, so
    its obstruction, or the error a unit raised, is the family's own.
    """
    glue = _gluing(g, glue)
    units = _units(g, glue)
    if len(units) == 1:
        ok, why = _unit_is_base(g, s, glue)
        return ok, copy.deepcopy(why)
    # the projections drop edges the units lack, so reject them here
    validate_edge_set(g, s)
    try:
        if all(_unit_has_base(g, unit, s) for unit in units):
            return True, None
    except (InputError, ResourceLimitError, StructuralMismatchError):
        pass
    return _family_is_base(g, s, glue)


def _family_is_base(g, s, glue):
    """cycle_is_base's pair, read on the whole family for a validated gluing."""
    ok, why = cycle_independent(g, s, glue)
    if not ok:
        return False, why
    rep = _addable(g, s, glue, absent_representatives(g, s))
    if rep is not None:
        return False, {"kind": "addable", "edge": rep}
    return True, None


@lru_cache(maxsize=4096)
def _unit_is_base(g, s, glue):
    """_family_is_base on a family of one unit, memoized on the arguments
    (module docstring).  Callers copy the obstruction before handing it out."""
    return _family_is_base(g, s, glue)


def _unit_has_base(g, unit, s) -> bool:
    """Is the part of s in unit (an entry of _units(g, glue)) a base of it?"""
    spec, local_glue, _, down = unit
    if spec is None:
        # a finite all-prefix piece: its bases are its spanning forests
        ids = sorted(i for i in s.prefix_present if i in down["pre"])
        return _prefix_forest(g, ids) == ids and len(ids) == len(_prefix_forest(g, down["pre"]))
    return _unit_is_base(spec, _remap_edge_set(down, s), local_glue)[0]


def fin_is_base(g: PeriodicGraphSpec, s: UPEdgeSet):
    """Base test in the plain finite-cycle system: the glued test with
    nothing glued, where no circle exists."""
    return cycle_is_base(g, s, no_glue(g))


def defect(g: PeriodicGraphSpec, s: UPEdgeSet, glue: GluingSpec | None = None):
    """Components of s beyond those of the whole graph; INF when s sheds
    components faster than the graph does.

    The value does not depend on the gluing: extending to a spanning set
    joins plain components, and glue points never absorb an edge.  The glue
    argument is accepted for call-site symmetry and validated only.  Glued
    bases always have a finite defect (see the module docstring).
    """
    if glue is not None:
        glue.validate_for(g)
    return _excess(run_machine(g, s), run_machine(g, full_edge_set(g)))


def _excess(a: MachineResult, b: MachineResult):
    """defect read off the sweep a of a set and the sweep b of its graph."""
    if a.delta > b.delta:
        return INF
    if a.delta < b.delta:
        raise StructuralMismatchError(
            "edge subset closes fewer components per window than its graph"
        )
    # from its depth on each sweep retires delta classes a window, so count
    # both at the later depth
    return a.closed - b.closed + a.delta * (b.depth - a.depth) + len(a.live) - len(b.live)


def extend_to_fin_base(g: PeriodicGraphSpec, s: UPEdgeSet):
    """Grow s to a base of the finite-cycle system by joining components.

    Returns None when the defect is infinite.  Each added edge must not close
    a finite cycle; the loop ends when every absent instance would.
    """
    if _has_finite_cycle(g, s):
        raise InputError("only finite-cycle-free sets extend to a base")
    d = defect(g, s)
    if d is INF:
        return None
    glue = no_glue(g)
    cur = s
    # each accepted edge joins two components of cur, so d additions suffice
    for _ in range(d + 1):
        rep = _addable(g, cur, glue, absent_representatives(g, cur))
        if rep is None:
            return cur
        cur = cur.with_edge(rep)
    raise ResourceLimitError("extension did not settle within the defect bound")


# ---------------------------------------------------------------------------
# spectra


def _candidate_bits(g, p) -> list:
    """The instance each bit of a candidate mask over p windows stands for,
    lowest bit first: prefix edges, explicit instances in window-major
    order, then pattern slots."""
    slots = sorted(full_edge_set(g).pattern)
    bits = len(slots) * (p + 1) + len(g.prefix_edges)
    if bits > 16:
        raise ResourceLimitError(
            f"profile spans {bits} free instance choices; enumeration is capped at 16"
        )
    if p > MAX_WINDOW:
        raise ResourceLimitError(f"profile prefix {p}; prefixes are capped at {MAX_WINDOW}")
    prefixes = [("pre", i) for i in range(len(g.prefix_edges))]
    return prefixes + [(kind, j, w) for w in range(p) for kind, j in slots] + slots


def _decode(names, p, mask) -> UPEdgeSet:
    """The edge set explicit over p windows whose bits in mask name
    (_candidate_bits)."""
    picked = [names[i] for i in iter_bits(mask)]
    return UPEdgeSet(
        p,
        frozenset(x[1] for x in picked if x[0] == "pre"),
        frozenset(x for x in picked if len(x) == 3),
        frozenset(x for x in picked if len(x) == 2 and x[0] != "pre"),
    )


def _candidate_sweep(g, p, names, fixed=UPEdgeSet()):
    """mask -> run_machine(g, edge_sets_union(_decode(names, p, mask), fixed)),
    read off the mask.

    A union's window masks (_CompiledSweep.masks) join those of its bits and
    of fixed, both taken over t = max(p, fixed.p) windows.  The windows
    before p hold no pattern instance, so the state after them depends only
    on the bits below the pattern's, and is stepped once per such low part.
    Window p adds the pattern slots joined in their own window.  Each window
    after p holds every instance of the candidate's pattern slots, the late
    ones from the window before included, so windows p + 1..t read the
    pattern mask joined with fixed's, and the tail (_CompiledSweep.tail)
    reads it joined with fixed's pattern mask.  fixed is the same for every
    mask, so the sweep from window p on depends only on the state after
    window p - 1, window p's mask and the pattern mask, and each such triple
    is settled once, with the union's window bound.
    """
    sweep = _compiled(g)
    lows = (1 << len(names) - len(full_edge_set(g).pattern)) - 1
    t = max(p, fixed.p)
    fixed_masks = sweep.masks(fixed.normalized(t))  # windows 0..t, then the pattern's
    head_start, blank = fixed_masks[: p + 1], [0] * (p + 2)
    bound = _window_bound(g, UPEdgeSet(t))
    # (window, slot bit) of each bit's instances, the pattern mask last
    spots = [
        [(w, bit) for w, bit in enumerate(sweep.masks(_decode(names, p, 1 << i))) if bit]
        for i in range(len(names))
    ]
    heads: dict = {}  # low part -> (run's answer after window p - 1, window p's mask)
    patterns: dict = {}  # high part -> (window p's mask, the pattern mask)
    settled: dict = {}  # (head's run answer, window p's mask, pattern mask) -> result

    def window_masks(part: int, start: list) -> list:
        masks = list(start)
        for i in iter_bits(part):
            for w, bit in spots[i]:
                masks[w] |= bit
        return masks

    def result(mask: int) -> MachineResult:
        low = mask & lows
        head = heads.get(low)
        if head is None:
            masks = window_masks(low, head_start)
            head = heads[low] = (sweep.run(masks[:p]), masks[p])
        high = mask & ~lows
        pattern = patterns.get(high)
        if pattern is None:
            masks = window_masks(high, blank)
            pattern = patterns[high] = (masks[p], masks[-1])
        key = head[0], head[1] | pattern[0], pattern[1]
        res = settled.get(key)
        if res is None:
            later = [key[2] | f for f in fixed_masks[p + 1 : -1]]
            at = sweep.run([key[1]] + later, p, head[0])
            res = settled[key] = sweep.settle(at, t, key[2] | fixed_masks[-1], bound)
        return res

    return result


def _bits_meeting(names, p, s: UPEdgeSet) -> int:
    """The candidate bits (_candidate_bits) whose instances meet s, as a mask."""
    s = s.normalized(max(s.p, p))
    met = {("pre", i) for i in s.prefix_present} | s.explicit | s.pattern
    met |= {(kind, j) for kind, j, w in s.explicit if w >= p}
    return sum(1 << i for i, name in enumerate(names) if name in met)


def _glued_bases(g, glue, p, skip=None, known=(), bound=INF):
    """(base, defect) for the glued bases within p, in candidate order.

    A candidate's index in the walk is its bit mask (_candidate_bits).
    skip(mask), when given, is asked first, so an error it raises surfaces
    before any base test; a true answer passes the candidate over, as does a
    finite cycle, an infinite defect (never a base's, see the module
    docstring), a defect above bound or one already in known.  Candidates
    are swept on their masks (_candidate_sweep), and only a candidate that
    reaches the base test is built as an edge set.
    """
    names = _candidate_bits(g, p)
    sweep = _candidate_sweep(g, p, names)
    whole = None  # the sweep of g's full edge set, read at the first defect
    for mask in range(1 << len(names)):
        if skip is not None and skip(mask):
            continue
        res = sweep(mask)
        if res.cycle_event is not None:
            continue
        whole = whole or run_machine(g, full_edge_set(g))
        d = _excess(res, whole)
        if d is not INF and d <= bound and d not in known:
            cand = _decode(names, p, mask)
            if cycle_is_base(g, cand, glue)[0]:
                yield cand, d


@lru_cache(maxsize=512)
def _units(g, glue):
    """(spec, local gluing, to-parent maps, to-local maps) per unit of g
    under glue, in split_components order, memoized on the arguments.

    A unit is a structural component, or the union of those that lie on a
    cycle of the component-point graph (module docstring), which
    _glue_links finds.  The maps rename each edge kind's indices between the
    unit and g, as _remap_edge_set reads them.  A finite all-prefix piece
    has spec and gluing None and maps for its prefix edges alone.
    """
    comps = split_components(g)
    links = _glue_links(comps, glue)
    out = []
    for spec, maps in split_components(g, links) if links else comps:
        up = {kind: dict(enumerate(ids)) for kind, ids in maps.items()}
        down = {kind: {j: i for i, j in m.items()} for kind, m in up.items()}
        local = None if spec is None else _project_glue(glue, spec.ends)
        out.append((spec, local, up, down))
    return tuple(out)


def _glue_links(comps, glue) -> list:
    """Pairs of lanes that join the structural components (comps, from
    split_components) lying on one cycle of the component-point graph.

    Edges are read in order, and each edge that closes a cycle over the
    edges kept before it, a forest, joins the components on that cycle.
    These are the fundamental cycles of the forest.  Two components on one
    cycle lie in one block of the graph, whose fundamental cycles are linked
    by shared edges, and each edge has a component at one end, so the links
    join them too.
    """
    point_of = glue.as_map()
    edges = (
        (("component", i), ("point", point), spec)
        for i, (spec, _) in enumerate(comps)
        if spec is not None
        for point in sorted({point_of[label] for label in spec.ends if label in point_of})
    )
    return [
        (spec.repeat_vertices[0], comps[j][0].repeat_vertices[0])
        for (_, _, spec), path in closing_paths(edges)
        for kind, j in path[1:]
        if kind == "component"
    ]


def _remap_edge_set(maps, s: UPEdgeSet) -> UPEdgeSet:
    """s with each edge index renamed through maps; edges the maps lack drop out."""
    return UPEdgeSet(
        s.p,
        frozenset(maps["pre"][i] for i in s.prefix_present if i in maps["pre"]),
        frozenset((kind, maps[kind][j], w) for kind, j, w in s.explicit if j in maps[kind]),
        frozenset((kind, maps[kind][j]) for kind, j in s.pattern if j in maps[kind]),
    )


@lru_cache(maxsize=512)
def _component_spectrum(g, glue, p):
    """Defect -> first witness (base, fin_base), exhaustively within p, as a
    read-only mapping memoized on the arguments (module docstring).

    No glued base has a defect above the sum over glue points x of
    max(0, k_x - 1), k_x the rays into x (_point_widths; the module
    docstring proves it), so the walk passes over larger defects without a
    base test and stops once every value up to that bound has a witness.  A
    candidate whose defect is already witnessed skips the base check too.
    The candidate order is the enumeration's, so every value keeps its
    enumeration-first witness.
    """
    bound = sum(max(0, k - 1) for k in _point_widths(g, glue).values())
    out = {}
    for cand, d in _glued_bases(g, glue, p, known=out, bound=bound):
        out[d] = (cand, extend_to_fin_base(g, cand))
        if len(out) > bound:
            break
    return MappingProxyType(out)


def spectrum_search(
    g: PeriodicGraphSpec, glue: GluingSpec | None = None, profile: tuple = (2, 1)
):
    """Defect values of all glued bases within the search profile.

    profile = (p, q): candidate bases are explicit over p windows and repeat
    with period q afterwards.  The family splits into units (module
    docstring); base-ness and defect factor across them, so the unit spectra
    combine by sums, which keeps the enumeration per unit; a value's witness
    joins the unit witnesses of its first sum by one union.  A period above
    MAX_WINDOW raises ResourceLimitError before the q-fold spec is built.
    """
    glue = _gluing(g, glue)
    p, q = profile
    if p < 0 or q < 1:
        raise InputError("profile must have p >= 0 and q >= 1")
    if q > MAX_WINDOW:
        raise ResourceLimitError(f"profile period {q}; periods are capped at {MAX_WINDOW}")
    if q != 1:
        report = spectrum_search(reblock(g, q), glue, (p, 1))
        report.bounds["profile_q"] = q
        report.bounds["witness_presentation"] = f"windows grouped {q} at a time"
        return report
    # value -> the (base, fin_base) of each unit so far, after an empty pair
    values = {0: ((UPEdgeSet(), UPEdgeSet()),)}
    for spec, local_glue, up, _ in _units(g, glue):
        if spec is None:
            # a finite all-prefix piece: its bases are its spanning forests
            add = UPEdgeSet(0, frozenset(_prefix_forest(g, up["pre"].values())))
            sub = {0: (add, add)}
        else:
            sub = {
                d: (_remap_edge_set(up, base), _remap_edge_set(up, fin))
                for d, (base, fin) in _component_spectrum(spec, local_glue, p).items()
            }
            if not sub:
                raise StructuralMismatchError(
                    "a structural component has no base within the profile"
                )
        combined = {}
        for d0, parts in values.items():
            for d1, part in sub.items():
                combined.setdefault(d0 + d1, parts + (part,))
        values = combined
    values = {d: tuple(map(edge_sets_union, *parts)) for d, parts in sorted(values.items())}
    return SpectrumReport(
        values=tuple(values),
        witnesses={
            d: {"base": base.to_obj(), "fin_base": fin.to_obj()}
            for d, (base, fin) in values.items()
        },
        bounds={"profile_p": p, "profile_q": q},
        raw={"witnesses": values},
    )


def _project_glue(glue: GluingSpec, local_ends) -> GluingSpec:
    groups = []
    psi = []
    for i, grp in enumerate(glue.groups):
        kept = tuple(label for label in grp if label in local_ends)
        if kept:
            if i in glue.psi:
                psi.append(len(groups))
            groups.append(kept)
    return GluingSpec(tuple(groups), tuple(psi))


def _prefix_forest(g, ids):
    """The prefix edges among ids that a spanning forest keeps, ascending."""
    ids = sorted(ids)
    return [ids[i] for i in spanning_forest([g.prefix_edges[i][:2] for i in ids])]


def _instance_stream(s: UPEdgeSet):
    """Every instance of s: prefix, explicit zone, then pattern windows forever."""
    yield from (("pre", i) for i in sorted(s.prefix_present))
    yield from sorted(s.explicit)
    if not s.pattern:
        return
    for w in itertools.count(s.p):
        for kind, j in sorted(s.pattern):
            yield (kind, j, w)


def mk_spectrum(
    g: PeriodicGraphSpec,
    glue: GluingSpec | None = None,
    k: int = 0,
    profile: tuple = (2, 1),
):
    """Spectrum of bases with k edges removed: every value shifts up by k,
    because each removed edge of an independent set splits one component."""
    if k < 0:
        raise InputError("removal count must be a natural number")
    if k > MAX_WINDOW:
        raise ResourceLimitError(f"removal count {k}; removal counts are capped at {MAX_WINDOW}")
    glue = _gluing(g, glue)
    base_report = spectrum_search(g, glue, profile)
    witnesses = {}
    raw_witnesses = {}
    for v in base_report.values:
        shifted = v + k
        base, fin = base_report.raw["witnesses"][v]
        removed = list(itertools.islice(_instance_stream(base), k))
        cur = base
        for inst in removed:
            cur = cur.without_edge(inst)
        if len(removed) < k:
            raise InputError(
                "a base within the profile has fewer edges than the removal count"
            )
        witnesses[shifted] = {
            "reduced": cur.to_obj(),
            "removed": [list(i) for i in removed],
            "fin_base": fin.to_obj(),
        }
        raw_witnesses[shifted] = (cur, removed, fin)
    bounds = dict(base_report.bounds)
    bounds["removed"] = k
    return SpectrumReport(
        values=tuple(witnesses),
        witnesses=witnesses,
        bounds=bounds,
        raw={"unshifted": base_report, "witnesses": raw_witnesses},
    )


def hat_check(
    g: PeriodicGraphSpec,
    glue: GluingSpec | None,
    s: UPEdgeSet,
    profile: tuple = (2, 1),
):
    """Is s contained in F minus B for some glued base B inside a fin-base F?

    Equivalent search: a base B disjoint from s with B union s free of finite
    cycles and jointly extendable; any such union grows to the required
    fin-base one component-joining edge at a time.
    """
    glue = _gluing(g, glue)
    p, q = profile
    if q != 1:
        raise InputError("only period-1 profiles are supported here")
    witness = UPEdgeSet()
    for spec, local_glue, up, down in _units(g, glue):
        if spec is None:
            # B spans the piece, so any edge of s in it closes a cycle with B
            if not s.prefix_present.isdisjoint(down["pre"]):
                return False, None
            ids = _prefix_forest(g, down["pre"])
            witness = edge_sets_union(witness, UPEdgeSet(0, frozenset(ids)))
            continue
        # restrict the fixed set to this unit's edges
        local_s = _remap_edge_set(down, s)
        names = _candidate_bits(spec, p)
        meets = _bits_meeting(names, p, local_s)
        joint = _candidate_sweep(spec, p, names, local_s)

        def blocked(mask):
            # the walk passes over infinite defects, and adding s keeps a
            # finite defect finite, so a finite-cycle-free union extends
            return mask & meets or joint(mask).cycle_event is not None

        found, _ = next(_glued_bases(spec, local_glue, p, blocked), (None, None))
        if found is None:
            return False, None
        witness = edge_sets_union(witness, _remap_edge_set(up, found))
    return True, {"base": witness.to_obj(), "raw": witness}


# ---------------------------------------------------------------------------
# the engineered exchange failure


def verify_i3_violation(g: PeriodicGraphSpec):
    """Check the five-step maximality exchange failure on a two-rail family.

    Steps: (1) both rails form a base; (2) swapping the first top splice for
    the first cross edge yields another base; (3) the top rail plus all cross
    edges is a base; (4) dropping the first top splice from it leaves a
    non-base independent set; (5) nothing the step-2 base has beyond that set
    can be added back.  Families where step 5 fails (the broken square lets a
    bottom splice in) raise StructuralMismatchError naming the step.

    All ends are glued to one point; the open system has no such failure to
    exhibit.
    """
    glue = glue_all(g)
    cross_role = "spoke" if "spoke" in g.roles() else "rung"
    H = edges_by_role(g, {"top", "bottom"})
    TH = edges_by_role(g, "top")
    N = edges_by_role(g, cross_role)
    top_splices = [j for j, (_, _, r) in enumerate(g.splice_edges) if r == "top"]
    if not top_splices or edge_set_is_empty(N):
        raise InputError("family lacks the top/bottom/cross roles this check needs")
    e = ("spl", top_splices[0], 0)
    if N.pattern:
        kind, j = sorted(N.pattern)[0]
        f = (kind, j, 0)
    else:
        f = ("pre", sorted(N.prefix_present)[0])

    def claim(idx, cond, detail):
        if not cond:
            raise StructuralMismatchError(f"sub-claim {idx} failed: {detail}")

    ok, why = cycle_is_base(g, H, glue)
    claim(1, ok, f"both rails are not a base ({why})")
    H_f = H.without_edge(e).with_edge(f)
    ok, why = cycle_is_base(g, H_f, glue)
    claim(2, ok, f"the swapped set is not a base ({why})")
    S = edge_sets_union(TH, N)
    ok, why = cycle_is_base(g, S, glue)
    claim(3, ok, f"top rail plus cross edges is not a base ({why})")
    S1 = S.without_edge(e)
    ok, why = cycle_independent(g, S1, glue)
    claim(4, ok, f"the stranded set is dependent ({why})")
    is_base, obstruction = cycle_is_base(g, S1, glue)
    claim(4, not is_base, "the stranded set is still a base")
    D = edge_sets_difference(H_f, S1)
    claim(5, not edge_set_is_empty(D), "the two bases do not differ")
    rep = _addable(g, S1, glue, present_representatives(g, D, S1))
    if rep is not None:
        raise StructuralMismatchError(
            f"sub-claim 5 failed: instance {rep} from the base difference "
            f"extends the stranded set"
        )
    return {
        "maximal_base": H_f.to_obj(),
        "stranded_independent": S1.to_obj(),
        "blocked_difference": D.to_obj(),
        "addable_elsewhere": list(obstruction["edge"]) if obstruction and obstruction.get("kind") == "addable" else None,
        "raw": (H_f, S1, D),
    }


# ---------------------------------------------------------------------------
# the headline verdict


@dataclass
class VerdictReport:
    verdict: str
    k: int                  # a sum of corridor widths
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "k": self.k,
            "notes": list(self.notes),
        }


def _point_widths(g: PeriodicGraphSpec, glue: GluingSpec) -> Counter:
    """Glue point -> the summed width of the corridors glued to it, for
    every point with a glued end class, read in ascending label order."""
    end_map, point_of = ends_of(g), glue.as_map()
    widths = Counter()
    for label in sorted(point_of):
        widths[point_of[label]] += corridor_width(g, end_map[label])
    return widths


def nearly_finitary_verdict(g: PeriodicGraphSpec, glue: GluingSpec | None = None) -> VerdictReport:
    """How far glued bases can sit from finite-cycle bases, at worst.

    The defect of any glued base is bounded by the number k of
    vertex-disjoint rays converging to glued points: each edge a base is
    missing strands a component that still reaches a glue point, and only
    that many components can do so disjointly.  With nothing glued, or with
    glued ends that carry no ray, no circle exists and the two systems
    coincide.

    Within one unit (a structural component, or the components a cycle
    through glue points joins) the bound is sharper: the sum over glue
    points x of max(0, k_x - 1), k_x the rays into x (_point_widths), as
    the module docstring proves, and the spectrum walk uses that form per
    unit.  The report keeps k itself, the glued ray count that
    `rays --glue` prints beside its corridor widths and that a reader can
    check against them; the sharper bound for a whole family is the sum of
    the per-unit ones.
    """
    glue = _gluing(g, glue)
    widths = _point_widths(g, glue)
    k = sum(widths.values())
    if not widths:
        notes = ("no end class is glued, so the system equals its finite-cycle system",)
    elif k == 0:
        notes = (
            "the glued end classes carry no ray, so the system equals its "
            "finite-cycle system",
        )
    else:
        notes = (
            f"every base of the glued system extends to a finite-cycle base "
            f"within {k} edges",
            "bound: vertex-disjoint rays into the glued end classes",
        )
    return VerdictReport(verdict="yes", k=k, notes=notes)
