"""Finitely presented infinite graphs: one prefix block plus a window repeated forever.

A PeriodicGraphSpec has prefix vertices (existing once, apexes among them) and
repeat vertices (one copy per window w = 0, 1, 2, ...).  Four edge kinds:

* prefix edges: one-off, between prefix vertices and/or window-0 repeat copies;
* window edges: inside every window w;
* splice edges: from a lane at window w to a lane at window w+1;
* apex edges: from a prefix vertex to a lane, repeated at every window.

Edge instances are addressed as ("pre", i), ("win", j, w), ("spl", j, w)
(the copy joining w to w+1), ("apx", j, w).  _slot_table reads the ends of the
four kinds, _from_rows writes them, and unroll, reblock and split_components
only map rows; unroll names window w's copy of a lane lane@w, reblock lane%w,
the separator put in front while a declared vertex holds it (_copy_names).
An UPEdgeSet picks instances explicitly over the first p windows and by a
per-window pattern afterwards.

All infinite-graph questions are answered by a window-sweep fixpoint.  The
state after a window labels the prefix vertices and that window's lanes with
their class, numbered by first occurrence, so equal partitions are equal
tuples.  Each step joins the next window's lanes and retires the last.  A
window's content is a slot mask, one bit per edge slot present in it, and a
step depends only on the spec, the mask and the state, so each step is
computed once per spec and every later sweep of that spec looks it up.  Past
the explicit zone a step is a function of the state alone, so the sweep stops
at the first repeat: one window apart is the fixpoint, which repeats forever
and makes the answers about the infinite object exact rather than sampled;
q >= 2 windows apart is a cycle that never stabilizes, and the sweep raises
ResourceLimitError naming the period q.  Gluing stays out of the sweep: glued
components are read off the plain sweep's components and ray pieces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import InputError, ResourceLimitError
from .util import INF, UnionFind, adjacency, bfs_path, disjoint_paths, spanning_forest

# Cap on the window index an edit or a domination query names, on the
# domination path count, on a spectrum profile's prefix and period, on the
# removal count of mk_spectrum and on the ladder count of ladder_family: the
# specs, truncations, candidate walks and witness lists they build grow with
# each, so past the cap a query exits on ResourceLimitError.
MAX_WINDOW = 64

# Cap on the vertices of the strip a corridor width is read off: the proved
# strip length is exponential in the number of window-edge components.
MAX_STRIP = 2**14


# ---------------------------------------------------------------------------
# specs


def _check_role(role):
    if not isinstance(role, str) or not role:
        raise InputError("edge role must be a nonempty string")


@dataclass(frozen=True)
class PeriodicGraphSpec:
    """Presentation of an infinite graph; validated on construction.

    The declared end labels are checked against the computed corridor count
    (corridors = stable connected classes of the repeat-only structure), so a
    spec that lies about its ends does not construct.
    """

    prefix_vertices: tuple[str, ...] = ()
    repeat_vertices: tuple[str, ...] = ()
    prefix_edges: tuple[tuple, ...] = ()
    window_edges: tuple[tuple, ...] = ()
    splice_edges: tuple[tuple, ...] = ()
    apex_edges: tuple[tuple, ...] = ()
    ends: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.prefix_vertices + self.repeat_vertices
        if len(set(names)) != len(names):
            raise InputError("vertex names must be unique across prefix and repeat")
        if not self.repeat_vertices:
            raise InputError("a periodic spec needs at least one repeat vertex")
        prefix = set(self.prefix_vertices)
        repeat = set(self.repeat_vertices)

        def check_pref_ref(ref):
            if isinstance(ref, str):
                if ref not in prefix:
                    raise InputError(f"prefix edge endpoint {ref!r} undeclared")
            elif isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "r":
                if ref[1] not in repeat:
                    raise InputError(f"window-0 endpoint {ref[1]!r} undeclared")
            else:
                raise InputError(f"bad prefix edge endpoint {ref!r}")

        for u, v, role in self.prefix_edges:
            check_pref_ref(u)
            check_pref_ref(v)
            _check_role(role)
        for u, v, role in self.window_edges + self.splice_edges:
            if u not in repeat or v not in repeat:
                raise InputError(f"repeat edge endpoint ({u!r}, {v!r}) undeclared")
            _check_role(role)
        for a, v, role in self.apex_edges:
            if a not in prefix:
                raise InputError(f"apex {a!r} must be a prefix vertex")
            if v not in repeat:
                raise InputError(f"apex edge target {v!r} undeclared")
            _check_role(role)
        if len(set(self.ends)) != len(self.ends):
            raise InputError("end labels must be unique")
        cors = corridors(self)
        if len(cors) != len(self.ends):
            raise InputError(
                f"spec declares {len(self.ends)} ends but the repeat structure "
                f"has {len(cors)} corridors"
            )

    @property
    def apexes(self) -> tuple[str, ...]:
        return tuple(sorted({a for a, _, _ in self.apex_edges}))

    def slot_counts(self) -> dict:
        """Number of declared slots per recurring edge kind."""
        return {
            "win": len(self.window_edges),
            "spl": len(self.splice_edges),
            "apx": len(self.apex_edges),
        }

    def roles(self) -> set[str]:
        return {row[-1] for row in _slot_table(self)[0]}

    def __hash__(self):
        # specs key the machine and width caches; hash the nested tuples once
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # str hashes are salted per process, so an unpickled spec rehashes
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class UPEdgeSet:
    """Ultimately periodic edge set: explicit over windows < p, pattern after.

    prefix_present: indices into prefix_edges that are in the set.
    explicit: instances (kind, j, w) with w < p (kind one of win/spl/apx).
    pattern: slots (kind, j) present at every window >= p.
    """

    p: int = 0
    prefix_present: frozenset = frozenset()
    explicit: frozenset = frozenset()
    pattern: frozenset = frozenset()

    def __post_init__(self):
        if self.p < 0:
            raise InputError("explicit zone length must be a natural number")
        for item in self.explicit:
            kind, _, w = item
            if kind not in ("win", "spl", "apx"):
                raise InputError(f"bad explicit instance {item!r}")
            if not 0 <= w < self.p:
                raise InputError(f"explicit instance {item!r} outside zone of length {self.p}")
        for item in self.pattern:
            if item[0] not in ("win", "spl", "apx"):
                raise InputError(f"bad pattern slot {item!r}")

    def has(self, kind: str, j: int, w: int) -> bool:
        if w < self.p:
            return (kind, j, w) in self.explicit
        return (kind, j) in self.pattern

    def normalized(self, p_new: int) -> "UPEdgeSet":
        """Same set with the explicit zone widened to p_new windows."""
        if p_new < self.p:
            raise InputError("cannot shrink the explicit zone")
        if p_new == self.p:
            return self
        extra = {
            (kind, j, w)
            for (kind, j) in self.pattern
            for w in range(self.p, p_new)
        }
        return UPEdgeSet(p_new, self.prefix_present, self.explicit | extra, self.pattern)

    def _edited(self, op, instance) -> "UPEdgeSet":
        """op (set union or difference) applied with {instance}; widens the
        explicit zone as needed."""
        if instance[0] == "pre":
            return UPEdgeSet(
                self.p, op(self.prefix_present, {instance[1]}), self.explicit, self.pattern
            )
        kind, j, w = instance
        base = self.normalized(max(self.p, w + 1))
        return UPEdgeSet(base.p, base.prefix_present, op(base.explicit, {(kind, j, w)}), base.pattern)

    def with_edge(self, instance) -> "UPEdgeSet":
        """Add one instance; widens the explicit zone as needed."""
        return self._edited(operator.or_, instance)

    def without_edge(self, instance) -> "UPEdgeSet":
        """Remove one instance; widens the explicit zone as needed."""
        return self._edited(operator.sub, instance)

    def to_obj(self) -> dict:
        """JSON-ready form; one-off content under prefix_edges, slots under repeat_edges."""
        one_off = [["pre", i] for i in sorted(self.prefix_present)]
        one_off += [list(t) for t in sorted(self.explicit)]
        return {
            "prefix_blocks": self.p,
            "prefix_edges": one_off,
            "repeat_edges": [list(t) for t in sorted(self.pattern)],
        }


def validate_edge_set(g: PeriodicGraphSpec, s: UPEdgeSet):
    counts = g.slot_counts()
    for i in s.prefix_present:
        if not 0 <= i < len(g.prefix_edges):
            raise InputError(f"prefix edge index {i} undeclared")
    for kind, j, _ in s.explicit:
        if not 0 <= j < counts[kind]:
            raise InputError(f"{kind} slot {j} undeclared")
    for kind, j in s.pattern:
        if not 0 <= j < counts[kind]:
            raise InputError(f"{kind} slot {j} undeclared")


@lru_cache(maxsize=512)
def full_edge_set(g: PeriodicGraphSpec) -> UPEdgeSet:
    pattern = {(kind, j) for kind, n in g.slot_counts().items() for j in range(n)}
    return UPEdgeSet(0, frozenset(range(len(g.prefix_edges))), frozenset(), frozenset(pattern))


# the ends of a recurring slot's instance as window offsets from the
# instance's own window; None is a prefix vertex
_OFFSETS = {"win": (0, 0), "spl": (0, 1), "apx": (None, 0)}


@lru_cache(maxsize=512)
def _slot_table(g: PeriodicGraphSpec) -> tuple:
    """(rows, heads): every slot of g with its two ends.

    A row (kind, j, a, da, b, db, role) says that each instance of slot j of
    kind joins end a to end b, where an end x, d is the prefix vertex x when d
    is None and else lane x at the window d after the instance's own.  A
    prefix edge has one instance, at window 0, so its ends are prefix
    vertices or window-0 lanes; a recurring kind's are _OFFSETS[kind], and b,
    the head, is a lane no earlier than a.  rows lists the prefix edges, then
    the window, splice and apex slots, each in declaration order; heads
    groups the recurring rows by db as (db, rows) pairs, db ascending.
    """

    def end(ref):
        return (ref, None) if isinstance(ref, str) else (ref[1], 0)

    rows = [("pre", i, *end(u), *end(v), role) for i, (u, v, role) in enumerate(g.prefix_edges)]
    for kind, decls in (("win", g.window_edges), ("spl", g.splice_edges), ("apx", g.apex_edges)):
        da, db = _OFFSETS[kind]
        rows += [(kind, j, u, da, v, db, role) for j, (u, v, role) in enumerate(decls)]
    groups: dict = {}
    for row in rows[len(g.prefix_edges):]:
        groups.setdefault(row[5], []).append(row)
    return tuple(rows), tuple((h, tuple(groups[h])) for h in sorted(groups))


def _from_rows(prefix_vertices, repeat_vertices, rows, ends) -> PeriodicGraphSpec:
    """The spec whose slots are rows, the inverse of _slot_table: a "pre" row
    is a prefix edge, its window-0 ends written ("r", lane), and any other
    row a slot of the recurring kind its offsets name in _OFFSETS."""
    kind_of = {offsets: kind for kind, offsets in _OFFSETS.items()}
    out: dict = {kind: [] for kind in ("pre", *_OFFSETS)}
    for kind, _, a, da, b, db, role in rows:
        if kind == "pre":
            out[kind].append((a if da is None else ("r", a), b if db is None else ("r", b), role))
        else:
            out[kind_of[da, db]].append((a, b, role))
    return PeriodicGraphSpec(prefix_vertices, repeat_vertices, *map(tuple, out.values()), ends)


def _copy_names(lanes, count, sep, taken) -> dict:
    """(lane, c) -> the name of lane's copy c < count: lane, sep, c, with sep
    put in front until neither taken nor an earlier copy holds it."""
    names, taken = {}, set(taken)
    for c in range(count):
        for lane in lanes:
            name = f"{lane}{sep}{c}"
            while name in taken:
                name = sep + name
            taken.add(name)
            names[lane, c] = name
    return names


def edges_by_role(g: PeriodicGraphSpec, roles) -> UPEdgeSet:
    """The edge set holding every instance whose declaration has one of the roles."""
    roles = {roles} if isinstance(roles, str) else set(roles)
    picked = [(kind, j) for kind, j, *_, role in _slot_table(g)[0] if role in roles]
    pre = frozenset(j for kind, j in picked if kind == "pre")
    return UPEdgeSet(0, pre, frozenset(), frozenset(slot for slot in picked if slot[0] != "pre"))


def _repeat_part(s: UPEdgeSet) -> UPEdgeSet:
    """s without its prefix and apex instances: its repeat-only structure."""
    explicit = frozenset(inst for inst in s.explicit if inst[0] != "apx")
    pattern = frozenset(slot for slot in s.pattern if slot[0] != "apx")
    return UPEdgeSet(s.p, frozenset(), explicit, pattern)


# ---------------------------------------------------------------------------
# the window-sweep fixpoint machine


@dataclass(frozen=True)
class MachineResult:
    depth: int              # first window whose state repeats the previous one
    closed: int             # components fully retired by window `depth`
    delta: int              # components retiring per window at the fixpoint
    live: tuple             # stationary classes that persist forever (_CompiledSweep.step)
    cycle_event: tuple | None  # (edge instance, window) of the first redundant union


def _window_bound(g: PeriodicGraphSpec, s: UPEdgeSet) -> int:
    tokens = len(g.prefix_vertices) + len(g.repeat_vertices) + len(g.apex_edges) + 2
    return 4 * tokens + 2 * s.p + 8


class _CompiledSweep:
    """The window step of one spec, compiled once and memoized across sweeps.

    Tokens are the prefix vertices, then the previous window's lanes, then
    the current window's.  An instance is joined at the window of its head
    (_slot_table), so each window joins its prefix edges (window 0 only),
    then the slots whose instances reach it from the window before, then its
    own.  A window mask has one bit per edge slot present in the window, in
    that order, and joins lists (bit, a, b, slot) per slot in it; a current
    lane is a negative index, counted from the end of the class list,
    because window 0 has no previous lanes.  slot (kind, j, lag) names
    instance (kind, j, w - lag) at window w, or (kind, j) when lag is None.

    A sweep is split in two: run steps the windows of the explicit zone,
    and tail the pattern's windows after it.  Past window p every step reads
    the one pattern mask, so the rest of the sweep is a function of the
    state it enters with, and tail memoizes it on (mask, state) for every
    edge set of the spec: sets that differ only in their explicit zones, or
    candidates that reach the same state by window p, share it.  The window
    bound is not part of that function, since it grows with p, so tail
    records the raw count of windows to the first repeat and each caller
    (settle) applies its own bound.
    """

    def __init__(self, g: PeriodicGraphSpec):
        lane = {name: i for i, name in enumerate(g.repeat_vertices)}
        pers = {name: i for i, name in enumerate(g.prefix_vertices)}
        self.n_pers = n_pers = len(pers)
        self.n_lanes = n = len(lane)
        self.tokens = [("P", name) for name in pers] + [("R", name) for name in lane]
        rows, heads = _slot_table(g)
        order = rows[: len(g.prefix_edges)] + tuple(row for _, group in reversed(heads) for row in group)
        self.joins = []
        self.lag = {}
        for k, (kind, j, a, da, b, db, _) in enumerate(order):
            head = db or 0  # the window offset the instance is joined at
            ta = pers[a] if da is None else lane[a] - n if da == head else n_pers + lane[a]
            tb = pers[b] if db is None else lane[b] - n if db == head else n_pers + lane[b]
            lag = self.lag[kind] = None if kind == "pre" else head
            self.joins.append((1 << k, ta, tb, (kind, j, lag)))
        self.bit = {slot[:2]: bit for bit, _, _, slot in self.joins}
        # slots whose instances are joined a window later than their own
        self.late = sum(bit for bit, _, _, (_, _, lag) in self.joins if lag)
        self.start = tuple(range(n_pers))  # the state before window 0
        self.steps: dict = {}  # (mask, state) -> step(mask, state)
        self.tails: dict = {}  # (mask, state) -> tail(state, mask, limit)

    def masks(self, s: UPEdgeSet) -> list:
        """The mask of each window 0..s.p, then the pattern's; an instance
        counts in the window it is joined at."""
        masks = [0] * (s.p + 2)
        masks[0] = sum(self.bit["pre", i] for i in s.prefix_present)
        for kind, j, w in s.explicit:
            masks[w + self.lag[kind]] |= self.bit[kind, j]
        masks[-1] = sum(self.bit[slot] for slot in s.pattern)
        masks[s.p] |= masks[-1] & ~self.late
        return masks

    def step(self, mask: int, state: tuple) -> tuple:
        """(next state, classes retired with the previous lanes, first
        redundant slot, live) of one window.

        live is None unless the step is stationary (next state == state);
        then it lists the live classes of the state as token sets in
        canonical order.  A stationary step maps each class to the one class
        it feeds (every lane it reaches is joined through it), or to none when
        it retires.  A class is live when following that map never reaches
        "retires", that is, when it reaches a cycle: then it persists forever.
        """
        out = self.steps.get((mask, state))
        if out is not None:
            return out
        cur = len(state)
        # labels are below cur, so the current lanes take their own indices
        cls = list(state) + list(range(cur, cur + self.n_lanes))
        first = None
        for bit, a, b, slot in self.joins:
            if mask & bit:
                ca, cb = cls[a], cls[b]
                if ca != cb:
                    cls = [ca if c == cb else c for c in cls]
                elif first is None:
                    first = slot
        labels: dict = {}  # renumbered by first occurrence
        nxt = tuple([labels.setdefault(c, len(labels)) for c in cls[: self.n_pers] + cls[cur:]])
        live = None
        if nxt == state:
            feeds = {label: labels.get(c) for label, c in zip(state, cls)}
            alive = set(feeds)
            for _ in feeds:  # each pass but the last drops a label
                alive = {label for label in alive if feeds[label] in alive}
            groups: dict = {}
            for tok, label in zip(self.tokens, state):
                if label in alive:
                    groups.setdefault(label, set()).add(tok)
            live = tuple(sorted(map(frozenset, groups.values()), key=lambda c: sorted(map(str, c))))
        out = self.steps[mask, state] = (nxt, len(set(cls)) - len(labels), first, live)
        return out

    def run(self, masks, w: int = 0, at: tuple | None = None) -> tuple:
        """(state, closed, first) after the windows of masks in turn, the
        first of them window w, entered at at = (state, closed, first), or
        at the state before window 0.  closed counts the classes retired and
        first is (slot, window) of the first redundant union, or None."""
        state, closed, first = at or (self.start, 0, None)
        for mask in masks:
            state, retired, slot, _ = self.step(mask, state)
            closed += retired
            if first is None and slot is not None:
                first = (slot, w)
            w += 1
        return state, closed, first

    def tail(self, state: tuple, mask: int, limit: int) -> tuple:
        """(n, period, closed, delta, live, first) of the windows of mask
        from state on, stepped until a state repeats one seen since the
        start (state itself included), or for limit windows.

        n counts the windows stepped; period is how many windows apart the
        repeat lies, or None when none came within n windows.  closed sums
        the classes retired, delta and live are the last step's, and first
        is (slot, offset) of the first redundant union, offset 1 for the
        first window, or None.  Only an answer without a repeat depends on
        limit, so a memoized answer serves every later call but one with a
        larger limit than a walk that found no repeat, which steps afresh.
        """
        out = self.tails.get((mask, state))
        if out is None or out[1] is None and out[0] < limit:
            seen = {state: 0}
            nxt, closed, first, period, n = state, 0, None, None, 0
            while period is None and n < limit:
                n += 1
                nxt, delta, slot, live = self.step(mask, nxt)
                closed += delta
                if first is None and slot is not None:
                    first = (slot, n)
                if nxt in seen:
                    period = n - seen[nxt]
                seen[nxt] = n
            out = self.tails[mask, state] = (n, period, closed, delta, live, first)
        return out

    def settle(self, at: tuple, p: int, mask: int, bound: int) -> MachineResult:
        """The sweep's result, entered at at = run's answer after windows
        0..p, with the pattern mask from window p + 1 on and window bound
        bound (_window_bound).

        A repeat one window apart is the fixpoint; one q >= 2 windows apart
        is a cycle of period q, and a sweep that reaches no repeat by window
        bound does not stabilize within it: both raise ResourceLimitError.
        """
        state, closed, first = at
        n, period, more, delta, live, later = self.tail(state, mask, bound - p)
        if period is None or p + n > bound:
            raise ResourceLimitError(f"window sweep did not stabilize within {bound} windows")
        if period > 1:
            raise ResourceLimitError(
                f"window sweep repeats every {period} windows and never stabilizes"
            )
        if first is None and later is not None:
            first = (later[0], p + later[1])
        event = None
        if first is not None:
            (kind, j, lag), w = first
            event = ((kind, j) if lag is None else (kind, j, w - lag), w)
        # the step that ends the sweep is the pattern mask's stationary step
        return MachineResult(depth=p + n, closed=closed + more, delta=delta, live=live, cycle_event=event)


# each compiled spec keeps step and tail memos that grow with the states its
# sweeps reach, and a query sweeps its few specs together, so few need to stay
@lru_cache(maxsize=64)
def _compiled(g: PeriodicGraphSpec) -> _CompiledSweep:
    return _CompiledSweep(g)


@lru_cache(maxsize=16384)
def run_machine(g: PeriodicGraphSpec, s: UPEdgeSet) -> MachineResult:
    """Sweep windows until the state repeats the previous window's.

    Tokens: ("P", name) persistent prefix vertices and ("R", lane) the
    current window's repeat vertices.  The state after a window labels the
    prefix tokens and then the lanes with their class, numbered by first
    occurrence.  The repeat-only structure is the sweep of _repeat_part(s),
    where every prefix vertex stays a class of its own.  Each window is a
    slot mask read from s, and each step is a lookup in the spec's compiled
    step (_CompiledSweep).

    Past window s.p every step reads the pattern mask alone, so the sweep
    stops at the first repeat: a repeat one window apart is the fixpoint, and
    a repeat q >= 2 windows apart means the states cycle with period q
    forever, which raises ResourceLimitError.  So does running past
    _window_bound windows.  The same fact makes the tail memo exact: the
    windows after s.p are a function of the state after window s.p, so the
    sweep steps windows 0..s.p and reads the rest from the spec's tail memo
    (_CompiledSweep.tail), applying this set's own bound.  Results are
    immutable and cached on the arguments.
    """
    validate_edge_set(g, s)
    sweep = _compiled(g)
    masks = sweep.masks(s)
    return sweep.settle(sweep.run(masks[:-1]), s.p, masks[-1], _window_bound(g, s))


def _tail_start(g: PeriodicGraphSpec, s: UPEdgeSet) -> int:
    """The first window T from which both sweeps of s, the plain one and the
    repeat-only one, repeat: the larger of their depths.

    Each sweep is in its stationary state after every window from its depth
    minus one on.  Let e be an instance absent from s at a window w >= T (so
    w >= s.p).  The sweep of s + e and the repeat-only sweep of s + e match
    those of s up to window w - 1, so both enter window w in a stationary
    state, and from there on read the same window masks as s + e' for the
    same slot's instance e' at any other window w' >= T, shifted by w' - w.
    Their states, redundant unions and live classes are therefore translates
    of each other, and the window bound, which grows with the explicit zone,
    only grows with the shift.  So every w >= T gives s + e the same
    finite-cycle verdict, the same live and surviving classes, and the same
    pattern (hence the same corridor widths): one instance per slot at
    windows s.p..T stands for the whole tail.
    """
    return max(run_machine(g, s).depth, run_machine(g, _repeat_part(s)).depth)


# ---------------------------------------------------------------------------
# corridors, ends, widths, rays


@lru_cache(maxsize=512)
def corridors(g: PeriodicGraphSpec) -> tuple[frozenset, ...]:
    """Stable connected lane classes of the repeat-only structure, canonical order.

    A corridor survives the sweep without prefix or apex help, so by local
    finiteness it carries a ray; distinct corridors cannot be joined by any
    finite vertex set, which is exactly the end relation.
    """
    return surviving_classes(g, full_edge_set(g))


def ends_of(g: PeriodicGraphSpec) -> dict:
    """Declared end label -> corridor lane set, in canonical corridor order."""
    cors = corridors(g)
    return dict(zip(g.ends, cors))


@lru_cache(maxsize=512)
def _lane_ends(g: PeriodicGraphSpec) -> dict:
    """Lane -> the end label of its corridor."""
    return {lane: label for label, lanes in ends_of(g).items() for lane in lanes}


def _lane_classes(res: MachineResult) -> list:
    """The lane set of each class in res.live, in the same order."""
    return [frozenset(tok[1] for tok in cls if tok[0] == "R") for cls in res.live]


def corridor_width(g: PeriodicGraphSpec, lanes: frozenset, s: UPEdgeSet | None = None) -> int:
    """Maximum vertex-disjoint forward paths the corridor sustains per window.

    Computed as one max flow across a strip of the pattern zone long enough
    that longer strips have the same flow (_strip_width has the proof); the
    flows never rise with the strip length, so that value is their limit,
    the number of disjoint rays by König's infinity lemma (Diestel, Graph
    Theory, ch. 8).  Only pattern-zone edges matter: widths describe tails.
    The width is cached on what the strip is built from: the sorted lanes and
    the window and splice pairs of s.pattern with both ends inside them.
    """
    pattern = full_edge_set(g).pattern if s is None else s.pattern
    win, spl = [], []  # pairs within a window, and from one window to the next
    for kind, j, a, da, b, db, _ in _slot_table(g)[0]:
        if a in lanes and b in lanes and (kind, j) in pattern:
            (spl if db - da else win).append((a, b))
    return _strip_width(tuple(sorted(lanes)), tuple(win), tuple(spl))


@lru_cache(maxsize=4096)
def _strip_width(lane_list: tuple, win_present: tuple, spl_present: tuple) -> int:
    """Vertex-disjoint paths across a strip of K = 2^m + n + 1 windows, where
    n is the lane count and m the number of components of the window edges.

    Let f(k) be the number of vertex-disjoint paths from window 0 to window
    k-1 of a k-window strip; by Menger it is the size of a least separator X.
    f never rises with k: a path that reaches window k has already met
    window k-1, so cut it there.  Let R be the set reachable from window 0
    while avoiding X, and R_w the lanes of R in window w.  Suppose two
    windows 1 <= a < b <= k-1 both miss X and R_a = R_b.  Drop windows
    a..b-1 and shift the rest down.  The only new edges join window a-1 to
    old window b, and an old splice into window a ends in R exactly when the
    new one into window b does, so the image of R is still closed and the
    image of X still separates the shorter strip: f has the same value there.
    A window that misses X holds in R a union of window-edge components, so
    one of at most 2^m sets, and X, of size at most n, meets at most n
    windows.  So every k > K shortens in this way, and f(k) = f(K) for all
    k >= K.

    K is exponential in m, so a strip of more than MAX_STRIP vertices raises
    ResourceLimitError instead.
    """
    n = len(lane_list)
    m = n - len(spanning_forest(win_present))
    k = 2**m + n + 1
    if k * n > MAX_STRIP:
        raise ResourceLimitError(
            f"corridor width strip of {k} windows of {n} lanes; strips are "
            f"capped at {MAX_STRIP} vertices"
        )
    nodes = [(l, w) for l in lane_list for w in range(k)]
    edges = [((u, w), (v, w)) for u, v in win_present for w in range(k)]
    edges += [((u, w), (v, w + 1)) for u, v in spl_present for w in range(k - 1)]
    paths = disjoint_paths(
        adjacency(nodes, edges), [(l, 0) for l in lane_list], [(l, k - 1) for l in lane_list]
    )
    return len(paths)


def ray_count(g: PeriodicGraphSpec) -> int:
    """Maximum number of vertex-disjoint rays: corridor widths summed."""
    return sum(corridor_width(g, lanes) for lanes in corridors(g))


def surviving_classes(g: PeriodicGraphSpec, s: UPEdgeSet) -> tuple[frozenset, ...]:
    """Ray-bearing lane classes of s itself, canonical order: the nonempty
    lane sets of the live classes of the sweep of _repeat_part(s)."""
    lanes = _lane_classes(run_machine(g, _repeat_part(s)))
    return tuple(sorted(filter(None, lanes), key=sorted))


def _ray_pieces(g: PeriodicGraphSpec, s: UPEdgeSet) -> list:
    """(component id, lanes, end label) per ray-bearing lane class of s, in
    canonical order.

    The id is the class's index in the live classes of the full sweep of s;
    every surviving class is live there, since prefix and apex edges only
    merge classes.
    """
    cid = {lane: i for i, lanes in enumerate(_lane_classes(run_machine(g, s))) for lane in lanes}
    lane_end = _lane_ends(g)
    return [(cid[min(lanes)], lanes, lane_end[min(lanes)]) for lanes in surviving_classes(g, s)]


# ---------------------------------------------------------------------------
# component summaries


@dataclass
class ComponentSummary:
    count: object           # int or INF
    interface: dict         # token name -> component id at the fixpoint
    depth: int
    closing_rate: int

    def to_dict(self) -> dict:
        return {
            "count": "inf" if self.count is INF else self.count,
            "interface": {str(k): v for k, v in sorted(self.interface.items(), key=lambda kv: str(kv[0]))},
            "depth": self.depth,
            "closing_rate": self.closing_rate,
        }


def component_summary(g: PeriodicGraphSpec, s: UPEdgeSet, gluing: dict | None = None) -> ComponentSummary:
    """Connected components of the edge set, with optional end gluing.

    gluing maps end labels to point names; unmapped labels stay open.  The
    components are those of the plain sweep of s, and a glue point merges the
    components whose ray pieces (_ray_pieces) have an end label glued to it.
    Finite components carry no ray, so they never merge, and the count is INF
    exactly when the plain sweep retires components every window.  The
    interface partition at the fixpoint is the certificate: one more window
    reproduces it exactly.  depth is the plain sweep's, or, when anything is
    glued, the tail start (_tail_start), which also certifies the ray pieces.
    """
    res = run_machine(g, s)
    classes = [set(cls) for cls in res.live]
    depth = res.depth
    if gluing:
        depth = _tail_start(g, s)
        uf = UnionFind()
        for cid, _, label in _ray_pieces(g, s):
            if label in gluing:
                point = ("G", gluing[label])
                classes[cid].add(point)
                uf.union(cid, point)
        merged: dict = {}
        for cid, cls in enumerate(classes):
            merged.setdefault(uf.find(cid), set()).update(cls)
        classes = sorted(merged.values(), key=lambda c: sorted(map(str, c)))
    interface = {}
    for cid, cls in enumerate(classes):
        for tok in sorted(cls, key=str):
            interface[f"point:{tok[1]}" if tok[0] == "G" else tok[1]] = cid
    return ComponentSummary(
        count=INF if res.delta > 0 else res.closed + len(classes),
        interface=interface,
        depth=depth,
        closing_rate=res.delta,
    )


# ---------------------------------------------------------------------------
# explicit truncations (testing backend and witness extraction)


def truncate_graph(g: PeriodicGraphSpec, s: UPEdgeSet, depth: int) -> tuple[list, list]:
    """Explicit finite multigraph over windows 0..depth-1, edges restricted to s.

    Returns (nodes, edges).  Nodes are ("p", name) and (lane, w); edges are
    (u, v, instance) triples, so parallel copies stay distinguishable.
    """
    validate_edge_set(g, s)
    nodes = [("p", name) for name in g.prefix_vertices]
    nodes += [(lane, w) for w in range(depth) for lane in g.repeat_vertices]
    rows, heads = _slot_table(g)
    edges = [
        (("p", a) if da is None else (a, da), ("p", b) if db is None else (b, db), ("pre", i))
        for _, i, a, da, b, db, _ in rows[: len(g.prefix_edges)]
        if i in s.prefix_present
    ]
    for h, group in heads:
        for w in range(depth - h):
            for kind, j, a, da, b, db, _ in group:
                if s.has(kind, j, w):
                    a_node = ("p", a) if da is None else (a, w + da)
                    edges.append((a_node, ("p", b) if db is None else (b, w + db), (kind, j, w)))
    return nodes, edges


# ---------------------------------------------------------------------------
# finite cycles and double rays


def _has_finite_cycle(g: PeriodicGraphSpec, s: UPEdgeSet) -> bool:
    """contains_finite_cycle without its witness, for callers that drop it."""
    return run_machine(g, s).cycle_event is not None


def contains_finite_cycle(g: PeriodicGraphSpec, s: UPEdgeSet):
    """(present, witness): witness is a vertex list closing through one instance.

    Sound because a redundant union joins endpoints already connected through
    real processed edges; complete because once the sweep state repeats, a
    later window can only replay unions the stationary window already ran.
    """
    res = run_machine(g, s)
    if res.cycle_event is None:
        return False, None
    instance, window = res.cycle_event
    nodes, edges = truncate_graph(g, s, window + 2)
    a, b, _ = next(e for e in edges if e[2] == instance)
    rest = [e for e in edges if e[2] != instance]
    path = [a] if a == b else bfs_path(adjacency(nodes, rest), a, b)
    return True, {"closing_edge": instance, "cycle_vertices": path}


def contains_double_ray(g: PeriodicGraphSpec, s: UPEdgeSet):
    """(present, witness): true iff one component of s can seat two disjoint rays."""
    rays: dict = {}
    for cid, lanes, _ in _ray_pieces(g, s):
        rays.setdefault(cid, []).append((lanes, corridor_width(g, lanes, s)))
    for cid, pieces in sorted(rays.items()):
        if sum(width for _, width in pieces) >= 2:
            return True, {
                "component": cid,
                "ray_pieces": [{"lanes": sorted(lanes), "width": width} for lanes, width in pieces],
            }
    return False, None


# ---------------------------------------------------------------------------
# domination


def _finite_degree(g: PeriodicGraphSpec, v) -> int | None:
    """Degree of a vertex ref; None when infinite (an apex).

    Every window past 0 meets the same edges of the full set, so a
    three-window truncation holds each vertex's edges, whatever its window.
    """
    if isinstance(v, str) and v in g.apexes:
        return None
    node = ("p", v) if isinstance(v, str) else (v[0], min(v[1], 1))
    return len(adjacency(*truncate_graph(g, full_edge_set(g), 3))[node])


def domination_witness(g: PeriodicGraphSpec, v, k: int):
    """Smallest truncation depth realizing k paths from v into the deep region.

    The paths are internally vertex-disjoint (they share only v) and must end
    in the deep region, the windows from the horizon on, which lies past the
    stabilization depth of the full graph and past v's window, so the paths
    genuinely approach the tail.  Returns None when no depth works; a
    finite-degree vertex with degree < k fails immediately.  Past that check,
    k or a window above MAX_WINDOW raises ResourceLimitError.

    Depth horizon + k suffices whenever any depth does.  A deeper truncation
    only adds vertices and edges, so a depth that works keeps working, and
    the scan up to horizon + k finds the least one.  Take k paths at any
    depth and cut each at its first deep vertex; before it, a path stays in
    the prefix and in windows below the horizon.  Nothing from there reaches
    a deep vertex but a splice from window horizon - 1, which lands in
    window horizon, and an apex edge, which the full edge set holds at every
    window.  An apex other than v lies on at most one path, and v's own apex
    edges leave it to distinct neighbours, so re-aim each apex jump at the
    same lane in its own window among horizon..horizon + k - 1, leaving
    window horizon to the splice entries when there are any: the paths stay
    disjoint and all lie below depth horizon + k.
    """
    if k < 1:
        raise InputError("path count must be at least 1")
    if isinstance(v, str):
        if v not in g.prefix_vertices:
            raise InputError(f"unknown prefix vertex {v!r}")
    else:
        lane, w = v
        if lane not in g.repeat_vertices or w < 0:
            raise InputError(f"unknown repeat vertex {v!r}")
    deg = _finite_degree(g, v)
    if deg is not None and deg < k:
        return None
    if k > MAX_WINDOW or not isinstance(v, str) and v[1] > MAX_WINDOW:
        raise ResourceLimitError(
            f"domination query of {k} paths at {v!r}; path counts and windows "
            f"are capped at {MAX_WINDOW}"
        )
    s = full_edge_set(g)
    horizon = run_machine(g, s).depth + 1
    if not isinstance(v, str):
        horizon = max(horizon, v[1] + 1)
    src = ("p", v) if isinstance(v, str) else (v[0], v[1])
    for depth in range(horizon + 1, horizon + k + 1):
        nodes, edges = truncate_graph(g, s, depth)
        adj = adjacency(nodes, edges)
        # paths leave v through distinct neighbours and never return to it
        starts = list(dict.fromkeys(n for n in adj.pop(src) if n != src))
        for n in starts:
            adj[n] = [m for m in adj[n] if m != src]
        deep = [(lane, w) for lane in g.repeat_vertices for w in range(horizon, depth)]
        if len(disjoint_paths(adj, starts, [n for n in deep if n != src])) >= k:
            return depth
    return None


# ---------------------------------------------------------------------------
# spec transforms


def unroll(g: PeriodicGraphSpec, k: int) -> PeriodicGraphSpec:
    """Absorb the first k windows into the prefix.

    Window w of the result corresponds to window w+k of the input; absorbed
    copies become prefix vertices named lane@w.  This is how one-off edits to
    early windows (deletions, extra edges) become expressible.
    """
    return _unrolled(g, k)[0]


def _unrolled(g: PeriodicGraphSpec, k: int) -> tuple[PeriodicGraphSpec, dict]:
    """unroll(g, k) and the prefix edge index of each absorbed instance
    (kind, j, w), w < k, in the unrolled spec."""
    if k < 0:
        raise InputError("unroll depth must be a natural number")
    if k == 0:
        return g, {}

    rows, heads = _slot_table(g)
    n_pre = len(g.prefix_edges)
    copy = _copy_names(g.repeat_vertices, k, "@", g.prefix_vertices + g.repeat_vertices)
    # (window, row) per prefix edge, then per instance of windows 0..k-1
    placed = [(0, row) for row in rows[:n_pre]]
    placed += [(w, row) for w in range(k) for _, group in heads for row in group]

    def end(x, d, w):
        # an absorbed window's end is its copy, and window k's a window-0 lane
        return (x, d) if d is None else (copy[x, w + d], None) if w + d < k else (x, 0)

    pre = [("pre", i, *end(a, da, w), *end(b, db, w), role)
           for i, (w, (_, _, a, da, b, db, role)) in enumerate(placed)]
    rolled = _from_rows(g.prefix_vertices + tuple(copy.values()), g.repeat_vertices,
                        pre + list(rows[n_pre:]), g.ends)
    return rolled, {(row[0], row[1], w): i for i, (w, row) in enumerate(placed) if i >= n_pre}


def shift_edge_set(g: PeriodicGraphSpec, s: UPEdgeSet, k: int) -> UPEdgeSet:
    """Rewrite an edge set of g for unroll(g, k): absorbed instances become
    prefix edges of the unrolled spec, later instances shift left by k
    windows."""
    if k == 0:
        return s
    absorbed = _unrolled(g, k)[1]
    base = s.normalized(max(s.p, k + 1))
    pre = base.prefix_present | {i for inst, i in absorbed.items() if base.has(*inst)}
    explicit = frozenset((kind, j, w - k) for kind, j, w in base.explicit if w >= k)
    return UPEdgeSet(max(base.p - k, 0), pre, explicit, base.pattern)


def split_components(g: PeriodicGraphSpec, links=()):
    """Structural components (lane-level connectivity) as independent specs.

    Returns a list of (spec, maps) where maps holds, per edge kind, the list
    of parent indices in the order the component spec declares them; a piece
    without repeat vertices is (None, maps) with its prefix edges alone.  When
    g is one component the list is [(g, maps)], each map list(range(count)).
    links holds pairs of vertices to keep in one piece as if an edge joined
    them.
    """
    nodes = list(g.prefix_vertices) + list(g.repeat_vertices)
    rows = _slot_table(g)[0]
    uf = UnionFind()
    for _, _, a, _, b, _, _ in rows:
        uf.union(a, b)
    for a, b in links:
        uf.union(a, b)
    groups: dict = {}
    for n in nodes:
        groups.setdefault(uf.find(n), []).append(n)
    comps = []
    end_map = ends_of(g)
    for root in sorted(groups, key=lambda r: sorted(groups[r])[0]):
        names = set(groups[root])
        rep = tuple(l for l in g.repeat_vertices if l in names)
        kept = [row for row in rows if row[2] in names]
        ids = {kind: [j for k, j, *_ in kept if k == kind] for kind in ("pre", *_OFFSETS)}
        if not rep:
            comps.append((None, {"pre": ids["pre"]}))
            continue
        pre = tuple(p for p in g.prefix_vertices if p in names)
        ends = tuple(label for label, lanes in end_map.items() if lanes <= names)
        spec = g if len(groups) == 1 else _from_rows(pre, rep, kept, ends)
        comps.append((spec, ids))
    return comps


def reblock(g: PeriodicGraphSpec, q: int) -> PeriodicGraphSpec:
    """Present the same graph with windows grouped q at a time."""
    if q < 1:
        raise InputError("reblock factor must be positive")
    if q == 1:
        return g

    rows, heads = _slot_table(g)
    n_pre = len(g.prefix_edges)
    copy = _copy_names(g.repeat_vertices, q, "%", g.prefix_vertices)
    # (window r < q of a block, row) per prefix edge, then per slot of each
    # window of a block
    placed = [(0, row) for row in rows[:n_pre]]
    placed += [(r, row) for _, group in heads for r in range(q) for row in group]

    def end(x, d, r):
        # window r + d is window (r + d) % q of the block (r + d) // q blocks on
        return (x, d) if d is None else (copy[x, (r + d) % q], (r + d) // q)

    return _from_rows(g.prefix_vertices, tuple(copy.values()), [
        (kind, j, *end(a, da, r), *end(b, db, r), role) for r, (kind, j, a, da, b, db, role) in placed
    ], g.ends)


# ---------------------------------------------------------------------------
# canned families


def ladder_family(n: int = 1) -> PeriodicGraphSpec:
    """n disjoint one-way two-rail ladders; 3 edge slots per window per ladder.

    Window w of ladder i holds lanes t{i}, b{i}, the rung between them, and
    the two rail splices onward; window 0's rung is the closed left edge.
    """
    if n < 1:
        raise InputError("need at least one ladder")
    if n > MAX_WINDOW:
        raise ResourceLimitError(f"{n} ladders; ladder families are capped at {MAX_WINDOW}")
    rep = []
    win = []
    spl = []
    for i in range(n):
        t, b = f"t{i}", f"b{i}"
        rep += [t, b]
        win.append((t, b, "rung"))
        spl.append((t, t, "top"))
        spl.append((b, b, "bottom"))
    return PeriodicGraphSpec(
        repeat_vertices=tuple(rep),
        window_edges=tuple(win),
        splice_edges=tuple(spl),
        ends=tuple(f"end{i}" for i in range(n)),
    )


def bean_family() -> PeriodicGraphSpec:
    """A two-rail family whose lower rail is spoked from a single hub vertex.

    The hub heads the upper rail (one-off edge to x at window 0) and sends a
    spoke to y in every window, so the lower end is dominated by the hub while
    the upper end is not.
    """
    return PeriodicGraphSpec(
        prefix_vertices=("v",),
        repeat_vertices=("x", "y"),
        prefix_edges=((("v"), ("r", "x"), "top"),),
        splice_edges=(("x", "x", "top"), ("y", "y", "bottom")),
        apex_edges=(("v", "y", "spoke"),),
        ends=("end_top", "end_bottom"),
    )
