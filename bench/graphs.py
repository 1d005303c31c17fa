"""Periodic graph families as plain data, independent of the package under test.

A family is a dict with the fields of the package's family file format, kept
as tuples: prefix vertices ``pv``, repeat vertices (lanes) ``rv``, and edge
declarations ``pre`` (endpoints are prefix names or ``("r", lane)`` for a
window-0 lane copy), ``win``, ``spl`` (lane at window w to lane at w + 1),
``apx`` (prefix vertex to a lane, every window) and the end labels ``ends``.
Edge instances are named as the package names them: ``("pre", i)``,
``("win", j, w)``, ``("spl", j, w)``, ``("apx", j, w)``.
"""

from __future__ import annotations


def family(pv=(), rv=(), pre=(), win=(), spl=(), apx=(), ends=()):
    return {
        "pv": tuple(pv), "rv": tuple(rv), "pre": tuple(pre), "win": tuple(win),
        "spl": tuple(spl), "apx": tuple(apx), "ends": tuple(ends),
    }


def ladder(n: int) -> dict:
    rv, win, spl = [], [], []
    for i in range(n):
        t, b = f"t{i}", f"b{i}"
        rv += [t, b]
        win.append((t, b, "rung"))
        spl += [(t, t, "top"), (b, b, "bottom")]
    return family(rv=rv, win=win, spl=spl, ends=[f"end{i}" for i in range(n)])


def bean() -> dict:
    return family(
        pv=["v"], rv=["x", "y"], pre=[("v", ("r", "x"), "top")],
        spl=[("x", "x", "top"), ("y", "y", "bottom")], apx=[("v", "y", "spoke")],
        ends=["end_top", "end_bottom"],
    )


def canned(name: str) -> dict:
    if name == "bean":
        return bean()
    return ladder(int(name.split(":")[1]))


def to_json(f: dict) -> dict:
    """The package's family file format."""
    def ref(x):
        return x if isinstance(x, str) else list(x)

    blocks: dict = {}
    for a, lane, role in f["apx"]:
        blocks.setdefault(a, []).append([lane, role])
    return {
        "prefix": {"vertices": list(f["pv"]),
                   "edges": [[ref(u), ref(v), r] for u, v, r in f["pre"]]},
        "repeat": {"vertices": list(f["rv"]), "edges": [list(e) for e in f["win"]]},
        "splice": [list(e) for e in f["spl"]],
        "apex": [{"vertex": a, "per_block_edges": e} for a, e in blocks.items()],
        "ends": list(f["ends"]),
    }


def apex_ordered(f: dict) -> dict:
    """Apex edges grouped by vertex, the order a family file gives them back."""
    order = list(dict.fromkeys(a for a, _, _ in f["apx"]))
    apx = tuple(e for a in order for e in f["apx"] if e[0] == a)
    return {**f, "apx": apx}


def delete(f: dict, doomed) -> dict:
    """Remove finitely many edge instances: absorb the touched windows into the
    prefix (lane copies named lane@w), then drop the doomed prefix edges."""
    k = 1 + max((inst[2] for inst in doomed if inst[0] != "pre"), default=-1)
    nw, na, ns = len(f["win"]), len(f["apx"]), len(f["spl"])

    def shift(lane, w):
        return f"{lane}@{w}" if w < k else ("r", lane)

    pre = [
        (u if isinstance(u, str) else shift(u[1], 0),
         v if isinstance(v, str) else shift(v[1], 0), r)
        for u, v, r in f["pre"]
    ]
    for w in range(k):
        pre += [(shift(u, w), shift(v, w), r) for u, v, r in f["win"]]
        pre += [(a, shift(v, w), r) for a, v, r in f["apx"]]
        pre += [(shift(u, w), shift(v, w + 1), r) for u, v, r in f["spl"]]
    n0, per = len(f["pre"]), nw + na + ns
    ids = set()
    for inst in doomed:
        if inst[0] == "pre":
            ids.add(inst[1])
            continue
        kind, j, w = inst
        ids.add(n0 + w * per + {"win": 0, "apx": nw, "spl": nw + na}[kind] + j)
    return {
        **f,
        "pv": f["pv"] + tuple(f"{lane}@{w}" for w in range(k) for lane in f["rv"]),
        "pre": tuple(e for i, e in enumerate(pre) if i not in ids),
    }


def instances(f: dict, windows: int):
    """Every edge instance touching windows < ``windows``."""
    out = [("pre", i) for i in range(len(f["pre"]))]
    for w in range(windows):
        for kind in ("win", "spl", "apx"):
            out += [(kind, j, w) for j in range(len(f[kind]))]
    return out


def truncation_edges(f: dict, depth: int, edge_set: dict | None = None):
    """(vertices, edges) of windows 0..depth-1; edges are (u, v, instance).

    ``edge_set`` is the package's edge-set object (explicit zone of
    ``prefix_blocks`` windows, pattern slots after); None means every edge.
    Vertices are ("p", name) and (lane, w).
    """
    if edge_set is None:
        p, pre_ok, explicit, pattern = 0, None, set(), None
    else:
        p = edge_set["prefix_blocks"]
        one_off = [tuple(x) for x in edge_set["prefix_edges"]]
        pre_ok = {x[1] for x in one_off if x[0] == "pre"}
        explicit = {x for x in one_off if x[0] != "pre"}
        pattern = {tuple(x) for x in edge_set["repeat_edges"]}

    def has(kind, j, w):
        if edge_set is None:
            return True
        return (kind, j, w) in explicit if w < p else (kind, j) in pattern

    def node(ref):
        return ("p", ref) if isinstance(ref, str) else (ref[1], 0)

    verts = [("p", v) for v in f["pv"]] + [(l, w) for w in range(depth) for l in f["rv"]]
    edges = [
        (node(u), node(v), ("pre", i))
        for i, (u, v, _) in enumerate(f["pre"])
        if pre_ok is None or i in pre_ok
    ]
    for w in range(depth):
        edges += [((u, w), (v, w), ("win", j, w))
                  for j, (u, v, _) in enumerate(f["win"]) if has("win", j, w)]
        edges += [(("p", a), (v, w), ("apx", j, w))
                  for j, (a, v, _) in enumerate(f["apx"]) if has("apx", j, w)]
        if w + 1 < depth:
            edges += [((u, w), (v, w + 1), ("spl", j, w))
                      for j, (u, v, _) in enumerate(f["spl"]) if has("spl", j, w)]
    return verts, edges


class UnionFind:
    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def corridor_classes(f: dict):
    """Lane sets of the infinite components of the repeat-only graph, read at a
    middle window, in the package's canonical order (by sorted lane names).

    A component spanning more than len(lanes) windows repeats a lane and so is
    infinite; one reaching the last window from the middle one spans more.
    """
    lanes = len(f["rv"])
    mid = 2 * lanes + 4
    depth = mid + 2 * lanes + 4
    uf = UnionFind()
    for w in range(depth):
        for u, v, _ in f["win"]:
            uf.union((u, w), (v, w))
        if w + 1 < depth:
            for u, v, _ in f["spl"]:
                uf.union((u, w), (v, w + 1))
    deep = {uf.find((l, depth - 1)) for l in f["rv"]}
    groups: dict = {}
    for l in f["rv"]:
        root = uf.find((l, mid))
        if root in deep:
            groups.setdefault(root, set()).add(l)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)
