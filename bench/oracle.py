"""Independent answer checker: judges every query without importing the package.

Glued and periodic answers are checked on explicit truncations with networkx
(forests, component counts, disjoint rays, disjoint paths); finite answers
against brute force over all subsets, with rank functions written here from
the input files; canned queries against values frozen from the README and the
test suite.  ``check`` returns, per query id, None for an accepted answer or
the reason it was rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

import networkx as nx

import graphs as fm


def check(queries, records) -> dict:
    answers = {rec["id"]: rec for rec in records}
    by_id = {q["id"]: q for q in queries}
    verdicts = {}
    for rec in records:
        qid = rec["id"]
        if rec["rc"] != 0:
            verdicts[qid] = f"exit {rec['rc']}: {rec['err'].strip()[-160:]}"
            continue
        try:
            if "/" in qid:
                parent, value = qid.split("/")
                reason = _replay(json.loads(answers[parent]["out"])["result"],
                                 json.loads(rec["out"]), value)
            else:
                query = by_id[qid]
                result = json.loads(rec["out"])["result"]
                reason = _dispatch(query["argv"][0], query["check"], result, answers)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"malformed answer: {exc!r}"
        verdicts[qid] = reason
    return verdicts


def _dispatch(cmd, chk, result, answers):
    if "ch4" in chk:
        return _ch4(cmd, chk, result)
    if "family" in chk and cmd in ("spectrum", "mk", "psi-spectrum"):
        bound = _glued_ray_bound(chk["family"], chk["glue"]) if "glue" in chk else None
        return _glued_spectrum(chk, result, bound)
    handler = {
        "bean": _bean, "scan": _scan, "rays": _rays, "dominate": _dominate,
        "axioms": _axioms, "bases": _bases, "circuits": _circuits, "dual": _dual,
        "minor": _minor, "mk": _truncation, "diff": _duality, "spectrum": _pair_spectrum,
        "smin": _smin, "union": _union,
    }[cmd]
    return handler(chk, result, answers) if cmd == "scan" else handler(chk, result)


def _first(reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# truncations


def truncation(f, depth, edge_set=None) -> nx.MultiGraph:
    verts, edges = fm.truncation_edges(f, depth, edge_set)
    g = nx.MultiGraph()
    g.add_nodes_from(verts)
    for u, v, key in edges:
        g.add_edge(u, v, key=key)
    return g


def is_forest(g) -> bool:
    return g.number_of_edges() == g.number_of_nodes() - nx.number_connected_components(g)


def witness_reason(f, value, base, fin):
    """A defect-`value` witness: base and fin_base are forests, fin_base spans
    what the whole graph connects, contains base, and adds exactly `value`
    edges; an infinite value sheds components faster than the graph."""
    lanes = len(f["rv"])
    depth = max(base["prefix_blocks"], fin["prefix_blocks"] if fin else 0) + 2 * lanes + 6
    b = truncation(f, depth, base)
    if not is_forest(b):
        return f"value {value}: base closes a finite cycle"
    if value == "inf":
        if fin is not None:
            return "infinite value with a finite-cycle base"
        deeper = depth + 2 * lanes + 4
        grown = nx.number_connected_components(truncation(f, deeper, base))
        full = (nx.number_connected_components(truncation(f, deeper))
                - nx.number_connected_components(truncation(f, depth)))
        if grown - nx.number_connected_components(b) <= full:
            return "infinite value, but the base sheds no extra components"
        return None
    if fin is None:
        return f"value {value} without a finite-cycle base"
    fg = truncation(f, depth, fin)
    if not is_forest(fg):
        return f"value {value}: fin_base closes a finite cycle"
    if not set(b.edges(keys=True)) <= set(fg.edges(keys=True)):
        return f"value {value}: fin_base does not contain the base"
    if fg.number_of_edges() - b.number_of_edges() != value:
        return f"value {value}: fin_base adds {fg.number_of_edges() - b.number_of_edges()} edges"
    if nx.number_connected_components(fg) != nx.number_connected_components(truncation(f, depth)):
        return f"value {value}: fin_base does not span"
    return None


def _glued_spectrum(chk, result, k_bound=None):
    values = result["values"]
    if chk.get("values") is not None and values != chk["values"]:
        return f"values {values}, expected {chk['values']}"
    if not result["complete_within_bounds"]:
        return "search incomplete within bounds"
    finite = [v for v in values if v != "inf"]
    if k_bound is not None and finite and max(finite) > k_bound:
        return f"value {max(finite)} exceeds {k_bound} disjoint rays into glued ends"
    return _first(
        witness_reason(chk["family"], v, w.get("base", w.get("reduced")), w["fin_base"])
        for v, w in ((v, result["witnesses"][str(v)]) for v in values)
    )


def _replay(parent, found, value):
    value = value if value == "inf" else int(value)
    wit = parent["witnesses"][str(value)]
    if "base" in wit and found["is_base"] is not True:
        return "replayed witness is not a glued base"
    if found["defect"] != value:
        return f"replayed defect {found['defect']}, reported {value}"
    if wit["fin_base"] and found["fin_is_base"] is not True:
        return "replayed fin_base is not a finite-cycle base"
    return None


def _bean(chk, result):
    if result.get("holds") is not True:
        return f"exchange failure does not hold: {result.get('detail')}"
    missing = {"maximal_base", "stranded_independent", "blocked_difference"} - set(result)
    return f"missing {sorted(missing)}" if missing else None


def _scan(chk, result, answers):
    got = [row["values"] for row in result["rows"]]
    want = []
    for ref in chk["rows"]:
        if isinstance(ref, list):
            want.append(ref)
        elif answers.get(ref, {}).get("rc") == 0:
            want.append(json.loads(answers[ref]["out"])["result"]["values"])
        else:
            return f"cross-check query {ref} failed"
    return None if got == want else f"rows {got}, expected {want}"


# ---------------------------------------------------------------------------
# rays and domination


def _corridors(f):
    """Corridor lane sets and their widths: disjoint crossings of a long strip
    inside each infinite component of the repeat-only graph."""
    if "_corridors" in f:
        return f["_corridors"]
    lanes = len(f["rv"])
    mid, strip = 2 * lanes + 4, 4 * lanes + 6
    rep = fm.family(rv=f["rv"], win=f["win"], spl=f["spl"])
    g = nx.Graph(truncation(rep, mid + strip + 1))
    out = []
    for cls in fm.corridor_classes(f):
        comp = nx.node_connected_component(g, (min(cls), mid))
        h = g.subgraph(v for v in comp if mid <= v[1] < mid + strip).copy()
        h.add_edges_from(("S", v) for v in list(h) if v[1] == mid)
        h.add_edges_from((v, "T") for v in list(h) if v != "S" and v[1] == mid + strip - 1)
        try:
            width = sum(1 for _ in nx.node_disjoint_paths(h, "S", "T"))
        except (nx.NetworkXNoPath, nx.NetworkXError):
            width = 0
        out.append((cls, width))
    f["_corridors"] = out
    return out


def _glued_ray_bound(f, glue):
    widths = [w for _, w in _corridors(f)]
    glued = {label for i in glue["psi"] for label in glue["groups"][i]}
    return sum(w for label, w in zip(f["ends"], widths) if label in glued)


def _rays(chk, result):
    f = chk["family"]
    widths = {label: w for label, (_, w) in zip(f["ends"], _corridors(f))}
    if result["corridor_widths"] != widths:
        return f"corridor widths {result['corridor_widths']}, truncation gives {widths}"
    if result["rays"] != sum(widths.values()):
        return f"rays {result['rays']}, truncation gives {sum(widths.values())}"
    k = _glued_ray_bound(f, chk["glue"])
    if result["verdict"]["k"] != k:
        return f"verdict k {result['verdict']['k']}, glued ray bound {k}"
    return None


def _paths_into(g, src, first_window, k):
    """At least k paths from src to lane vertices at windows >= first_window,
    disjoint except at src."""
    h = nx.Graph(g)
    h.remove_edges_from(list(nx.selfloop_edges(h)))
    sinks = [v for v in h if v[0] != "p" and v[1] >= first_window and v != src]
    h.add_edges_from((v, "T") for v in sinks)
    if "T" not in h or h.has_edge(src, "T"):
        return False
    try:
        return sum(1 for _ in nx.node_disjoint_paths(h, src, "T", cutoff=k)) >= k
    except nx.NetworkXNoPath:
        return False


def _dominate(chk, result):
    f, k = chk["family"], chk["k"]
    name, _, window = chk["vertex"].partition(":")
    src = (name, int(window)) if window else ("p", name)
    if result["dominates"] != (result["depth"] is not None):
        return "dominates flag and depth disagree"
    if result["dominates"]:
        if not _paths_into(truncation(f, result["depth"]), src, 1, k):
            return f"no {k} disjoint paths within depth {result['depth']}"
        return None
    horizon = 2 * len(f["rv"]) + len(f["pv"]) + 6
    if _paths_into(truncation(f, horizon + max(4 * k, 32)), src, horizon, k):
        return f"{k} disjoint paths reach past window {horizon}"
    return None


# ---------------------------------------------------------------------------
# finite systems: rank functions, families, brute force


def _gf2_rank(vectors):
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def _q_rank(vectors):
    rows = [list(v) for v in vectors]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                factor = rows[r][c] / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def family(obj):
    """(labels, set of independent masks) of a system file."""
    if "_family" in obj:
        return obj["_family"]
    labels, m = obj["ground"], len(obj["ground"])
    kind = obj["kind"]
    if kind == "explicit":
        fam = {sum(1 << i for i in s) for s in obj["independent"]}
    else:
        if kind == "uniform":
            def rank(mask):
                return min(bin(mask).count("1"), obj["rank"])
        elif kind == "graphic":
            def rank(mask):
                uf = fm.UnionFind()
                return sum(uf.union(*obj["edges"][i]) for i in range(m) if mask >> i & 1)
        else:
            mat = obj["matrix"]
            cols = [[0] * len(mat["rows"]) for _ in range(m)]
            for r, c, x in mat["entries"]:
                cols[c][r] = int(x) % 2 if mat["field"] == "gf2" else Fraction(str(x))
            if mat["field"] == "gf2":
                packed = [sum(1 << r for r, x in enumerate(col) if x) for col in cols]

                def rank(mask):
                    return _gf2_rank(packed[i] for i in range(m) if mask >> i & 1)
            else:
                def rank(mask):
                    return _q_rank([cols[i] for i in range(m) if mask >> i & 1])
        fam = {s for s in range(1 << m) if rank(s) == bin(s).count("1")}
    obj["_family"] = (labels, fam)
    return labels, fam


def maximal(fam):
    """Inclusion-maximal members; families here are downward closed, so a
    member is maximal when no one-element extension is a member."""
    width = max(fam).bit_length() if fam else 0
    return {s for s in fam if not any(s | 1 << e in fam for e in range(width) if not s >> e & 1)}


def down_closure(sets):
    out = set()
    for top in sets:
        sub = top
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return out


def _names(labels, mask):
    return [labels[i] for i in range(len(labels)) if mask >> i & 1]


def _mask(labels, names):
    return sum(1 << labels.index(x) for x in names)


def _explicit_reason(result, labels, fam):
    if result["ground"] != list(labels):
        return f"ground {result['ground']}, expected {list(labels)}"
    got = {sum(1 << i for i in s) for s in result["independent"]}
    if got != fam:
        diff = min(got ^ fam)
        return f"family differs at {_names(labels, diff)}"
    return None


def axiom_verdicts(fam, m, system_id):
    """Brute-force verdicts for one axiom system on a finite ground."""
    bases = maximal(fam)
    closed = all(s & ~(1 << e) in fam for s in fam for e in range(m) if s >> e & 1)

    def extends(a, b):
        return any(a | 1 << e in fam for e in range(m) if b >> e & 1 and not a >> e & 1)

    if system_id == "I":
        i3 = all(extends(a, b) for a in fam - bases for b in bases)
        return {"I1": 0 in fam, "I2": closed, "I3": i3, "I4": None}
    if system_id == "B":
        b2 = all(
            any((b1 & ~(1 << x)) | 1 << y in bases for y in range(m) if b2 >> y & 1 and not b1 >> y & 1)
            for b1 in bases for b2 in bases if b1 != b2
            for x in range(m) if b1 >> x & 1 and not b2 >> x & 1
        )
        return {"B1": bool(bases), "B2": b2, "B3": None}
    by_size = sorted(fam, key=lambda s: bin(s).count("1"))
    f3 = all(extends(a, b) for a in by_size for b in by_size
             if bin(b).count("1") > bin(a).count("1"))
    return {"F1": 0 in fam, "F2": closed, "F3": f3, "F4": closed}


def _axioms(chk, result, fam_pair=None):
    labels, fam = fam_pair or family(chk["system"])
    expect = {
        ax: "vacuous-pass" if ok is None else ("pass" if ok else "fail")
        for ax, ok in axiom_verdicts(fam, len(labels), chk["axioms"]).items()
    }
    if result["verdicts"] != expect:
        return f"verdicts {result['verdicts']}, brute force {expect}"
    if result["conformant"] != ("fail" not in expect.values()):
        return "conformance flag disagrees with the verdicts"
    for ax, wit in result["witnesses"].items():
        masks = {key: _mask(labels, names) for key, names in wit.items()}
        if ax in ("I3", "F3"):
            a, b = masks["A"], masks["B"]
            if a not in fam or b not in fam or any(
                    a | 1 << e in fam for e in range(len(labels)) if b >> e & 1 and not a >> e & 1):
                return f"{ax} witness does not falsify the axiom"
    return None


def _bases(chk, result):
    labels, fam = family(chk["system"])
    want = maximal(fam)
    got = {_mask(labels, b) for b in result["bases"]}
    if got != want or result["count"] != len(want):
        return f"{result['count']} bases, brute force {len(want)}"
    obj = chk["system"]
    if obj["kind"] == "graphic":
        g = nx.MultiGraph()
        g.add_nodes_from(range(obj["vertices"]))
        g.add_edges_from(e for e in obj["edges"] if e[0] != e[1])
        trees = 1
        for comp in nx.connected_components(g):
            if len(comp) > 1:
                trees *= round(nx.number_of_spanning_trees(g.subgraph(comp)))
        if trees != result["count"]:
            return f"{result['count']} bases, {trees} spanning forests"
    return None


def _circuits(chk, result):
    labels, fam = family(chk["system"])
    m = len(labels)
    want = {s for s in range(1, 1 << m) if s not in fam
            and all(s & ~(1 << e) in fam for e in range(m) if s >> e & 1)}
    got = {_mask(labels, c) for c in result["circuits"]}
    if got != want or result["count"] != len(want):
        return f"{result['count']} circuits, brute force {len(want)}"
    return None


def dual_family(fam, m):
    full = (1 << m) - 1
    return down_closure(full ^ b for b in maximal(fam))


def _compress(fam, keep):
    return {sum(1 << j for j, i in enumerate(keep) if s >> i & 1) for s in fam}


def delete_family(labels, fam, gone):
    keep = [i for i, x in enumerate(labels) if x not in gone]
    drop = _mask(labels, gone)
    return [labels[i] for i in keep], _compress({s for s in fam if not s & drop}, keep)


def _dual(chk, result):
    labels, fam = family(chk["system"])
    return _explicit_reason(result, labels, dual_family(fam, len(labels)))


def _minor(chk, result):
    labels, fam = family(chk["system"])
    labels, fam = delete_family(labels, fam, chk["delete"])
    # contraction is dual-delete-dual, as for matroids
    dlabels, dfam = delete_family(labels, dual_family(fam, len(labels)), chk["contract"])
    return _explicit_reason(result, dlabels, dual_family(dfam, len(dlabels)))


def _truncation(chk, result):
    labels, fam = family(chk["system"])
    top = max(bin(s).count("1") for s in fam) - chk["k"]
    return _explicit_reason(result, labels, {s for s in fam if bin(s).count("1") <= top})


def _nested(chk):
    labels, outer = family(chk["outer"])
    _, inner = family(chk["inner"])
    if not inner <= outer:
        raise ValueError("generated pair is not nested")
    return labels, maximal(inner), maximal(outer)


def _duality(chk, result):
    _nested(chk)
    return None if result == {"equal": True, "witness": None} else f"duality fails: {result}"


def _pair_spectrum(chk, result):
    labels, inner, outer = _nested(chk)
    want = sorted({bin(f & ~b).count("1") for b in inner for f in outer if b & ~f == 0})
    if result["values"] != want:
        return f"values {result['values']}, brute force {want}"
    for v in want:
        w = result["witnesses"][str(v)]
        b, f = _mask(labels, w["base"]), _mask(labels, w["outer_base"])
        if b not in inner or f not in outer or b & ~f or bin(f & ~b).count("1") != v:
            return f"witness for {v} is not a nested base pair"
    return None


def _smin(chk, result):
    labels, inner, outer = _nested(chk)
    full = (1 << len(labels)) - 1
    cands = {(full ^ f) | b for f in outer for b in inner if b & ~f == 0}
    want = {s for s in cands if not any(t != s and t & s == t for t in cands)}
    got = {_mask(labels, s) for s in result["sets"]}
    return None if got == want else f"{len(got)} minimal complements, brute force {len(want)}"


def _union(chk, result):
    l1, f1 = family(chk["left"])
    l2, f2 = family(chk["right"])
    labels = list(l1) + [x for x in l2 if x not in l1]
    f1 = {_mask(labels, _names(l1, s)) for s in f1}
    f2 = {_mask(labels, _names(l2, s)) for s in f2}
    return _explicit_reason(result, labels, {a | b for a in f1 for b in f2})


def ch4_family(r):
    n = r * (r + 1) // 2
    blocks, start = [], 0
    for size in range(1, r + 1):
        blocks.append(sum(1 << i for i in range(start, start + size)))
        start += size
    full = (1 << n) - 1
    labels = [str(i + 1) for i in range(n)]
    return labels, down_closure(full ^ b for b in blocks)


def _ch4(cmd, chk, result):
    r = chk["ch4"]
    labels, fam = ch4_family(r)
    if cmd == "axioms":
        return _axioms(chk, result, (labels, fam))
    spec = result["spectrum"] if cmd == "ch4" else result
    if spec["values"] != chk["values"]:
        return f"values {spec['values']}, expected {chk['values']}"
    if cmd == "ch4":
        a, b = (_mask(labels, result["i3_witness"][x]) for x in "AB")
        if b not in maximal(fam) or a not in fam or a in maximal(fam) or any(
                a | 1 << e in fam for e in range(len(labels)) if b >> e & 1 and not a >> e & 1):
            return "i3 witness does not falsify maximality augmentation"
    return None
