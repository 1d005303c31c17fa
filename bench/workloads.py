"""Seeded workload plans: input files plus the query sequence run against them.

A plan is built from the workload name and seed alone, with no import of the
package under test, so the worker (which writes the files) and the checker
(which needs the same inputs in memory) rebuild identical plans.  Each query
is a dict with ``id``, CLI ``argv`` (run in process through the package's
``cli.main``), ``check`` (what the independent checker needs) and ``replay``
(re-test every returned witness through package-root functions).
"""

from __future__ import annotations

import random

import graphs as fm

WORKLOADS = ("glued-spectrum", "ray-census", "finite-oracle")


def plan(name: str, seed: int, inputs: str):
    """(files, queries): files maps a path under ``inputs`` to a JSON object."""
    builder = {
        "glued-spectrum": _glued_spectrum,
        "ray-census": _ray_census,
        "finite-oracle": _finite_oracle,
    }[name]
    p = _Plan(inputs)
    builder(p, random.Random(f"{name}:{seed}"))
    return p.files, p.queries


class _Plan:
    def __init__(self, inputs):
        self.inputs = inputs
        self.files: dict = {}
        self.queries: list = []

    def file(self, name, obj) -> str:
        path = f"{self.inputs}/{name}.json"
        self.files[path] = obj
        return path

    def query(self, argv, replay=False, **check):
        self.queries.append(
            {"id": f"q{len(self.queries)}", "argv": list(argv), "check": check, "replay": replay}
        )


# ---------------------------------------------------------------------------
# glued-spectrum: canned families, the square deletion, seeded deletions

# (argv, expected values) from the README and the test suite
_CANNED = (
    (["spectrum", "--family", "ladder:1"], [0, 1]),
    (["mk", "--family", "ladder:1", "-k", "1"], [1, 2]),
    (["spectrum", "--family", "ladder:2"], [0, 1, 2]),
    (["mk", "--family", "ladder:2", "-k", "2", "--prefix", "1"], [2, 3, 4]),
    (["spectrum", "--family", "ladder:3", "--prefix", "1"], [0, 1, 2, 3]),
    (["spectrum", "--family", "bean"], [0, 1]),
    (["mk", "--family", "bean", "-k", "1"], [1, 2]),
)
_SQUARE = (("win", 0, 0), ("win", 0, 1), ("spl", 0, 0), ("spl", 1, 0))
# seeded deletions: (label, canned base, count, windows touched); profile (0, 1)
# keeps each one cheap, so many of them fill the middle of the latency range
_DELETIONS = (("ladder2", "ladder:2", 16, 1), ("bean", "bean", 4, 1))


def _glued_spectrum(p: _Plan, rng: random.Random):
    for argv, values in _CANNED:
        p.query(argv, replay=True, family=fm.canned(argv[2]), values=values)
    # one-point and separate gluings through explicit gluing files
    end0 = p.file("glue-end0", {"groups": [["end0"], ["end1"]], "psi": [0]})
    p.query(["psi-spectrum", "--family", "ladder:2", "--glue", end0], replay=True,
            family=fm.ladder(2), values=[0, 1])
    apart = p.file("glue-apart", {"groups": [["end_top"], ["end_bottom"]], "psi": [0, 1]})
    p.query(["spectrum", "--family", "bean", "--glue", apart], replay=True,
            family=fm.bean(), values=[0])
    p.query(["bean"], holds=True)
    square = p.file("edit-square", {"base": fm.to_json(fm.ladder(2)),
                                    "delete": [list(i) for i in _SQUARE]})
    # the ROADMAP square deletion, cold, through the edit path (at the cheap
    # profile; at (1, 1) this one query would outlast the rest of the round)
    p.query(["scan", square, "--prefix", "0"], rows=[[0, 1, 2]])
    scanned = []
    for label, base, count, windows in _DELETIONS:
        pool = fm.instances(fm.canned(base), windows)
        chosen: list = []
        while len(chosen) < count:
            doomed = tuple(sorted(rng.sample(pool, rng.randint(1, 2))))
            if doomed in chosen:
                continue
            chosen.append(doomed)
            name = f"{label}-{len(chosen)}"
            edited = fm.delete(fm.canned(base), doomed)
            edit = p.file(f"edit-{name}", {"base": fm.to_json(fm.canned(base)),
                                           "delete": [list(i) for i in doomed]})
            scanned.append((edit, f"q{len(p.queries)}"))
            fam = p.file(f"family-{name}", fm.to_json(edited))
            p.query(["spectrum", "--family", fam, "--prefix", "0"], replay=True, family=edited)
    # the same deletions again through delete_edges; rows must match the spectra
    p.query(["scan", *(e for e, _ in scanned), "--prefix", "0"], rows=[q for _, q in scanned])


# ---------------------------------------------------------------------------
# ray-census: distinct random small specs, each met once


def _spec_shapes():
    """Every (lanes, prefix vertices, window, splice, prefix, apex edge counts)
    a random spec may have: at most 3 lanes and 2 prefix vertices, fewer
    window edges than lanes, at most one splice per lane, at most two prefix
    edges and one apex edge, so a prefix-0 spectrum enumerates at most 2^8
    sets.  Every round meets the same shapes, so seeds differ in the edges
    drawn, not in how much work a round holds."""
    out = []
    for lanes in (1, 2, 3):
        for pv in (0, 1, 2):
            for win in range(lanes):
                for spl in range(1, lanes + 1):
                    for pre in range(3 if pv + lanes > 1 else 1):
                        for apx in range(2 if pv else 1):
                            out.append((lanes, pv, win, spl, pre, apx))
    return out


SPEC_SHAPES = _spec_shapes()


def random_spec(rng: random.Random, shape) -> dict:
    """A spec of the given shape with random endpoints.

    Nothing is filtered for known engine defects (lane-permuting or merging
    splices, sweep-bound oscillations); only the end count is made to match
    the structure, since a spec that misdeclares its ends is invalid input.
    """
    lanes, n_pv, n_win, n_spl, n_pre, n_apx = shape
    rv = ["a", "b", "c"][:lanes]
    pv = ["p", "q"][:n_pv]
    win = [(*rng.sample(rv, 2), "rung") for _ in range(n_win)]
    spl = [(rng.choice(rv), rng.choice(rv), rng.choice(("top", "bottom"))) for _ in range(n_spl)]
    refs = pv + [("r", lane) for lane in rv]
    pre = [(*rng.sample(refs, 2), "link") for _ in range(n_pre)]
    apx = [(rng.choice(pv), rng.choice(rv), "spoke") for _ in range(n_apx)]
    f = fm.apex_ordered(fm.family(pv=pv, rv=rv, pre=pre, win=win, spl=spl, apx=apx))
    return {**f, "ends": tuple(f"e{i}" for i in range(len(fm.corridor_classes(f))))}


def random_gluing(rng: random.Random, ends) -> dict:
    ends = list(ends)
    rng.shuffle(ends)
    groups = []
    for label in ends:
        if groups and rng.random() < 0.5:
            rng.choice(groups).append(label)
        else:
            groups.append([label])
    psi = sorted(i for i in range(len(groups)) if rng.random() < 0.6)
    return {"groups": groups, "psi": psi}


# each shape twice a round: a round's work then varies little between seeds
SPECS_PER_SHAPE = 2


def _ray_census(p: _Plan, rng: random.Random):
    for i, shape in enumerate(SPEC_SHAPES * SPECS_PER_SHAPE):
        f = random_spec(rng, shape)
        glue = random_gluing(rng, f["ends"])
        fam_path = p.file(f"spec-{i}", fm.to_json(f))
        glue_path = p.file(f"glue-{i}", glue)
        p.query(["rays", "--family", fam_path, "--glue", glue_path], family=f, glue=glue)
        vertex = f["pv"][0] if f["pv"] else f"{f['rv'][0]}:0"
        # a failing search tries every depth, so the mix of k is fixed per round
        k = 1 + i % 3
        p.query(["dominate", "--family", fam_path, "--vertex", vertex, "-k", str(k)],
                family=f, vertex=vertex, k=k)
        p.query(["spectrum", "--family", fam_path, "--glue", glue_path, "--prefix", "0"],
                family=f, glue=glue)


# ---------------------------------------------------------------------------
# finite-oracle: random finite systems through the finite subcommands

# (kind, ground size), twice per round; every seed runs the same strata.  The
# quadratic axiom screens (B, F) and the nested-pair operators stay on the
# smaller grounds so one random draw cannot dominate a round.
_FINITE_STRATA = (
    ("graphic", 8), ("graphic", 10), ("graphic", 12),
    ("gf2", 8), ("gf2", 10), ("gf2", 12),
    ("q", 8), ("q", 10), ("q", 12), ("incidence", 9),
    ("uniform", 10), ("uniform", 12),
    ("explicit", 6), ("explicit", 8),
)
# nonzero, so every rational matrix has full row rank and similar elimination work
_RATIONALS = (1, -1, 2, -2, 3, "1/2", "-3/2", "2/3")


def random_system(rng: random.Random, kind: str, m: int) -> dict:
    labels = [f"e{i}" for i in range(m)]
    if kind == "graphic":
        n = 5
        edges = [[rng.randrange(n), rng.randrange(n)] for _ in range(m)]
        return {"ground": labels, "kind": "graphic", "vertices": n, "edges": edges}
    if kind == "uniform":
        return {"ground": labels, "kind": "uniform", "rank": rng.randint(2, 3)}
    if kind == "explicit":
        # downward closure of a few random sets: usually not a matroid
        tops = [sum(1 << i for i in range(m) if rng.random() < 0.5) for _ in range(rng.randint(2, 4))]
        fam = sorted({s for t in tops for s in range(1 << m) if s & t == s},
                     key=lambda s: (bin(s).count("1"), s))
        sets = [[i for i in range(m) if s >> i & 1] for s in fam]
        return {"ground": labels, "kind": "explicit", "independent": sets}
    rows = ["r0", "r1", "r2", "r3"]
    entries = []
    if kind == "incidence":
        # signed vertex-edge incidence of a random multigraph over Q
        n = len(rows)
        for j in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                entries += [[u, j, 1], [v, j, -1]]
        field = "q"
    else:
        field = kind
        for i in range(len(rows)):
            for j in range(m):
                val = rng.randint(0, 1) if field == "gf2" else rng.choice(_RATIONALS)
                if val:
                    entries.append([i, j, val])
    matrix = {"field": field, "rows": rows, "cols": labels, "entries": entries}
    return {"ground": labels, "kind": "linear", "matrix": matrix}


def nested_inner(rng: random.Random, outer: dict) -> dict:
    """A system on the same ground whose independent sets the outer one has."""
    if outer["kind"] == "graphic":
        # identifying two vertices only creates cycles
        u, v = rng.sample(range(outer["vertices"]), 2)
        edges = [[v if x == u else x for x in e] for e in outer["edges"]]
        return {**outer, "edges": edges}
    if outer["kind"] == "uniform":
        return {**outer, "rank": rng.randint(0, outer["rank"])}
    # dropping a matrix row (projection) only creates dependencies
    matrix = dict(outer["matrix"])
    gone = rng.randrange(len(matrix["rows"]))
    matrix["rows"] = [r for i, r in enumerate(matrix["rows"]) if i != gone]
    matrix["entries"] = [[r - (r > gone), c, x] for r, c, x in matrix["entries"] if r != gone]
    return {**outer, "matrix": matrix}


def _finite_oracle(p: _Plan, rng: random.Random):
    systems = []
    for n, (kind, m) in enumerate(_FINITE_STRATA * 2):
        obj = random_system(rng, kind, m)
        path = p.file(f"system-{n}-{kind}", obj)
        systems.append((path, obj))
        for axioms in "IBF"[: 1 + (m <= 10) + (m <= 8)]:
            p.query(["axioms", "--system", path, "--axioms", axioms], system=obj, axioms=axioms)
        for cmd in ("bases", "circuits", "dual"):
            p.query([cmd, "--system", path], system=obj)
        gone = rng.sample(obj["ground"], 2)
        p.query(["minor", "--system", path, "--delete", gone[0], "--contract", gone[1]],
                system=obj, delete=[gone[0]], contract=[gone[1]])
        if kind == "explicit":
            continue
        p.query(["mk", "--system", path, "-k", "1"], system=obj, k=1)
        if m <= 10:
            inner = nested_inner(rng, obj)
            inner_path = p.file(f"inner-{n}-{kind}", inner)
            pair = ["--outer", path, "--inner", inner_path]
            p.query(["diff", *pair, "--verify-duality"], outer=obj, inner=inner)
            p.query(["spectrum", *pair], outer=obj, inner=inner)
            p.query(["smin", *pair], outer=obj, inner=inner)
    small = [(path, obj) for path, obj in systems if len(obj["ground"]) <= 8]
    for _ in range(3):
        (lp, left), (rp, right) = rng.sample(small, 2)
        p.query(["union", "--left", lp, "--right", rp], left=left, right=right)
    for r in (2, 3, 4, 5):
        p.query(["axioms", "--system", f"ch4:{r}", "--axioms", "I"], ch4=r, axioms="I")
        p.query(["spectrum", "--pair", f"ch4:{r}"], ch4=r, values=list(range(1, r + 1)))
    p.query(["ch4", "-r", "5"], ch4=5, values=list(range(1, 6)))
