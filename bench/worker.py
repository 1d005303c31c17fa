"""One benchmark round in a fresh process, so every cache starts cold.

Set-up runs from process start through ``import matroidlab`` (taken from the
checkout's ``src``) to the workload's input files written.  Then the query
sequence runs as a closed loop with one client: each CLI query goes to
``matroidlab.cli.main`` in process with its output captured, and each witness
a spectrum returns is replayed through package-root functions.  Everything
seen is written as JSON for the parent (``run.py``), which checks it.

Usage: python3 bench/worker.py '<json config>'   (written by run.py)
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import io
import json
import os
import sys
import time


class ImportClock:
    """Meta-path hook timing one top-level package import, if it happens."""

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.name:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None:
            return None
        run = spec.loader.exec_module

        def timed(module):
            start = time.monotonic()
            try:
                run(module)
            finally:
                self.seconds += time.monotonic() - start

        spec.loader.exec_module = timed
        return spec


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import matroidlab
    import matroidlab.cli

    if not os.path.abspath(matroidlab.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"matroidlab imported from {matroidlab.__file__}, not from {src}")
    return matroidlab


class SpeedProbe:
    """Times a fixed pure-Python job (union-find sweeps over a ladder, the
    character of the sweep engine) at the start, between queries at most
    every ``every_s``, and at the end of a worker.  The parent divides by
    these times, so a shared host that slows down for a minute is not read
    as the program slowing down."""

    def __init__(self, every_s: float = 0.5):
        import graphs

        self.family = graphs.ladder(3)
        self.job = graphs.corridor_classes
        self.every_s = every_s
        self.samples: list = []
        self.last = float("-inf")

    def sample(self, force=False):
        if not force and time.monotonic() - self.last < self.every_s:
            return
        start = time.perf_counter()
        for _ in range(60):
            self.job(self.family)
        self.samples.append(time.perf_counter() - start)
        self.last = time.monotonic()


def run_cli(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception as exc:  # a traceback is a failed query, not a failed run
        rc = None
        err.write(repr(exc))
    return {"s": time.perf_counter() - start, "rc": rc, "out": out.getvalue(),
            "err": err.getvalue()[-300:]}


def replay(pkg, query: dict, answer: dict, value) -> dict:
    """Re-test one returned witness: glued base, defect value, finite-cycle base."""
    start = time.perf_counter()
    try:
        argv = query["argv"]
        source = argv[argv.index("--family") + 1]
        head, _, tail = source.partition(":")
        if source == "bean":
            fam = pkg.bean_family()
        elif head == "ladder":
            fam = pkg.ladder_family(int(tail))
        else:
            fam = pkg.load_family(pkg.read_json(source))
        glue_arg = argv[argv.index("--glue") + 1] if "--glue" in argv else "all"
        if glue_arg == "all":
            glue = pkg.glue_all(fam)
        elif glue_arg == "none":
            glue = pkg.no_glue(fam)
        else:
            glue = pkg.load_gluing(pkg.read_json(glue_arg))
        wit = answer["witnesses"][str(value)]
        s = pkg.load_edge_set(wit["base"] if "base" in wit else wit["reduced"])
        found = {
            "is_base": pkg.cycle_is_base(fam, s, glue)[0] if "base" in wit else None,
            "defect": pkg.defect(fam, s, glue),
            "fin_is_base": (pkg.fin_is_base(fam, pkg.load_edge_set(wit["fin_base"]))[0]
                            if wit["fin_base"] else None),
        }
        if not isinstance(found["defect"], int):
            found["defect"] = "inf"
        rc, out, err = 0, json.dumps(found, sort_keys=True), ""
    except Exception as exc:  # same rule as run_cli
        rc, out, err = None, "", repr(exc)
    return {"s": time.perf_counter() - start, "rc": rc, "out": out, "err": err[-300:]}


def main(config: dict):
    clock = ImportClock("networkx")
    sys.meta_path.insert(0, clock)
    t_import = time.monotonic()
    pkg = import_package(config["root"])
    t_inputs = time.monotonic()

    import workloads

    files, queries = workloads.plan(config["workload"], config["seed"], config["inputs"])
    for path, obj in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(obj, fh)
    t_ready = time.monotonic()
    result = {
        "setup": {
            "setup_s": t_ready - config["spawned"],
            "import_s": t_inputs - t_import,
            "import_networkx_s": clock.seconds,
            "inputs_s": t_ready - t_inputs,
        },
    }
    probe = SpeedProbe()
    probe.sample(force=True)
    if config["setup_only"]:
        probe.sample(force=True)
    else:
        tracer = None
        if config["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer, pkg)
        records = []
        for query in queries:
            probe.sample()
            if tracer:
                tracer.query_id = len(records)
            rec = run_cli(pkg.cli.main, query["argv"])
            rec["id"] = query["id"]
            records.append(rec)
            if not (query["replay"] and rec["rc"] == 0):
                continue
            answer = json.loads(rec["out"])["result"]
            for value in answer["values"]:
                if tracer:
                    tracer.query_id = len(records)
                rep = replay(pkg, query, answer, value)
                rep["id"] = f"{query['id']}/{value}"
                records.append(rep)
        # the closed loop has no think time, so the sequence time is the sum
        # of query latencies (probe samples between queries stay out of it)
        result["wall_s"] = sum(rec["s"] for rec in records)
        result["records"] = records
        if tracer:
            tracer.write(config["out"] + ".spans")
    probe.sample(force=True)
    result["probe_s"] = probe.samples
    with open(config["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
