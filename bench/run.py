"""Benchmark of the matroidlab certificate pipeline, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads (inputs are generated from the seed; see workloads.py):
  glued-spectrum  spectrum/mk on canned glued families and gluing files, the
                  square deletion, seeded deletions via spectrum and scan, the
                  bean check, and a replay of every returned witness
  ray-census      rays/dominate/spectrum on distinct random small specs
  finite-oracle   the finite subcommands on random systems and ch4:2..5

A round is one fresh worker process (cold caches, as for a CLI user) that sets
up and then runs the workload's whole query sequence as a closed loop with one
client.  With --trace 0 rounds repeat until --seconds is spent (at least two),
extra set-up-only workers bring the set-up samples to five, and the run prints
the end-to-end metrics:

  setup_s        worker start through `import matroidlab` to inputs written (median)
  wall_s         the query sequence after set-up (median over rounds)
  query_p50_ms   median query latency, a query's latency being its median
                 over the rounds
  query_tail_ms  90th-percentile query latency, likewise; every workload has
                 over 100 queries, so at least 10 lie beyond it
  ok_share       accepted answers over queries attempted; 1 - fail_share.  A
                 query fails on an exception, a non-zero exit code, or an
                 answer the independent checker (oracle.py) rejects
  peak_rss_mb    peak resident memory of any worker (RUSAGE_CHILDREN; with
                 --workload all, of any worker started so far)

Times are reported at a reference host speed.  Each worker times a fixed
pure-Python probe (worker.SpeedProbe) before, between and after its queries,
and every time it measured is multiplied by PROBE_REFERENCE_S over the
probe's median time in that worker.  On a shared host whose speed drifts by a
third over a minute this halves the run-to-run spread; the code under test
never runs the probe, so a faster program still reads faster.  The record
line printed before the result keeps the raw wall time and probe times.

With --trace 1 the run makes one untraced and one traced round and prints
per-layer metrics from the traced round's spans (spans.py): calls and self
time per wrapped function and per layer, set-up phases, and
trace.overhead_share (traced over untraced wall_s, minus 1).

Every answer goes through the checker outside the timed region; later rounds
must repeat the first round's output byte for byte.  Each run also plants one
wrong answer and fails unless the checker rejects it.  The last line of stdout
is the JSON result {"correct", "attempted", "failed", "metrics"}; "correct"
means the check itself worked (planted answer rejected, rounds agreed), while
rejected answers are counted in "failed".

Expected fail_share at the seed commit: 0 on glued-spectrum and finite-oracle;
non-zero on ray-census, from known sweep defects (lane-permuting or merging
splices, period-2 oscillation hitting the sweep bound).  Not measured here:
in-program counters and a --stats flag, and the Tier-1 suite time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILE = 90
# nominal time of the worker's speed probe; see speed()
PROBE_REFERENCE_S = 0.02

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "ok_share": "ratio", "peak_rss_mb": "MB",
}
LAYER_SELF = ("networkx", "periodic", "cycles", "families", "core", "linear", "ops", "cli", "io")
CALLS = (
    "networkx.maximum_flow", "networkx.shortest_path", "periodic.run_machine",
    "periodic.corridor_width", "periodic.truncate_graph", "periodic.contains_finite_cycle",
    "cycles.cycle_independent", "cycles.cycle_is_base", "cycles.defect",
    "cycles.spectrum_search", "families.spectrum_scan", "core.family_masks",
    "core.OracleMatroid.is_independent", "linear.q_rank", "linear.gf2_rank", "cli.main",
)
SELF = (
    "networkx.maximum_flow", "periodic.run_machine", "periodic.corridor_width",
    "periodic.truncate_graph", "periodic.domination_witness", "cycles.extend_to_fin_base",
    "families.delete_edges", "core.family_masks", "core.check_axioms", "core.maximal_masks",
    "core.enumerate_bases", "linear.q_rank", "linear.gf2_rank", "ops.spectrum", "ops.union",
    "ops.truncate_top",
)
# one wrong answer per workload, planted into the first accepted answer of a kind
PLANTS = {
    "glued-spectrum": ("spectrum", lambda r: r.update(values=r["values"][::-1])),
    "ray-census": ("rays", lambda r: r.update(rays=r["rays"] + 1)),
    "finite-oracle": ("bases", lambda r: r.update(count=r["count"] + 1)),
}


class WorkerFailed(Exception):
    pass


class Run:
    """One benchmark invocation: a scratch directory and the workers it starts."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = os.path.join(ROOT, "bench", ".work", f"{workload}-{seed}-{os.getpid()}")
        self.inputs = os.path.relpath(os.path.join(self.work, "inputs"), ROOT)
        self.spawned = 0

    def worker(self, trace=False, setup_only=False) -> dict:
        self.spawned += 1
        out = os.path.join(self.work, f"worker-{self.spawned}.json")
        os.makedirs(self.work, exist_ok=True)
        config = {
            "root": ROOT, "workload": self.workload, "seed": self.seed, "inputs": self.inputs,
            "out": out, "trace": trace, "setup_only": setup_only, "spawned": time.monotonic(),
        }
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, WORKER, json.dumps(config)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise WorkerFailed(proc.stderr.strip()[-800:] or f"worker exit {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        if trace:
            result["spans"] = spans.read_spans(out + ".spans")
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# ---------------------------------------------------------------------------
# statistics


def speed(worker) -> float:
    """Factor taking one worker's times to the reference host speed: the
    probe's nominal time over its median time in that worker."""
    return PROBE_REFERENCE_S / statistics.median(worker["probe_s"])


def tail(latencies):
    """(percentile, value, queries beyond it): the 90th percentile, nearest
    rank.  Every workload runs over 100 queries, so at least 10 lie beyond it;
    a higher percentile would rest on a few slow inputs of one seed."""
    xs = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE * len(xs) / 100)
    return TAIL_PERCENTILE, xs[rank - 1], len(xs) - rank


def layer_metrics(trace_spans, scale: float) -> dict:
    names = trace_spans["names"]
    start, end, parent = trace_spans["start"], trace_spans["end"], trace_spans["parent"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    true = [0] * len(names)
    for i, ix in enumerate(trace_spans["name"]):
        calls[ix] += 1
        self_s[ix] += (end[i] - start[i] - child[i]) * scale
        true[ix] += trace_spans["outcome"][i] == 1
    by_name = {name: (calls[i], self_s[i], true[i]) for i, name in enumerate(names)}
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (by_name.get(name, (0,))[0], "count")
    for name in SELF:
        out[f"{name}.self_s"] = (by_name.get(name, (0, 0.0))[1], "s")
    for layer in LAYER_SELF:
        total = sum(v[1] for k, v in by_name.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (total, "s")
    base_calls, _, base_true = by_name.get("cycles.cycle_is_base", (0, 0.0, 0))
    out["cycles.cycle_is_base.true_share"] = (base_true / base_calls if base_calls else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# checking


def judge(workload, queries, rounds):
    """(attempted, failed, reasons, planted_caught, rounds_agree).

    Rounds must agree byte for byte, so each distinct query is judged once
    and attempted/failed do not grow with the number of rounds a run fits."""
    first = rounds[0]["records"]
    verdicts = oracle.check(queries, first)
    seen = [(r["id"], r["rc"], r["out"]) for r in first]
    agree = all([(r["id"], r["rc"], r["out"]) for r in other["records"]] == seen
                for other in rounds[1:])
    failed_ids = [qid for qid, reason in verdicts.items() if reason]
    kind, plant = PLANTS[workload]
    by_id = {q["id"]: q for q in queries}
    target = next(r for r in first if not verdicts[r["id"]] and r["id"] in by_id
                  and by_id[r["id"]]["argv"][0] == kind)
    body = json.loads(target["out"])
    plant(body["result"])
    caught = oracle.check(queries, [dict(target, out=json.dumps(body))])[target["id"]] is not None
    reasons = {qid: verdicts[qid] for qid in failed_ids}
    return len(first), len(failed_ids), reasons, caught, agree


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.strip().endswith(ref))
    except (OSError, StopIteration):
        return None


# ---------------------------------------------------------------------------
# one workload


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        return _measure(run, seconds, trace)
    finally:
        run.close()


def _measure(run: Run, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    rounds, traced = [], None
    if trace:
        rounds.append(run.worker())
        traced = run.worker(trace=True)
    else:
        while True:
            t = time.monotonic()
            rounds.append(run.worker())
            if len(rounds) >= MIN_ROUNDS and time.monotonic() - start + (time.monotonic() - t) > seconds:
                break
    extra = [run.worker(setup_only=True) for _ in range(SETUP_SAMPLES - len(rounds) - bool(traced))]
    setups = [(w["setup"], speed(w)) for w in rounds + extra + ([traced] if traced else [])]
    _, queries = workloads.plan(run.workload, run.seed, run.inputs)
    checked = rounds + ([traced] if traced else [])
    attempted, failed, reasons, caught, agree = judge(run.workload, queries, checked)
    # each query's latency is its median over the rounds, which damps a slow
    # moment of the host before percentiles are taken across queries
    latencies = [statistics.median(recs) for recs in
                 zip(*([rec["s"] * speed(r) for rec in r["records"]] for r in rounds))]
    percentile, tail_s, beyond = tail(latencies)
    walls = [r["wall_s"] * speed(r) for r in rounds]
    if trace:
        metrics = layer_metrics(traced["spans"], speed(traced))
        metrics["trace.overhead_share"] = (traced["wall_s"] * speed(traced) / walls[0] - 1, "ratio")
        for key in ("import_s", "import_networkx_s", "inputs_s"):
            metrics[f"setup.{key}"] = (statistics.median(s[key] * f for s, f in setups), "s")
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * f for s, f in setups),
            "wall_s": statistics.median(walls),
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_tail_ms": 1000 * tail_s,
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    import networkx

    record = {
        "workload": run.workload, "seed": run.seed, "trace": trace, "rounds": len(rounds),
        "queries_per_round": len(rounds[0]["records"]), "tail_percentile": percentile, "beyond_tail": beyond,
        "measured_s": time.monotonic() - start,
        "raw_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "probe_ms": [round(1000 * statistics.median(w["probe_s"]), 3) for w in checked + extra],
        "python": sys.version,
        "cpu_count": os.cpu_count(), "networkx": networkx.__version__, "commit": git_commit(),
        "planted_answer_rejected": caught, "rounds_agree": agree,
        "rejected": dict(list(reasons.items())[:20]),
    }
    return {
        "record": record,
        "result": {
            "correct": caught and agree,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def report(out: dict):
    print(json.dumps({"record": out["record"]}))
    for name, m in out["result"]["metrics"].items():
        print(f"  {out['record']['workload']:<15} {name:<42} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "matroidlab", "__init__.py")):
        print(f"no matroidlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    try:
        for name in names:
            for trace in modes:
                out = measure(name, args.seed, args.seconds, trace)
                report(out)
                results[f"{name}{'/trace' if trace else ''}"] = out["result"]
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
