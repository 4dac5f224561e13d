"""cagekit benchmark: time to a classification or verification known correct.

    python3 cagebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cagebench/run.py --workload all --seed N --seconds S [--trace 0|1]

NAME is one of spectrum-small, spectrum-3-8, canon-batch, verify-stream.
A run imports cagekit from ./src of the checkout, builds the workload's inputs
from the seed, alternates a set-up and one pass of fixed size on the same
inputs for S seconds (at least three passes), and checks every pass's
outputs. It prints each metric with its unit, samples and quartiles, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are wall_s (the median pass), setup_s (the median
set-up) and peak_rss_mb; with --trace 1 they are the per-layer metrics of
traced passes (see spans.py). `all` runs each workload in its own process,
one after another, and prints a summary table.

wall_s and setup_s are in reference-speed seconds. A fixed pure-Python loop
(`calibrate`) is timed for CALIBRATION_GAP_S between every two timed regions,
and each set-up or pass time is multiplied by CALIBRATION_REF_S over the mean
of the loop's median times just before and just after it. On the 2-core
machine this was written on, single-thread speed changes by up to 1.75x for
seconds to minutes at a time; the rescaled times follow the program's own
cost, not that drift. The raw seconds are printed beside them.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".cagebench")

MODULES = ("errors", "limits", "graph", "graph6", "canon", "named", "constructions",
           "rewire", "families", "recipes", "spectrum", "cli")
MIN_PASSES = 3


def fresh_import():
    """Import cagekit from scratch (so each set-up pays the import)."""
    for name in [m for m in sys.modules if m == "cagekit" or m.startswith("cagekit.")]:
        del sys.modules[name]
    ck = SimpleNamespace(**{m: importlib.import_module(f"cagekit.{m}") for m in MODULES})
    if not os.path.abspath(ck.graph.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cagekit was imported from {ck.graph.__file__}, not {SRC}")
    return ck


# Median time of one `_bfs_all` on the calibration graph, on the machine the
# benchmark was written on (2-core VM, Python 3.11.7) when it ran fastest:
# the unit of wall_s and setup_s.
CALIBRATION_REF_S = 0.004
CALIBRATION_GAP_S = 0.25


def calibration_graph():
    import reference as ref

    return ref.adjacency(160, ref.random_regular(160, 3, random.Random("cagebench calibration")))


def _bfs_all(adj):
    n = len(adj)
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)


def calibrate(adj, seconds=CALIBRATION_GAP_S):
    """Median seconds of a fixed interpreter-bound loop (a BFS from every
    vertex of `adj`), repeated for `seconds`. It never touches cagekit, and
    runs with the garbage collector off so that no collection of cagekit's
    objects is timed in it."""
    times = []
    gc.disable()
    try:
        end = perf_counter() + seconds
        while not times or perf_counter() < end:
            t0 = perf_counter()
            _bfs_all(adj)
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def measure(cls, seed, workdir, seconds, passes):
    """Alternate one set-up and one pass until the time is spent.

    Every pass runs on the first set-up's workload, with fresh inputs; the
    later set-ups are timed and dropped, so set-up samples spread over the
    run as pass samples do. The calibration loop runs before every set-up
    and pass and once after the last. Returns (workload, set-ups, passes),
    each sample a (raw seconds, reference-speed seconds) pair.
    """
    adj = calibration_graph()
    workload, setups, walls = None, [], []
    started = perf_counter()
    cal = calibrate(adj)

    def timed(samples, fn):
        nonlocal cal
        t0 = perf_counter()
        out = fn()
        raw = perf_counter() - t0
        before, cal = cal, calibrate(adj)
        samples.append((raw, raw * CALIBRATION_REF_S * 2 / (before + cal)))
        return out

    while True:
        fresh = timed(setups, lambda: cls(fresh_import(), seed, workdir))
        workload = workload or fresh
        del fresh
        gc.collect()
        inputs = workload.prepare()
        passes.append(timed(walls, lambda: workload.run(inputs)))
        spent = perf_counter() - started
        if len(walls) >= MIN_PASSES and spent + spent / len(walls) > seconds:
            return workload, setups, walls


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def show(name, unit, values):
    q1, q2, q3 = quartiles(values)
    print(f"  {name:32s} {q2:14.6f} {unit:6s} n={len(values):<3d} "
          f"min={min(values):.6f} q1={q1:.6f} q3={q3:.6f}")


def run_one(args):
    from workloads import WORKLOADS
    import spans as tr

    cls = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        print(f"cagebench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
        passes: list = []
        metrics: dict = {}
        problems: list = []
        if args.trace:
            workload, _, walls = measure(cls, args.seed, workdir, args.seconds / 2, passes)
            base = min(raw for raw, _ in walls)
            layer = []
            for run in range(2):
                inputs = workload.prepare()
                tracer = tr.Tracer()
                tracer.install(vars(workload.ck))
                try:
                    out, wall = tr.traced(tracer, workload.run, inputs)
                finally:
                    tracer.uninstall()
                passes.append(out)
                layer.append(tr.layer_metrics(tracer, workload.realized(out), wall - base))
                if run == 0:
                    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
                    tracer.write(path)
                    print(f"  spans: {len(tracer.name)} written to {os.path.relpath(path, ROOT)}")
            if tr.deterministic(layer[0]) != tr.deterministic(layer[1]):
                diff = {k: (v, tr.deterministic(layer[1]).get(k))
                        for k, v in tr.deterministic(layer[0]).items()
                        if v != tr.deterministic(layer[1]).get(k)}
                problems.append(f"traced counters differ between two passes: {diff}")
            metrics = layer[0]
            print(f"  untraced pass {base:.4f} s (fastest of {len(walls)}), traced pass "
                  f"{base + metrics['trace.overhead_s'][0]:.4f} s")
            for name, (value, unit) in metrics.items():
                show(name, unit, [value])
        else:
            workload, setups, walls = measure(cls, args.seed, workdir, args.seconds, passes)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "wall_s": (statistics.median(scaled for _, scaled in walls), "s"),
                "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
                "peak_rss_mb": (rss, "MiB"),
            }
            for name, samples in (("wall_s", walls), ("setup_s", setups)):
                print(f"  samples {name} raw", json.dumps([round(raw, 6) for raw, _ in samples]))
                show(f"{name} (raw seconds)", "s", [raw for raw, _ in samples])
                show(f"{name} (reference-speed)", "s", [scaled for _, scaled in samples])
            show("peak_rss_mb", "MiB", [rss])
        print(f"  pass = {workload.items} items ({cls.__doc__.strip().splitlines()[0]})")
        attempted, failed = workload.check(passes, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.6f}")
    for line in problems[:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in a fresh process, then one summary table."""
    from workloads import WORKLOADS

    rows = []
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        totals["correct"] &= res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = metric
        rows.append((name, res))
    if not args.trace:
        print(f"\n{'workload':16s} {'setup_s':>10s} {'wall_s':>10s} {'peak_rss_mb':>12s} {'failed_frac':>12s}")
        for name, res in rows:
            m = res["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:10.4f} {m['wall_s']['value']:10.4f} "
                  f"{m['peak_rss_mb']['value']:12.1f} {res['failed'] / res['attempted']:12.6f}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cagekit", "__init__.py")):
        print(f"error: no cagekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
