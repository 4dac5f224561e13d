"""The benchmark's deterministic work, pinned: one seed-7 pass of each
workload in `cagebench/`, traced by its own span tracer, must count the
same budget steps, layer calls, emitted graphs, decoded bytes and ratios as
recorded in `data/bench_counts_seed7.json`. A change that moves work shows
up here as a failing count, without a benchmark run.

The data file equals the count, ratio and byte metrics in the last line of
`python3 cagebench/run.py --workload all --seed 7 --trace 1 --seconds 2`.
"""
from __future__ import annotations

import importlib
import json
import os
from types import SimpleNamespace

HERE = os.path.dirname(__file__)
BENCH = os.path.join(HERE, os.pardir, "cagebench")
COUNTS = os.path.join(HERE, "data", "bench_counts_seed7.json")


def test_seed7_pass_counts_match_the_record(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run
    import spans
    from workloads import WORKLOADS

    # the modules already imported: run.fresh_import would drop cagekit from
    # sys.modules and leave the other tests' classes behind
    ck = SimpleNamespace(**{m: importlib.import_module(f"cagekit.{m}") for m in run.MODULES})
    with open(COUNTS, encoding="utf-8") as fh:
        want = json.load(fh)
    got = {}
    for name, cls in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(ck, 7, str(workdir))
        inputs = workload.prepare()
        tracer = spans.Tracer()
        tracer.install(vars(ck))
        try:
            out, _ = spans.traced(tracer, workload.run, inputs)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer, workload.realized(out), 0.0)
        for key, value in spans.deterministic(metrics).items():
            got[f"{name}.{key}"] = value
    assert got == want
