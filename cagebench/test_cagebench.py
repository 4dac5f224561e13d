"""Smoke tests for the benchmark itself: reduced-size passes of every
workload with their output checks, the trace accounting, counter
repeatability, BENCHMARK.json against the code, and the bare-directory
failure. Run with `python3 -m pytest cagebench -q` from the repository root.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class SmallSpectrum(wl.SpectrumSmall):
    RUNS = tuple(r for r in wl.SpectrumSmall.RUNS if r[0] in ("3-5-40", "4-4-20"))


class SmallSpectrum38(wl.Spectrum38):
    REFUTATIONS = 1


class SmallCanon(wl.CanonBatch):
    COPIES = {"tutte-coxeter": 2, "Q5": 2, "double-cover-mcgee": 2, "2xmcgee": 2,
              "random-cubic-32": 2, "random-cubic-64": 1}


class SmallVerify(wl.VerifyStream):
    COPIES = 1


SMALL = (SmallSpectrum, SmallSpectrum38, SmallCanon, SmallVerify)


@pytest.fixture(scope="module")
def ck():
    return run.fresh_import()


def _traced_pass(workload):
    inputs = workload.prepare()
    tracer = spans.Tracer()
    tracer.install(vars(workload.ck))
    try:
        out, wall = spans.traced(tracer, workload.run, inputs)
    finally:
        tracer.uninstall()
    return tracer, out, wall


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_smoke_pass_checks_and_trace_accounting(cls, ck, tmp_path):
    workload = cls(ck, 3, str(tmp_path))
    passes = [workload.run(workload.prepare())]
    tracer, out, traced_wall = _traced_pass(workload)
    passes.append(out)
    problems: list = []
    attempted, failed = workload.check(passes, problems)
    assert (failed, problems) == (0, [])
    assert attempted == 2 * workload.items

    inputs = workload.prepare()
    start = perf_counter()
    workload.run(inputs)
    untraced = perf_counter() - start
    overhead = max(traced_wall - untraced, 0.0)
    own = tracer.self_times()
    assert min(own.values()) > -1e-6
    assert abs(sum(own.values()) - traced_wall) <= overhead + 1e-3
    metrics = spans.layer_metrics(tracer, workload.realized(out), overhead)
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(metrics)


def test_layer_counts_match_the_inputs(ck, tmp_path):
    workload = SmallVerify(ck, 5, str(tmp_path))
    tracer, _, _ = _traced_pass(workload)
    calls = tracer.entries()
    lines = sum(len(graphs) for _, _, _, graphs in workload.files)
    size = sum(os.path.getsize(path) for _, _, path, _ in workload.files)
    assert calls["cli"] == 2 * len(workload.files)
    assert calls["graph6.decode"] == 2 * lines
    assert tracer.counters["graph6.decode.bytes"] == 2 * size
    assert calls["graph.check_kg"] == lines


def test_wrappers_are_removed_after_a_traced_pass(ck, tmp_path):
    before = {name: getattr(ck.canon, name) for name in ("certificate", "refine")}
    spectrum_cert = ck.spectrum.certificate
    spend = ck.limits.Budget.__dict__["spend"]
    _traced_pass(SmallCanon(ck, 1, str(tmp_path)))
    assert {name: getattr(ck.canon, name) for name in before} == before
    assert ck.spectrum.certificate is spectrum_cert
    assert ck.limits.Budget.__dict__["spend"] is spend


def test_counters_repeat_within_a_process(ck, tmp_path):
    workload = SmallSpectrum38(ck, 2, str(tmp_path))
    counts = []
    for _ in range(2):
        tracer, out, _ = _traced_pass(workload)
        counts.append(spans.deterministic(spans.layer_metrics(tracer, workload.realized(out), 0.0)))
    assert counts[0] == counts[1]
    assert counts[0]["limits.budget_steps"] > 0
    assert counts[0]["canon.certificate.calls"] > 0
    assert counts[0]["rewire.emitted"] >= workload.REBUILDS
    assert 0 < counts[0]["rewire.accept_ratio"] <= 1


def test_calibration_rescales_every_sample(ck, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_GAP_S", 0.01)
    monkeypatch.setattr(run, "calibrate", lambda adj, seconds=0.01: 2 * run.CALIBRATION_REF_S)
    passes: list = []
    workload, setups, walls = run.measure(SmallCanon, 1, str(tmp_path), 0, passes)
    assert len(walls) == len(passes) == run.MIN_PASSES == len(setups)
    for raw, scaled in walls + setups:
        assert scaled == pytest.approx(raw / 2)
    problems: list = []
    assert workload.check(passes, problems)[1] == 0 and not problems


def _bench(cwd, *args, env=None):
    cmd = [sys.executable, os.path.join(cwd, "cagebench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def test_counters_repeat_across_processes_and_hash_seeds():
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = _bench(run.ROOT, "--workload", "spectrum-small", "--seed", "4",
                      "--seconds", "0", "--trace", "1", env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        results.append({k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] in ("count", "B", "ratio")})
    assert results[0] == results[1]


def test_end_to_end_output_matches_benchmark_json():
    proc = _bench(run.ROOT, "--workload", "verify-stream", "--seed", "2",
                  "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_and_meta_match_the_workloads(ck, tmp_path):
    with open(os.path.join(run.HERE, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert list(meta["workloads"]) == list(wl.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        workload = wl.WORKLOADS[entry["name"]](ck, 1, str(tmp_path))
        assert meta["workloads"][entry["name"]]["items_per_pass"] == workload.items
        assert entry["why"].startswith(f"{workload.items} ")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "cagebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "canon-batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
