"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import ChunkClock, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, seed, trace, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return r


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    r = run(workload, 3, trace)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in wanted:
        assert any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if trace:  # the traced run compared every traced output with the untraced one
        assert not any(line.startswith("# MISMATCH") for line in lines)
        assert result["metrics"]["trace.spans"]["value"] > 0


def first_pass(workload, seed):
    wl = WORKLOADS[workload](seed, small=True)
    wl.marks = None
    wl.prepare()
    outs = []
    for p, fn in wl.steps():
        if p > 0 or len(outs) == 3:
            break
        outs.append(fn().fingerprint)
    return wl.gate(), outs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs(workload):
    gate1, outs1 = first_pass(workload, 1)
    gate2, outs2 = first_pass(workload, 2)
    assert outs1 != outs2
    assert first_pass(workload, 1) == (gate1, outs1)


def test_runs_make_a_fixed_number_of_passes():
    wl = WORKLOADS["stats-verify"](1)
    assert bench.pass_count(wl, 0.1, False) == 1
    assert bench.pass_count(wl, 2.5 * wl.pass_s, False) == 3
    assert bench.pass_count(wl, 2.5 * wl.pass_s, True) == 2
    assert bench.pass_count(wl, 5.5 * wl.pass_s, True) == 3
    counts = []
    for _ in range(2):
        result = json.loads(run("exact-laws", 5, 0).stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    r = run("exact-laws", 1, 0, cwd=str(tmp_path))
    assert r.returncode != 0
    assert "correct" not in r.stdout


def pass0(workload, seed=1):
    """Pass 0 of a small workload through the benchmark's loop, untraced."""
    wl = WORKLOADS[workload](seed, small=True)
    speed = Speed()
    chunks = ChunkClock(speed.maybe_sample)
    wl.marks = chunks.marks
    wl.prepare()
    return bench.Phase(chunks, speed).run(wl, 1)


def _boom(*a, **k):
    raise ValueError("injected")


@pytest.mark.parametrize("workload,module,name", [
    ("exact-laws", "analytics", "coloring_survival"),
    ("tree-io", "pruning", "gdp_prune"),
    ("tree-io", "newick", "from_newick"),
    ("stats-verify", "gof", "ks_statistic"),
])
def test_error_in_a_layer_fails_the_run(monkeypatch, workload, module, name):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"igwlab.{module}"), name, _boom)
    if workload == "stats-verify":  # its experiments have no small size; run a small one
        wl = WORKLOADS[workload](1, small=True)
        wl.n = {law: 200 for law in wl.laws}
        speed = Speed()
        phase = bench.Phase(ChunkClock(speed.maybe_sample), speed).run(_first_steps(wl, 1), 1)
    else:
        phase = pass0(workload)
    assert any("ValueError: injected" in m for m in phase.mismatches), phase.mismatches


class _first_steps:
    """A workload cut to its first steps."""

    def __init__(self, wl, n):
        self.wl, self.n, self.name = wl, n, wl.name

    def steps(self):
        for k, step in enumerate(self.wl.steps()):
            if k == self.n:
                return
            yield step


def test_recursion_error_in_newick_is_a_counted_failure(monkeypatch):
    from igwlab import newick

    def deep(*a, **k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(newick, "to_newick", deep)
    phase = pass0("tree-io")
    assert phase.mismatches == []
    assert phase.total("failed") == len(phase.steps) > 0


def test_tracer_keeps_the_recursion_depth():
    """The traced Newick code fails at exactly the depth the untraced code does."""
    import numpy as np
    from igwlab import newick
    from igwlab.trees import MetricTree

    def chain(d):
        return MetricTree(np.arange(-1, d, dtype=np.int32), np.r_[0.0, np.ones(d)])

    def ok(fn, d, pad):
        if pad:
            return ok(fn, d, pad - 1)
        try:
            fn(d)
            return True
        except RecursionError:
            return False

    def deepest(fn, pad):
        lo, hi = 1, 4000
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if ok(fn, mid, pad) else (lo, mid - 1)
        return lo

    def write(d):
        newick.to_newick(chain(d))

    def read(d):
        newick.from_newick("(" * d + ":1)" * d + ";")

    plain = [deepest(fn, pad) for fn in (write, read) for pad in (0, 1)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [deepest(fn, pad) for fn in (write, read) for pad in (0, 1)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.n > 0
