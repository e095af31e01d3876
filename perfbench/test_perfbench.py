"""Smoke test of the benchmark itself: python3 -m pytest perfbench -q

Runs every workload at tiny size with and without tracing, checks that the
result line carries exactly the metrics BENCHMARK.json declares, and checks
the tracer's self-time arithmetic on a fixed span tree.
"""
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from tracing import Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_self_time_of_fixed_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),   # overlaps a: the overlap is not subtracted twice
        Span("c", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
        Span("d", 11.0, 13.0, 0),  # entirely outside its parent: covers nothing
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0, 2.0]


def test_tracer_nests_spans_and_restores_patches():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)
    owner.outer = lambda x: owner.inner(x) + owner.inner(x)
    original = owner.inner, owner.outer
    tracer = Tracer()
    patches = [(owner, "inner", lambda t, fn: t.wrap("inner", fn)),
               (owner, "outer", lambda t, fn: t.wrap("outer", fn, attrs=lambda x: {"x": x}))]
    with tracer.installed(patches):
        assert owner.outer(1) == 4
    assert (owner.inner, owner.outer) == original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.spans[0].attrs == {"x": 1}
    own = self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].duration, abs=1e-12)


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for value in (m["value"] for m in result["metrics"].values()):
        assert isinstance(value, (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "studies", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
