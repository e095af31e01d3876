"""One benchmark process: set up one workload, run it in rounds, check it.

Started by run.py in a fresh interpreter per workload, so the peak resident
set size belongs to that workload alone. Prints one JSON line.

    python3 perfbench/worker.py --workload studies --seed 0 --seconds 55 \
        --trace 0 --size full --workdir .bench_build/perfbench/tmp

--setup-only stops after imports and input generation (run.py times that).
--write-reference runs one round and stores its outputs as the reference.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fournls  # noqa: E402

if not os.path.abspath(fournls.__file__).startswith(SRC + os.sep):
    sys.exit(f"fournls imported from {fournls.__file__}, not from {SRC}")

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, dump  # noqa: E402


def run_round(workload, tracer=None, round_index=0):
    """Run every job once; returns (times, summaries, failures)."""
    times, summaries, failures = {}, {}, []
    for job in workload.jobs:
        call = lambda: workload.run(job)  # noqa: E731
        if tracer is not None:
            call = tracer.wrap("job." + job, call, attrs=lambda: {"round": round_index})
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            failures.append(f"{job}: {traceback.format_exc()}")
            continue
        finally:
            times[job] = time.perf_counter() - start
        summaries[job] = workload.summary(job, result)
    return times, summaries, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.size, args.workdir)
    if args.setup_only:
        return 0

    times = {job: [] for job in workload.jobs}
    walls, traced_walls, tracers, failures = [], [], [], []
    first = first_text = None
    attempted = 0
    patches = layers.patches()
    deadline = time.perf_counter() + args.seconds
    # With tracing, rounds alternate untraced/traced so both see the same
    # machine conditions; per-layer metrics come from the traced rounds.
    while True:
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if traced:
            tracer = Tracer()
            with tracer.installed(patches):
                t, summaries, errs = run_round(workload, tracer, len(traced_walls))
            tracers.append(tracer)
            traced_walls.append(sum(t.values()))
        else:
            t, summaries, errs = run_round(workload)
            walls.append(sum(t.values()))
            for job, dt in t.items():
                times[job].append(dt)
        attempted += len(workload.jobs)
        failures += errs
        if not errs:
            text = workloads.canonical(summaries)
            if first is None:
                first, first_text = summaries, text
            elif text != first_text:
                failures.append("outputs differ from the first round")
        if args.write_reference:
            break
        # Stop when another round like this one would end past the deadline.
        now = time.perf_counter()
        done = len(walls) >= 1 and (not args.trace or traced_walls)
        if done and now + (now - round_start) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if first is not None:
        try:
            failures += workload.check(first)
            if args.write_reference:
                _store_reference(args.size, args.workload, workload.reference_values(first))
            elif args.seed == workloads.REFERENCE_SEED:
                reference = _load_reference(args.size).get(args.workload)
                if reference is not None:
                    failures += workloads.compare_reference(
                        workload.reference_values(first), reference)
        except Exception:
            failures.append(f"check: {traceback.format_exc()}")

    result = {
        "attempted": attempted,
        "failures": failures,
        "job_s": times,
        "wall_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "fournls": fournls.__version__},
    }
    if args.trace:
        per_round = [layers.layer_metrics(t) for t in tracers]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in layers.PER_LAYER}
        dump(tracers, os.path.join(os.path.dirname(args.workdir),
                                 f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


def _load_reference(size):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(size, {})
    except FileNotFoundError:
        return {}


def _store_reference(size, name, values):
    try:
        with open(REFERENCE) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc.setdefault(size, {})[name] = values
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
