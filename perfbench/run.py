"""fournls benchmark entry point.

    python3 perfbench/run.py --workload {studies,simulate-verify} \
        --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; fournls is imported from ./src.
Each workload runs in a fresh single-threaded worker process (see worker.py)
as a closed loop: one caller, jobs in sequence, rounds repeated until
--seconds have passed. Set-up (interpreter start, imports, input
generation) is timed in separate processes.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics: medians over
rounds of the round time (wall_s) and of each of the workload's three jobs
(job1_s..job3_s), the median set-up time and the worker's peak RSS.
--trace 1 reports the per-layer metrics of traced rounds instead. The line
before it holds provenance and the job names behind job1_s..job3_s.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("studies", "simulate-verify")
SETUP_REPEATS = 3  # before and again after the measured run
TIME_LIMIT_S = 170.0  # whole run, set-up included
THREAD_ENV = ("FOURNLS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")


def _git_commit(root):
    """HEAD of the checkout, read without running git (None outside a repo)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _worker(args, workdir, env, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir, *extra]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed 0 also compares outputs with perfbench/reference.json")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every job for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fournls", "__init__.py")):
        print(f"error: no fournls sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_ENV})
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    deadline = time.perf_counter() + TIME_LIMIT_S
    setup_s = []

    def time_setup():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup = _worker(args, workdir, env, ["--setup-only"], deadline)
            setup_s.append(time.perf_counter() - t0)
            if setup.returncode != 0:
                sys.stderr.write(setup.stderr)
                print("error: worker set-up failed", file=sys.stderr)
                return False
        return True

    try:
        # Set-up is timed before and after the measured run, so the median
        # spans the same stretch of machine conditions as the rounds. A traced
        # run reports no set-up time.
        if not args.trace and not time_setup():
            return 1
        proc = _worker(args, workdir, env, [], deadline)
        if proc.returncode == 0 and not args.trace and not time_setup():
            return 1
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    for message in out["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    jobs = list(out["job_s"])
    info = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "rounds": len(out["wall_s"]),
        "jobs": {f"job{i + 1}_s": job for i, job in enumerate(jobs)},
        "provenance": {
            **out["provenance"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "FOURNLS_THREADS": env["FOURNLS_THREADS"],
            "commit": _git_commit(ROOT),
            "src_sha256": _source_digest(src),
            "seed": args.seed,
        },
    }
    print(json.dumps(info))

    if args.trace:
        metrics = out["per_layer"]
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "wall_s": _metric(statistics.median(out["wall_s"]), "s"),
            "peak_rss_mb": _metric(out["peak_rss_mb"], "MB"),
        }
        for name, job in info["jobs"].items():
            metrics[name] = _metric(statistics.median(out["job_s"][job]), "s")
    failed = min(len(out["failures"]), out["attempted"])
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
