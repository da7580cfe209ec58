#!/usr/bin/env python3
"""Build and run the serving-simulator benchmark for one workload.

Usage (from the root of the source tree):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench` (and the simulator
library it links) under `.bench_build/perfbench`; later runs only
re-check the build. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 1` the run also writes a Chrome trace-event file under
`.bench_build/traces/` and reports the per-layer metrics instead of the
end-to-end ones. The exit code is non-zero when the build fails, a
correctness check fails, or the run times out.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("steady", "burst", "pod_faults")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr (stdout carries the result)."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(jobs):
    # A configure that failed leaves no build files behind, so it reruns.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", str(jobs)], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def git_commit():
    """HEAD of the tree when it is a git checkout, else "none"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """Content hash of src/, identifying the code measured when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="override the workload's trace size (smoke tests)")
    args = ap.parse_args()

    jobs = cpu_count()
    try:
        binary = build(jobs)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    if args.requests > 0:
        cmd += ["--requests", str(args.requests)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]

    # One pool thread: profiling and costing run serially, and the fleet
    # runs its replicas on the caller plus one worker. Both are pinned to
    # one CPU, so they never run at once: the CPU seconds measured are
    # the work, not lock contention that depends on how they overlap. On
    # a host shared with other tenants, wider fan-out mostly measures the
    # scheduler. Peak RSS is made repeatable: one malloc arena, so which
    # replicas the worker happens to run no longer decides how much
    # memory sits in a second arena; and a fixed mmap threshold, so
    # glibc does not move it by the order in which big blocks are freed.
    env = dict(os.environ, MCBP_THREADS="1", MALLOC_ARENA_MAX="1",
               MALLOC_MMAP_THRESHOLD_="131072")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not a result", file=sys.stderr)
        return 5
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result", file=sys.stderr)
        return 5
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
