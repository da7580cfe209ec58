#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

Runs every workload of BENCHMARK.json at a few hundred requests, untraced
and traced, and checks that each run passes its correctness checks and
emits exactly the declared metrics with their declared units, and that
the traced run writes a loadable trace. Exit code 0 when all pass.

    python3 perfbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUESTS = 300


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--requests", str(REQUESTS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr[-1500:]}"
    return json.loads(proc.stdout.splitlines()[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            name = f"{w['name']} trace={trace}"
            before = len(errors)
            result, err = run(w["name"], trace)
            if result is None:
                errors.append(f"{name}: {err}")
                continue
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{name}: checks failed")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name}: metrics {sorted(set(got) ^ set(want))}"
                              f" or their units differ from BENCHMARK.json")
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    f"{w['name']}-seed7.json")
                with open(path) as f:
                    if not json.load(f)["traceEvents"]:
                        errors.append(f"{name}: empty trace file")
            print(f"{name}: {'ok' if len(errors) == before else 'FAILED'}")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
