#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 cartbench/smoke.py

Run from the repository root. For every workload in BENCHMARK.json it makes
a short untraced and a short traced run and checks that the result line
names exactly the metrics BENCHMARK.json lists, with their units, and that
the run is correct. It then makes one run with a deliberately corrupted
block and checks that the failure is counted and the run exits non-zero.
Exit code 0 means every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, [json.loads(line) for line in lines[-2:]]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            errors.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, (prov, result) = run(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{w} trace={trace}: correct run")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            check(got == want, f"{w} trace={trace}: every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{w} trace={trace}: numeric values")
            check(prov["provenance"]["info"]["fail_ratio"] == 0,
                  f"{w} trace={trace}: fail_ratio is 0")
        code, (prov, result) = run(w, 0, corrupt=True)
        check(code != 0 and not result["correct"] and result["failed"] > 0
              and prov["provenance"]["info"]["fail_ratio"] > 0,
              f"{w}: a corrupted block is counted in fail_ratio")

    print(f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
