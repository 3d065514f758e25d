#!/usr/bin/env python3
"""Build and run the repository benchmark (see cartbench/README.md).

    python3 cartbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/cartbench (default .bench_build/cartbench). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, with --trace 1 its per_layer metrics. The line before it
records the run's provenance. The exit code is 0 only for a correct run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cartbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"cartbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "cartbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        # Never look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one received block to exercise the oracle")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "mpl", "mpl.hpp")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "cartbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.csv")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed no result (exit {run.returncode})")
        return run.returncode or 1
    raw = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        log(p)

    info = raw["info"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": info.get("nproc"),
        "compiler": f"{cmake_cache(build_dir, 'CMAKE_CXX_COMPILER')} {info.get('compiler')}",
        "build_type": info.get("build_type"),
        "sanitized": info.get("sanitized"),
        "mpl_checked": info.get("mpl_checked"),
        "commit": commit(),
        "source_digest": source_digest(),
        "llc_bytes": info.get("llc_bytes"),
        "bulk_array_bytes": info.get("bulk_array_bytes"),
        "info": info,
        "unlisted_metrics": {k: v for k, v in raw["metrics"].items()
                             if k not in metrics},
    }
    print(json.dumps({"provenance": provenance}))
    failed = int(raw["failed"])
    correct = run.returncode == 0 and failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
