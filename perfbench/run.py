#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload simul_inproc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload packed_ooc --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

The benchmark is built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Build output goes to stderr. Standard output
carries the binary's "workload", "exact" and "info" lines, a "conditions" line
recording how the run was made, and, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run is also appended to runs.jsonl in the build directory, and the exact
counters of every (workload, seed, source tree) are kept there: a later run of
the same code and seed whose exact counters differ is flagged and marked
incorrect.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simul_inproc", "rounds_shm", "packed_ooc")
BINARY_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, target)


def tree_hash():
    """Hash of the library and benchmark sources: identifies the code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(tree):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-" + tree


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_exact(args, tree, exact):
    """Compares this run's exact counters with the stored ones for the same
    code and seed; returns the names that changed."""
    exact_dir = os.path.join(build_dir(), "exact")
    os.makedirs(exact_dir, exist_ok=True)
    key = "%s-seed%d-%s.json" % (args.workload, args.seed, tree)
    path = os.path.join(exact_dir, key)
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        return sorted(k for k in exact if before.get(k) != exact[k])
    with open(path, "w") as f:
        json.dump(exact, f, sort_keys=True)
    return []


def run_benchmark(args):
    binary = build("perfbench")
    if binary is None:
        return 1
    tree = tree_hash()
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]

    load_before = os.getloadavg()
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    load_after = os.getloadavg()
    if proc.returncode != 0:
        log("benchmark binary exited with %d" % proc.returncode)
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        log("benchmark binary printed no result")
        return 1
    result = json.loads(lines[-1])
    extra = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("workload", "exact", "info") and body.startswith("{"):
            extra[tag] = json.loads(body)

    if "exact" in extra:
        changed = check_exact(args, tree, extra["exact"])
        if changed:
            print("FLAG exact counters changed since an earlier run of this "
                  "code and seed: " + ", ".join(changed))
            result["correct"] = False

    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "wall_s": round(time.time() - started, 3),
        "commit": commit_id(tree),
        "source_tree": tree,
        "build_type": build_type(),
        "machine": platform.machine(),
    }
    conditions.update(extra.get("workload", {}))

    with open(os.path.join(build_dir(), "runs.jsonl"), "a") as f:
        f.write(json.dumps({"conditions": conditions, "result": result,
                            **extra}) + "\n")
    for line in lines[:-1]:
        print(line)
    print("conditions " + json.dumps(conditions))
    print(json.dumps(result), flush=True)
    return 0


def run_self_test():
    binary = build("perfbench_selftest")
    if binary is None:
        return 1
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    return subprocess.run([binary, work_dir]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="",
                        help="Chrome trace-event file (--trace 1); default "
                             "work/trace-<workload>.json in the build dir")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own test")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
