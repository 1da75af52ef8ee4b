#!/usr/bin/env python3
"""Build and run the tsbench sign-off benchmark from a source checkout.

    python3 tsbench/run.py --workload refine|signoff|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside the checkout. The first run configures and builds
the library and the `tsbench` driver into .bench_build/ (or $CARGO_TARGET_DIR
when set) with CMake; later runs only check that the build is current. Each
workload runs in its own working directory under .bench_work/, where its
Steiner-predictor cache, snapshots, trace and last output live. Every
TSTEINER_* variable is cleared for the run and the pool width is pinned.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit status is 0 only when
the build succeeded, every correctness check passed and the reported metric
names match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("refine", "signoff", "serve")
POOL_WIDTH = 4
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then bring the driver up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark; nothing to build")
    out = build_dir()
    jobs = str(min(POOL_WIDTH, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tsbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "tsbench")


def source_id():
    """A content hash of src/ and the benchmark: the checkout is not a git repo."""
    digest = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args()

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSTEINER_")}
    env["TSTEINER_THREADS"] = str(POOL_WIDTH)
    work = os.path.join(ROOT, ".bench_work", args.workload + ("_smoke" if args.smoke else ""))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    with open(os.path.join(work, f"last_run_trace{args.trace}.txt"), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    expected = declared_metrics(args.trace)
    if list(result["metrics"]) != expected:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
