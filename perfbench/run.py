#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The script builds the runner and
the library it measures into .bench_build/, clears every inherited
AUTODC_* variable, pins AUTODC_NUM_THREADS to min(4, nproc), runs the
workload in a child process, and checks that the child reported exactly
the metrics BENCHMARK.json names. Per-layer metrics a workload does not
exercise are reported as 0. See perfbench/README.md.
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
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def num_threads():
    return min(4, os.cpu_count() or 1)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUTODC_")}
    env["AUTODC_NUM_THREADS"] = str(num_threads())
    return env


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/; run from a full tree")
    steps = [["cmake", "--build", BUILD_DIR, "--target", target,
              "-j", str(num_threads())]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, env=pinned_env()).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def source_identity():
    """The git sha when there is one, and a digest of the library sources."""
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha or "none", digest.hexdigest()[:16]


def check_result(result, spec, trace):
    """Holds the runner's metrics to BENCHMARK.json; fills idle layers."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail("missing end-to-end metric " + name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("%s reported in %s, not %s" %
                 (name, metrics[name]["unit"], unit))
        elif not trace and metrics[name]["value"] <= 0:
            fail("end-to-end metric %s is not positive" % name)
    if result["attempted"] < 1:
        fail("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], env=pinned_env()).returncode)

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    binary = build("perfbench_runner")
    sha, src_digest = source_identity()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=pinned_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload ran past %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("runner exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    check_result(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print("source: git=%s src_sha256=%s" % (sha, src_digest))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
