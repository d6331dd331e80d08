#!/usr/bin/env python3
"""Builds and runs the serve-path benchmark.

    python3 servebench/run.py --workload hit_read --seed 1 --seconds 20 --trace 0

Run from the repository root. Configures and builds servebench/ (which
pulls in the library through the root CMakeLists.txt) under
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that is
unset, runs the helper tests, then runs one benchmark. Its standard
output ends with the benchmark's result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to standard error. Exits non-zero, without a result
line, when the build, the helper tests or the benchmark fail.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("hit_read", "churn_miss")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd, killing it on timeout or interruption; returns the result."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out, err


def build(out_dir):
    generator = ["-G", "Ninja"] if _has("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    steps.append([os.path.join(out_dir, "servebench_harness_test")])
    for step in steps:
        code, _, _ = run_checked(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                 stderr=sys.stderr)
        if code != 0:
            print("servebench: step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def _has(program):
    return any(os.access(os.path.join(p, program), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep) if p)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        code, out, _ = run_checked(["git", "-C", ROOT, "rev-parse", "HEAD"], 10,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL)
        if code == 0 and out.strip():
            return out.decode().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    run_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "servebench"),
           "--workload=" + args.workload, "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds), "--trace=" + str(args.trace),
           "--out-dir=" + run_dir, "--git-sha=" + source_id()]
    code, out, _ = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                               cwd=ROOT)
    text = out.decode()
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        sys.stderr.write(text)
        print("servebench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
