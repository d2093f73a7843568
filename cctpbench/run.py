#!/usr/bin/env python3
"""CCTP benchmark: builds cctp_bench from this checkout's sources and runs
one workload.

    python3 cctpbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The first run configures and builds an
optimized cctp_bench under .bench_build/cctpbench; later runs rebuild only
what changed. Its report goes to stdout and the last line is the result
JSON: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The exit code is non-zero when the build fails, an output check
fails, or the result does not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cctpbench")
BINARY = os.path.join(BUILD, "cctp_bench")
# A run measures about --seconds; set-up and checks come on top.
RUN_TIMEOUT_S = 170


def fail(message):
    print("cctpbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compilers write their temporaries inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
                fail("cmake configure failed")
        if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, env=env).returncode:
            fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("cctp_bench exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("cctp_bench exited with %d: %s" % (proc.returncode, lines[-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("cctp_bench printed no result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("cctp_bench metrics do not match BENCHMARK.json")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("cctp_bench result has unexpected keys")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
