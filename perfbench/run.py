#!/usr/bin/env python3
"""Run one mcss benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the mcss library and
the workload driver from source into .bench_build/ (CMake, RelWithDebInfo);
later runs rebuild only what changed. Each run then

  - runs the unit tests of the benchmark's arithmetic (perfbench/tests),
  - runs the workload in its own process, which checks the program's
    outputs (payload bytes, psim fingerprints) as it goes,
  - reads the host-wide kernel UDP drop counters around it,
  - prints one line describing the host and build, prefixed "# run: ",
  - prints as its last line one JSON object with the keys correct,
    attempted, failed and metrics. With --trace 0 the metrics are the
    end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
    metrics (0 where a layer metric does not apply to the workload).

Exits non-zero without a result when the build, the arithmetic tests or
the workload process fail.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("live_bulk", "live_small")
BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOAD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, env):
    """Run a build step with its output on stderr; stdout stays the result."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          check=False)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    # Compiler temporaries stay inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], env=env)
    return build_dir


def udp_kernel_drops():
    """Host-wide Udp RcvbufErrors and SndbufErrors from /proc/net/snmp."""
    try:
        with open("/proc/net/snmp", encoding="ascii") as f:
            rows = [line.split() for line in f if line.startswith("Udp:")]
    except OSError:
        return None
    if len(rows) < 2:
        return None
    fields = dict(zip(rows[0][1:], (int(v) for v in rows[1][1:])))
    return fields.get("RcvbufErrors", 0), fields.get("SndbufErrors", 0)


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_version(build_dir):
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30, check=False).stdout
        return out.splitlines()[0] if out else compiler
    except (OSError, subprocess.SubprocessError):
        return compiler


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    wanted = ("avx2", "gfni", "avx512f", "ssse3")
    return model, {f: (f in flags) for f in wanted}


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest(root):
    """sha256 over src/ and perfbench/, naming the build without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_workload(build_dir, workload, seed, seconds, trace):
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "mcss_perfbench"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", trace],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {WORKLOAD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} not found")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    traced = args.trace == "1"
    wanted = spec["per_layer"] if traced else spec["end_to_end"]

    build_dir = build(root)
    tests = subprocess.run([os.path.join(build_dir, "perfbench_test")],
                           capture_output=True, text=True, timeout=60,
                           check=False)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout + tests.stderr)
        fail("the benchmark's arithmetic tests failed")

    drops0 = udp_kernel_drops()
    result = run_workload(build_dir, args.workload, args.seed, args.seconds,
                          args.trace)
    drops1 = udp_kernel_drops()

    measured = dict(result["metrics"])
    if traced and drops0 is not None and drops1 is not None:
        measured["transport.kernel_rx_drops"] = {
            "value": drops1[0] - drops0[0], "unit": "count"}
        measured["transport.kernel_tx_drops"] = {
            "value": drops1[1] - drops0[1], "unit": "count"}
    names = {m["name"] for m in wanted}
    unknown = sorted(set(measured) - names)
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
            if measured[m["name"]]["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {measured[m['name']]['unit']} "
                     f"!= declared {m['unit']}")
        elif traced:
            value = 0  # a layer this workload does not exercise
        else:
            fail(f"{args.workload} did not report {m['name']}")
        if value is None or not math.isfinite(value):
            fail(f"{m['name']} is not a finite number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    model, flags = cpu_info()
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": model,
            "cpu_flags": flags,
            "kernel": platform.release(),
        },
        "build": {
            "type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
            "compiler": compiler_version(build_dir),
            "commit": commit(root),
            "source_sha256": source_digest(root),
        },
        "network": "loopback UDP on this host, not a real link",
        "kernel_drop_counters": "host-wide /proc/net/snmp Udp deltas",
        "workload_notes": result.get("notes", {}),
        "check_failures": result.get("check_failures", []),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print("# run: " + json.dumps(run, sort_keys=True))
    correct = bool(result["correct"]) and not result.get("check_failures")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
