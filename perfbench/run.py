#!/usr/bin/env python3
"""The repository benchmark: build stsim from source, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|fork|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds stsim_perfbench (and the
stsim_runner it drives) into .bench_build/; later runs only re-check
the build. --trace 0 prints the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics and a Chrome trace. Every run prints a
host fingerprint line; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is 0
only when the build succeeded and every output check passed.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("sweep", "fork", "serve")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "stsim_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build():
    """Configure once, then bring stsim_perfbench up to date."""
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench",
                                                        "CMakeLists.txt")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of an stsim checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "stsim_perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd)} exited {rc}")


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    """Host + toolchain identity; numbers from different ids differ."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache()
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True, timeout=10).stdout
        compiler = compiler.splitlines()[0] if compiler else cxx
    except (OSError, subprocess.TimeoutExpired):
        compiler = cxx
    flags = " ".join(filter(None, [
        cache.get("CMAKE_BUILD_TYPE", ""),
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_RELEASE", ""),
        "ipo=" + cache.get("STSIM_ENABLE_IPO", "?"),
        "prefetch=" + cache.get("STSIM_ENABLE_PREFETCH", "?"),
    ]))
    try:
        # Only this checkout's own repository counts, not an enclosing one.
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.split()
        sha = (out[1] if len(out) == 2 and
               os.path.realpath(out[0]) == os.path.realpath(".") else None)
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    fp = {"cpu": cpu, "nproc": os.cpu_count(), "compiler": compiler,
          "build_flags": flags, "git_sha": sha,
          "source_digest": source_digest()}
    host = json.dumps([cpu, fp["nproc"], compiler, flags]).encode()
    fp["id"] = hashlib.sha256(host).hexdigest()[:12]
    return fp


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    build()
    expected = expected_metrics(args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{args.workload}: no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload}: last line is not a result: {lines[-1]!r}")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != expected:
        fail(f"{args.workload}: metrics {sorted(got)} do not match "
             f"BENCHMARK.json {sorted(expected)}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
