#!/usr/bin/env python3
"""Build the pmlp library and the benchmark program from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository; it locates the
checkout from its own path. The build lives in `.bench_build/perfbench` at the
checkout root, scratch files in `.bench_build/work-<pid>` (removed on exit),
and a traced run's Chrome trace-event JSON in `.bench_build/traces/`.

The last line of standard output is the benchmark's JSON result. The exit code
is non-zero when the build fails, a correctness check fails, or the run does
not finish in time; no result is printed then unless the program printed one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("campaign-suite", "pendigits-flow", "serve-reload")
# A run must end within 180 s; leave headroom for start-up and clean-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def have_library_sources():
    src = os.path.join(ROOT, "src", "pmlp")
    for _, _, files in os.walk(src):
        if any(f.endswith(".cpp") for f in files):
            return True
    return False


def run_logged(cmd, log):
    """Run a build step with its output in `log`; True on success."""
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, log):
            fail("cmake configure failed, see " + log)
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log):
        fail("build failed, see " + log)
    return os.path.join(BUILD_DIR, "perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not have_library_sources():
        fail("no library sources under " + os.path.join(ROOT, "src", "pmlp")
             + "; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    binary = build()

    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--trace-file",
           os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(workdir, ignore_errors=True)

    text = stdout.decode("utf-8", "replace")
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not lines or not valid_result(lines[-1]):
        fail("the benchmark printed no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
