#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/hvbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload redbelly --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/ (Release, configured once, rebuilt
incrementally on every call). The program's standard output is passed
through: a stamp line, then the result object as the last line. Traced runs
also write a Chrome trace to .bench_build/traces/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("redbelly", "naive_inv1", "certify_audit", "fleet")
# A run may take 180 s, and the first one in a checkout 900 s with its build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # Only this checkout's own repository counts, not one that encloses it.
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def scratch_env(tmpdir):
    """The environment with TMPDIR pointed inside the checkout."""
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmpdir
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a full repository checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = scratch_env(os.path.join(BUILD_DIR, "tmp"))
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hvbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, env=env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.SubprocessError) as error:
                fail(f"build step {' '.join(step)} failed: {error}")
            if done.returncode != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail(f"build step {' '.join(step)} failed; see {log_path}")
    return os.path.join(BUILD_DIR, "hvbench")


def run(command):
    """Runs hvbench in its own process group, so a hung fleet is reaped whole."""
    # The fork-local fleet puts its unix socket under TMPDIR; a short relative
    # path keeps it inside the checkout and under the socket-path limit.
    env = scratch_env(os.path.relpath(os.path.join(BUILD_DIR, "tmp"), ROOT))
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"{' '.join(command)} timed out", code=1)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return process.returncode, output


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the benchmark's own output checks catch failures")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        code, output = run([binary, "--selftest"])
        sys.stdout.write(output)
        sys.exit(code)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id()]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, output = run(command)
    if code != 0:
        fail(f"hvbench exited with code {code}", code=1)
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("hvbench printed no result", code=1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("hvbench printed a malformed result", code=1)
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
