#!/usr/bin/env python3
"""Builds the end-to-end benchmark in Release and runs one workload.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset,
and is incremental after the first run. Build output goes to stderr; the
benchmark's report goes to stdout, its last line one JSON object. The exit
code is the benchmark's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    build_cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e",
                 "--parallel", "2"]
    # A generated build tree re-runs its configure step itself when needed.
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    for cmd in ([build_cmd] if configured else [configure, build_cmd]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return True


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=HERE, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        if not build(build_dir):
            print("bench_e2e: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("bench_e2e: build timed out", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "bench_e2e")
    cmd = [binary] + sys.argv[1:] + [
        "--out-dir", os.path.join(build_dir, "run"), "--commit", commit_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
