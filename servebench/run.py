#!/usr/bin/env python3
"""Builds the serve-path benchmark from this checkout and runs one workload.

Usage, from the root of a checkout:
  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 servebench/run.py --self-test

The build (the repository's library in its default RelWithDebInfo
configuration, plus the benchmark) goes to .bench_build/servebench. The last
line of standard output is the run's JSON result; build output goes to
standard error.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds incrementally. Returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("no CMakeLists.txt at the checkout root; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest():
    """SHA-256 over the library sources and build files the run measured
    (documentation excluded, so editing it does not change the digest)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".md")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD, "check_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    cmd = [os.path.join(BUILD, "servebench"), *sys.argv[1:],
           "--out-dir", BUILD, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
