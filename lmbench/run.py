#!/usr/bin/env python3
"""Builds the lmbench harness from source and runs one workload.

    python3 lmbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 lmbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset, and is incremental. Build output goes to
stderr; stdout carries the harness's output, whose last line is the
result object. README.md in this directory describes the workloads and
metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("lmbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to this directory; run from a full "
             "checkout of the repository")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "lmbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "lmbench")


def code_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "lmbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["stream", "offload", "burst", "compile"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        exe = build(bdir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    if args.selftest:
        cmd = [exe, "--selftest"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", code_identity()]
        if args.trace:
            cmd += ["--trace-file", os.path.join(
                bdir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("harness exited with code %d" % proc.returncode)
    if not args.selftest:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        if set(result) != RESULT_KEYS:
            sys.stderr.write(proc.stdout)
            fail("harness printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
