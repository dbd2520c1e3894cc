#!/usr/bin/env python3
"""Run one workload of the lcmd serving benchmark.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Stages a copy of the sources
(dune-project, lib/, bin/, and perfbench/ with lcmbench.dune as its dune
file) under `.bench_build/`, builds `lcmopt` and the benchmark program
`lcmbench` there with dune, then runs it; its last line of standard output
is the result object.  The repository's own build never sees perfbench/.
Exits non-zero without a result when the checkout holds no buildable
source.  See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ["serve-small", "serve-large", "fleet-cached", "delta-journal"]
BUILD_DIR = ".bench_build"
STAGE = os.path.join(BUILD_DIR, "perfbench-src")
TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_files():
    """Map each staged path (relative to STAGE) to its source path."""
    files = {"dune-project": "dune-project"}
    for top in ["lib", "bin"]:
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            for n in names:
                files[os.path.join(root, n)] = os.path.join(root, n)
    for n in os.listdir("perfbench"):
        if n.endswith(".ml"):
            files[os.path.join("perfbench", n)] = os.path.join("perfbench", n)
    files[os.path.join("perfbench", "dune")] = os.path.join("perfbench", "lcmbench.dune")
    return files


def stage_sources():
    """Copy the sources into STAGE, rewriting only files whose bytes
    changed (so an unchanged checkout rebuilds nothing), and delete staged
    sources that are gone from the checkout."""
    files = source_files()
    for rel, src in files.items():
        dst = os.path.join(STAGE, rel)
        with open(src, "rb") as f:
            data = f.read()
        try:
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
    for top in ["lib", "bin", "perfbench"]:
        for root, _, names in os.walk(os.path.join(STAGE, top)):
            for n in names:
                path = os.path.join(root, n)
                if os.path.relpath(path, STAGE) not in files:
                    os.remove(path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "bin/lcmopt.ml", "lib/server/engine.ml"]:
        if not os.path.exists(needed):
            log(f"{needed} not found: run from the root of a source checkout")
            return 2

    stage_sources()
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/lcmopt.exe", "./perfbench/lcmbench.exe"],
        cwd=STAGE, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        log("build failed")
        return 2

    built = os.path.join(STAGE, "_build", "default")
    cmd = [os.path.join(built, "perfbench", "lcmbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exe", os.path.join(built, "bin", "lcmopt.exe"),
           "--work", os.path.join(BUILD_DIR, "perfbench-work", args.workload)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
