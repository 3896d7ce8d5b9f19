#!/usr/bin/env python3
"""Builds the benchmark harness and the piton-serve daemon from source,
then runs one workload.

    python3 perfbench/run.py --workload paper_both|serve_cold|serve_warm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default .bench_build). The last line of stdout is the harness's JSON
result; build output goes to stderr. Exits non-zero, without a result,
when the workspace sources are missing or a build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["paper_both", "serve_cold", "serve_warm"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    root = os.path.dirname(HERE)
    workspace = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(root, "crates")):
        sys.exit("perfbench: the repository's workspace is not next to perfbench/")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(root, ".bench_build"))
    build(target, os.path.join(HERE, "Cargo.toml"))
    build(target, workspace, "-p", "piton-bench", "--bin", "piton-serve")

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(release, "piton-serve"),
           "--work", os.path.relpath(os.path.join(HERE, "work"))]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
