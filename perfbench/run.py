#!/usr/bin/env python3
"""Builds dexd and the perfbench program from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <serve_read|annotate_repair> \
        --seed N --seconds S --trace <0|1>

Both programs are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root): the `dexd` binary from the
repository's own workspace, exactly as shipped, and perfbench from
`perfbench/Cargo.toml`. Build output goes to standard error, so the last
line of standard output is perfbench's JSON result. The exit code is
perfbench's: nonzero when a build fails or any correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(cmd, env):
    """Runs one cargo build with its output on stderr; returns its code."""
    return subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "dexd", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; nothing to build",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    if build(cargo + ["-p", "dexd", "--bin", "dexd"], env) != 0:
        print("run.py: building dexd failed", file=sys.stderr)
        return 2
    if build(cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")], env) != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 2

    # Sockets and traces go to `.perfbench_out`, relative to the repository
    # root so that socket paths stay short.
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--dexd", os.path.join(release, "dexd"),
           "--out", ".perfbench_out"]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
