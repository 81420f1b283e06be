#!/usr/bin/env python3
"""Build the server and the benchmark from this checkout, then run one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload query-hot|query-cold|mixed-durable \
        --seed N --seconds S --trace 0|1 [--self-check]

Both programs are built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to standard error; the last line
of standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the sources are missing or a build or run fails.
"""

import ctypes
import os
import signal
import subprocess
import sys


def die_with_parent() -> None:
    """Runs in the child before exec: SIGKILL it if this script dies."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "Cargo.toml")
    bench_manifest = os.path.join(root, "perfbench", "Cargo.toml")
    for path in (manifest, bench_manifest):
        if not os.path.isfile(path):
            print(f"perfbench: {path} not found; run from the root of a source checkout",
                  file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, "-p", "shbf", "--bin", "shbf-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", bench_manifest],
    )
    for cmd in builds:
        # Build chatter must not reach stdout, whose last line is the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "shbf-perfbench"),
           "--server", os.path.join(release, "shbf-cli"),
           "--work-dir", os.path.join(target, "perfbench-work")] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
