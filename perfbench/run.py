#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 2002 --seconds 25 --trace 0

perfbench is compiled into .bench_build/ with every Go cache kept there
too, so a run reads and writes nothing outside the checkout. Arguments are
passed to perfbench unchanged; its exit code is this script's.
"""

import os
import subprocess
import sys


def commit(root):
    """The checkout's git commit, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=src, env=env
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = [binary] + sys.argv[1:] + ["--commit", commit(root)]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
