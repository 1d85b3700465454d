#!/usr/bin/env python3
"""Build the clustering benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go program in perfbench/ is built into .bench_build/ (its Go build cache
and temporary files live there too, so nothing is written outside the
checkout), then run once in its own process with its output passed through:
the last line of standard output is the result object, and the exit status
is the program's. Spans of a traced run go to .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A cold build compiles the standard library; a warm one takes a second.
BUILD_TIMEOUT_S = 700
# A run must end within 180 s, build check included.
RUN_TIMEOUT_S = 170


def go_env():
    tmp = os.path.join(BUILD, "tmp")
    home = os.path.join(BUILD, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description="Build the clustering benchmark and run one workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: building the benchmark: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    tmp = tempfile.mkdtemp(prefix="run-", dir=env["TMPDIR"])
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmpdir", tmp]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        # On a timeout, run() kills the program and waits for it to end.
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
