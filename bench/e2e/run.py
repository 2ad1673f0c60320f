#!/usr/bin/env python3
"""Build paxbench from this checkout and run one of its workloads.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds a Release tree of bench/e2e (which
compiles ../../src) under $CARGO_TARGET_DIR, default .bench_build at the
repository root; later runs only re-check it.  Build output goes to stderr.
paxbench's own output goes to stdout; its last line is the JSON result.
--trace 1 runs the traced variant and writes its spans to
<build root>/trace-NAME.json.  Exits with paxbench's status, or 2 when
the sources are missing or the build fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=314159265)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "src" / "paxsim.hpp").is_file():
        print(f"run.py: no paxsim sources under {ROOT}", file=sys.stderr)
        return 2
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = out / "paxbench"
    out.mkdir(parents=True, exist_ok=True)
    # One build at a time per build root.
    with open(out / "paxbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(build), "--target", "paxbench", "-j", "3"]]
        if not (build / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                print("run.py: build failed: " + " ".join(step), file=sys.stderr)
                return 2

    cmd = [str(build / "paxbench"),
           f"--workload={args.workload}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--scratch={out / 'scratch'}"]
    if args.trace:
        cmd.append(f"--trace-out={out / ('trace-' + args.workload + '.json')}")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
