#!/usr/bin/env python3
"""Smoke test of paxbench: every workload at class S for one round, once
untraced and once traced.

    python3 smoke.py PAXBENCH BENCHMARK.json

Asserts, for each run, that it exits 0, that its last stdout line is the
JSON result with no failed cell, and that the result names exactly the
metrics BENCHMARK.json lists, with the same units: the end_to_end ones
untraced, the per_layer ones traced.
"""
import json
import subprocess
import sys
import tempfile


def main():
    exe, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    want = {False: spec["end_to_end"], True: spec["per_layer"]}
    problems = []
    with tempfile.TemporaryDirectory(dir=".") as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            for traced in (False, True):
                cmd = [exe, f"--workload={workload}", "--smoke",
                       f"--scratch={scratch}"]
                if traced:
                    cmd.append(f"--trace-out={scratch}/trace.json")
                p = subprocess.run(cmd, capture_output=True, text=True)
                what = f"{workload}{' traced' if traced else ''}"
                lines = p.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    problems.append(f"{what}: no JSON result (exit {p.returncode})"
                                    f"\n{p.stdout}{p.stderr}")
                    continue
                if p.returncode != 0 or result["failed"] != 0 or not result["correct"]:
                    problems.append(f"{what}: exit {p.returncode}, "
                                    f"{result['failed']} of {result['attempted']} "
                                    f"cells failed\n{p.stdout}")
                got = [(k, v["unit"]) for k, v in result["metrics"].items()]
                expect = [(m["name"], m["unit"]) for m in want[traced]]
                if got != expect:
                    missing = sorted(set(expect) - set(got))
                    extra = sorted(set(got) - set(expect))
                    problems.append(f"{what}: metrics differ from BENCHMARK.json; "
                                    f"missing {missing}, unexpected {extra}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
