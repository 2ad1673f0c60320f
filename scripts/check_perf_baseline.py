#!/usr/bin/env python3
"""Soft perf-regression gate for the perf-smoke CI job.

Reads the one-JSON-object-per-line rows the bench artifacts print
(collected into a .jsonl file by the workflow) and compares the gated
metrics against the checked-in baseline, bench/baselines/perf_smoke.json.
Only same-host ratios are gated (fast-vs-reference speedup); absolute
events/sec are runner-dependent and reported for trend inspection only.

A metric fails when  measured < baseline * (1 - tolerance).  When an
artifact produced several rows for the same (artifact, bench) pair — the
hotpath bench runs at --scale=1 and --scale=16 — the best row is taken,
so the gate asks "is the optimisation still intact anywhere", which is
robust to one noisy pass.

Override knobs:
  PAXSIM_PERF_SKIP=1        skip the gate entirely (exit 0, loudly)
  PAXSIM_PERF_TOLERANCE=F   override the baseline file's tolerance

Usage: check_perf_baseline.py [--baseline FILE] RESULTS.jsonl [MORE.jsonl...]
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines", "perf_smoke.json")


def load_rows(paths):
    rows = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    print(f"warning: unparseable JSON line in {path}: "
                          f"{line[:80]}", file=sys.stderr)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("results", nargs="+", help=".jsonl files of bench rows")
    args = ap.parse_args()

    if os.environ.get("PAXSIM_PERF_SKIP") == "1":
        print("PAXSIM_PERF_SKIP=1: perf baseline gate skipped")
        return 0

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    if baseline.get("kind") != "perf_baseline":
        print(f"error: {args.baseline} is not a perf_baseline document",
              file=sys.stderr)
        return 2

    tolerance = baseline.get("tolerance", 0.25)
    env_tol = os.environ.get("PAXSIM_PERF_TOLERANCE")
    if env_tol is not None:
        tolerance = float(env_tol)
        print(f"PAXSIM_PERF_TOLERANCE={tolerance} (overriding baseline file)")

    rows = load_rows(args.results)
    failures = []
    for metric in baseline["metrics"]:
        artifact, bench = metric["artifact"], metric["bench"]
        field, floor = metric["field"], metric["baseline"]
        label = f"{artifact}/{bench}/{field}"

        candidates = [r[field] for r in rows
                      if r.get("artifact") == artifact
                      and r.get("bench") == bench and field in r]
        if not candidates:
            # A missing gated metric is itself a failure: a silently
            # dropped artifact must not green the gate.
            failures.append(f"{label}: no measurement found in results")
            continue

        measured = max(candidates)
        threshold = floor * (1.0 - tolerance)
        verdict = "ok" if measured >= threshold else "REGRESSION"
        print(f"{verdict:10s} {label}: measured {measured:.3f} vs "
              f"baseline {floor:.3f} (floor {threshold:.3f})")
        if measured < threshold:
            failures.append(f"{label}: {measured:.3f} < {threshold:.3f} "
                            f"(baseline {floor:.3f}, tolerance {tolerance:.0%})")

    if failures:
        print("\nperf baseline gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("(rerun with PAXSIM_PERF_SKIP=1 to bypass, or recalibrate "
              "bench/baselines/perf_smoke.json)", file=sys.stderr)
        return 1
    print("perf baseline gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
