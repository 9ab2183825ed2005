#!/usr/bin/env python3
"""Smoke check of the campaign benchmark.

Runs every workload named in BENCHMARK.json at toy size (--smoke), untraced
and traced, and checks that the last line of stdout is the result object,
that the outputs verified, and that every declared metric (end_to_end when
untraced, per_layer when traced) is printed, finite and in its declared
unit, with no undeclared metric beside them.

  python3 benchmark/check_smoke.py --binary build/benchmark/campaign_bench \
      --spec BENCHMARK.json
"""

import argparse
import json
import math
import subprocess
import sys
import time


def check_run(binary, workload, trace, declared):
    cmd = [binary, "--smoke", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"{where}: last stdout line is not JSON ({e})"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: outputs did not verify")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted = {result['attempted']}")
    metrics = result["metrics"]
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"{where}: {name} not printed")
        elif m.get("unit") != unit:
            problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m.get('value')}")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"{where}: {name} printed but not declared")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--spec", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    declared = [{m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")]

    start = time.monotonic()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(args.binary, workload, trace,
                                  declared[trace])
    elapsed = time.monotonic() - start
    if elapsed > 60:
        problems.append(f"smoke runs took {elapsed:.1f} s, over 60 s")
    for p in problems:
        print(p, file=sys.stderr)
    print(f"smoke: {len(spec['workloads'])} workloads in {elapsed:.1f} s, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
