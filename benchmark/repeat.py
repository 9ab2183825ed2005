#!/usr/bin/env python3
"""Stability summary of the campaign benchmark.

Runs every workload N times with seeds 1 .. N,
alternating the workload order between rounds, and prints, for each
workload and end-to-end metric, the median, quartiles, min and max and the
interquartile spread as a share of the median. --out writes the values and
the summary as JSON, stamped with the CPU model, nproc and kernel backend.

  python3 benchmark/repeat.py --binary build/benchmark/campaign_bench \
      --repeat 5 [--out FILE]
(benchmark/run.sh --repeat N ... builds first and calls this.)
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    backend = re.search(r"backend (\S+)", proc.stderr)
    return json.loads(lines[-1]), backend.group(1) if backend else "unknown"


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 runs for quartiles")

    with open(SPEC) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {name: [] for name in metrics} for w in workloads}
    runs = []
    backend = "unknown"
    for i in range(args.repeat):
        seed = i + 1
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result, backend = run_once(args.binary, workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            runs.append({"workload": workload, "seed": seed,
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            for name in metrics:
                values[workload][name].append(
                    result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)

    summary = {}
    print(f"{'workload':<18} {'metric':<13} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        summary[workload] = {}
        for name, m in metrics.items():
            s = summarize(values[workload][name])
            summary[workload][name] = s
            print(f"{workload:<18} {name:<13} {s['median']:>11.4f} "
                  f"{s['q1']:>11.4f} {s['q3']:>11.4f} {s['min']:>11.4f} "
                  f"{s['max']:>11.4f} {100 * s['spread']:>6.2f}% "
                  f"{100 * m['bound']:>5.0f}%")

    if args.out:
        doc = {"host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                        "backend": backend},
               "seconds": seconds, "seeds": list(range(1, args.repeat + 1)),
               "summary": summary, "runs": runs}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
