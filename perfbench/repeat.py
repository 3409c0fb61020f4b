"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py [--seeds 10] [--trace 0|1] [--save FILE]

Reads the command, run length and workloads from BENCHMARK.json, runs every
workload on seeds 1 to --seeds one after another, and prints for each metric
the median, the quartiles (statistics.quantiles, n=4) and the interquartile
distance as a share of the median.  --save writes every result and the
summary as JSON, e.g. a baseline under perfbench/baseline/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(results: list[dict]) -> dict:
    if len(results) < 2:
        return {}
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else None}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args(argv)

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        results = []
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["machine"] = next(json.loads(line.split(":", 1)[1])
                                     for line in lines
                                     if line.startswith("machine:"))
            results.append(result)
            print(name, seed, json.dumps(result["metrics"]), flush=True)
        summary = summarise(results)
        report["workloads"][name] = {"summary": summary, "results": results}
        for metric, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:15s} {metric:34s} median {s['median']:.6g} "
                  f"{s['unit']}  iqr/median {spread}", flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
