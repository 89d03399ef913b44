"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), per workload.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0] [--out FILE]

Runs are sequential, one process at a time, from the current directory. The
run seconds come from BENCHMARK.json. With ``--out`` the per-run values and
the summary are written as JSON, each run with its environment record; this
is how ``perfbench/baseline.json`` and ``baseline_trace.json`` were made.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("record: "))[8:])
            runs.append({"seed": seed, **result, "environment": record["environment"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        for name, s in summary.items():
            bound = bounds[name]
            flag = "" if bound is None else f" bound {bound} ({s['spread'] / bound:.2f} of it)"
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
