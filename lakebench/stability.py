#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end metric's
median and spread (interquartile range over median), against its bound.

    python3 lakebench/stability.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs are sequential (each one uses every core). With --out, every run's
final JSON line plus the per-metric summary is written to FILE, which is how
lakebench/baseline/ records are made. Exit status is 1 when a run fails or a
spread (other than setup_s's) exceeds its metric's bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """Interquartile range over median, and the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if q3 == q1:
        return 0.0, med
    return (q3 - q1) / med if med else float("inf"), med


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "host": {"machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
              "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "lakebench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            report = {m.group(1): float(m.group(2)) for m in re.finditer(
                r"^  (\S+)\s+(-?[0-9.e+-]+) (\S+)$", proc.stdout, re.M)}
            runs.append({"seed": seed, "exit": proc.returncode, "wall_s": round(wall, 1),
                         "result": result, "report": report})
            print(f"{w} seed {seed}: exit {proc.returncode} wall {wall:.1f} s", flush=True)
            if proc.returncode != 0:
                ok = False
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", flush=True)
        summary = {}
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["result"].get("metrics", {}).get(m["name"]) is not None]
            if len(vals) < 2:
                continue
            s, med = spread(vals)
            bound = m.get("bound")
            summary[m["name"]] = {"median": med, "spread": s, "bound": bound,
                                  "min": min(vals), "max": max(vals)}
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if s > bound and m["name"] != "setup_s":
                    ok = False
            print(f"  {w:13s} {m['name']:32s} median {med:12.5g}  spread {s:7.4f}"
                  f"  bound {bound}  {flag}", flush=True)
        record["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
