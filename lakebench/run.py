#!/usr/bin/env python3
"""LakeFind discovery benchmark: one command for every workload.

    python3 lakebench/run.py --workload join-skewed --seed 1 --seconds 10 --trace 0

Run from the root of a LakeFind checkout. The first run configures and
builds the library from ./src plus the driver in lakebench/driver (CMake,
into $CARGO_TARGET_DIR or .bench_build); later runs only rebuild what
changed.

--trace 0 serves the workload untraced and prints its end-to-end metrics.
--trace 1 runs a separate traced process, turns its trace into the
per-layer metrics (lakebench/trace_report.py) and prints those instead.

The human-readable report goes to stdout first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
metrics BENCHMARK.json names. Exit status is 0 only when every correctness
gate passed and the run was valid.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "lakebench"


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds incrementally. Returns the driver path."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not cache.exists():
        out.mkdir(parents=True, exist_ok=True)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(out), "-j", str(nproc()),
                    "--target", "lakebench_driver"], check=True, **quiet)
    return out / "lakebench_driver"


def source_fingerprint():
    """git SHA when the checkout is a repository; always a digest of src/."""
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def filesystem_of(path):
    """Filesystem type holding `path` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def run_driver(driver, args, work):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--trace-out", str(work / "trace.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return None, 2
    report = None
    for line in stdout.splitlines():
        if line.startswith("LAKEBENCH_REPORT "):
            report = json.loads(line.split(" ", 1)[1])
    return report, proc.returncode


def print_report(report, extra):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['seconds']} s  mode {report['mode']}")
    for key, value in {**report["fingerprint"], **extra}.items():
        print(f"  fingerprint.{key}: {value}")
    for key, value in report["facts"].items():
        print(f"  {key}: {value}")
    for g in report["gates"]:
        status = "PASS" if g["passed"] else "FAIL"
        print(f"  gate {g['name']}: {status} ({g['checked']} checked) {g['detail']}")
    for reason in report["invalid"]:
        print(f"  INVALID: {reason}")
    for err in report["errors"]:
        print(f"  error: {err}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no LakeFind sources at {ROOT / 'src'}; run from a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; one of {names}")
        return 2

    driver = build()
    work = build_dir() / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, code = run_driver(driver, args, work)
        if report is None:
            log(f"driver produced no report (exit {code})")
            return 2
        sha, digest = source_fingerprint()
        extra = {"git_sha": sha, "src_digest": digest,
                 "wal_filesystem": filesystem_of(work),
                 "wal_sync": "every_append (ingest-live)"}
        print_report(report, extra)
        if args.trace:
            metrics, flagged = per_layer_metrics(spec, work / "trace.jsonl")
            for name, reason in flagged.items():
                print(f"  per-layer {name}: {reason}")
        else:
            metrics = {}
            for m in spec["end_to_end"]:
                got = report["metrics"].get(m["name"])
                if got is None:
                    log(f"driver did not report {m['name']}")
                    return 2
                metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        ok = report["correct"] and report["valid"] and code == 0
        print(json.dumps({"correct": bool(report["correct"]),
                          "attempted": int(report["attempted"]),
                          "failed": int(report["failed"]),
                          "metrics": metrics}))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer_metrics(spec, trace_path):
    """Every per_layer metric of BENCHMARK.json; a metric the trace cannot
    support is reported as 0 and flagged with the reason."""
    _, spans, counts = trace_report.load(trace_path)
    trace = trace_report.Trace(spans, counts)
    got, why = trace_report.per_layer(trace)
    metrics, flagged = {}, {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = got[name][0] if name in got else 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}
        if name not in got:
            flagged[name] = "reported as 0: " + why.get(name, "not derived by trace_report")
        elif name in why:
            flagged[name] = why[name]
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    return metrics, dict(sorted(flagged.items()))


if __name__ == "__main__":
    sys.exit(main())
