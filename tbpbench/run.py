#!/usr/bin/env python3
"""The TBPoint benchmark: builds the driver and runs one workload.

    python3 tbpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 tbpbench/run.py --workload all          # every workload, in turn
    python3 tbpbench/run.py --pin                   # rewrite pinned.json

Run it from the repository root.  The first run configures and builds the
driver package (this directory) together with the library under src/ in
.bench_build/tbpbench; later runs only rebuild what changed.  Build output
and the driver's progress go to stderr.  Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tbpbench")
PINNED = os.path.join(HERE, "pinned.json")
WORKLOADS = ["fig9-mem", "fig9-compute", "shard-sim", "service-mix"]
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = "4"

sys.dont_write_bytecode = True  # keep the source directory clean
sys.path.insert(0, HERE)
import report  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("tbpbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target", "tbpbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "tbpbench_driver")


def drive(driver, workload, seed, seconds, trace):
    """Runs the driver for one workload and returns its document."""
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    try:
        subprocess.run([driver, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(int(trace)),
                        "--work-dir", os.path.join(work, "scratch"), "--out", out],
                       check=True, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_pinned():
    with open(PINNED) as f:
        return json.load(f)


def result(doc, pinned):
    """The final JSON object for one workload run; prints the summary."""
    failed = doc["ops_failed"]
    for message in doc["failures"]:
        log("check failed:", message)
    if doc["seed"] == report.DEFAULT_SEED:
        mismatched = report.check_pinned(doc, pinned)
        for label in mismatched:
            log("check failed: %s differs from its pinned value" % label)
        failed += len(mismatched)

    units = dict(report.PER_LAYER if doc["trace"] else report.END_TO_END)
    values = report.per_layer(doc) if doc["trace"] else report.end_to_end(doc)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print("workload %s seed %d trace %d" % (doc["workload"], doc["seed"], doc["trace"]))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    if not doc["trace"]:
        for name, (value, unit) in report.workload_metrics(doc).items():
            print("  %-40s %.6g %s" % (name, value, unit))
    return {"correct": failed == 0, "attempted": doc["ops_attempted"],
            "failed": failed, "metrics": metrics}


def pin(driver, seconds):
    """Rewrites pinned.json from default-seed runs of every workload."""
    pinned = {}
    for workload in WORKLOADS:
        doc = drive(driver, workload, report.DEFAULT_SEED, seconds, False)
        if doc["ops_failed"]:
            raise SystemExit("tbpbench: %s failed its checks; not pinning" % workload)
        pinned[workload] = doc["outputs"]
    with open(PINNED, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote", PINNED)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=report.DEFAULT_SEED)
    # The default matches run_seconds in BENCHMARK.json.
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        raise SystemExit("tbpbench: build failed: %s" % e)
    if args.pin:
        return pin(driver, args.seconds)

    pinned = load_pinned()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            doc = drive(driver, workload, args.seed, args.seconds, args.trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
            raise SystemExit("tbpbench: %s: driver failed: %s" % (workload, e))
        results[workload] = result(doc, pinned)
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
