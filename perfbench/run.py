#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, print the result.

    python3 perfbench/run.py --workload fabric_sync --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
library and the driver into .bench_build/perfbench (Release); later runs
rebuild incrementally. The last line of standard output is one JSON object
with exactly the keys correct, attempted, failed and metrics: every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
with --trace 1. The line before it ("details: {...}") carries the manifest
and everything else the driver measured; the same record is written to
.bench_build/results/. A traced run also writes a Chrome trace-event file
(open it in ui.perfetto.dev) to .bench_build/traces/.

Exit status: 0 when every op's outputs were correct, 1 when some were not
(the result line is still printed), 2 when the benchmark could not run at
all (no result line).
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("fabric_sync", "fabric_jitter", "hostile_campaigns", "dimensioning")
# Set-up is measured in fresh processes (the run itself plus set-up-only
# runs) and reported as their median: at least SETUP_SAMPLES, and more, up
# to SETUP_SAMPLES_MAX, while they have taken less than SETUP_SAMPLING_S.
SETUP_SAMPLES = 9
SETUP_SAMPLES_MAX = 31
SETUP_SAMPLING_S = 2.0
# Library knobs read from the environment. The benchmark pins the epoch
# compiler itself (EpochCompilerMode::kOn); the others only add logging or
# write files outside the checkout.
SCRUBBED_ENV = ("HRTDM_EPOCH_COMPILER", "HRTDM_LOG_LEVEL", "HRTDM_FLIGHT_DUMP_DIR")
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                die("cmake configure failed")
        jobs = str(min(os.cpu_count() or 1, 4))
        if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            die("build failed")


def run_driver(args, env, deadline):
    """Runs the driver; returns (exit code, parsed last stdout line)."""
    timeout = max(1.0, deadline - time.time())
    try:
        proc = subprocess.run([DRIVER] + args, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("driver did not finish within %.0f s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("driver exited with %d: %s" % (proc.returncode, proc.stderr.strip()[-400:]))
    return proc.returncode, json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_trace_file(path):
    """The trace must be Chrome trace-event JSON with complete events."""
    try:
        with open(path) as f:
            trace = json.load(f)
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        return bool(events) and all("ts" in e and "dur" in e for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--forge-failure", action="store_true",
                        help="tamper with one op's outputs (self-test of the checks)")
    parser.add_argument("--forge-span", action="store_true",
                        help="misplace one traced op's root span (self-test of the "
                             "layer-sum check)")
    args = parser.parse_args()

    if os.environ.get("HRTDM_TRACE_OUT"):
        die("HRTDM_TRACE_OUT is set: the library would trace every slot and "
            "the timings would be meaningless; unset it")
    build()
    deadline = time.time() + RUN_BUDGET_S

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    driver_args = common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.forge_failure:
        driver_args.append("--forge-failure")
    if args.forge_span:
        driver_args.append("--forge-span")
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
        trace_file = os.path.join(ROOT, ".bench_build", "traces",
                                  "%s-seed%d.json" % (args.workload, args.seed))
        driver_args += ["--trace-file", trace_file]

    code, run = run_driver(driver_args, env, deadline)
    failures = list(run["failures"])
    attempted = run["attempted"]
    failed = run["failed"]
    measured = {name: m for name, m in run["metrics"].items()}

    if args.trace:
        attempted += 1
        if not check_trace_file(trace_file):
            failed += 1
            failures.append("trace file is not Chrome trace-event JSON: " + trace_file)
    else:
        setups = [run["info"]["setup_s"]]
        sampling_start = time.time()
        while len(setups) < SETUP_SAMPLES or (
                len(setups) < SETUP_SAMPLES_MAX
                and time.time() - sampling_start < SETUP_SAMPLING_S):
            _, extra = run_driver(common + ["--seconds", "1", "--trace", "0", "--setup-only"],
                                  env, deadline)
            attempted += extra["attempted"]
            failed += extra["failed"]
            failures += extra["failures"]
            setups.append(extra["info"]["setup_s"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        run["info"]["setup_s.samples"] = setups

    declared = declared_metrics(args.trace)
    metrics = {}
    not_exercised = []
    if declared is None:
        metrics = measured
    else:
        for name, unit in declared:
            if name in measured:
                if measured[name]["unit"] != unit:
                    die("metric %s has unit %s, BENCHMARK.json says %s"
                        % (name, measured[name]["unit"], unit))
                metrics[name] = {"value": measured[name]["value"], "unit": unit}
            elif args.trace:
                # A layer this workload does not exercise did no work.
                metrics[name] = {"value": 0, "unit": unit}
                not_exercised.append(name)
            else:
                die("driver did not measure end-to-end metric " + name)

    info = run["info"]
    manifest = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "shards": info.get("shards"),
        "build_type": info.get("build_type"),
        "compiler": info.get("compiler"),
        "obs": info.get("obs"),
        "epoch_compiler_mode": info.get("epoch_compiler_mode"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "manifest": manifest, "info": info,
               "failures": failures, "not_exercised": not_exercised,
               "driver_metrics": measured, "trace_file": trace_file,
               "error_rate": failed / attempted if attempted else 0.0, "result": result}
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(details, f, indent=1)
    for failure in failures:
        print("perfbench: FAILED " + failure, file=sys.stderr)
    print("details: " + json.dumps(details))
    print(json.dumps(result))
    sys.exit(0 if failed == 0 and code == 0 else 1)


if __name__ == "__main__":
    main()
