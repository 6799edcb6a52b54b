#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py [--seconds 2] [--workloads a,b]

Checks, on every workload:
  * one seed repeats bit-identically: the run digest (a hash over the
    outputs of the first ops) and the op outputs it covers;
  * two different seeds give different digests;
  * a forged failure (--forge-failure tampers with one op's outputs before
    they are checked) makes the run incorrect: failed > 0, error_rate > 0
    and a nonzero exit status;
  * a traced run writes a Chrome trace-event file, its layer self times
    add up to each traced op's wall time, and it reports every per_layer
    metric of BENCHMARK.json;
and, once:
  * a traced run whose root span is closed before its op runs fails the
    layer-sum check;
  * a run refuses to start while HRTDM_TRACE_OUT is set;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
Exits nonzero if any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric_sync", "fabric_jitter", "hostile_campaigns", "dimensioning")

failures = []


def expect(condition, what):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def run(workload, seed, seconds, trace=0, extra=(), env=None, cwd=ROOT):
    """Returns (exit code, details or None, result or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)] + list(extra),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    details = result = None
    if len(lines) >= 2 and lines[-2].startswith("details: "):
        details = json.loads(lines[-2][len("details: "):])
        result = json.loads(lines[-1])
    return proc.returncode, details, result


def outputs(details):
    """Seed-determined outputs: the run digest and, for fabrics, the counts."""
    info = details["info"]
    keys = ["digest"] + sorted(k for k in info if k.startswith("fabric.") and
                               k not in ("fabric.one_shard_s",))
    return {k: info[k] for k in keys}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]

    for workload in args.workloads.split(","):
        code_a, a, _ = run(workload, 1, args.seconds)
        code_b, b, _ = run(workload, 1, args.seconds)
        code_c, c, _ = run(workload, 2, args.seconds)
        expect(code_a == code_b == code_c == 0 and None not in (a, b, c),
               "%s: plain runs succeed" % workload)
        if None in (a, b, c):
            continue
        expect(outputs(a) == outputs(b), "%s: seed 1 repeats bit-identically %s"
               % (workload, outputs(a)["digest"]))
        expect(outputs(a)["digest"] != outputs(c)["digest"],
               "%s: seeds 1 and 2 give different digests" % workload)

        code, forged, result = run(workload, 1, args.seconds, extra=["--forge-failure"])
        expect(code != 0 and result is not None and not result["correct"] and
               result["failed"] > 0 and forged["error_rate"] > 0,
               "%s: a forged failure is caught (exit %d)" % (workload, code))

        code, traced, result = run(workload, 1, args.seconds, trace=1)
        expect(code == 0 and result is not None and result["correct"],
               "%s: traced run succeeds" % workload)
        if result is not None:
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(per_layer),
                   "%s: traced run reports every per_layer metric" % workload)
            expect(metrics["trace.layer_sum_error"]["value"] <= 0.03,
                   "%s: layer self times account for the traced ops' wall time" % workload)
            with open(traced["trace_file"]) as f:
                events = json.load(f)["traceEvents"]
            expect(any(e.get("ph") == "X" for e in events),
                   "%s: trace file holds complete events" % workload)

    code, forged, result = run("dimensioning", 1, args.seconds, trace=1, extra=["--forge-span"])
    expect(code != 0 and result is not None and not result["correct"] and
           result["metrics"]["trace.layer_sum_error"]["value"] > 0.03 and
           any("layer self times" in f for f in forged["failures"]),
           "a misplaced span trips the layer-sum check (exit %d)" % code)

    env = dict(os.environ, HRTDM_TRACE_OUT="trace.json")
    code, _, result = run("dimensioning", 1, args.seconds, env=env)
    expect(code != 0 and result is None, "runs refuse HRTDM_TRACE_OUT")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = run("dimensioning", 1, args.seconds, cwd=bare)
    expect(code != 0 and result is None,
           "without the library sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
