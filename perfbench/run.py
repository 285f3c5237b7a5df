#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cc_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. Every call configures and builds the
simulator library plus the perfbench program into .bench_build/ (Release,
the repository's own flags); after the first, that is a quick no-op. The last
line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans
are also written to .bench_build/perfbench-<workload>-seed<seed>.trace.json.

--self-check runs every workload at reduced size on two seeds, traced and
untraced, and checks that each metric named in BENCHMARK.json is emitted
with its unit, that no run failed, that traced and untraced runs report
the same check values, and that the span file holds balanced slices.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
LAYERS = {"isa", "sparse", "kernels", "core", "ssr", "mem", "cluster",
          "system", "driver", "bench"}


def build():
    """Configure and build (incrementally); chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(EXE)


def bench_env():
    env = dict(os.environ)
    # The provenance line runs `git describe`; keep git from searching
    # above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def run(workload, seed, seconds, trace, small=False, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_file = None
    if trace:
        trace_file = os.path.join(
            BUILD, "perfbench-%s-seed%s.trace.json" % (workload, seed))
        cmd += ["--trace-out", trace_file]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, env=bench_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child; report the run
        # as failed instead of leaving no result line.
        out = json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}})
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        if capture:
            return 1, out + "\n", trace_file
        print(out, flush=True)
        return 1, None, trace_file
    return proc.returncode, proc.stdout, trace_file


def check_result(stdout, names_units):
    """Problems with one run's output, as a list of strings."""
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(res))
        return problems
    if res["correct"] is not True or res["failed"] != 0:
        problems.append("correct=%s failed=%s" % (res["correct"], res["failed"]))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted=%s" % res["attempted"])
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != names_units:
        problems.append("metrics differ: missing %s, extra %s, units %s" % (
            sorted(set(names_units) - set(got)), sorted(set(got) - set(names_units)),
            sorted(k for k in got if k in names_units and got[k] != names_units[k])))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append("metric %s value %r" % (k, v.get("value")))
    return problems


def check_values(stdout):
    return [l for l in stdout.splitlines() if l.startswith("check:")]


def check_spans(path):
    """Balanced B/E slices named <layer>.<call> in the Chrome trace."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stack, problems, slices = [], [], 0
    for e in events:
        if e["ph"] == "B":
            stack.append(e)
            slices += 1
            if e["name"].split(".")[0] not in LAYERS:
                problems.append("span %s names no layer" % e["name"])
        elif e["ph"] == "E":
            if not stack or stack[-1]["name"] != e["name"]:
                problems.append("unbalanced end of %s" % e["name"])
                break
            b = stack.pop()
            if e["ts"] < b["ts"]:
                problems.append("span %s ends before it starts" % e["name"])
    if stack:
        problems.append("%d spans never closed" % len(stack))
    if slices == 0:
        problems.append("no spans")
    return problems


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for seed in (1, 2):
            checks = {}
            for trace in (0, 1):
                code, out, trace_file = run(w, seed, 1, trace, small=True,
                                            capture=True)
                problems = [] if code == 0 else ["exit code %d" % code]
                problems += check_result(out, units[trace])
                if trace and code == 0:
                    problems += check_spans(trace_file)
                checks[trace] = check_values(out)
                status = "ok" if not problems else "FAIL: " + "; ".join(problems)
                print("self-check %-14s seed %d trace %d: %s" % (w, seed, trace, status))
                failures += bool(problems)
            if checks[0] != checks[1] or not checks[0]:
                print("self-check %-14s seed %d: check values differ between "
                      "traced and untraced runs: %s vs %s" % (w, seed, checks[0], checks[1]))
                failures += 1
    print("self-check: %s" % ("passed" if failures == 0 else "%d failures" % failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check()
    code, _, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
