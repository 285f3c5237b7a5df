#!/usr/bin/env python3
"""End-to-end gate for issr_run's fault isolation (docs/ROBUSTNESS.md).

Usage: check_faults.py --issr-run BIN [--workdir DIR]

Runs a reference sweep with a deterministic injected hang and checks the
whole robustness contract:

  1. A barrier-drop hang in the multi-cluster scenarios of an 8-job
     sweep exits 2 (partial: faults isolated), marks exactly those rows
     status=fault with code barrier_deadlock plus a diagnostic payload,
     and leaves every other row complete.
  2. The injected sweep is bytewise deterministic: --jobs 1 and --jobs 8
     emit identical JSON and CSV.
  3. With injection off, result files are bytewise identical across
     --jobs 1/2/8 and exit 0.
  4. A throwing worker heals under --retries 1 (exit 0, bytes identical
     to the clean sweep); without retries it exits 2.
  5. --fail-fast on an injected fault exits 3 and reports skipped rows.
  6. Unwritable --out fails up front with exit 1.

Every check is exact — the emitters are deterministic by contract.
"""
import argparse
import filecmp
import json
import os
import subprocess
import sys

SWEEP = [
    "--kernel", "csrmv", "--variants", "issr", "--widths", "16",
    "--densities", "0.1", "--cores", "2", "--clusters", "1,2",
    "--rows", "48", "--cols", "64",
]

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"check_faults: FAIL: {msg}", file=sys.stderr)


def run(binary, workdir, out, extra, expect_exit):
    cmd = [binary, *SWEEP, "--out", os.path.join(workdir, out), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    check(proc.returncode == expect_exit,
          f"{out}: exit {proc.returncode}, want {expect_exit}\n"
          f"stderr: {proc.stderr}")
    return proc


def rows(workdir, out):
    with open(os.path.join(workdir, out) + ".json") as f:
        doc = json.load(f)
    check(doc.get("schema") == "issr_run.results.v7",
          f"{out}: unexpected schema {doc.get('schema')!r}")
    return doc.get("results", [])


def same_bytes(workdir, a, b):
    for ext in (".json", ".csv"):
        pa = os.path.join(workdir, a) + ext
        pb = os.path.join(workdir, b) + ext
        check(filecmp.cmp(pa, pb, shallow=False),
              f"{a}{ext} differs from {b}{ext}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--issr-run", required=True)
    ap.add_argument("--workdir", default="check_faults_work")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    binary = os.path.abspath(args.issr_run)

    # 1. + 2. Injected hang: deterministic partial sweep, exit 2.
    inject = ["--inject", "barrier-drop@x2", "--max-cycles", "400000"]
    run(binary, args.workdir, "hang_j8", [*inject, "--jobs", "8"], 2)
    run(binary, args.workdir, "hang_j1", [*inject, "--jobs", "1"], 2)
    same_bytes(args.workdir, "hang_j8", "hang_j1")
    hung = rows(args.workdir, "hang_j8")
    check(len(hung) == 2, f"expected 2 rows, got {len(hung)}")
    for row in hung:
        multi = row.get("clusters", 1) > 1
        if multi:
            check(row.get("status") == "fault" and
                  row.get("fault") == "barrier_deadlock",
                  f"multi-cluster row: status={row.get('status')!r} "
                  f"fault={row.get('fault')!r}, want barrier_deadlock")
            detail = row.get("fault_detail")
            check(isinstance(detail, dict) and
                  detail.get("code") == "barrier_deadlock" and
                  detail.get("message") and "harts" in detail,
                  f"faulted row lacks diagnostics: {detail!r}")
            check(row.get("metrics", {}).get("fault_barrier_deadlock") == 1,
                  "faulted row lacks the fault_barrier_deadlock metric")
        else:
            check(row.get("status") == "ok" and row.get("ok") is True,
                  f"single-cluster row not isolated: "
                  f"status={row.get('status')!r}")

    # 3. Injection off: clean, jobs-invariant, exit 0.
    run(binary, args.workdir, "clean_j1", ["--jobs", "1"], 0)
    run(binary, args.workdir, "clean_j2", ["--jobs", "2"], 0)
    run(binary, args.workdir, "clean_j8", ["--jobs", "8"], 0)
    same_bytes(args.workdir, "clean_j1", "clean_j2")
    same_bytes(args.workdir, "clean_j1", "clean_j8")
    for row in rows(args.workdir, "clean_j1"):
        check(row.get("status") == "ok", "clean sweep has a non-ok row")

    # 4. Flaky worker: retry heals to the clean bytes, no retry exits 2.
    run(binary, args.workdir, "flaky_healed",
        ["--inject", "flaky", "--retries", "1", "--jobs", "2"], 0)
    same_bytes(args.workdir, "flaky_healed", "clean_j1")
    run(binary, args.workdir, "flaky_failed",
        ["--inject", "flaky", "--jobs", "2"], 2)
    for row in rows(args.workdir, "flaky_failed"):
        check(row.get("fault") == "host_exception",
              f"unretried flaky row: fault={row.get('fault')!r}")

    # 5. fail-fast: exit 3, at least one skipped row.
    run(binary, args.workdir, "failfast",
        ["--inject", "fault", "--fail-fast", "--jobs", "1"], 3)
    ff = rows(args.workdir, "failfast")
    check(any(r.get("status") == "skipped" for r in ff),
          "fail-fast sweep reports no skipped rows")
    check(sum(r.get("status") == "fault" for r in ff) == 1,
          "fail-fast sweep should stop after the first fault")

    # 6. Unwritable output path fails up front with exit 1.
    proc = subprocess.run(
        [binary, *SWEEP, "--jobs", "1",
         "--out", os.path.join(args.workdir, "no_such_dir", "x")],
        capture_output=True, text=True)
    check(proc.returncode == 1,
          f"unwritable --out: exit {proc.returncode}, want 1")
    check("not writable" in proc.stderr,
          f"unwritable --out: unhelpful message: {proc.stderr!r}")

    if failures:
        sys.exit(1)
    print("check_faults: OK (all gates passed)")


if __name__ == "__main__":
    main()
