#!/usr/bin/env python3
"""Sanity-gate the v7 metrics surface of a results JSON (and optionally
a --metrics Prometheus dump).

Usage: check_metrics.py RESULTS.json [--prometheus METRICS.prom]

Fails (exit 1) when:
  * the document is not schema issr_run.results.v7 or lacks the engine
    provenance header,
  * any utilization gauge — a flat util_* column, or any metrics entry
    named util_* / *_frac / *_rate — falls outside [0, 1],
  * any row's stall buckets do not sum exactly to core_cycles,
  * a row's fpu_util differs from its metrics util_fpu (they are defined
    to be the same number — the bench/--perf-report agreement bar),
  * a flat util column disagrees with the nested metrics object (the
    flat columns are projections of the same snapshot),
  * (with --prometheus) the dump is not parseable text exposition, a
    histogram's cumulative le-buckets decrease, or a +Inf bucket
    disagrees with its _count.

Everything checked here is exact: the emitters format doubles via
shortest round-trip notation, and Python's float round-trips them, so
== comparisons are legitimate.
"""
import argparse
import json
import re
import sys

FLAT_UTIL_COLUMNS = (
    "util_fpu_fmadd",
    "util_ssr_lane",
    "util_issr_lane",
    "util_dma",
    "util_noc_link",
    "tcdm_conflict_rate",
    "barrier_wait_frac",
)


def is_util_name(name):
    return (name.startswith("util_") or name.endswith("_frac")
            or name.endswith("_rate"))


def check_results(path):
    failures = []
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "issr_run.results.v7":
        failures.append(f"unexpected schema {doc.get('schema')!r}")
    engine = doc.get("engine")
    if not isinstance(engine, dict) or "version" not in engine:
        failures.append("missing engine provenance header")
    for row in doc.get("results", []):
        name = "/".join(str(row.get(k)) for k in ("kernel", "variant"))
        # v6 row disposition: faulted rows carry a fault code (and a
        # nested fault object) and need not satisfy the completed-run
        # invariants below; skipped rows never ran at all.
        status = row.get("status")
        if status not in ("ok", "mismatch", "fault", "skipped"):
            failures.append(f"{name}: bad status {status!r}")
            continue
        if (status == "fault") != bool(row.get("fault")):
            failures.append(
                f"{name}: status {status!r} inconsistent with "
                f"fault={row.get('fault')!r}")
        if status in ("fault", "skipped"):
            continue
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            failures.append(f"{name}: missing metrics object")
            continue
        # Utilization bounds over both views.
        for key in FLAT_UTIL_COLUMNS:
            v = row.get(key)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                failures.append(f"{name}: {key}={v!r} outside [0, 1]")
        for key, v in metrics.items():
            if is_util_name(key) and not 0.0 <= v <= 1.0:
                failures.append(f"{name}: metrics.{key}={v!r} outside [0, 1]")
        # Flat columns are projections of the snapshot: exact agreement.
        for key in FLAT_UTIL_COLUMNS:
            if key in row and row[key] != metrics.get(key, 0):
                failures.append(
                    f"{name}: flat {key}={row[key]!r} != "
                    f"metrics {metrics.get(key, 0)!r}")
        if row.get("fpu_util") != metrics.get("util_fpu"):
            failures.append(
                f"{name}: fpu_util={row.get('fpu_util')!r} != "
                f"metrics.util_fpu={metrics.get('util_fpu')!r}")
        # Stall attribution stays an exact decomposition.
        stalls = sum(v for k, v in row.items() if k.startswith("stall_"))
        if stalls != row.get("core_cycles"):
            failures.append(
                f"{name}: stall buckets sum to {stalls}, "
                f"core_cycles={row.get('core_cycles')}")
    return failures


SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")


def check_prometheus(path):
    failures = []
    # (metric, labels-without-le) -> list of (le, cumulative-count)
    buckets = {}
    counts = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                if line and not line.startswith("# TYPE "):
                    failures.append(f"line {lineno}: unexpected comment")
                continue
            m = SAMPLE_RE.match(line)
            if m is None:
                failures.append(f"line {lineno}: unparseable sample: {line}")
                continue
            name, labels, value = m.group("name", "labels", "value")
            labels = labels or ""
            if name.endswith("_bucket"):
                pairs = [p for p in labels.split(",") if p]
                le = [p for p in pairs if p.startswith("le=")]
                rest = ",".join(p for p in pairs if not p.startswith("le="))
                if len(le) != 1:
                    failures.append(f"line {lineno}: bucket without le label")
                    continue
                buckets.setdefault((name, rest), []).append(
                    (le[0][4:-1], int(value)))
            elif name.endswith("_count"):
                counts[(name[:-len("_count")], labels)] = int(value)
    for (name, rest), series in sorted(buckets.items()):
        cum = [c for _, c in series]
        if cum != sorted(cum):
            failures.append(f"{name}{{{rest}}}: cumulative buckets decrease")
        if series and series[-1][0] != "+Inf":
            failures.append(f"{name}{{{rest}}}: missing +Inf bucket")
        base = name[:-len("_bucket")]
        expected = counts.get((base, rest))
        if series and expected is not None and series[-1][1] != expected:
            failures.append(
                f"{name}{{{rest}}}: +Inf={series[-1][1]} != "
                f"{base}_count={expected}")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results")
    ap.add_argument("--prometheus", help="optional --metrics dump to check")
    args = ap.parse_args()

    failures = check_results(args.results)
    if args.prometheus:
        failures += check_prometheus(args.prometheus)
    for f in failures:
        print(f"check_metrics: FAIL: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_metrics: OK ({args.results}"
          + (f", {args.prometheus}" if args.prometheus else "") + ")")


if __name__ == "__main__":
    main()
