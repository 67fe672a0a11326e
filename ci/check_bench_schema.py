#!/usr/bin/env python3
"""Gate benchmark-schema drift in CI.

Compares a freshly generated BENCH_micro.json against the committed one and
fails when the *shape* diverges: schema_version, result row count, the
per-row field set, or the (query, strategy, threads, cache) grid itself.
Timings are expected to differ run to run and are deliberately not compared.

Usage: check_bench_schema.py COMMITTED_JSON FRESH_JSON
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    assert isinstance(doc.get("results"), list) and doc["results"], f"{path}: no results"
    return doc


def grid(doc):
    return [(r["query"], r["strategy"], r["threads"], r["cache"]) for r in doc["results"]]


def check_throughput_column(doc, path, errors):
    """schema_version 5: every row carries tuples_per_sec, the probe-phase
    result throughput — > 0 exactly when the row has output and a nonzero
    probe split, 0 otherwise."""
    for i, r in enumerate(doc["results"]):
        if "tuples_per_sec" not in r:
            errors.append(f"{path}: row {i} is missing the tuples_per_sec column")
            continue
        tps = r["tuples_per_sec"]
        has_throughput = r["output_tuples"] > 0 and r["probe_ms"] > 0
        if has_throughput and not tps > 0:
            errors.append(
                f"{path}: row {i} ({r['query']}/{r['cache']}) has output and a probe "
                f"phase but tuples_per_sec={tps}"
            )
        elif not has_throughput and tps != 0:
            errors.append(
                f"{path}: row {i} ({r['query']}/{r['cache']}) has no measured probe "
                f"output but claims tuples_per_sec={tps}"
            )


def check_skew_column(doc, path, errors):
    """schema_version 6: every row carries a numeric skew column (the
    workload's skew knob; 0.0 on uniform workloads), and at least one row
    is genuinely skewed — the work-stealing scheduler's target shape must
    stay in the grid."""
    any_skewed = False
    for i, r in enumerate(doc["results"]):
        if "skew" not in r:
            errors.append(f"{path}: row {i} is missing the skew column")
            continue
        skew = r["skew"]
        if not isinstance(skew, (int, float)) or isinstance(skew, bool) or not 0 <= skew <= 1:
            errors.append(f"{path}: row {i} ({r['query']}) has implausible skew={skew!r}")
        elif skew > 0:
            any_skewed = True
    if not any_skewed:
        errors.append(f"{path}: no row with skew > 0 — the skewed workloads are gone")


def check_profile_overhead_column(doc, path, errors):
    """schema_version 7: every row carries profile_overhead_pct — the warm
    wall-time cost of per-node profiling. Exactly the designated rows
    (clover / colt / serial / uncached) measure it and must stay under 5%;
    every other row carries 0.0. A breach means the profiler's accumulator
    path got expensive — fix the regression, don't raise the bound."""
    measured = 0
    for i, r in enumerate(doc["results"]):
        if "profile_overhead_pct" not in r:
            errors.append(f"{path}: row {i} is missing the profile_overhead_pct column")
            continue
        pct = r["profile_overhead_pct"]
        if not isinstance(pct, (int, float)) or isinstance(pct, bool) or pct < 0:
            errors.append(f"{path}: row {i} has implausible profile_overhead_pct={pct!r}")
            continue
        designated = (
            r["query"].startswith("clover")
            and r["strategy"] == "colt"
            and r["threads"] == 1
            and r["cache"] == "none"
        )
        if designated:
            measured += 1
            if pct >= 5.0:
                errors.append(
                    f"{path}: row {i} ({r['query']}) profiling overhead {pct}% >= 5% — "
                    f"the per-node profiler must stay cheap when on"
                )
        elif pct != 0:
            errors.append(
                f"{path}: row {i} ({r['query']}/{r['strategy']}/{r['cache']}) is not the "
                f"designated overhead row but carries profile_overhead_pct={pct}"
            )
    if measured == 0:
        errors.append(f"{path}: no designated profile-overhead row (clover/colt/1/none)")


def check_trace_overhead_column(doc, path, errors):
    """schema_version 9: every row carries trace_overhead_pct — the warm
    wall-time cost of span tracing (ExecRequest::trace), measured with the same burst-robust paired
    estimator as profile_overhead_pct. Exactly the designated rows
    (clover / colt / serial / uncached) measure it and must stay under 5%;
    every other row carries 0.0. A breach means the tracer's per-event push
    path got expensive — fix the regression, don't raise the bound. (The
    trace-off path is pinned separately: the counting-allocator test in
    tests/trace_invariants.rs requires it to allocate nothing at all.)"""
    measured = 0
    for i, r in enumerate(doc["results"]):
        if "trace_overhead_pct" not in r:
            errors.append(f"{path}: row {i} is missing the trace_overhead_pct column")
            continue
        pct = r["trace_overhead_pct"]
        if not isinstance(pct, (int, float)) or isinstance(pct, bool) or pct < 0:
            errors.append(f"{path}: row {i} has implausible trace_overhead_pct={pct!r}")
            continue
        designated = (
            r["query"].startswith("clover")
            and r["strategy"] == "colt"
            and r["threads"] == 1
            and r["cache"] == "none"
        )
        if designated:
            measured += 1
            if pct >= 5.0:
                errors.append(
                    f"{path}: row {i} ({r['query']}) tracing overhead {pct}% >= 5% — "
                    f"span tracing must stay cheap when on"
                )
        elif pct != 0:
            errors.append(
                f"{path}: row {i} ({r['query']}/{r['strategy']}/{r['cache']}) is not the "
                f"designated overhead row but carries trace_overhead_pct={pct}"
            )
    if measured == 0:
        errors.append(f"{path}: no designated trace-overhead row (clover/colt/1/none)")


def check_cancel_overhead_column(doc, path, errors):
    """schema_version 10: every row carries cancel_check_overhead_pct — the
    warm wall-time cost of executing under a live (armed, far-future
    deadline) CancelToken versus the plain path whose disabled token
    short-circuits every cooperative check, measured with the same paired
    estimator as profile_overhead_pct. Exactly the designated rows
    (clover / colt / serial / uncached) measure it and must stay under 2%;
    every other row carries 0.0. A breach means the executor's cooperative
    cancellation checks got expensive — fix the regression, don't raise the
    bound."""
    measured = 0
    for i, r in enumerate(doc["results"]):
        if "cancel_check_overhead_pct" not in r:
            errors.append(f"{path}: row {i} is missing the cancel_check_overhead_pct column")
            continue
        pct = r["cancel_check_overhead_pct"]
        if not isinstance(pct, (int, float)) or isinstance(pct, bool) or pct < 0:
            errors.append(f"{path}: row {i} has implausible cancel_check_overhead_pct={pct!r}")
            continue
        designated = (
            r["query"].startswith("clover")
            and r["strategy"] == "colt"
            and r["threads"] == 1
            and r["cache"] == "none"
        )
        if designated:
            measured += 1
            if pct >= 2.0:
                errors.append(
                    f"{path}: row {i} ({r['query']}) cancellation-check overhead {pct}% >= 2% — "
                    f"arming a cancel token must stay effectively free"
                )
        elif pct != 0:
            errors.append(
                f"{path}: row {i} ({r['query']}/{r['strategy']}/{r['cache']}) is not the "
                f"designated overhead row but carries cancel_check_overhead_pct={pct}"
            )
    if measured == 0:
        errors.append(f"{path}: no designated cancel-overhead row (clover/colt/1/none)")


def check_serving_columns(doc, path, errors):
    """schema_version 4: every row carries serve_p50_us/serve_p99_us; the
    cache="serve" rows (real loopback TCP) must report sane nonzero
    quantiles, all other rows must carry zeros."""
    serve_rows = 0
    for i, r in enumerate(doc["results"]):
        missing = {"serve_p50_us", "serve_p99_us"} - set(r)
        if missing:
            errors.append(f"{path}: row {i} is missing serving columns {sorted(missing)}")
            continue
        p50, p99 = r["serve_p50_us"], r["serve_p99_us"]
        if r["cache"] == "serve":
            serve_rows += 1
            if not (0 < p50 <= p99):
                errors.append(
                    f"{path}: serve row {i} ({r['query']}) has implausible quantiles "
                    f"p50={p50} p99={p99} (need 0 < p50 <= p99)"
                )
        elif (p50, p99) != (0, 0):
            errors.append(
                f"{path}: non-serve row {i} ({r['query']}/{r['cache']}) carries nonzero "
                f"serving quantiles p50={p50} p99={p99}"
            )
    if serve_rows == 0:
        errors.append(f"{path}: no cache=\"serve\" rows — the TCP serving measurement is gone")


def main():
    committed, fresh = sys.argv[1], sys.argv[2]
    a, b = load(committed), load(fresh)
    errors = []
    if a["schema_version"] != b["schema_version"]:
        errors.append(
            f"schema_version drifted: committed {a['schema_version']} vs fresh "
            f"{b['schema_version']} — regenerate the committed BENCH_micro.json"
        )
    if a["schema_version"] < 11:
        errors.append(
            f"schema_version {a['schema_version']} < 11: the serving latency columns "
            f"(serve_p50_us/serve_p99_us), the tuples_per_sec throughput column, the "
            f"skew column and the profile_overhead_pct, trace_overhead_pct and "
            f"cancel_check_overhead_pct columns are required"
        )
    else:
        check_serving_columns(a, committed, errors)
        check_serving_columns(b, fresh, errors)
        check_throughput_column(a, committed, errors)
        check_throughput_column(b, fresh, errors)
        check_skew_column(a, committed, errors)
        check_skew_column(b, fresh, errors)
        check_profile_overhead_column(a, committed, errors)
        check_profile_overhead_column(b, fresh, errors)
        check_trace_overhead_column(a, committed, errors)
        check_trace_overhead_column(b, fresh, errors)
        check_cancel_overhead_column(a, committed, errors)
        check_cancel_overhead_column(b, fresh, errors)
    if len(a["results"]) != len(b["results"]):
        errors.append(
            f"result row count drifted: committed {len(a['results'])} vs fresh "
            f"{len(b['results'])}"
        )
    fields_a = {frozenset(r) for r in a["results"]}
    fields_b = {frozenset(r) for r in b["results"]}
    if fields_a != fields_b or len(fields_b) != 1:
        errors.append(f"per-row field sets drifted: committed {fields_a} vs fresh {fields_b}")
    if grid(a) != grid(b):
        drift = [(x, y) for x, y in zip(grid(a), grid(b)) if x != y]
        errors.append(f"measurement grid drifted (first diffs): {drift[:5]}")
    if errors:
        for e in errors:
            print(f"BENCH SCHEMA DRIFT: {e}", file=sys.stderr)
        sys.exit(1)
    print(
        f"bench schema OK: version {a['schema_version']}, {len(a['results'])} rows, "
        f"fields {sorted(next(iter(fields_a)))}"
    )


if __name__ == "__main__":
    main()
