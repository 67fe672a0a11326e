#!/usr/bin/env python3
"""Validate the fj-serve metrics exposition against the Prometheus text
line grammar.

Usage: check_metrics_format.py <file>

<file> is either raw metrics text (e.g. captured from Client::metrics) or a
full program log containing a block delimited by the marker lines
`=== METRICS BEGIN ===` / `=== METRICS END ===` (what
examples/serve_tcp.rs prints).

Checks, each a hard failure:
  * every non-comment line matches `name{labels} value` with a legal metric
    name, legal label syntax, and a numeric value;
  * no series (name + label set) appears twice;
  * every series carries the fj_ namespace prefix;
  * the expected series families are present (server counters, cache and
    scheduler gauges, latency histogram);
  * histogram sanity per `*_bucket` family: bucket counts are cumulative
    (non-decreasing in order of appearance), the `le="+Inf"` bucket is
    present, and it equals the family's `_count` series.
"""

import re
import sys

BEGIN = "=== METRICS BEGIN ==="
END = "=== METRICS END ==="

LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?'
    r' (?P<value>-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$'
)

REQUIRED_SERIES = [
    "fj_serve_requests_served",
    "fj_serve_accepted_connections",
    "fj_serve_slow_queries_total",
    "fj_serve_uptime_seconds",
    "fj_obs_trace_events_dropped_total",
    "fj_build_info",
    "fj_cache_trie_hits",
    "fj_cache_plan_misses",
    "fj_cache_pipe_hits",
    "fj_cache_pipe_misses",
    "fj_sched_tasks_spawned",
    "fj_exec_reorders",
    "fj_exec_estimate_busts",
    "fj_serve_latency_us_sum",
    "fj_serve_latency_us_count",
]


def extract(text: str) -> str:
    if BEGIN in text:
        if END not in text:
            sys.exit(f"FAIL: found {BEGIN!r} without {END!r}")
        return text.split(BEGIN, 1)[1].split(END, 1)[0]
    return text


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <metrics-file-or-log>")
    with open(sys.argv[1], encoding="utf-8") as f:
        body = extract(f.read())

    errors = []
    seen = {}
    # (family, le, value) in order of appearance, plus _count values.
    buckets = {}
    counts = {}

    lines = [line for line in body.splitlines() if line.strip()]
    if not lines:
        sys.exit("FAIL: no metrics lines found")

    for line in lines:
        if line.startswith("#"):
            continue
        m = LINE.match(line)
        if not m:
            errors.append(f"malformed line: {line!r}")
            continue
        name = m.group("name")
        labels = m.group("labels") or ""
        value = float(m.group("value"))
        series = name + labels
        if not name.startswith("fj_"):
            errors.append(f"series outside the fj_ namespace: {series}")
        if series in seen:
            errors.append(f"duplicate series: {series}")
        seen[series] = value
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if not le:
                errors.append(f"bucket without an le label: {line!r}")
            else:
                buckets.setdefault(name[: -len("_bucket")], []).append(
                    (le.group(1), value)
                )
        elif name.endswith("_count"):
            counts[name[: -len("_count")]] = value

    for required in REQUIRED_SERIES:
        # Labeled series (e.g. fj_build_info{version="..."}) match on the
        # bare metric name; unlabeled ones match the series key exactly.
        if required not in seen and not any(
            s.startswith(required + "{") for s in seen
        ):
            errors.append(f"missing required series: {required}")

    if not buckets:
        errors.append("no histogram bucket series found")
    for family, entries in buckets.items():
        values = [v for _, v in entries]
        if values != sorted(values):
            errors.append(f"{family}: bucket counts are not cumulative: {entries}")
        les = [le for le, _ in entries]
        if les and les[-1] != "+Inf":
            errors.append(f"{family}: last bucket is {les[-1]!r}, expected +Inf")
        if "+Inf" not in les:
            errors.append(f"{family}: missing the +Inf bucket")
        elif family in counts and entries[-1][1] != counts[family]:
            errors.append(
                f"{family}: +Inf bucket {entries[-1][1]} != _count {counts[family]}"
            )
        if family not in counts:
            errors.append(f"{family}: buckets without a _count series")

    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    n_series = len(seen)
    print(f"ok: {n_series} series, {len(buckets)} histogram families, no duplicates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
