#!/usr/bin/env python3
"""Compare a core_hotpath benchmark run against the checked-in baseline.

Usage:
    perf_check.py --baseline BENCH_core_hotpath.json --current run.json \
                  [--max-regression 0.25] [--metric cycles_per_sec] \
                  [--paired-suffix _metrics --paired-suffix _snapshot \
                   --paired-suffix _retx0:0.32 --max-overhead 0.02]

Both files are google-benchmark JSON (--benchmark_format=json). The check
fails (exit 1) when any benchmark present in both files regresses by more
than --max-regression on the chosen rate metric (higher is better).
Benchmarks without the chosen counter are skipped, so one JSON file can
serve several passes with different --metric values. New or removed
benchmarks are reported but do not fail the check; regenerate the
baseline when the suite changes intentionally.

A paired-suffix bound may be negative, turning the overhead cap into a
speedup floor: "--metric events_per_sec --paired-suffix _inc:-4.0" fails
unless every "X_inc" benchmark is at least 5x faster than its bare twin
"X" — the CI guard proving the incremental reconfiguration engine beats
the full table rebuild on the topology-churn benches.

With --paired-suffix (repeatable), the check additionally compares, WITHIN
the current file, every benchmark named "X<suffix>" against its bare twin
"X" and fails when the suffixed variant is more than --max-overhead slower
— the guard that keeps default-level metrics collection and the armed
snapshot hook effectively free on the per-cycle hot path. A suffix may
carry its own bound as "SUFFIX:MAXOVERHEAD" (e.g. "_retx0:0.32" allows
the fault-free retransmitting link layer 32%% where the default bound is
2%%).

A baseline must say which host it came from: the check refuses (exit 1)
a baseline whose "context" lacks usable_cores, build_type or compiler,
because a rate without its core count and build is not comparable.
"""

import argparse
import json
import sys

# Host context every baseline must carry (bench/core_hotpath records it).
REQUIRED_CONTEXT = ("usable_cores", "build_type", "compiler")


def load_metrics(path, metric, require_context=False):
    with open(path) as fh:
        data = json.load(fh)
    if require_context:
        context = data.get("context") or {}
        missing = [k for k in REQUIRED_CONTEXT if not context.get(k)]
        if missing:
            sys.exit(f"perf_check: {path}: baseline context lacks "
                     f"{', '.join(missing)}; re-record it with "
                     f"bench/core_hotpath so the host it came from is known")
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # Benchmarks without the chosen counter belong to another pass
        # (the hot-path benches report cycles_per_sec, the topology-churn
        # benches events_per_sec); each pass only sees its own subset.
        if metric not in bench:
            continue
        # UseRealTime() benches carry a "/real_time" tag after the
        # registered name; key on the registered name so suffix pairs
        # ("X_metrics" vs "X") still line up.
        name = bench["name"].removesuffix("/real_time")
        out[name] = float(bench[metric])
    if not out:
        sys.exit(f"perf_check: {path}: no benchmarks with a {metric!r} "
                 f"counter found")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="maximum tolerated fractional slowdown per "
                         "benchmark (default 0.25 = 25%%)")
    ap.add_argument("--metric", default="cycles_per_sec",
                    help="rate counter to compare, higher is better "
                         "(default cycles_per_sec)")
    ap.add_argument("--paired-suffix", action="append", default=None,
                    help="also compare every 'X<suffix>' benchmark in the "
                         "current file against its bare twin 'X'; may be "
                         "given multiple times; an optional per-suffix "
                         "bound is attached as 'SUFFIX:MAXOVERHEAD'")
    ap.add_argument("--max-overhead", type=float, default=0.02,
                    help="maximum tolerated fractional slowdown of a "
                         "suffixed variant vs. its twin (default 0.02; "
                         "overridden per suffix by 'SUFFIX:BOUND')")
    args = ap.parse_args()

    base = load_metrics(args.baseline, args.metric, require_context=True)
    cur = load_metrics(args.current, args.metric)

    failures = []
    for name in sorted(base):
        if name not in cur:
            print(f"  MISSING  {name} (in baseline only)")
            continue
        b, c = base[name], cur[name]
        ratio = c / b if b > 0 else float("inf")
        status = "ok"
        if ratio < 1.0 - args.max_regression:
            status = "REGRESSION"
            failures.append(name)
        print(f"  {status:>10}  {name}: {args.metric} {c:,.0f} vs "
              f"baseline {b:,.0f} ({ratio:.2f}x)")
    for name in sorted(set(cur) - set(base)):
        print(f"       NEW  {name} (not in baseline)")

    for spec in args.paired_suffix or []:
        suffix, sep, bound = spec.partition(":")
        if sep:
            try:
                max_overhead = float(bound)
            except ValueError:
                sys.exit(f"perf_check: bad per-suffix bound in "
                         f"--paired-suffix {spec!r}")
        else:
            max_overhead = args.max_overhead
        if not suffix:
            sys.exit(f"perf_check: empty suffix in --paired-suffix {spec!r}")
        pairs = [(n[: -len(suffix)], n) for n in sorted(cur)
                 if n.endswith(suffix) and n[: -len(suffix)] in cur]
        if not pairs:
            sys.exit(f"perf_check: --paired-suffix {suffix!r} matched no "
                     f"benchmark pairs in {args.current}")
        for bare, suffixed in pairs:
            b, c = cur[bare], cur[suffixed]
            ratio = c / b if b > 0 else float("inf")
            overhead = 1.0 - ratio
            status = "ok"
            if overhead > max_overhead:
                status = "OVERHEAD"
                failures.append(suffixed)
            print(f"  {status:>10}  {suffixed} vs {bare}: {args.metric} "
                  f"{c:,.0f} vs {b:,.0f} ({overhead:+.1%} overhead, "
                  f"limit {max_overhead:.0%})")

    if failures:
        print(f"perf_check: {len(failures)} benchmark(s) out of tolerance "
              f"on {args.metric}")
        return 1
    print("perf_check: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
