#!/usr/bin/env python3
"""Wall-clock benchmark of the RAIR simulator.

    python3 perfbench/run.py --workload faults_retx --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The script builds perfbench/ (which
compiles the simulator from src/) into .bench_build/, runs the workload in
child processes for up to --seconds, checks every canonical output
against perfbench/ref/, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the iterations);
--trace 1 runs one untraced and one traced iteration and reports the
per-layer metrics. perfbench/README.md documents every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_DIR = os.path.join(HERE, "ref")
WORKLOADS = ("fig12_cold", "knee16_t4", "faults_retx")
# The seed the reference outputs were recorded with; other seeds are
# checked for drain and packet conservation only.
REF_SEED = 1
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "campaign.build_s": "s",
    "calibrate.misses": "count",
    "calibrate.groups": "count",
    "calibrate.group_s_max": "s",
    "campaign.run_s": "s",
    "campaign.cells": "count",
    "campaign.cell_s_p50": "s",
    "campaign.cell_s_max": "s",
    "campaign.pool_util": "ratio",
    "snapshot.warm_build_s": "s",
    "engine.assemble_s": "s",
    "engine.warmup_s": "s",
    "engine.measure_s": "s",
    "engine.drain_s": "s",
    "engine.steps": "count",
    "engine.step_us_p50": "us",
    "engine.step_us_p99": "us",
    "engine.flit_hops_per_s": "1/s",
    "shard.threads": "count",
    "shard.scaling_t4": "ratio",
    "shard.cpu_per_wall": "ratio",
    "traffic.tick_ns_per_cycle": "ns",
    "metrics.counters_cost": "ratio",
    "link.retx0_cost": "ratio",
    "link.retx_amplification": "ratio",
    "fault.events": "count",
    "fault.dropped_packets": "count",
    "fault.reroutes": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_coverage": "ratio",
    "fail_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures and builds rair_perfbench; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DRAIR_CHECKS=OFF"],
                ["cmake", "--build", out, "-j", jobs]):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "rair_perfbench")


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository
    of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_child(binary, workload, seed, trace, workdir, smoke=False):
    """One iteration in its own process; returns (outcome, canonical lines,
    spans or None). `smoke` shortens every window (tests only)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--dir", workdir]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited {res.returncode}")
    outcome = json.loads(res.stdout.strip().splitlines()[-1])
    with open(os.path.join(workdir, "canonical.jsonl")) as f:
        lines = f.read().splitlines()
    spans = None
    if trace:
        with open(os.path.join(workdir, "spans.jsonl")) as f:
            spans = [json.loads(line) for line in f]
    return outcome, lines, spans


def load_reference(workload):
    with open(os.path.join(REF_DIR, workload + ".jsonl")) as f:
        return f.read().splitlines()


def record_ok(rec):
    """Drain and conservation: created == delivered + dropped + in flight,
    with in flight (not recorded) required to be non-negative."""
    if rec.get("termination") != "drained":
        return False
    dropped = rec.get("fault", {}).get("dropped_packets", 0)
    return rec["packets_created"] >= rec["packets_delivered"] + dropped


def check(lines, ref_lines, exact):
    """Compares one iteration's canonical lines with the reference. Every
    line is one result-producing run (a calibration value, a cell or a
    scenario). With `exact` every line must equal its reference byte for
    byte; otherwise calibration values must (they do not depend on the
    seed) and cells must drain and conserve packets. Returns
    (attempted, failed, problems)."""
    refs = {}
    for line in ref_lines:
        rec = json.loads(line)
        refs[(rec["type"], rec["key"])] = line
    problems = []
    seen = set()
    for line in lines:
        rec = json.loads(line)
        k = (rec.get("type"), rec.get("key"))
        seen.add(k)
        if k not in refs:
            problems.append(f"unexpected output {k}")
        elif (exact or k[0] == "value") and line != refs[k]:
            problems.append(f"{k[1]}: differs from the reference")
        elif k[0] in ("cell", "scenario") and not record_ok(rec):
            problems.append(f"{k[1]}: not drained or packets not conserved")
    for k in refs.keys() - seen:
        problems.append(f"{k[1]}: missing")
    attempted = max(len(lines), len(refs))
    return attempted, min(len(problems), attempted), problems


def interval_union(intervals):
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self time per span: its duration minus the union of its children's
    intervals. Negative only if a child outlives its parent, which a
    correct trace never shows. Returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"]
                      - interval_union(children.get(s["id"], []))) / 1e9
            for s in spans}


def trace_summary(spans, wall_s):
    """Per-layer self times and the share of the workload's wall time its
    top-level spans cover."""
    selfs = self_times(spans)
    layers = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[s["id"]]
    roots = [s for s in spans if s["name"].endswith(".workload")]
    top = [(s["start_ns"], s["end_ns"]) for s in spans
           if roots and s["parent"] == roots[0]["id"]]
    coverage = interval_union(top) / 1e9 / wall_s if wall_s > 0 else 0.0
    return layers, coverage, min(selfs.values(), default=0.0)


def iteration_seed(seed, i):
    """Iteration i of a run measures the workload at its own seed, derived
    from the run's: iteration 0 uses the run's seed. Varying the inputs
    inside a run lets its medians average over seed-dependent work."""
    return seed + 1_000_003 * i


def measure(binary, workload, seed, seconds, trace, ref_lines, workdir):
    """Runs the iterations; returns (result, report)."""
    attempted = failed = 0
    outcomes = []
    digests = {}

    def one(s, traced):
        nonlocal attempted, failed
        outcome, lines, spans = run_child(binary, workload, s, traced, workdir)
        a, f, problems = check(lines, ref_lines, s == REF_SEED)
        attempted += a
        failed += f
        for p in problems:
            log(f"perfbench: {workload} seed {s}: {p}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        if digests.setdefault(s, digest) != digest:
            log(f"perfbench: {workload} seed {s}: outputs differ between runs")
            failed += 1
        outcomes.append(outcome)
        return outcome, spans

    if trace:
        # The untraced twin gives the tracing overhead; both must produce
        # the same outputs, since tracing only observes.
        plain, _ = one(seed, False)
        traced, spans = one(seed, True)
        shutil.copyfile(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(os.path.dirname(workdir),
                                     f"spans-{workload}.jsonl"))
        layers, coverage, min_self = trace_summary(spans, traced["wall_s"])
        if min_self < 0:
            log(f"perfbench: negative self time {min_self} s")
            failed += 1
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(traced["layer"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["trace.top_coverage"] = coverage
        print("layer self time (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(layers.items())))
    else:
        # Another iteration starts only if it should end within
        # `seconds`, judged by the last one: a run never measures much
        # longer than asked, and a slow workload runs once.
        start = time.monotonic()
        while True:
            begun = time.monotonic()
            one(iteration_seed(seed, len(outcomes)), False)
            now = time.monotonic()
            if now - start + (now - begun) > seconds:
                break
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in outcomes),
            "sim_cycles_per_s": statistics.median(
                o["sim_cycles"] / o["wall_s"] for o in outcomes),
            "cpu_s": statistics.median(o["cpu_s"] for o in outcomes),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outcomes),
            "setup_s": statistics.median(o["setup_s"] for o in outcomes),
        }
    failed = min(failed, attempted)
    if trace:
        metrics["fail_frac"] = failed / attempted
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "context": dict(outcomes[0]["context"], git_sha=git_sha()),
        "fail_frac": failed / attempted,
        "digest": digests[seed],
        "iterations": [{k: o[k] for k in ("seed", "wall_s", "cpu_s",
                                          "peak_rss_mb", "setup_s",
                                          "sim_cycles")}
                       for o in outcomes],
    }
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REF_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-ref", action="store_true",
                    help="write this run's canonical output as the reference "
                         "(seed 1 only) instead of checking it")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no simulator sources under {ROOT}/src")
        return 2
    binary = build()
    workdir = os.path.join(build_dir(), "runs", f"{args.workload}-{os.getpid()}")
    if args.record_ref:
        if args.seed != REF_SEED:
            log(f"perfbench: references are recorded with seed {REF_SEED}")
            return 2
        _, lines, _ = run_child(binary, args.workload, REF_SEED, False, workdir)
        os.makedirs(REF_DIR, exist_ok=True)
        with open(os.path.join(REF_DIR, args.workload + ".jsonl"), "w") as f:
            f.write("\n".join(lines) + "\n")
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    ref_lines = load_reference(args.workload)
    result, report = measure(binary, args.workload, args.seed, args.seconds,
                             args.trace, ref_lines, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
