#!/usr/bin/env python3
"""Benchmark of the tamp KV service, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload open_zipf --seed 1 --seconds 30 --trace 1 \
        --lo-rps 250000 --hi-rps 650000 --limit-us 1000
    python3 perfbench/run.py --self-test

The script builds perfbench/ (which builds the library from src/) twice
under $CARGO_TARGET_DIR (default .bench_build): with TAMP_STATS=OFF for
untraced runs and TAMP_STATS=ON for traced ones.  It then runs one
workload in its own process and prints a report whose last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a traced process, plus the tracing overhead
measured against an untraced process of the same length.  open_zipf
needs its fixed rates and latency limit (--lo-rps, --hi-rps, --limit-us);
BENCHMARK.json's command passes them.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read_zipf", "churn_uniform", "open_zipf")

# End-to-end metrics: name -> unit.  "lo"/"hi" are the light- and
# heavy-load points (closed loops: clients spinning a fixed think time
# between ops / back to back; open loop: the two fixed rates).
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "lo_p50_ns": "ns",
    "hi_p50_ns": "ns",
}

# Tail figures: printed on every run and reported by traced runs as
# request.* per-layer metrics, but not gated -- their run-to-run spread
# on a shared host is wider than any allowed bound (see README.md).
TAIL = {
    "lo_ops_per_s": "1/s",
    "lo_p99_ns": "ns",
    "hi_p99_ns": "ns",
    "max_rate_rps": "1/s",
}

# Per-layer metrics of a traced run: name -> unit.
LAYERS = {
    "loadgen.late_ns.p99": "ns",
    "pipeline.submit_ns.p50": "ns",
    "pipeline.submit_ns.p99": "ns",
    "pipeline.queue_wait_ns.p50": "ns",
    "pipeline.queue_wait_ns.p99": "ns",
    "pipeline.backlog.max": "count",
    "store.get_ns.p50": "ns",
    "store.get_ns.p99": "ns",
    "store.put_ns.p50": "ns",
    "store.put_ns.p99": "ns",
    "store.del_ns.p50": "ns",
    "store.del_ns.p99": "ns",
    "store.scan_ns.p50": "ns",
    "store.scan_ns.p99": "ns",
    "store.multi_update_ns.p50": "ns",
    "store.multi_update_ns.p99": "ns",
    "store.service_ns.p50": "ns",
    "store.service_ns.p99": "ns",
    "map.load_factor": "ratio",
    "map.segments": "count",
    "map.shard_skew": "ratio",
    "reclaim.ebr.pending.max": "count",
    "reclaim.hp.pending.max": "count",
    "map.cas_retries_per_write": "ratio",
    "map.scan_retries_per_scan": "ratio",
    "map.resizes": "count",
    "reclaim.ebr.freed_per_collect": "ratio",
    "spin.backoff_units_per_mu": "ratio",
    "queues.msq_retries": "count",
    "check.stage_sum_gap_pct": "%",
}
LAYERS.update({f"request.{name}": unit for name, unit in TAIL.items()})
LAYERS.update({f"overhead.{name}_pct": "%" for name in E2E})

STAGE_SUM_LIMIT_PCT = 15.0
STEAL_LIMIT_PCT = 5.0


class RunFailed(Exception):
    """kvbench hung or died without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(variant, stats, tests=False):
    """Configure (once) and build one variant; returns the build dir."""
    d = build_root() / f"perfbench-{variant}"
    if not (d / "CMakeCache.txt").exists() or not (d / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(d),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DTAMP_STATS={'ON' if stats else 'OFF'}",
             f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"],
            check=True, stdout=sys.stderr)
    cmd = ["cmake", "--build", str(d), "-j", str(len(os.sched_getaffinity(0)))]
    if not tests:
        cmd += ["--target", "kvbench"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return d


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)  # steal, total


def run_process(build_dir, args, seconds):
    """Run kvbench once; returns its JSON result and the steal share."""
    # kvbench ends a hung pipeline itself; this bounds everything else.
    timeout = 60 + 2 * seconds
    s0, t0 = cpu_times()
    try:
        proc = subprocess.run([str(build_dir / "kvbench")] + args,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"kvbench did not finish within {timeout:g} s")
    s1, t1 = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"kvbench exited {proc.returncode} with no result")
    res = json.loads(lines[-1])
    res["steal_pct"] = 100.0 * (s1 - s0) / max(1, t1 - t0)
    print("# process " + json.dumps(res, sort_keys=True))
    return res


def validity(res, nproc):
    """The process's validity record.  `refused` reasons void the run;
    `warnings` do not: kvbench already leaves out the closed-loop windows
    with more steal than STEAL_LIMIT_PCT."""
    refused = []
    if res["traced"] != res["stats_compiled_in"]:
        refused.append("TAMP_STATS does not match the trace mode")
    if res["pin_failures"]:
        refused.append(f"{res['pin_failures']} threads could not be pinned")
    warnings = []
    if res["steal_pct"] > STEAL_LIMIT_PCT:
        warnings.append(f"steal time {res['steal_pct']:.1f}%")
    return {
        "valid": not refused,
        "refused": refused,
        "warnings": warnings,
        "nproc": nproc,
        "steal_pct": round(res["steal_pct"], 3),
        "compiler": res["compiler"],
        "build_type": res["build_type"],
        "tamp_stats": res["stats_compiled_in"],
    }


def metric_block(values, units):
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def self_test():
    for variant, stats in (("test-off", False), ("test-on", True)):
        d = build(variant, stats, tests=True)
        subprocess.run(["ctest", "--test-dir", str(d), "--output-on-failure"],
                       check=True, stdout=sys.stderr)
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lo-rps", type=float)
    ap.add_argument("--hi-rps", type=float)
    ap.add_argument("--limit-us", type=float)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()
    if a.self_test:
        self_test()
        return 0
    if a.workload is None:
        ap.error("--workload is required")
    open_args = (a.lo_rps, a.hi_rps, a.limit_us)
    if a.workload == "open_zipf" and None in open_args:
        ap.error("open_zipf needs --lo-rps, --hi-rps and --limit-us")

    off = build("off", stats=False)
    on = build("on", stats=True)
    nproc = len(os.sched_getaffinity(0))
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    for flag, value in zip(("--lo-rps", "--hi-rps", "--limit-us"), open_args):
        if value is not None:
            common += [flag, str(value)]

    print(f"# workload {a.workload} seed {a.seed} seconds {a.seconds:g} "
          f"trace {a.trace}")
    try:
        runs = measure(a, off, on, common)
    except RunFailed as e:
        log(f"perfbench: {e}")
        units = E2E if a.trace == 0 else LAYERS
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": metric_block({}, units)}))
        return 1
    main_res = runs[-1]

    checks = [validity(res, nproc) for res in runs]
    for check in checks:
        print("# validity " + json.dumps(check, sort_keys=True))
    refused = [r for check in checks for r in check["refused"]]
    if refused:
        log("refusing to report: " + "; ".join(refused))
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for res in runs:
        for note in res["notes"]:
            print(f"# note ({'traced' if res['traced'] else 'untraced'}): "
                  f"{note}")
    for name, unit in E2E.items():
        samples = main_res["samples"].get(
            name, main_res["samples"].get(name.split("_")[0], 0))
        print(f"# e2e {name} = {main_res['e2e'].get(name, 0.0):.6g} {unit} "
              f"(samples {samples})")
    print(f"# e2e error_rate = {failed / max(1, attempted):.3g} "
          f"({failed} failed of {attempted})")
    for name, unit in TAIL.items():
        if name in main_res["tail"]:
            print(f"# tail (not gated) {name} = "
                  f"{main_res['tail'][name]:.6g} {unit}")
    if a.trace == 1:
        for name, unit in LAYERS.items():
            val = main_res["layers"].get(name)
            shown = "not exercised" if val is None else f"{val:.6g} {unit}"
            print(f"# layer {name} = {shown}")
        if a.workload == "open_zipf":
            # queue wait and service split each request's sojourn at its
            # service start, so their sum is the sojourn request by
            # request; the gap is how far the medians fail to add up.
            gap = main_res["layers"].get("check.stage_sum_gap_pct", 0.0)
            over = gap > STAGE_SUM_LIMIT_PCT
            attempted += 1
            failed += over
            print(f"# stage-sum check at lo: |median queue wait + median "
                  f"service - median sojourn| = {gap:.2f}% of the sojourn "
                  f"(limit {STAGE_SUM_LIMIT_PCT:g}%): "
                  f"{'OVER' if over else 'ok'}")

    values = main_res["e2e"] if a.trace == 0 else main_res["layers"]
    units = E2E if a.trace == 0 else LAYERS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, units),
    }))
    return 0 if failed == 0 else 1


def measure(a, off, on, common):
    """The kvbench processes of one run: one untraced, or for --trace 1
    an untraced and a traced one of half the length each."""
    if a.trace == 0:
        return [run_process(off, common + ["--seconds", str(a.seconds),
                                           "--trace", "0"], a.seconds)]
    # Equal halves: untraced then traced, so the overhead compares two
    # processes of the same length on the same build of src/.
    traces = build_root() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / f"{a.workload}-seed{a.seed}.json"
    half = a.seconds / 2
    untraced = run_process(off, common + ["--seconds", str(half),
                                          "--trace", "0"], half)
    traced = run_process(on, common + ["--seconds", str(half), "--trace", "1",
                                       "--trace-out", str(trace_file)], half)
    for name, value in traced["tail"].items():
        traced["layers"][f"request.{name}"] = value
    for name in E2E:
        base = untraced["e2e"].get(name, 0.0)
        traced["layers"][f"overhead.{name}_pct"] = (
            100.0 * (traced["e2e"].get(name, 0.0) - base) / base
            if base else 0.0)
    print(f"# chrome trace: {trace_file}")
    return [untraced, traced]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
