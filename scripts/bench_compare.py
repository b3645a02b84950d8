#!/usr/bin/env python3
"""Compare bench JSON outputs against committed baselines.

Only machine-independent RATIO metrics are compared — speedups of one
engine over another measured in the same process, and overhead
percentages. Absolute seconds and MB/s are never compared: the CI runner
and the machine that produced the baseline are different hardware, and a
wall-clock comparison across them measures the fleet, not the code.

Policy (documented in DESIGN.md, "Bench policy"):
  - a metric that regresses by more than its fail threshold (default 10%)
    fails the run (exit 1);
  - more than the warn threshold (default 5%) prints a warning;
  - improvements are reported and never fail.
Noisy metric families carry wider per-metric overrides below, so a
thread-scheduling hiccup does not mask a real single-thread regression.

Usage:
  bench_compare.py --baseline-dir bench/baselines [--current-dir .] \
      BENCH_csv_scan.json BENCH_parallel.json ...
"""

import argparse
import fnmatch
import json
import os
import sys

HIGHER_BETTER = "higher"  # speedups: regression = current below baseline
LOWER_BETTER = "lower"    # overhead pcts: regression = current above baseline

# (metric glob) -> (warn_pct, fail_pct, absolute_floor)
# The absolute floor suppresses relative noise on near-zero metrics: a
# trace overhead moving from 0.02% to 0.04% is a 100% "regression" of
# nothing — both values are compared only once one of them exceeds the
# floor.
OVERRIDES = [
    # Thread-scaling speedups depend on the runner's scheduler; give them
    # headroom so only a real scaling collapse trips the gate.
    ("parallel_scaling/*speedup*", (15.0, 30.0, 0.0)),
    # Per-workload kernel ratios wobble a few percent run to run.
    ("csv_scan/*_vs_scalar", (10.0, 20.0, 0.0)),
    ("csv_scan/swar_speedup_clean_numeric", (10.0, 20.0, 0.0)),
    # Kernel-dispatch overhead hovers around zero (the indirect call is
    # hoisted out of the block loop), so run-to-run sign flips are pure
    # noise; the absolute floor of 2 percentage points swallows them. The
    # hard ceiling is the bench's own --max-dispatch-overhead gate, which
    # CI runs with 5.
    ("csv_scan/dispatch_overhead_pct", (25.0, 50.0, 2.0)),
    # Overhead percentages: absolute floor of 1 percentage point.
    ("trace_overhead/*delta_pct", (25.0, 50.0, 1.0)),
    # Large-file parallel-index speedups scale with the runner's core
    # count (the bench's own --min-parallel-speedup gate is the hard
    # floor on capable hosts); the relative gate only catches collapses.
    ("csv_large/parallel_index_speedup*", (15.0, 30.0, 0.0)),
]
DEFAULT_THRESHOLDS = (5.0, 10.0, 0.0)

# Metrics that exist only when the current host can run the kernel they
# measure. The baseline is produced on one machine and compared on many:
# an AVX-512 baseline row must not fail the comparison on an AVX2-only
# runner (or an x86 baseline on an aarch64 one). Missing-from-current is
# a skip for these globs, a FAIL for everything else — so losing the
# SWAR or scalar row still trips the gate.
HOST_DEPENDENT = [
    "csv_scan/*:avx2_vs_*",
    "csv_scan/*:avx512_vs_*",
    "csv_scan/*:neon_vs_*",
]


def thresholds_for(metric):
    for pattern, spec in OVERRIDES:
        if fnmatch.fnmatch(metric, pattern):
            return spec
    return DEFAULT_THRESHOLDS


def host_dependent(metric):
    return any(fnmatch.fnmatch(metric, p) for p in HOST_DEPENDENT)


def metrics_csv_scan(doc):
    out = {
        "swar_speedup_clean_numeric":
            (doc.get("swar_speedup_clean_numeric"), HIGHER_BETTER),
        "dispatch_overhead_pct":
            (doc.get("dispatch_overhead_pct"), LOWER_BETTER),
    }
    for workload in doc.get("workloads", []):
        modes = workload.get("modes", [])
        if not modes:
            continue
        base = modes[0].get("mb_per_s") or 0.0
        if base <= 0.0:
            continue
        for mode in modes[1:]:
            name = "%s:%s_vs_%s" % (workload.get("name", "?"),
                                    mode.get("mode", "?"),
                                    modes[0].get("mode", "scalar"))
            out[name] = ((mode.get("mb_per_s") or 0.0) / base, HIGHER_BETTER)
    return out


def metrics_parallel_scaling(doc):
    out = {}
    for phase in doc.get("phases", []):
        name = phase.get("name", "?")
        for key in ("speedup_2t", "speedup_4t", "speedup_8t"):
            if key in phase:
                out["%s_%s" % (name, key)] = (phase[key], HIGHER_BETTER)
    return out


def metrics_trace_overhead(doc):
    return {
        "disabled_delta_pct":
            (doc.get("disabled_delta_pct"), LOWER_BETTER),
        "capture_on_delta_pct":
            (doc.get("capture_on_delta_pct"), LOWER_BETTER),
    }


def metrics_csv_large(doc):
    return {
        "parallel_index_speedup_2t":
            (doc.get("parallel_index_speedup_2t"), HIGHER_BETTER),
        "parallel_index_speedup_4t":
            (doc.get("parallel_index_speedup_4t"), HIGHER_BETTER),
        "parallel_index_speedup_8t":
            (doc.get("parallel_index_speedup_8t"), HIGHER_BETTER),
    }


EXTRACTORS = {
    "csv_scan": metrics_csv_scan,
    "parallel_scaling": metrics_parallel_scaling,
    "trace_overhead": metrics_trace_overhead,
    "csv_large": metrics_csv_large,
}


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_file(baseline_path, current_path):
    """Returns (fail_count, warn_count) for one bench file pair."""
    baseline = load(baseline_path)
    current = load(current_path)
    bench = current.get("bench")
    if bench != baseline.get("bench"):
        print("FAIL %s: bench name mismatch (baseline %r, current %r)" %
              (current_path, baseline.get("bench"), bench))
        return 1, 0
    extractor = EXTRACTORS.get(bench)
    if extractor is None:
        print("FAIL %s: no metric extractor for bench %r" %
              (current_path, bench))
        return 1, 0

    base_metrics = extractor(baseline)
    cur_metrics = extractor(current)
    fails = warns = 0
    print("== %s ==" % bench)
    for name, (base_value, direction) in sorted(base_metrics.items()):
        metric = "%s/%s" % (bench, name)
        cur_entry = cur_metrics.get(name)
        if base_value is None:
            continue  # baseline predates this metric; nothing to hold
        if cur_entry is None or cur_entry[0] is None:
            if host_dependent(metric):
                print("  skip %-40s kernel not runnable on this host" % name)
                continue
            print("  FAIL %-40s missing from current output" % name)
            fails += 1
            continue
        cur_value = cur_entry[0]
        warn_pct, fail_pct, floor = thresholds_for(metric)
        if abs(base_value) <= floor and abs(cur_value) <= floor:
            print("  ok   %-40s %8.3f -> %8.3f (below %.2f floor)" %
                  (name, base_value, cur_value, floor))
            continue
        if direction == HIGHER_BETTER:
            regression_pct = (100.0 * (base_value - cur_value) / base_value
                              if base_value > 0 else 0.0)
        else:
            regression_pct = (100.0 * (cur_value - base_value) / base_value
                              if base_value > 0 else 0.0)
        if regression_pct > fail_pct:
            print("  FAIL %-40s %8.3f -> %8.3f (%+.1f%% regression, "
                  "limit %.0f%%)" % (name, base_value, cur_value,
                                     regression_pct, fail_pct))
            fails += 1
        elif regression_pct > warn_pct:
            print("  warn %-40s %8.3f -> %8.3f (%+.1f%% regression)" %
                  (name, base_value, cur_value, regression_pct))
            warns += 1
        else:
            print("  ok   %-40s %8.3f -> %8.3f (%+.1f%%)" %
                  (name, base_value, cur_value, -regression_pct))
    return fails, warns


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding committed baseline JSONs")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding freshly produced JSONs")
    parser.add_argument("files", nargs="+",
                        help="bench JSON filenames present in both dirs")
    args = parser.parse_args()

    total_fails = total_warns = 0
    for filename in args.files:
        baseline_path = os.path.join(args.baseline_dir, filename)
        current_path = os.path.join(args.current_dir, filename)
        for path in (baseline_path, current_path):
            if not os.path.exists(path):
                print("FAIL: %s does not exist" % path)
                total_fails += 1
                break
        else:
            fails, warns = compare_file(baseline_path, current_path)
            total_fails += fails
            total_warns += warns
        print()

    print("bench_compare: %d failure(s), %d warning(s)" %
          (total_fails, total_warns))
    return 1 if total_fails else 0


if __name__ == "__main__":
    sys.exit(main())
