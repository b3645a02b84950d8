#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the {gcc, clang} x {Debug,
# Release} build-and-test matrix, then the sanitizer gate, the bench
# gates (forest predict, parallel scaling, csv throughput, trace
# overhead) and the baseline comparison. Compilers that are not installed
# are skipped with a note, so the script degrades gracefully on minimal
# machines. Usage:
#
#   scripts/ci_local.sh [build-dir-prefix]
#
# Build trees land in <prefix>-<compiler>-<type> (default build-ci-*);
# ccache is used automatically when present. Exits non-zero on the first
# failing build, test label, sanitizer finding, or bench gate.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo_root/build-ci}"

launcher_args=()
if command -v ccache > /dev/null; then
  launcher_args=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                 -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_matrix_cell() {
  local cc="$1" cxx="$2" build_type="$3"
  local build_dir="$prefix-$cc-${build_type,,}"
  echo "=== $cc $build_type -> $build_dir ==="
  cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE="$build_type" \
      -DCMAKE_C_COMPILER="$cc" -DCMAKE_CXX_COMPILER="$cxx" \
      "${launcher_args[@]}"
  cmake --build "$build_dir" -j "$(nproc)"
  # The same per-label steps as CI, so a label failure is attributable.
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -LE 'faultinjection|modelfuzz|differential|observability|paper'
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -L faultinjection
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -L modelfuzz
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -L differential
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -L observability
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -L paper
}

for compiler in "gcc g++" "clang clang++"; do
  read -r cc cxx <<< "$compiler"
  if ! command -v "$cc" > /dev/null; then
    echo "=== $cc not installed, skipping its matrix column ==="
    continue
  fi
  for build_type in Debug Release; do
    run_matrix_cell "$cc" "$cxx" "$build_type"
  done
done

echo "=== sanitizer gate ==="
"$repo_root/scripts/sanitize_gate.sh" "$prefix-asan"

release_dir="$prefix-gcc-release"
[ -d "$release_dir" ] || release_dir="$prefix-clang-release"
cmake --build "$release_dir" -j "$(nproc)" \
    --target bench_parallel_scaling bench_csv_throughput

echo "=== parallel scaling bench smoke ==="
# Matches CI: BENCH_parallel.json plus the 1.5x 4-thread forest-fit gate
# (skipped automatically on machines with < 4 hardware threads).
"$release_dir/bench/bench_parallel_scaling" --quick \
    --out "$repo_root/BENCH_parallel.json" --min-speedup 1.5

echo "=== csv scan throughput bench smoke ==="
# Every timed parse is cross-checked against the scalar reader first;
# SWAR must be >= 1.5x scalar on the clean-numeric workload.
"$release_dir/bench/bench_csv_throughput" --quick \
    --out "$repo_root/BENCH_csv_scan.json" --min-speedup 1.5

echo "=== trace overhead bench smoke ==="
# Compiled-in-but-disabled tracing must stay within 3% of untraced
# throughput.
cmake --build "$release_dir" -j "$(nproc)" --target bench_trace_overhead
"$release_dir/bench/bench_trace_overhead" --quick \
    --out "$repo_root/BENCH_trace_overhead.json" --max-delta 3

echo "=== bench baseline comparison ==="
# Ratio-only comparison against the committed baselines, same as CI's
# bench-gate job (> 10% regression fails, > 5% warns; see DESIGN.md
# "Bench policy").
python3 "$repo_root/scripts/bench_compare.py" \
    --baseline-dir "$repo_root/bench/baselines" \
    --current-dir "$repo_root" \
    BENCH_csv_scan.json BENCH_parallel.json BENCH_trace_overhead.json

echo "=== ci_local: all gates passed ==="
