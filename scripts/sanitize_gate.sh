#!/usr/bin/env bash
# Sanitizer gate for the robustness tiers: builds with ASan+UBSan and runs
# the fault-injection (corrupted CSV input), model-fuzz (corrupted
# serialised model), differential (SIMD indexer vs scalar reader,
# including the chunk-parallel speculative build; the flat forest's
# probabilities and its early-exit vote vs the trees), observability
# (trace/metrics determinism across thread counts) and serve (torn
# frames, overload storms, drain races against a live server, plus the
# supervision chaos suite: worker SIGKILLs, poison payloads, watchdog
# kills) suites, where memory errors and data races on the telemetry
# paths hide. Usage:
#
#   scripts/sanitize_gate.sh [build-dir]
#
# Exits non-zero on any build failure, test failure, or sanitizer report.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" \
    -DSTRUDEL_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
    --target strudel_faultinjection_tests strudel_modelfuzz_tests \
             strudel_differential_tests strudel_observability_tests \
             strudel_serve_tests strudel_supervisor_tests

# halt_on_error makes a UBSan finding fail the test instead of just
# printing; detect_leaks stays on by default under ASan.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$build_dir" \
    -L 'faultinjection|modelfuzz|differential|observability|serve' \
    --output-on-failure -j "$(nproc)"
