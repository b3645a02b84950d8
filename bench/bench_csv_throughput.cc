// CSV scan throughput: the scalar reference reader vs the two-pass
// structural-index path at every runnable SimdLevel (SWAR everywhere,
// plus AVX2/AVX-512 or NEON as the build and host provide), on workloads
// spanning the pruning spectrum — clean numeric tables, verbose portal
// files with preambles and footnotes, quote-heavy files, and the worst
// case of every cell quoted with embedded delimiters. Each parse is
// cross-checked cell-for-cell against the scalar result before timing
// counts, so the numbers can never come from a wrong parse. Emits
// BENCH_csv_scan.json.
//
// The run also measures dispatch overhead: the per-block kernel is
// reached through a function pointer resolved once per scan range
// (ResolveScanBlockFn), and this bench times that indirect call against
// a direct call of the same SWAR kernel over the same blocks. The
// resulting dispatch_overhead_pct is the price of kernel portability;
// --max-dispatch-overhead gates it (CI runs with 5, the ROADMAP item 3
// criterion).
//
//   bench_csv_throughput [--quick] [--out <path>] [--min-speedup <x>]
//                        [--max-dispatch-overhead <pct>]
//   bench_csv_throughput --large [--quick] [--out <path>]
//                        [--min-parallel-speedup <x>]
//
// --min-speedup gates the SWAR-vs-scalar throughput ratio on the
// clean_numeric workload (the steady-state case); CI runs with 1.5.
//
// --large switches to the big-file mode: a >1 GB generated verbose-portal
// workload, indexed serially and with the speculative chunk-parallel
// build at 2/4/8 threads (each cross-checked bit-identical against the
// serial index before timing). Emits BENCH_csv_large.json.
// --min-parallel-speedup gates the 4-thread parallel-index speedup; like
// bench_parallel_scaling, the gate is skipped (with a note) on hosts
// with fewer than 4 hardware threads, where scaling is physically
// impossible.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "csv/reader.h"
#include "csv/simd_scan.h"

namespace {

using namespace strudel;

struct Workload {
  std::string name;
  std::string text;
};

/// Best-of-`reps` wall-clock seconds of `fn()`.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Clean rectangular numeric table: no quotes at all, the steady state of
/// machine-exported data and the kernel's best case.
std::string MakeCleanNumeric(Rng& rng, size_t target_bytes) {
  std::string out = "id,year,region,value,delta,share,rank,flag\n";
  while (out.size() < target_bytes) {
    out += StrFormat("%d,%d,%d,%.3f,%.4f,%.2f,%d,%d\n",
                     static_cast<int>(rng.UniformInt(1000000)),
                     2000 + static_cast<int>(rng.UniformInt(26)),
                     static_cast<int>(rng.UniformInt(50)),
                     rng.UniformDouble() * 1e6, rng.UniformDouble() - 0.5,
                     rng.UniformDouble() * 100,
                     static_cast<int>(rng.UniformInt(500)),
                     static_cast<int>(rng.UniformInt(2)));
  }
  return out;
}

/// Verbose portal shape: preamble notes, a header block, data rows with a
/// sprinkling of quoted cells, footnotes — the paper's target files.
std::string MakeVerbosePortal(Rng& rng, size_t target_bytes) {
  std::string out;
  out += "Table 7. Household estimates,,,\n";
  out += "Source: statistics portal,,,\n";
  out += ",,,\n";
  out += "area,period,\"estimate, total\",note\n";
  while (out.size() < target_bytes) {
    for (int r = 0; r < 40 && out.size() < target_bytes; ++r) {
      if (rng.UniformDouble() < 0.1) {
        out += StrFormat("\"region %d, extended\",%d,%.1f,\"see note %d\"\n",
                         static_cast<int>(rng.UniformInt(100)),
                         2010 + static_cast<int>(rng.UniformInt(16)),
                         rng.UniformDouble() * 1e4,
                         static_cast<int>(rng.UniformInt(9)));
      } else {
        out += StrFormat("area%d,%d,%.1f,\n",
                         static_cast<int>(rng.UniformInt(100)),
                         2010 + static_cast<int>(rng.UniformInt(16)),
                         rng.UniformDouble() * 1e4);
      }
    }
    out += "(a) provisional,,,\n";
  }
  return out;
}

/// Every cell quoted, half with embedded delimiters/newlines: maximum
/// quote-bitmap density and maximum pruning work — the kernel's worst case.
std::string MakeAllQuoted(Rng& rng, size_t target_bytes) {
  std::string out;
  while (out.size() < target_bytes) {
    for (int c = 0; c < 6; ++c) {
      if (c > 0) out += ',';
      out += '"';
      const int len = 4 + static_cast<int>(rng.UniformInt(12));
      for (int i = 0; i < len; ++i) {
        const double p = rng.UniformDouble();
        if (p < 0.15) {
          out += ',';
        } else if (p < 0.18) {
          out += '\n';
        } else {
          out += static_cast<char>('a' + rng.UniformInt(26));
        }
      }
      out += '"';
    }
    out += '\n';
  }
  return out;
}

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  double mbps = 0.0;
};

/// One pass over `text` in 64-byte blocks through `fn`, folding every
/// bitmap into a checksum so the calls cannot be dead-code-eliminated.
uint64_t SweepBlocks(csv::ScanBlockFn fn, const std::string& text) {
  uint64_t checksum = 0;
  const size_t blocks = text.size() / 64;
  for (size_t b = 0; b < blocks; ++b) {
    const csv::BlockBitmaps bits = fn(text.data() + b * 64, ',', '"');
    checksum ^= bits.quote + bits.delim + bits.lf + bits.cr;
  }
  return checksum;
}

/// Measures what the kernel table costs: the same SWAR kernel swept over
/// the same blocks, once called directly and once through the pointer
/// ResolveScanBlockFn returns — exactly the indirect call ScanRange makes
/// per 64-byte block. Returns the overhead in percent (negative values,
/// i.e. timing noise, are reported as measured).
double MeasureDispatchOverheadPct(const std::string& text, int reps) {
  volatile uint64_t sink = 0;
  const csv::ScanBlockFn dispatched =
      csv::ResolveScanBlockFn(csv::SimdLevel::kSwar);
  // One sweep is ~1 ms, so reps are nearly free — take many and
  // interleave the two variants so a load spike on a shared runner hits
  // both sides instead of skewing the ratio.
  const int sweep_reps = reps * 8;
  double direct_seconds = 0.0;
  double dispatched_seconds = 0.0;
  for (int r = 0; r < sweep_reps; ++r) {
    const double direct = TimeBest(
        1, [&] { sink = sink + SweepBlocks(&csv::ScanBlockSwar, text); });
    const double indirect =
        TimeBest(1, [&] { sink = sink + SweepBlocks(dispatched, text); });
    if (r == 0 || direct < direct_seconds) direct_seconds = direct;
    if (r == 0 || indirect < dispatched_seconds) dispatched_seconds = indirect;
  }
  (void)sink;
  return (dispatched_seconds - direct_seconds) / direct_seconds * 100.0;
}

struct WorkloadResult {
  std::string name;
  size_t bytes = 0;
  size_t structural = 0;
  bool clean_quoting = false;
  std::vector<ModeResult> modes;
};

/// The --large mode: serial vs chunk-parallel indexing on a >1 GB workload.
int RunLargeMode(bool quick, const std::string& out_path,
                 double min_parallel_speedup) {
  const size_t target = quick ? (size_t{64} << 20) : (size_t{1280} << 20);
  const int reps = 2;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== csv large-file ingestion ==\n");
  std::printf("workload: %zu MiB, hardware threads: %u\n\n", target >> 20,
              hardware);

  Rng rng(20260807);
  const std::string text = MakeVerbosePortal(rng, target);
  const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);

  // Serial reference index: correctness anchor and timing denominator.
  csv::StructuralIndex reference;
  csv::BuildStructuralIndex(text, csv::Rfc4180Dialect(), &reference);
  const double serial_seconds = TimeBest(reps, [&] {
    csv::StructuralIndex index;
    csv::BuildStructuralIndex(text, csv::Rfc4180Dialect(), &index);
  });
  std::printf("index serial       %8.4fs  %8.1f MB/s\n", serial_seconds,
              mb / serial_seconds);

  struct ParallelTiming {
    int threads = 0;
    double seconds = 0.0;
    uint64_t chunks = 0;
    uint64_t repairs = 0;
  };
  std::vector<ParallelTiming> timings;
  for (const int threads : {2, 4, 8}) {
    csv::ParallelScanOptions options;
    options.num_threads = threads;
    csv::StructuralIndex parallel;
    csv::BuildStructuralIndexParallel(text, csv::Rfc4180Dialect(), options,
                                      &parallel);
    if (parallel.positions != reference.positions ||
        parallel.clean_quoting != reference.clean_quoting) {
      std::fprintf(stderr,
                   "FAIL: %d-thread parallel index differs from serial\n",
                   threads);
      return 1;
    }
    const double seconds = TimeBest(reps, [&] {
      csv::StructuralIndex index;
      csv::BuildStructuralIndexParallel(text, csv::Rfc4180Dialect(), options,
                                        &index);
    });
    timings.push_back(
        {threads, seconds, parallel.chunks, parallel.speculation_repairs});
    std::printf("index %d threads    %8.4fs  %8.1f MB/s  (%.2fx, %llu "
                "chunks, %llu repairs)\n",
                threads, seconds, mb / seconds, serial_seconds / seconds,
                static_cast<unsigned long long>(parallel.chunks),
                static_cast<unsigned long long>(parallel.speculation_repairs));
  }
  const auto speedup_at = [&](int threads) {
    for (const ParallelTiming& t : timings) {
      if (t.threads == threads) return serial_seconds / t.seconds;
    }
    return 0.0;
  };

  const bool gate_enforced = min_parallel_speedup > 0.0 && hardware >= 4;
  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"csv_large\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_concurrency\": " << hardware << ",\n"
       << "  \"bytes\": " << text.size() << ",\n"
       << "  \"min_parallel_speedup_required\": " << min_parallel_speedup
       << ",\n"
       << "  \"gate_enforced\": " << (gate_enforced ? "true" : "false")
       << ",\n"
       << "  \"serial_index_seconds\": " << serial_seconds << ",\n"
       << "  \"serial_index_mb_per_s\": " << mb / serial_seconds << ",\n"
       << "  \"parallel\": [";
  for (size_t i = 0; i < timings.size(); ++i) {
    json << "{\"threads\": " << timings[i].threads
         << ", \"seconds\": " << timings[i].seconds
         << ", \"chunks\": " << timings[i].chunks
         << ", \"speculation_repairs\": " << timings[i].repairs << "}"
         << (i + 1 < timings.size() ? ", " : "");
  }
  json << "],\n"
       << "  \"parallel_index_speedup_2t\": " << speedup_at(2) << ",\n"
       << "  \"parallel_index_speedup_4t\": " << speedup_at(4) << ",\n"
       << "  \"parallel_index_speedup_8t\": " << speedup_at(8) << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (min_parallel_speedup > 0.0) {
    const double speedup_4t = speedup_at(4);
    if (!gate_enforced) {
      std::printf("parallel-index gate skipped: only %u hardware thread(s)\n",
                  hardware);
    } else if (speedup_4t < min_parallel_speedup) {
      std::fprintf(stderr,
                   "FAIL: parallel index 4-thread speedup %.2fx below the "
                   "required %.2fx\n",
                   speedup_4t, min_parallel_speedup);
      return 1;
    } else {
      std::printf(
          "parallel-index gate passed: 4 threads %.2fx >= %.2fx\n",
          speedup_4t, min_parallel_speedup);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool large = false;
  std::string out_path;
  double min_speedup = 0.0;
  double min_parallel_speedup = 0.0;
  double max_dispatch_overhead = 0.0;
  bool dispatch_gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--large") {
      large = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (arg == "--min-parallel-speedup" && i + 1 < argc) {
      min_parallel_speedup = std::atof(argv[++i]);
    } else if (arg == "--max-dispatch-overhead" && i + 1 < argc) {
      max_dispatch_overhead = std::atof(argv[++i]);
      dispatch_gate = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_csv_throughput [--quick] [--large] "
                   "[--out <path>] [--min-speedup <x>] "
                   "[--max-dispatch-overhead <pct>] "
                   "[--min-parallel-speedup <x>]\n");
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path = large ? "BENCH_csv_large.json" : "BENCH_csv_scan.json";
  }
  if (large) return RunLargeMode(quick, out_path, min_parallel_speedup);

  const size_t target = quick ? (2u << 20) : (16u << 20);
  const int reps = quick ? 3 : 5;
  const std::vector<csv::SimdLevel> levels = csv::RunnableSimdLevels();
  std::string level_names;
  for (const csv::SimdLevel level : levels) {
    if (!level_names.empty()) level_names += ", ";
    level_names += csv::SimdLevelName(level);
  }
  std::printf("== csv scan throughput ==\n");
  std::printf("workload size: %zu MiB, reps: %d, host kernel: %s, "
              "runnable: [%s]\n\n",
              target >> 20, reps,
              std::string(csv::SimdLevelName(csv::DetectSimdLevel())).c_str(),
              level_names.c_str());

  Rng rng(20260805);
  std::vector<Workload> workloads;
  workloads.push_back({"clean_numeric", MakeCleanNumeric(rng, target)});
  workloads.push_back({"verbose_portal", MakeVerbosePortal(rng, target)});
  workloads.push_back({"all_quoted_worst", MakeAllQuoted(rng, target / 2)});

  std::vector<WorkloadResult> results;
  double gate_speedup = 0.0;
  for (const Workload& w : workloads) {
    WorkloadResult result;
    result.name = w.name;
    result.bytes = w.text.size();

    csv::ReaderOptions scalar_options;
    scalar_options.scan_mode = csv::ScanMode::kScalar;
    auto reference = csv::ParseCsv(w.text, scalar_options);
    if (!reference.ok()) {
      std::fprintf(stderr, "FAIL: %s scalar parse: %s\n", w.name.c_str(),
                   reference.status().ToString().c_str());
      return 1;
    }
    const double scalar_seconds =
        TimeBest(reps, [&] { (void)csv::ParseCsv(w.text, scalar_options); });
    const double mb = static_cast<double>(w.text.size()) / (1024.0 * 1024.0);
    result.modes.push_back({"scalar", scalar_seconds, mb / scalar_seconds});

    // Every runnable kernel level, SWAR first (RunnableSimdLevels is in
    // enum order and SWAR always runs), so modes[1] stays the SWAR gate.
    for (const csv::SimdLevel level : levels) {
      const std::string kernel_name{csv::SimdLevelName(level)};
      csv::ForceSimdLevel(level);
      csv::ReaderOptions options;
      options.scan_mode = csv::ScanMode::kSwar;
      csv::ScanTelemetry telemetry;
      options.scan_telemetry = &telemetry;
      auto rows = csv::ParseCsv(w.text, options);
      if (!rows.ok() || *rows != *reference) {
        std::fprintf(stderr,
                     "FAIL: %s %s parse differs from the scalar reader\n",
                     w.name.c_str(), kernel_name.c_str());
        csv::ResetSimdLevel();
        return 1;
      }
      result.structural = telemetry.structural_count;
      result.clean_quoting = telemetry.clean_quoting;
      const double seconds =
          TimeBest(reps, [&] { (void)csv::ParseCsv(w.text, options); });
      result.modes.push_back({kernel_name, seconds, mb / seconds});
      csv::ResetSimdLevel();
    }

    for (const ModeResult& mode : result.modes) {
      std::printf("%-18s %-7s %8.4fs  %8.1f MB/s  (%.2fx)\n", w.name.c_str(),
                  mode.name.c_str(), mode.seconds, mode.mbps,
                  mode.mbps / result.modes[0].mbps);
    }
    std::printf("\n");
    if (w.name == "clean_numeric") {
      gate_speedup = result.modes[1].mbps / result.modes[0].mbps;
    }
    results.push_back(std::move(result));
  }

  const double dispatch_overhead_pct =
      MeasureDispatchOverheadPct(workloads[0].text, reps);
  std::printf("dispatch overhead (indirect vs direct swar): %+.2f%%\n\n",
              dispatch_overhead_pct);

  const bool gate_enforced = min_speedup > 0.0;
  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"csv_scan\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"host_level\": \""
       << std::string(csv::SimdLevelName(csv::DetectSimdLevel())) << "\",\n"
       << "  \"runnable_levels\": [";
  for (size_t i = 0; i < levels.size(); ++i) {
    json << '"' << std::string(csv::SimdLevelName(levels[i])) << '"'
         << (i + 1 < levels.size() ? ", " : "");
  }
  json << "],\n"
       << "  \"min_speedup_required\": " << min_speedup << ",\n"
       << "  \"gate_enforced\": " << (gate_enforced ? "true" : "false")
       << ",\n"
       << "  \"swar_speedup_clean_numeric\": " << gate_speedup << ",\n"
       << "  \"dispatch_overhead_pct\": " << dispatch_overhead_pct << ",\n"
       << "  \"max_dispatch_overhead_pct\": " << max_dispatch_overhead
       << ",\n"
       << "  \"dispatch_gate_enforced\": "
       << (dispatch_gate ? "true" : "false") << ",\n"
       << "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    json << "    {\"name\": \"" << w.name << "\", \"bytes\": " << w.bytes
         << ", \"structural_bytes\": " << w.structural
         << ", \"clean_quoting\": " << (w.clean_quoting ? "true" : "false")
         << ", \"modes\": [";
    for (size_t m = 0; m < w.modes.size(); ++m) {
      json << "{\"mode\": \"" << w.modes[m].name
           << "\", \"seconds\": " << w.modes[m].seconds
           << ", \"mb_per_s\": " << w.modes[m].mbps << "}"
           << (m + 1 < w.modes.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (gate_enforced) {
    if (gate_speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: swar clean_numeric speedup %.2fx below the "
                   "required %.2fx\n",
                   gate_speedup, min_speedup);
      return 1;
    }
    std::printf("speedup gate passed: swar clean_numeric %.2fx >= %.2fx\n",
                gate_speedup, min_speedup);
  }
  if (dispatch_gate) {
    if (dispatch_overhead_pct > max_dispatch_overhead) {
      std::fprintf(stderr,
                   "FAIL: kernel dispatch overhead %.2f%% above the "
                   "allowed %.2f%%\n",
                   dispatch_overhead_pct, max_dispatch_overhead);
      return 1;
    }
    std::printf("dispatch gate passed: overhead %.2f%% <= %.2f%%\n",
                dispatch_overhead_pct, max_dispatch_overhead);
  }
  return 0;
}
