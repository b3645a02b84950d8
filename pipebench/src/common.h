// Shared plumbing of the pipeline benchmark: clocks, order statistics,
// a flat JSON object writer, and the per-run configuration every
// workload receives from main.cc.

#ifndef PIPEBENCH_COMMON_H_
#define PIPEBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace pipebench {

using SteadyClock = std::chrono::steady_clock;

inline double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double MsSince(SteadyClock::time_point start) {
  return MsBetween(start, SteadyClock::now());
}

/// CPU time of the whole process (all threads), in ms.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Nearest-rank quantile (q in [0, 1]) of unsorted samples; NaN if empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0,
                                     static_cast<double>(samples.size()))) -
      1;
  return samples[index];
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The guide rule for tail percentiles: a percentile is only reported
/// when at least ten samples lie beyond it.
inline bool TailSupported(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

/// `text` as a JSON string literal.
inline std::string Quoted(std::string_view text) {
  std::string out = "\"";
  out += strudel::JsonEscape(text);
  out += '"';
  return out;
}

/// Flat JSON object assembled key by key; nested values are passed in as
/// already-serialised JSON text.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, std::isfinite(value) ? strudel::StrFormat("%.17g", value)
                                         : std::string("null"));
  }
  JsonObject& Int(const std::string& key, long long value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quoted(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quoted(fields_[i].first);
      out += ": ";
      out += fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One metric as the benchmark prints it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

inline std::string MetricsJson(const MetricMap& metrics) {
  JsonObject object;
  for (const auto& [name, metric] : metrics) {
    object.Raw(name, JsonObject()
                         .Num("value", metric.value)
                         .Str("unit", metric.unit)
                         .ToString());
  }
  return object.ToString();
}

/// Everything main.cc resolved from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string inputs_dir;  // <work>/inputs: the files the program sees
  std::string labels_dir;  // <work>/labels: ground truth, never an input
  /// <work>/accuracy/{inputs,labels}: files classified once, untimed,
  /// for cell_macro_f1 only (empty for most workloads).
  std::string accuracy_inputs_dir;
  std::string accuracy_labels_dir;
  std::string work_dir;    // outputs, spans and the serve socket
  std::string strudel_cli;  // path of the built `strudel` binary
  int nproc = 1;            // CPUs this process may run on
  /// Explicit thread counts (never 0): file-level fan-out, the model's
  /// own loops, and the reader's chunk-parallel index.
  int batch_threads = 1;
  int model_threads = 1;
  int reader_threads = 1;
  /// Thread count of the reference pass whose output digest the timed
  /// pass must reproduce.
  int reference_threads = 1;
};

/// The outcome of one workload run: counts, metrics and the free-form
/// record (host, configuration, validity) printed before the result.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  bool valid = true;
  std::vector<std::string> problems;
  std::string digest;
  MetricMap metrics;
  JsonObject record;

  void Problem(const std::string& what) {
    valid = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

}  // namespace pipebench

#endif  // PIPEBENCH_COMMON_H_
