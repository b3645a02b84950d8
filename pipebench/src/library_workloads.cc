#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "common/thread_pool.h"
#include "csv/reader.h"
#include "csv/simd_scan.h"
#include "ml/random_forest.h"
#include "replay.h"
#include "strudel/batch_runner.h"
#include "strudel/ingest.h"
#include "strudel/model_io.h"
#include "workloads.h"

namespace pipebench {

namespace fs = std::filesystem;
using namespace strudel;

namespace {

/// Model loads per phase of a run (before the reference pass, before the
/// timed pass, after it).
constexpr int kLoadsPerPhase = 4;

int TreeCount(const ml::Classifier& classifier) {
  const auto* forest = dynamic_cast<const ml::RandomForest*>(&classifier);
  return forest != nullptr ? forest->num_trees() : 0;
}

/// Checks outputs (a prefix of `inputs`, in order) against the reference
/// pass, or against the ground truth when `reference` is null. Returns
/// the failures.
long long CheckAgainst(const std::vector<LabeledInput>& inputs,
                       const std::vector<std::string>& outputs,
                       const std::vector<std::string>* reference,
                       ml::ConfusionMatrix* confusion, const char* pass,
                       RunResult& result) {
  long long failed = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    std::string problem;
    if (reference != nullptr) {
      if (outputs[i] != (*reference)[i]) problem = "differs from reference";
    } else {
      problem = CheckOutput(inputs[i], outputs[i], confusion);
    }
    if (!problem.empty()) {
      ++failed;
      result.Problem(std::string(pass) + " " + inputs[i].name + ": " +
                     problem);
    }
  }
  return failed;
}

/// One RunBatch call over the inputs directory; returns per-file outputs
/// (read back from results/) and appends per-file latencies.
std::vector<std::string> BatchPass(const StrudelCell& model,
                                   const RunConfig& config,
                                   const std::vector<LabeledInput>& inputs,
                                   int threads, const std::string& out_dir,
                                   double* wall_ms,
                                   std::vector<double>* latencies,
                                   long long* failed) {
  BatchOptions options;
  options.threads = threads;
  options.ingest.reader.num_threads = config.reader_threads;
  const auto start = SteadyClock::now();
  auto summary = RunBatch(model, config.inputs_dir, out_dir, options);
  if (wall_ms != nullptr) *wall_ms = MsSince(start);
  std::vector<std::string> outputs(inputs.size());
  if (!summary.ok()) {
    *failed += static_cast<long long>(inputs.size());
    return outputs;
  }
  for (const BatchEntry& entry : summary->entries) {
    if (!entry.status.ok() || entry.skipped) ++*failed;
    if (latencies != nullptr) {
      latencies->push_back(entry.timings.ingest_ms +
                           entry.timings.predict_ms +
                           entry.timings.output_ms);
    }
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto output = csv::ReadFileToString(
        (fs::path(out_dir) / "results" / (inputs[i].name + ".classes"))
            .string());
    if (output.ok()) outputs[i] = *std::move(output);
  }
  return outputs;
}

/// One input through the `strudel classify` path: IngestFile ->
/// StrudelCell::TryPredict -> FormatClassifiedTable + write.
std::string ClassifyOne(const StrudelCell& model, const RunConfig& config,
                        const LabeledInput& input, const std::string& out_dir,
                        long long* failed) {
  IngestOptions ingest;
  ingest.reader.num_threads = config.reader_threads;
  auto table = IngestFile(input.path, ingest);
  if (!table.ok()) {
    ++*failed;
    return "";
  }
  auto prediction = model.TryPredict(table->table);
  if (!prediction.ok()) {
    ++*failed;
    return "";
  }
  std::string formatted = FormatClassifiedTable(table->table, *prediction);
  std::ofstream out(fs::path(out_dir) / (input.name + ".classes"));
  out << formatted;
  out.flush();
  if (!out) ++*failed;
  return formatted;
}

/// Rotates the calling thread over the CPUs this process may use. On a
/// shared host one CPU can run slower than the others for seconds at a
/// time; single-threaded work (model loads, Algorithm 2) that stays on
/// one CPU would inherit that CPU's luck for the whole run, while work
/// rotated over all of them averages it out, as multi-threaded work
/// does by itself. Only the calling thread is pinned, and only around
/// the timed calls; the library's pool threads are created unpinned
/// before the first rotation (see RunLibraryWorkload).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
      }
    }
  }

  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  void Release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

CpuRotation& Rotation() {
  static CpuRotation rotation;
  return rotation;
}

/// Macro F1 over the classes with at least kMinClassSupport labelled
/// cells in the inputs and the accuracy set. A class with a handful of
/// cells (a Mendeley file has 1 to 7 group, derived or notes cells)
/// scores 0 or 1 on the turn of one cell, which would make the average a
/// coin flip per seed. The record keeps every class's support and F1.
void AddCellMacroF1(const ml::ConfusionMatrix& confusion, RunResult& result) {
  constexpr long long kMinClassSupport = 20;
  double sum = 0.0;
  int scored = 0;
  std::string per_class = "{";
  for (int c = 0; c < kNumElementClasses; ++c) {
    const long long support = confusion.class_support(c);
    if (support >= kMinClassSupport) {
      sum += confusion.F1(c);
      ++scored;
    }
    per_class += StrFormat("%s\"%s\": [%lld, %.4f]", c > 0 ? ", " : "",
                           std::string(ElementClassName(c)).c_str(), support,
                           confusion.F1(c));
  }
  result.metrics["cell_macro_f1"] = {scored > 0 ? sum / scored : 0.0,
                                     "ratio"};
  result.record.Raw("cell_support_f1_per_class", per_class + "}");
}

/// Continues `hash` over `outputs`, each closed by a record separator.
uint64_t HashOutputs(const std::vector<std::string>& outputs,
                     uint64_t hash) {
  for (const std::string& output : outputs) {
    hash = Fnv1a(output, hash);
    hash = Fnv1a("\x1e", hash);
  }
  return hash;
}

/// CPU time the hypervisor took from this machine's CPUs (all CPUs,
/// from /proc/stat), in ms; explains noise on shared hosts.
double StealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;
  for (int i = 1; i <= 8 && in >> field; ++i) {
    if (i == 8) steal = field;
  }
  return steal * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of this process, in MB; 0 if unreadable.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Adds latency_p50_ms / latency_p99_ms over `samples_ms`, recording the
/// sample count and whether p99 has ten samples beyond it.
void AddLatencyMetrics(const std::vector<double>& samples_ms,
                       RunResult& result) {
  result.metrics["latency_p50_ms"] = {Quantile(samples_ms, 0.50), "ms"};
  result.metrics["latency_p99_ms"] = {Quantile(samples_ms, 0.99), "ms"};
  result.record.Int("latency_samples", static_cast<long long>(samples_ms.size()))
      .Bool("latency_p99_has_10_beyond",
            TailSupported(samples_ms.size(), 0.99));
}

/// Loads the model `times` times, one at a time, appending each
/// LoadCellModelFromFile time (ms) to `samples`; keeps the last load.
bool TimedLoads(const RunConfig& config, int times,
                std::optional<StrudelCell>* model,
                std::vector<double>* samples, RunResult& result) {
  for (int i = 0; i < times; ++i) {
    model->reset();  // one model alive at a time, so RSS is one model's
    Rotation().PinNext();
    const auto start = SteadyClock::now();
    auto loaded = LoadCellModelFromFile(config.model_path);
    samples->push_back(MsSince(start));
    Rotation().Release();
    if (!loaded.ok()) {
      result.Problem("model load: " + loaded.status().ToString());
      return false;
    }
    model->emplace(std::move(*loaded));
  }
  return true;
}

/// Reports the median of `samples_ms` x `scale` as `metric`, and the
/// samples in the record.
void ReportSetup(const std::vector<double>& samples_ms, const char* metric,
                 double scale, const char* unit, RunResult& result) {
  result.metrics[metric] = {Median(samples_ms) * scale, unit};
  std::string list = "[";
  for (size_t i = 0; i < samples_ms.size(); ++i) {
    list += (i > 0 ? ", " : "") + StrFormat("%.3f", samples_ms[i]);
  }
  result.record.Raw(std::string(metric) + "_samples_ms", list + "]");
}

/// Records host, configuration, input and model facts in result.record.
void RecordConfiguration(const RunConfig& config,
                         const std::vector<LabeledInput>& inputs,
                         const StrudelCell& model, RunResult& result) {
  long long bytes = 0, rows = 0, cells = 0;
  for (const LabeledInput& input : inputs) {
    bytes += static_cast<long long>(input.bytes);
    rows += input.rows;
    cells += input.cells;
  }
  std::error_code ec;
  result.record.Str("workload", config.workload)
      .Int("seed", static_cast<long long>(config.seed))
      .Num("seconds", config.seconds)
      .Bool("trace", config.trace)
      .Int("nproc", config.nproc)
      .Int("hardware_concurrency",
           static_cast<long long>(std::thread::hardware_concurrency()))
      .Str("simd_level", std::string(csv::SimdLevelName(csv::DetectSimdLevel())))
      .Int("batch_threads", config.batch_threads)
      .Int("model_threads", config.model_threads)
      .Int("reader_threads", config.reader_threads)
      .Int("reference_threads", config.reference_threads)
      .Int("model_loads", 3 * kLoadsPerPhase)
      .Int("files", static_cast<long long>(inputs.size()))
      .Int("bytes", bytes)
      .Int("rows", rows)
      .Int("cells", cells)
      .Int("model_cell_trees", TreeCount(model.model()))
      .Int("model_line_trees", TreeCount(model.line_model().model()))
      .Int("model_bytes",
           static_cast<long long>(fs::file_size(config.model_path, ec)));
}

}  // namespace

RunResult RunLibraryWorkload(const RunConfig& config) {
  RunResult result;
  auto inputs = LoadInputs(config.inputs_dir, config.labels_dir);
  if (!inputs.ok() || inputs->empty()) {
    result.Problem("inputs: " + (inputs.ok() ? std::string("none")
                                             : inputs.status().ToString()));
    return result;
  }
  // The library's shared pool starts now, unpinned, so its threads may
  // run on every CPU whatever the calling thread is pinned to later.
  ThreadPool::Shared();
  // Set-up is timed as repeated model loads spread over the run (before
  // the reference pass, before the timed pass, after it), so one burst
  // of host contention cannot decide the median.
  std::optional<StrudelCell> model;
  std::vector<double> load_ms;
  if (!TimedLoads(config, kLoadsPerPhase, &model, &load_ms, result)) {
    return result;
  }
  RecordConfiguration(config, *inputs, *model, result);
  const bool batch = config.workload == "portal_batch";
  double input_bytes = 0.0;
  for (const LabeledInput& input : *inputs) input_bytes += input.bytes;

  // Reference pass, which is also the warm-up: every input once at a
  // different thread count than the timed pass. Its outputs are checked
  // against the ground truth and define the digest.
  const std::string out_dir = config.work_dir + "/out";
  ml::ConfusionMatrix confusion(kNumElementClasses);
  std::vector<std::string> reference;
  const auto reference_start = SteadyClock::now();
  if (batch) {
    model->set_num_threads(1);
    reference = BatchPass(*model, config, *inputs, config.reference_threads,
                          out_dir + "/reference", nullptr, nullptr,
                          &result.failed);
  } else {
    model->set_num_threads(config.reference_threads);
    fs::create_directories(out_dir + "/reference");
    for (const LabeledInput& input : *inputs) {
      reference.push_back(ClassifyOne(*model, config, input,
                                      out_dir + "/reference", &result.failed));
    }
  }
  result.record.Num("reference_pass_s", MsSince(reference_start) / 1e3);
  result.attempted += static_cast<long long>(inputs->size());
  result.failed += CheckAgainst(*inputs, reference, nullptr, &confusion,
                                "reference", result);

  // Accuracy set: further labelled files of the workload's own layouts,
  // classified once on the single-file path at the reference settings.
  // They count towards cell_macro_f1 and the digest, never towards time.
  auto accuracy =
      LoadInputs(config.accuracy_inputs_dir, config.accuracy_labels_dir);
  if (!accuracy.ok()) {
    result.Problem("accuracy inputs: " + accuracy.status().ToString());
    return result;
  }
  uint64_t digest = HashOutputs(reference, Fnv1a(""));
  const auto accuracy_start = SteadyClock::now();
  if (!accuracy->empty()) {
    fs::create_directories(out_dir + "/accuracy");
    std::vector<std::string> outputs;
    for (const LabeledInput& input : *accuracy) {
      outputs.push_back(ClassifyOne(*model, config, input,
                                    out_dir + "/accuracy", &result.failed));
    }
    result.attempted += static_cast<long long>(accuracy->size());
    result.failed += CheckAgainst(*accuracy, outputs, nullptr, &confusion,
                                  "accuracy", result);
    digest = HashOutputs(outputs, digest);
  }
  long long accuracy_cells = 0;
  for (const LabeledInput& input : *accuracy) accuracy_cells += input.cells;
  result.record.Num("accuracy_pass_s", MsSince(accuracy_start) / 1e3)
      .Int("accuracy_files", static_cast<long long>(accuracy->size()))
      .Int("accuracy_cells", accuracy_cells);
  result.digest =
      StrFormat("%016llx", static_cast<unsigned long long>(digest));
  AddCellMacroF1(confusion, result);
  if (!TimedLoads(config, kLoadsPerPhase, &model, &load_ms, result)) {
    return result;
  }
  model->set_num_threads(batch ? 1 : config.model_threads);

  if (config.trace) {
    // Traced run: pairs of untraced and traced replays, one input at a
    // time, under the workload's model thread settings.
    ReplaySettings settings;
    settings.reader_threads = config.reader_threads;
    settings.output_dir = out_dir + "/replay";
    const ReplayRun run =
        RunReplayPairs(*model, *inputs, settings, config.seconds);
    CheckReplayOutputs(run, reference, result);
    AddLayerMetrics(run, inputs->size(), result);
    std::ofstream spans(config.work_dir + "/spans.json");
    spans << SpansJson(run.traced.back().spans) << "\n";

    // Serve is not on this workload's path; probe it idle with the
    // workload's own smallest inputs so its layer metrics exist.
    std::vector<size_t> order(inputs->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*inputs)[a].bytes < (*inputs)[b].bytes;
    });
    order.resize(batch ? std::min<size_t>(order.size(), 40) : 1);
    model->set_num_threads(1);
    AddServeProbeMetrics(config, *inputs, order, *model, result);
    if (!TimedLoads(config, kLoadsPerPhase, &model, &load_ms, result)) {
      return result;
    }
    ReportSetup(load_ms, "ml.model_load_ms", 1.0, "ms", result);
    result.metrics["failed_share"] = {
        static_cast<double>(result.failed) /
            static_cast<double>(std::max<long long>(result.attempted, 1)),
        "ratio"};
    return result;
  }

  // Timed pass, tracing off: whole passes over the inputs until the run
  // length is reached. Whole passes keep every input's share of the
  // latency samples fixed.
  std::vector<double> latencies;
  std::vector<double> pass_mb_s;
  const double steal_before = StealMs();
  double timed_ms = 0.0;
  double timed_bytes = 0.0;
  int passes = 0;
  while (timed_ms < config.seconds * 1e3) {
    const double pass_ms = timed_ms;
    const double pass_bytes = timed_bytes;
    std::vector<std::string> outputs;
    long long failed = 0;
    if (batch) {
      double wall_ms = 0.0;
      outputs = BatchPass(*model, config, *inputs, config.batch_threads,
                          out_dir + "/timed", &wall_ms, &latencies, &failed);
      timed_ms += wall_ms;
      timed_bytes += input_bytes;
    } else {
      fs::create_directories(out_dir + "/timed");
      for (const LabeledInput& input : *inputs) {
        Rotation().PinNext();
        const auto start = SteadyClock::now();
        outputs.push_back(
            ClassifyOne(*model, config, input, out_dir + "/timed", &failed));
        const double ms = MsSince(start);
        Rotation().Release();
        latencies.push_back(ms);
        timed_ms += ms;
        timed_bytes += static_cast<double>(input.bytes);
      }
    }
    ++passes;
    pass_mb_s.push_back((timed_bytes - pass_bytes) / 1e3 / (timed_ms - pass_ms));
    result.attempted += static_cast<long long>(outputs.size());
    result.failed += failed + CheckAgainst(*inputs, outputs, &reference,
                                           nullptr, "timed", result);
  }
  result.record.Int("timed_passes", passes)
      .Num("steal_ms", StealMs() - steal_before)
      .Num("pass_mb_s_min", Quantile(pass_mb_s, 0.0))
      .Num("pass_mb_s_max", Quantile(pass_mb_s, 1.0));
  // The median pass, so a burst of host contention moves it less than
  // it moves the total.
  result.metrics["throughput_mb_s"] = {Median(pass_mb_s), "MB/s"};
  result.record.Num("timed_mb_s_overall", timed_bytes / 1e3 / timed_ms);
  AddLatencyMetrics(latencies, result);
  if (!batch) {
    // Per-file medians: passes are whole, so sample k is file k % n.
    std::string per_file = "{";
    for (size_t f = 0; f < inputs->size(); ++f) {
      std::vector<double> samples;
      for (size_t k = f; k < latencies.size(); k += inputs->size()) {
        samples.push_back(latencies[k]);
      }
      per_file += StrFormat("%s\"%s\": %.3f", f > 0 ? ", " : "",
                            (*inputs)[f].name.c_str(), Median(samples));
    }
    result.record.Raw("latency_median_ms_per_file", per_file + "}");
  }
  result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (!TimedLoads(config, kLoadsPerPhase, &model, &load_ms, result)) {
    return result;
  }
  ReportSetup(load_ms, "setup_s", 1e-3, "s", result);
  ReportSetup(load_ms, "ml.model_load_ms", 1.0, "ms", result);
  return result;
}

}  // namespace pipebench
