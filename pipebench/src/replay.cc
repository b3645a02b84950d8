#include "replay.h"

#include <filesystem>
#include <fstream>
#include <map>

#include "common/metrics.h"
#include "csv/dialect_detector.h"
#include "csv/mmap_source.h"
#include "csv/reader.h"
#include "csv/sanitize.h"
#include "csv/simd_scan.h"
#include "strudel/batch_runner.h"
#include "strudel/block_size.h"
#include "strudel/cell_features.h"
#include "strudel/derived_detector.h"
#include "strudel/keywords.h"
#include "strudel/line_features.h"

namespace pipebench {

namespace fs = std::filesystem;
using namespace strudel;

namespace {

/// Records spans into `spans`; a null vector makes every call a no-op, so
/// the untraced replay runs the same code without clock or CPU reads.
class Tracer {
 public:
  Tracer(std::vector<Span>* spans, SteadyClock::time_point epoch)
      : spans_(spans), epoch_(epoch) {}

  bool on() const { return spans_ != nullptr; }

  int Begin(const char* layer, const char* call, int parent, int input,
            bool attribution = false) {
    if (spans_ == nullptr) return -1;
    Span span;
    span.layer = layer;
    span.call = call;
    span.id = static_cast<int>(spans_->size());
    span.parent = parent;
    span.input = input;
    span.attribution = attribution;
    span.cpu_ms = ProcessCpuMs();
    span.start_ms = MsSince(epoch_);
    spans_->push_back(std::move(span));
    return spans_->back().id;
  }

  void End(int id) {
    if (spans_ == nullptr || id < 0) return;
    Span& span = (*spans_)[static_cast<size_t>(id)];
    span.end_ms = MsSince(epoch_);
    span.cpu_ms = ProcessCpuMs() - span.cpu_ms;
  }

  /// The input root uses the same two clock reads as its total.
  void SetInterval(int id, SteadyClock::time_point start,
                   SteadyClock::time_point end, double cpu_ms) {
    if (spans_ == nullptr || id < 0) return;
    Span& span = (*spans_)[static_cast<size_t>(id)];
    span.start_ms = MsBetween(epoch_, start);
    span.end_ms = MsBetween(epoch_, end);
    span.cpu_ms = cpu_ms;
  }

 private:
  std::vector<Span>* spans_;
  SteadyClock::time_point epoch_;
};

/// One input through the pipeline; returns its formatted output (empty
/// on failure, counted in pass.failed).
std::string ReplayOne(const StrudelCell& model, const LabeledInput& input,
                      int index, const ReplaySettings& settings,
                      Tracer& tracer, ReplayPass& pass) {
  const int root = tracer.Begin("input", "input", -1, index);
  const double cpu_start = tracer.on() ? ProcessCpuMs() : 0.0;
  const auto start = SteadyClock::now();

  int span = tracer.Begin("csv.io", "csv::MmapSource::Open", root, index);
  auto source = csv::MmapSource::Open(input.path, csv::IoMode::kAuto);
  tracer.End(span);
  if (!source.ok()) {
    ++pass.failed;
    return "";
  }

  span = tracer.Begin("csv.sanitize", "csv::Sanitize", root, index);
  csv::SanitizeReport report;
  csv::ParseDiagnostics diagnostics(256);
  const std::string text =
      csv::Sanitize(source->view(), {}, &report, &diagnostics);
  tracer.End(span);

  span = tracer.Begin("csv.dialect", "csv::DetectDialectWithFallback", root,
                      index);
  const csv::DialectDetection detection =
      csv::DetectDialectWithFallback(text, {});
  tracer.End(span);

  csv::ReaderOptions reader;
  reader.dialect = detection.dialect;
  reader.diagnostics = &diagnostics;
  csv::ScanTelemetry scan;
  reader.scan_telemetry = &scan;
  reader.num_threads = settings.reader_threads;
  const int read = tracer.Begin("csv.read", "csv::ParseCsv", root, index);
  auto rows = csv::ParseCsv(text, reader);
  tracer.End(read);
  if (!rows.ok()) {
    ++pass.failed;
    return "";
  }

  span = tracer.Begin("types.infer", "csv::Table", root, index);
  const csv::Table table(std::move(*rows));
  tracer.End(span);

  const int predict =
      tracer.Begin("ml.forest_cells", "StrudelCell::TryPredict", root, index);
  auto prediction = model.TryPredict(table);
  tracer.End(predict);
  if (!prediction.ok()) {
    ++pass.failed;
    return "";
  }

  span = tracer.Begin("strudel.output", "FormatClassifiedTable", root, index);
  std::string formatted = FormatClassifiedTable(table, *prediction);
  {
    std::ofstream out(fs::path(settings.output_dir) / (input.name + ".classes"));
    out << formatted;
    out.flush();
    if (!out) ++pass.failed;
  }
  tracer.End(span);

  const auto end = SteadyClock::now();
  pass.total_ms += MsBetween(start, end);
  if (!tracer.on()) return formatted;
  tracer.SetInterval(root, start, end, ProcessCpuMs() - cpu_start);

  // Attribution: children of the composite calls, measured by the same
  // public calls with the same arguments; excluded from the total above.
  if (source->used_mmap()) ++pass.mmap_inputs;
  if (detection.source != csv::DialectSource::kConsistency) {
    ++pass.dialect_fallbacks;
  }
  if (scan.used_index) {
    span = tracer.Begin("csv.index", "csv::BuildStructuralIndex", read, index,
                        true);
    csv::StructuralIndex structural;
    const bool prune =
        !(reader.max_line_bytes > 0 && reader.max_line_bytes < text.size());
    csv::BuildStructuralIndexParallel(
        text, detection.dialect,
        {settings.reader_threads, reader.parallel_chunk_bytes, prune},
        &structural);
    tracer.End(span);
  }

  const StrudelLine& line_model = model.line_model();
  const int lines = tracer.Begin("ml.forest_lines", "StrudelLine::TryPredict",
                                 predict, index, true);
  auto line_prediction = line_model.TryPredict(table);
  tracer.End(lines);
  span = tracer.Begin("strudel.derived", "DetectDerivedCells", lines, index,
                      true);
  const DerivedDetectionResult line_detection = DetectDerivedCells(
      table, line_model.options().features.derived_options);
  tracer.End(span);
  span = tracer.Begin("strudel.featurize_lines", "ExtractLineFeatures", lines,
                      index, true);
  auto line_features =
      ExtractLineFeatures(table, line_detection, line_model.options().features,
                          nullptr, line_model.options().num_threads);
  tracer.End(span);

  span = tracer.Begin("strudel.derived", "DetectDerivedCells", predict, index,
                      true);
  const DerivedDetectionResult detection_cells =
      DetectDerivedCells(table, model.options().features.derived_options);
  tracer.End(span);
  span = tracer.Begin("strudel.blocks", "ComputeBlockSizes", predict, index,
                      true);
  const BlockSizeResult blocks = ComputeBlockSizes(table);
  tracer.End(span);
  span = tracer.Begin("strudel.featurize_cells", "ExtractCellFeatures",
                      predict, index, true);
  auto cell_features = ExtractCellFeatures(
      table,
      line_prediction.ok() ? line_prediction->probabilities
                           : std::vector<std::vector<double>>{},
      {}, detection_cells, blocks, model.options().features, nullptr,
      model.options().num_threads);
  tracer.End(span);
  if (!line_prediction.ok() || !line_features.ok() || !cell_features.ok()) {
    ++pass.failed;
  }

  pass.derived_cells += detection_cells.derived_count;
  for (int r = 0; r < table.num_rows(); ++r) {
    if (RowHasAggregationKeyword(table, r)) ++pass.anchor_rows;
  }
  return formatted;
}

ReplayPass RunReplayPass(const StrudelCell& model,
                         const std::vector<LabeledInput>& inputs,
                         const ReplaySettings& settings, bool traced) {
  ReplayPass pass;
  Tracer tracer(traced ? &pass.spans : nullptr, SteadyClock::now());
  pass.outputs.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    pass.outputs.push_back(ReplayOne(model, inputs[i], static_cast<int>(i),
                                     settings, tracer, pass));
  }
  return pass;
}

}  // namespace

ReplayRun RunReplayPairs(const StrudelCell& model,
                         const std::vector<LabeledInput>& inputs,
                         const ReplaySettings& settings, double seconds) {
  ReplayRun run;
  // Output files exist before the first pass, so no pass pays for
  // creating them and the untraced/traced comparison stays fair.
  std::error_code ec;
  fs::create_directories(settings.output_dir, ec);
  for (const LabeledInput& input : inputs) {
    std::ofstream(fs::path(settings.output_dir) / (input.name + ".classes"));
  }
  // Work counts come from the untraced passes only: their deltas of the
  // registry count exactly the pipeline's work, while a traced pass also
  // runs the attribution calls.
  auto counter = [](const std::map<std::string, uint64_t>& totals,
                    const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto start = SteadyClock::now();
  do {
    const auto before = metrics::CounterTotals();
    run.untraced.push_back(RunReplayPass(model, inputs, settings, false));
    const auto after = metrics::CounterTotals();
    run.rows_predicted += counter(after, "ml.forest_rows_predicted") -
                          counter(before, "ml.forest_rows_predicted");
    run.rows_scanned += counter(after, "csv.rows_scanned") -
                        counter(before, "csv.rows_scanned");
    run.traced.push_back(RunReplayPass(model, inputs, settings, true));
  } while (MsSince(start) < seconds * 1e3);
  run.rows_predicted /= static_cast<double>(run.untraced.size());
  run.rows_scanned /= static_cast<double>(run.untraced.size());
  return run;
}

void CheckReplayOutputs(const ReplayRun& run,
                        const std::vector<std::string>& expected,
                        RunResult& result) {
  for (const auto* passes : {&run.untraced, &run.traced}) {
    for (const ReplayPass& pass : *passes) {
      result.attempted += static_cast<long long>(expected.size());
      result.failed += pass.failed;
      for (size_t i = 0; i < expected.size(); ++i) {
        if (pass.outputs[i] != expected[i]) {
          ++result.failed;
          result.Problem("replay output differs for input " +
                         std::to_string(i));
        }
      }
    }
  }
}

void AddLayerMetrics(const ReplayRun& run, size_t num_inputs,
                     RunResult& result) {
  const std::vector<ReplayPass>& traced = run.traced;
  const std::vector<ReplayPass>& untraced = run.untraced;
  result.metrics["ml.rows_predicted"] = {run.rows_predicted, "count"};
  result.metrics["csv.rows_scanned"] = {run.rows_scanned, "count"};
  result.record.Int("replay_pairs", static_cast<long long>(traced.size()));
  // Self time per layer, averaged over the traced passes; sums keep the
  // accounting identity exact, which medians would not.
  std::map<std::string, double> self_ms;
  std::map<std::string, double> self_cpu_ms;
  double total_ms = 0.0;
  double children_of_roots_ms = 0.0;
  double min_self_ms = 0.0;
  long long anchor_rows = 0;
  long long derived_cells = 0;
  long long mmap_inputs = 0;
  long long dialect_fallbacks = 0;
  for (const ReplayPass& pass : traced) {
    std::vector<double> child_ms(pass.spans.size(), 0.0);
    std::vector<double> child_cpu(pass.spans.size(), 0.0);
    for (const Span& span : pass.spans) {
      if (span.parent < 0) continue;
      child_ms[static_cast<size_t>(span.parent)] += span.duration_ms();
      child_cpu[static_cast<size_t>(span.parent)] += span.cpu_ms;
    }
    for (const Span& span : pass.spans) {
      const size_t id = static_cast<size_t>(span.id);
      if (span.parent < 0) {
        total_ms += span.duration_ms();
        children_of_roots_ms += child_ms[id];
        continue;
      }
      const double self = span.duration_ms() - child_ms[id];
      min_self_ms = std::min(min_self_ms, self);
      self_ms[span.layer] += self;
      self_cpu_ms[span.layer] += span.cpu_ms - child_cpu[id];
    }
    anchor_rows += pass.anchor_rows;
    derived_cells += pass.derived_cells;
    mmap_inputs += pass.mmap_inputs;
    dialect_fallbacks += pass.dialect_fallbacks;
  }
  const double passes = static_cast<double>(std::max<size_t>(traced.size(), 1));
  const double unattributed_ms = (total_ms - children_of_roots_ms) / passes;
  total_ms /= passes;

  static const char* const kTimedLayers[] = {
      "csv.io",          "csv.sanitize",
      "csv.dialect",     "csv.index",
      "csv.read",        "types.infer",
      "strudel.derived", "strudel.featurize_lines",
      "strudel.featurize_cells", "strudel.blocks",
      "ml.forest_lines", "ml.forest_cells",
      "strudel.output"};
  double layer_sum_ms = 0.0;
  for (const char* layer : kTimedLayers) {
    const double ms = self_ms[layer] / passes;
    layer_sum_ms += ms;
    result.metrics[std::string(layer) + "_ms"] = {ms, "ms"};
  }
  for (const char* layer : {"strudel.featurize_lines", "strudel.featurize_cells",
                            "ml.forest_lines", "ml.forest_cells"}) {
    result.metrics[std::string(layer) + "_cpu_ms"] = {
        self_cpu_ms[layer] / passes, "ms"};
  }
  result.metrics["unattributed_ms"] = {unattributed_ms, "ms"};
  result.metrics["traced_total_ms"] = {total_ms, "ms"};

  double untraced_ms = 0.0;
  for (const ReplayPass& pass : untraced) untraced_ms += pass.total_ms;
  untraced_ms /= static_cast<double>(std::max<size_t>(untraced.size(), 1));
  result.metrics["untraced_total_ms"] = {untraced_ms, "ms"};
  result.metrics["trace_overhead_pct"] = {
      untraced_ms > 0.0 ? 100.0 * (total_ms - untraced_ms) / untraced_ms : 0.0,
      "%"};

  const double inputs = static_cast<double>(std::max<size_t>(num_inputs, 1));
  result.metrics["strudel.anchor_rows"] = {anchor_rows / passes, "count"};
  result.metrics["strudel.derived_cells"] = {derived_cells / passes, "count"};
  result.metrics["csv.mmap_share"] = {mmap_inputs / passes / inputs, "ratio"};
  result.metrics["csv.dialect_fallback_share"] = {
      dialect_fallbacks / passes / inputs, "ratio"};

  // The identity holds by construction of self time, and the pipeline
  // calls lie inside their input's interval, so a broken identity or a
  // negative remainder is a bug in this file and fails the run. A
  // negative layer self time is not: it means a replayed child ran
  // slower than inside its parent, which host noise can do when the
  // child is most of the parent (Algorithm 2 inside the cell predict
  // on keyword_rows). Such layers are listed in the record.
  const double residual = total_ms - (layer_sum_ms + unattributed_ms);
  const double tolerance = 1e-6 * std::max(total_ms, 1.0);
  const bool identity_ok = std::fabs(residual) <= tolerance &&
                           unattributed_ms >= -tolerance;
  std::string negative = "[";
  for (const auto& [layer, ms] : self_ms) {
    if (ms >= 0.0) continue;
    negative += (negative.size() > 1 ? ", \"" : "\"") + layer + "\"";
  }
  result.record.Num("accounting_residual_ms", residual)
      .Num("accounting_min_span_self_ms", min_self_ms)
      .Raw("attribution_negative_layers", negative + "]")
      .Bool("accounting_ok", identity_ok);
  if (!identity_ok) {
    result.Problem(StrFormat("layer self times + unattributed (%.6f ms) = "
                             "%.6f ms, traced total = %.6f ms",
                             unattributed_ms, layer_sum_ms + unattributed_ms,
                             total_ms));
  }
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += JsonObject()
               .Str("layer", s.layer)
               .Str("call", s.call)
               .Int("id", s.id)
               .Int("parent", s.parent)
               .Int("input", s.input)
               .Bool("attribution", s.attribution)
               .Num("start_ms", s.start_ms)
               .Num("end_ms", s.end_ms)
               .Num("cpu_ms", s.cpu_ms)
               .ToString();
  }
  return out + "]";
}

}  // namespace pipebench
