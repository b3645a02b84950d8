// Observability invariants: the span *tree* (names, parent/child
// structure, multiplicities) and the counter totals of one pipeline run
// are identical at 1, 2 and 8 threads. Timestamps and track ids of course
// differ — NormalizedTree erases them. This holds because spans carry
// logical paths (ParallelFor workers inherit the dispatching loop's path)
// and chunk decomposition depends only on (begin, end, grain), never on
// the worker count. Runs under the ASan/UBSan gate with the other suites.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/corpus.h"
#include "ml/crf.h"
#include "strudel/ingest.h"
#include "strudel/strudel_cell.h"

namespace strudel {
namespace {

constexpr char kVerboseCsv[] =
    "Quarterly Report,,\n"
    "Region: North,,\n"
    ",,\n"
    "Product,Units,Revenue\n"
    "\"Widget, large\",10,\"1,200.50\"\n"
    "Gadget,5,640\n"
    "Total,15,\"1,840.50\"\n"
    "Source: internal,,\n";

StrudelCellOptions FastOptions(int num_threads) {
  StrudelCellOptions options;
  options.forest.num_trees = 12;
  options.line.forest.num_trees = 12;
  options.line_cross_fit_folds = 2;
  StrudelCell model(options);  // set_num_threads propagates to sub-options
  model.set_num_threads(num_threads);
  return model.options();
}

ml::Matrix TinySequence(double offset) {
  ml::Matrix features(6, 3);
  for (size_t t = 0; t < 6; ++t) {
    for (size_t d = 0; d < 3; ++d) {
      features.at(t, d) = offset + static_cast<double>(t) * 0.25 +
                          static_cast<double>(d) * 0.5;
    }
  }
  return features;
}

struct PipelineRun {
  std::string tree;
  std::map<std::string, uint64_t> counters;
};

// One full pipeline pass under capture: ingestion (sanitize, dialect
// detection, scan), line + cell featurisation and forest fit/predict via
// the cell model, and a linear-chain CRF fit/predict.
PipelineRun RunPipeline(int num_threads) {
  metrics::ResetForTest();
  trace::StartCapture();

  auto ingest = IngestText(kVerboseCsv, {});
  EXPECT_TRUE(ingest.ok()) << ingest.status().ToString();

  datagen::DatasetProfile profile =
      datagen::ScaledProfile(datagen::SausProfile(), 0.06, 0.4);
  std::vector<AnnotatedFile> corpus = datagen::GenerateCorpus(profile, 11);

  StrudelCell model(FastOptions(num_threads));
  EXPECT_TRUE(model.Fit(corpus).ok());
  auto prediction = model.TryPredict(ingest->table, nullptr);
  EXPECT_TRUE(prediction.ok());

  ml::CrfOptions crf_options;
  crf_options.epochs = 5;
  ml::LinearChainCrf crf(crf_options);
  std::vector<ml::CrfSequence> sequences(2);
  sequences[0].features = TinySequence(0.0);
  sequences[0].labels = {0, 0, 1, 1, 0, 1};
  sequences[1].features = TinySequence(0.3);
  sequences[1].labels = {1, 0, 1, 0, 1, 0};
  EXPECT_TRUE(crf.Fit(sequences, 2).ok());
  (void)crf.Predict(sequences[0].features);

  PipelineRun run;
  run.tree = trace::NormalizedTree(trace::StopCapture());
  run.counters = metrics::CounterTotals();
  return run;
}

TEST(TraceDeterminismTest, SpanTreeAndCountersAreThreadCountInvariant) {
  const PipelineRun serial = RunPipeline(1);
  const PipelineRun two = RunPipeline(2);
  const PipelineRun eight = RunPipeline(8);

  EXPECT_FALSE(serial.tree.empty());
  EXPECT_EQ(serial.tree, two.tree);
  EXPECT_EQ(serial.tree, eight.tree);

  for (const auto& [name, value] : serial.counters) {
    SCOPED_TRACE(name);
    auto at = [&](const PipelineRun& run) -> uint64_t {
      auto it = run.counters.find(name);
      return it == run.counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(value, at(two));
    EXPECT_EQ(value, at(eight));
  }
  EXPECT_EQ(serial.counters.size(), two.counters.size());
  EXPECT_EQ(serial.counters.size(), eight.counters.size());
}

TEST(TraceDeterminismTest, AllSevenPipelineStagesAppearInTheTree) {
  const PipelineRun run = RunPipeline(2);
  for (const char* span : {"csv.sanitize", "csv.detect_dialect", "csv.scan.",
                           "featurize.lines", "featurize.cells", "forest.fit",
                           "forest.predict", "crf.fit", "crf.predict"}) {
    EXPECT_NE(run.tree.find(span), std::string::npos)
        << "missing span " << span << " in tree:\n"
        << run.tree;
  }
  for (const char* counter :
       {"csv.rows_scanned", "csv.bytes_scanned", "featurize.lines",
        "featurize.cells", "ml.trees_trained", "crf.fit_sequences",
        "ingest.files"}) {
    EXPECT_NE(run.counters.find(counter), run.counters.end())
        << "missing counter " << counter;
  }
}

TEST(TraceDeterminismTest, ExportsAreWritable) {
  const std::string trace_path =
      ::testing::TempDir() + "/strudel_trace_out.json";
  const std::string metrics_path =
      ::testing::TempDir() + "/strudel_metrics_out.json";

  metrics::ResetForTest();
  trace::StartCapture();
  auto ingest = IngestText(kVerboseCsv, {});
  ASSERT_TRUE(ingest.ok());
  const auto events = trace::StopCapture();
  ASSERT_FALSE(events.empty());

  EXPECT_TRUE(trace::WriteChromeJson(trace_path, events).ok());
  EXPECT_TRUE(metrics::WriteJson(metrics_path).ok());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace strudel
