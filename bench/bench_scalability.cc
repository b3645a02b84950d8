// §6.3.4 scalability: end-to-end cell-classification runtime (dialect
// detection + parsing + feature creation + prediction) as a function of
// file size. The paper reports linear scaling (~256 s for a 10 MB file on
// a 1.4 GHz laptop); the claim under test here is the *linearity*, i.e.
// bytes-per-second throughput roughly constant across sizes.
//
// Uses google-benchmark; each size processes a freshly serialised
// Mendeley-style file through the full Figure 2 pipeline.

#include <benchmark/benchmark.h>

#include "csv/dialect_detector.h"
#include "csv/reader.h"
#include "csv/writer.h"
#include "datagen/corpus.h"
#include "strudel/strudel_cell.h"

namespace {

using namespace strudel;

// One trained model shared by all measurements (training cost is not part
// of the per-file pipeline the paper times). It has the shape `strudel
// train` writes: 50 trees per stage and the default cross-fit folds.
StrudelCell& TrainedModel() {
  static StrudelCell* model = [] {
    datagen::DatasetProfile profile =
        datagen::ScaledProfile(datagen::SausProfile(), 0.05, 0.4);
    auto corpus = datagen::GenerateCorpus(profile, 99);
    StrudelCellOptions options;
    options.forest.num_trees = 50;
    options.line.forest.num_trees = 50;
    auto* m = new StrudelCell(options);
    if (!m->Fit(corpus).ok()) std::abort();
    return m;
  }();
  return *model;
}

// Serialised Mendeley-style file with roughly `rows` data rows.
std::string MakeRawFile(int rows, uint64_t seed) {
  datagen::DatasetProfile profile = datagen::MendeleyProfile();
  profile.num_files = 1;
  profile.spec.rows_per_fraction = {rows, rows};
  auto corpus = datagen::GenerateCorpus(profile, seed);
  return csv::WriteTable(corpus[0].table);
}

void BM_EndToEndPipeline(benchmark::State& state) {
  TrainedModel();  // train outside the timed region
  const int rows = static_cast<int>(state.range(0));
  const std::string text = MakeRawFile(rows, 7 + rows);
  for (auto _ : state) {
    auto dialect = csv::DetectDialect(text);
    if (!dialect.ok()) std::abort();
    csv::ReaderOptions options;
    options.dialect = *dialect;
    auto table = csv::ReadTable(text, options);
    if (!table.ok()) std::abort();
    CellPrediction prediction = TrainedModel().Predict(*table);
    benchmark::DoNotOptimize(prediction.classes.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.counters["file_bytes"] = static_cast<double>(text.size());
  state.counters["rows"] = rows;
}
BENCHMARK(BM_EndToEndPipeline)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_DialectDetection(benchmark::State& state) {
  const std::string text =
      MakeRawFile(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    auto dialect = csv::DetectDialect(text);
    benchmark::DoNotOptimize(dialect.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DialectDetection)->Arg(500)->Arg(2000);

void BM_CsvParsing(benchmark::State& state) {
  const std::string text =
      MakeRawFile(static_cast<int>(state.range(0)), 13);
  for (auto _ : state) {
    auto table = csv::ReadTable(text);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CsvParsing)->Arg(500)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
