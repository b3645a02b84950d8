// §6.1.2 ablation: sensitivity of the derived-cell detection parameters.
// The paper: "we do not observe a substantial difference in the result
// with different values of the aggregation delta d and coverage c. We set
// them to 0.1 and 0.5." This bench sweeps both parameters and reports the
// detector's precision/recall against the generated ground truth, plus
// Strudel^L's derived-class F1 at selected settings.

#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "eval/table_printer.h"
#include "strudel/derived_detector.h"

using namespace strudel;
using eval::TablePrinter;

namespace {

struct DetectorScore {
  double precision = 0.0;
  double recall = 0.0;
};

DetectorScore ScoreDetector(const std::vector<AnnotatedFile>& corpus,
                            const DerivedDetectorOptions& options) {
  long long tp = 0, fp = 0, fn = 0;
  const int kDerived = static_cast<int>(ElementClass::kDerived);
  for (const AnnotatedFile& file : corpus) {
    DerivedDetectionResult detection =
        DetectDerivedCells(file.table, options);
    for (int r = 0; r < file.table.num_rows(); ++r) {
      for (int c = 0; c < file.table.num_cols(); ++c) {
        const bool actual =
            file.annotation.cell_labels[r][c] == kDerived &&
            IsNumericType(file.table.cell_type(r, c));
        const bool detected = detection.at(r, c);
        if (actual && detected) ++tp;
        if (!actual && detected) ++fp;
        if (actual && !detected) ++fn;
      }
    }
  }
  DetectorScore score;
  if (tp + fp > 0) score.precision = static_cast<double>(tp) / (tp + fp);
  if (tp + fn > 0) score.recall = static_cast<double>(tp) / (tp + fn);
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  auto config = bench::ParseConfig(argc, argv);
  bench::PrintConfig("Ablation: derived detection delta d / coverage c",
                     config);

  auto corpus = datagen::ConcatCorpora({bench::MakeCorpus(config, "SAUS"),
                                        bench::MakeCorpus(config, "CIUS"),
                                        bench::MakeCorpus(config, "DeEx")});

  TablePrinter printer({"delta d", "coverage c", "precision", "recall"});
  for (double delta : {0.01, 0.05, 0.1, 0.2, 0.5}) {
    for (double coverage : {0.25, 0.5, 0.75}) {
      DerivedDetectorOptions options;
      options.delta = delta;
      options.coverage = coverage;
      DetectorScore score = ScoreDetector(corpus, options);
      printer.AddRow({StrFormat("%.2f", delta),
                      StrFormat("%.2f", coverage),
                      TablePrinter::Score(score.precision),
                      TablePrinter::Score(score.recall)});
    }
  }
  std::printf("%s\n", printer.ToString().c_str());

  // End-to-end effect on the derived line class at two settings.
  for (double delta : {0.1, 0.5}) {
    eval::StrudelLineAlgo::Options options = bench::LineAlgoOptions(config);
    options.display_name = StrFormat("Strudel^L(d=%.1f,c=0.5)", delta);
    options.model.features.derived_options.delta = delta;
    auto algo = std::make_shared<eval::StrudelLineAlgo>(options);
    auto results = eval::RunLineCv(corpus, {algo}, bench::MakeCv(config));
    const int kDerived = static_cast<int>(ElementClass::kDerived);
    std::printf("%s derived-line F1 = %.3f (macro %.3f)\n",
                results[0].algo.c_str(),
                results[0].report.per_class_f1[kDerived],
                results[0].report.macro_f1);
  }
  std::printf(
      "\npaper claim: no substantial difference across d and c; defaults "
      "d=0.1, c=0.5\n");
  return 0;
}
