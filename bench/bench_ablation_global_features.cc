// §4 ablation: global file-level features. The paper tested four global
// features (percentage of empty lines, file width, file length, number of
// empty line blocks) and found "no positive impact on the classification
// problem". This bench runs Strudel^L with and without them.

#include <cstdio>

#include "bench_util.h"

using namespace strudel;

int main(int argc, char** argv) {
  auto config = bench::ParseConfig(argc, argv);
  bench::PrintConfig("Ablation: global file-level line features", config);

  for (const char* dataset : {"SAUS", "GovUK"}) {
    auto corpus = bench::MakeCorpus(config, dataset);

    auto local_only = std::make_shared<eval::StrudelLineAlgo>(
        bench::LineAlgoOptions(config));

    eval::StrudelLineAlgo::Options with_global =
        bench::LineAlgoOptions(config);
    with_global.display_name = "Strudel^L(+global)";
    with_global.model.features.include_global_features = true;
    auto global_algo = std::make_shared<eval::StrudelLineAlgo>(with_global);

    auto results = eval::RunLineCv(corpus, {local_only, global_algo},
                                   bench::MakeCv(config));
    std::printf("%s\n", eval::FormatResultsTable(dataset, results,
                                                 "# lines")
                            .c_str());
  }
  std::printf(
      "paper claim: the global features show no positive impact — the two "
      "macro-averages should be statistically indistinguishable\n");
  return 0;
}
