// §6.1.2 ablation: backbone classifier choice. The paper tested Naive
// Bayes, KNN, SVM and random forest and reports that "random forest
// consistently outperformed the other candidate algorithms on our
// datasets for both classification tasks". This bench swaps the backbone
// of Strudel^L while keeping the feature pipeline fixed: the forest row
// runs the production StrudelLine, the others eval::BackboneLineAlgo.

#include <cstdio>

#include "bench_util.h"
#include "ml/knn.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/svm.h"

using namespace strudel;

int main(int argc, char** argv) {
  auto config = bench::ParseConfig(argc, argv);
  bench::PrintConfig("Ablation: backbone classifier choice (Strudel^L)",
                     config);

  for (const char* dataset : {"SAUS", "DeEx"}) {
    auto corpus = bench::MakeCorpus(config, dataset);

    auto forest_algo = std::make_shared<eval::StrudelLineAlgo>(
        bench::LineAlgoOptions(config));

    // The same line features and normalisation, another backbone.
    auto nb_algo = std::make_shared<eval::BackboneLineAlgo>(
        "Strudel^L(NaiveBayes)", std::make_shared<ml::GaussianNaiveBayes>());
    auto knn_algo = std::make_shared<eval::BackboneLineAlgo>(
        "Strudel^L(KNN)",
        std::make_shared<ml::KnnClassifier>(ml::KnnOptions{5, true}));
    ml::MlpOptions mlp;
    mlp.epochs = config.full ? 40 : 15;
    mlp.seed = config.seed;
    auto mlp_algo = std::make_shared<eval::BackboneLineAlgo>(
        "Strudel^L(MLP)", std::make_shared<ml::Mlp>(mlp));
    ml::SvmOptions svm;
    svm.epochs = config.full ? 60 : 25;
    svm.seed = config.seed;
    auto svm_algo = std::make_shared<eval::BackboneLineAlgo>(
        "Strudel^L(SVM)", std::make_shared<ml::LinearSvm>(svm));

    auto results = eval::RunLineCv(
        corpus, {forest_algo, nb_algo, knn_algo, svm_algo, mlp_algo},
        bench::MakeCv(config));
    std::printf("%s\n", eval::FormatResultsTable(dataset, results,
                                                 "# lines")
                            .c_str());
  }
  std::printf(
      "paper claim: the random forest backbone consistently beats the "
      "alternatives on macro-average\n");
  return 0;
}
