// Shared bench configuration: corpus scaling, CV protocol, and algorithm
// factories. Every bench binary reproduces one table/figure of the paper.
//
// Defaults are sized for a small CI machine; pass --full (or set
// STRUDEL_BENCH_FULL=1) to run the paper protocol (paper-scale corpora,
// 10 repetitions of 10-fold CV). Individual knobs can be overridden via
// environment variables:
//   STRUDEL_BENCH_FILE_SCALE   fraction of Table 4 file counts  (0.1)
//   STRUDEL_BENCH_SIZE_SCALE   fraction of per-file row counts  (0.3)
//   STRUDEL_BENCH_FOLDS        CV folds                         (5)
//   STRUDEL_BENCH_REPS         CV repetitions                   (1)
//   STRUDEL_BENCH_TREES        random-forest size               (20)
//   STRUDEL_BENCH_SEED         master seed                      (42)

#ifndef STRUDEL_BENCH_BENCH_UTIL_H_
#define STRUDEL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "eval/algos.h"
#include "eval/experiment.h"
#include "eval/report.h"

namespace strudel::bench {

struct BenchConfig {
  double file_scale = 0.1;
  double size_scale = 0.3;
  int folds = 5;
  int repetitions = 1;
  int trees = 20;
  uint64_t seed = 42;
  bool full = false;
};

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

inline BenchConfig ParseConfig(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") config.full = true;
  }
  if (std::getenv("STRUDEL_BENCH_FULL") != nullptr) config.full = true;
  if (config.full) {
    config.file_scale = 1.0;
    config.size_scale = 1.0;
    config.folds = 10;
    config.repetitions = 10;
    config.trees = 100;
  }
  config.file_scale = EnvDouble("STRUDEL_BENCH_FILE_SCALE", config.file_scale);
  config.size_scale = EnvDouble("STRUDEL_BENCH_SIZE_SCALE", config.size_scale);
  config.folds = EnvInt("STRUDEL_BENCH_FOLDS", config.folds);
  config.repetitions = EnvInt("STRUDEL_BENCH_REPS", config.repetitions);
  config.trees = EnvInt("STRUDEL_BENCH_TREES", config.trees);
  config.seed = static_cast<uint64_t>(EnvInt("STRUDEL_BENCH_SEED", 42));
  return config;
}

inline void PrintConfig(const char* experiment, const BenchConfig& config) {
  std::printf("== %s ==\n", experiment);
  std::printf(
      "corpus: %.0f%% of Table 4 file counts, %.0f%% row scale; "
      "CV: %dx%d-fold; forest: %d trees; seed %llu%s\n\n",
      config.file_scale * 100.0, config.size_scale * 100.0,
      config.repetitions, config.folds, config.trees,
      static_cast<unsigned long long>(config.seed),
      config.full ? " [FULL protocol]" : "");
}

/// Generated corpus for one paper dataset under the bench scaling.
inline std::vector<AnnotatedFile> MakeCorpus(const BenchConfig& config,
                                             const std::string& name,
                                             double extra_size_scale = 1.0) {
  datagen::DatasetProfile profile = datagen::ProfileByName(name);
  profile = datagen::ScaledProfile(profile, config.file_scale,
                                   config.size_scale * extra_size_scale);
  return datagen::GenerateCorpus(profile, config.seed ^
                                              std::hash<std::string>{}(name));
}

/// Mendeley files are ~40x larger than the other corpora; shrink further
/// in quick mode so the bench stays responsive on small machines.
inline double MendeleyExtraScale(const BenchConfig& config) {
  return config.full ? 1.0 : 0.25;
}

inline eval::CvOptions MakeCv(const BenchConfig& config) {
  eval::CvOptions cv;
  cv.folds = config.folds;
  cv.repetitions = config.repetitions;
  cv.seed = config.seed;
  return cv;
}

inline eval::StrudelLineAlgo::Options LineAlgoOptions(
    const BenchConfig& config) {
  eval::StrudelLineAlgo::Options options;
  options.model.forest.num_trees = config.trees;
  options.model.forest.seed = config.seed;
  return options;
}

inline eval::StrudelCellAlgo::Options CellAlgoOptions(
    const BenchConfig& config) {
  eval::StrudelCellAlgo::Options options;
  options.model.forest.num_trees = config.trees;
  options.model.forest.seed = config.seed;
  options.model.line.forest.num_trees = config.trees;
  options.model.line.forest.seed = config.seed;
  options.model.seed = config.seed;
  return options;
}

inline baselines::CrfLineOptions CrfAlgoOptions(const BenchConfig& config) {
  baselines::CrfLineOptions options;
  options.crf.epochs = config.full ? 40 : 12;
  options.crf.seed = config.seed;
  return options;
}

inline baselines::RnnCellOptions RnnAlgoOptions(const BenchConfig& config) {
  baselines::RnnCellOptions options;
  options.mlp.epochs = config.full ? 60 : 30;
  options.mlp.learning_rate = 0.02;
  options.mlp.seed = config.seed;
  return options;
}

}  // namespace strudel::bench

#endif  // STRUDEL_BENCH_BENCH_UTIL_H_
