// pipebench_tool: the benchmark's worker binary, driven by run.py.
//
//   pipebench_tool gen-train <dir>
//       writes the fixed training corpus (CSV + .labels pairs)
//   pipebench_tool gen <workload> <seed> <work_dir>
//       writes <work_dir>/inputs and <work_dir>/labels for one seed,
//       and the accuracy set under <work_dir>/accuracy
//   pipebench_tool run <workload> <seed> <seconds> <trace 0|1> <work_dir>
//                      <model> <strudel_cli>
//       runs the workload on <work_dir>'s inputs and prints one JSON
//       record: host and configuration, validity, counts and metrics
//
// Every workload runs in its own process, so peak RSS is its own.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using pipebench::RunConfig;
using pipebench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench_tool gen-train <dir>\n"
               "       pipebench_tool gen <workload> <seed> <work_dir>\n"
               "       pipebench_tool run <workload> <seed> <seconds> "
               "<trace> <work_dir> <model> <strudel_cli>\n");
  return 2;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string Absolute(const std::string& path) {
  return std::filesystem::absolute(path).lexically_normal().string();
}

int Run(const RunConfig& config) {
  RunResult result = pipebench::RunLibraryWorkload(config);
  std::string problems = "[";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    if (i > 0) problems += ", ";
    problems += pipebench::Quoted(result.problems[i]);
  }
  problems += "]";
  result.record.Bool("valid", result.valid)
      .Raw("problems", problems)
      .Str("digest", result.digest)
      .Int("attempted", result.attempted)
      .Int("failed", result.failed)
      .Raw("metrics", pipebench::MetricsJson(result.metrics));
  std::printf("%s\n", result.record.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  if (command == "gen-train" && argc == 3) {
    const strudel::Status status = pipebench::WriteTrainingCorpus(argv[2]);
    if (!status.ok()) {
      std::fprintf(stderr, "gen-train: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "gen" && argc == 5) {
    const std::string work = argv[4];
    const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
    strudel::Status status = pipebench::WriteWorkloadInputs(
        argv[2], seed, work + "/inputs", work + "/labels");
    if (status.ok()) {
      status = pipebench::WriteAccuracyInputs(argv[2], seed,
                                              work + "/accuracy/inputs",
                                              work + "/accuracy/labels");
    }
    if (!status.ok()) {
      std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "run" && argc == 9) {
    RunConfig config;
    config.workload = argv[2];
    config.seed = std::strtoull(argv[3], nullptr, 10);
    config.seconds = std::strtod(argv[4], nullptr);
    config.trace = std::string(argv[5]) == "1";
    config.work_dir = Absolute(argv[6]);
    config.inputs_dir = config.work_dir + "/inputs";
    config.labels_dir = config.work_dir + "/labels";
    config.accuracy_inputs_dir = config.work_dir + "/accuracy/inputs";
    config.accuracy_labels_dir = config.work_dir + "/accuracy/labels";
    config.model_path = Absolute(argv[7]);
    config.strudel_cli = Absolute(argv[8]);
    config.nproc = AvailableCpus();
    // Thread counts are explicit and never exceed the CPUs available.
    // portal_batch fans files out (the `strudel batch` setting: one
    // thread per file, model loops serial); the single-file workloads
    // thread inside each file (`strudel classify --threads nproc`).
    const int n = config.nproc;
    if (config.workload == "portal_batch") {
      config.batch_threads = n;
      config.model_threads = 1;
      config.reader_threads = n;
      config.reference_threads = 1;
    } else if (config.workload == "mendeley_large" ||
               config.workload == "keyword_rows") {
      config.batch_threads = 1;
      config.model_threads = n;
      config.reader_threads = n;
      config.reference_threads = n > 1 ? std::max(1, n / 2) : 1;
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
      return 2;
    }
    return Run(config);
  }
  return Usage();
}
