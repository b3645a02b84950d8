// strudel — command-line front end for the library.
//
//   strudel gen <dataset> <dir> [files] [seed]   generate an annotated corpus
//   strudel train <corpus-dir> <model-file>      train Strudel^C, save model
//   strudel classify <model-file> <input.csv>    per-line/cell classes
//   strudel extract <model-file> <input.csv>     relational tables (CSV)
//   strudel batch <model-file> <in-dir> <out-dir> classify a directory
//   strudel serve <model-file> <socket>          long-lived service
//   strudel client <socket> <input.csv>...       send requests to a server
//   strudel inspect <input.csv>                  dialect + shape report
//   strudel doctor <input.csv>                   ingestion health report
//
// A full round trip:
//   strudel gen saus /tmp/corpus 20
//   strudel train /tmp/corpus /tmp/strudel.model
//   strudel classify /tmp/strudel.model some_portal_file.csv
//
// classify/extract/inspect go through the hardened ingestion pipeline
// (strudel/ingest.h): corrupt-ish input is sanitized and recovered rather
// than aborting, and anything that had to be repaired is summarized on
// stderr. The global --budget-ms flag puts training and inference under a
// wall-clock ExecutionBudget; `batch` applies a fresh budget per file and
// quarantines failures instead of aborting the run. The global --threads
// flag sets the worker count for training, inference and the batch file
// loop (0 = hardware concurrency, 1 = serial); outputs are bit-identical
// at any thread count.
//
// Long-running commands honour SIGINT/SIGTERM: `batch` stops starting new
// files, cancels in-flight budgets, and still writes report.json (with
// "interrupted": true) before exiting with the interrupted code; `serve`
// drains gracefully — stops accepting, finishes or deadline-cancels
// in-flight requests, prints the final stats report.
//
// Observability: --trace <file> captures every pipeline stage as spans and
// writes a chrome://tracing-loadable JSON on exit; --metrics <file> dumps
// the process-wide counter/gauge/histogram registry. Both wrap whichever
// command runs, cost nothing when absent, and never change the exit code
// of a command that already failed.
//
// Exit codes distinguish failure classes so scripts can branch without
// scraping stderr; common/exit_codes.h is the single source of truth and
// the usage footer is generated from it. Every failure additionally emits
// one structured stderr record:
//   strudel: error stage=<stage> code=<status-code> file="..." msg="..."

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/execution_budget.h"
#include "common/exit_codes.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "csv/crop.h"
#include "csv/dialect_detector.h"
#include "csv/reader.h"
#include "csv/writer.h"
#include "datagen/annotated_io.h"
#include "datagen/corpus.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "strudel/batch_runner.h"
#include "strudel/ingest.h"
#include "strudel/model_io.h"
#include "strudel/segmentation.h"

using namespace strudel;

namespace {

/// Global --scan-mode flag: how every ingestion parses CSV (auto routes
/// each file to the structural indexer when its dialect allows).
csv::ScanMode g_scan_mode = csv::ScanMode::kAuto;

/// Global --io-mode flag: how file inputs are loaded (auto memory-maps
/// large regular files and buffers pipes/stdin/small files).
csv::IoMode g_io_mode = csv::IoMode::kAuto;

/// Global --threads flag, mirrored here so ingestion's chunk-parallel
/// structural indexing fans a single huge file across the pool.
int g_threads = 0;

/// Ingest options carrying the global CLI flags.
IngestOptions MakeIngestOptions() {
  IngestOptions options;
  options.reader.scan_mode = g_scan_mode;
  options.reader.io_mode = g_io_mode;
  options.reader.num_threads = g_threads;
  return options;
}

/// SIGINT/SIGTERM land here. Handlers only set the flag (the one
/// async-signal-safe thing to do); batch's watchdog and serve's drain
/// loop poll it from normal context.
std::atomic<bool> g_interrupt{false};

extern "C" void HandleSignal(int) {
  g_interrupt.store(true, std::memory_order_relaxed);
}

/// Routes SIGINT/SIGTERM to the cooperative flag for the duration of a
/// long-running command; restores the previous disposition on scope exit
/// so short commands keep default kill-me semantics.
class ScopedSignalTrap {
 public:
  ScopedSignalTrap() {
    struct sigaction action = {};
    action.sa_handler = HandleSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalTrap() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }

 private:
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: strudel [--budget-ms <n>] [--threads <n>]\n"
      "               [--scan-mode <scalar|swar|auto>]\n"
      "               [--io-mode <buffered|mmap|auto>]\n"
      "               [--trace <out.json>] [--metrics <out.json>]\n"
      "               <command> ...\n"
      "  --threads <n>: workers for train/classify/extract/batch and for\n"
      "                 chunk-parallel scanning within one large file;\n"
      "                 0 = hardware concurrency (default), 1 = serial\n"
      "  --scan-mode:   CSV scan path: auto (default) picks the SIMD/SWAR\n"
      "                 structural indexer when the dialect supports it;\n"
      "                 scalar forces the byte-at-a-time reference reader;\n"
      "                 swar demands the indexer (fails on unsupported\n"
      "                 dialects)\n"
      "  --io-mode:     how file inputs are loaded: auto (default) memory-\n"
      "                 maps regular files >= 64 KB; mmap maps whenever\n"
      "                 the kernel allows; buffered always reads into a\n"
      "                 private buffer. Pipes/stdin degrade to buffered;\n"
      "                 doctor reports the fallback reason\n"
      "  --trace:       write a chrome://tracing JSON of every pipeline\n"
      "                 stage the command ran (load it at ui.perfetto.dev)\n"
      "  --metrics:     write the flat metrics registry (counters, gauges,\n"
      "                 histograms) as JSON when the command finishes\n"
      "  strudel gen <govuk|saus|cius|deex|mendeley|troy> <dir> [files] "
      "[seed]\n"
      "  strudel train <corpus-dir> <model-file>\n"
      "  strudel classify <model-file> <input.csv>\n"
      "  strudel extract <model-file> <input.csv>\n"
      "  strudel batch <model-file> <input-dir> <output-dir>\n"
      "  strudel serve <model-file> <socket-path>\n"
      "      [--workers <n>] [--no-isolate] [--queue-depth <n>]\n"
      "      [--max-conn <n>] [--read-timeout-ms <n>]\n"
      "      [--write-timeout-ms <n>] [--drain-timeout-ms <n>]\n"
      "      [--retry-after-ms <n>] [--worker-delay-ms <n>]\n"
      "      [--quarantine-after <k>] [--watchdog-ms <n>]\n"
      "      [--worker-rlimit-as-mb <n>] [--worker-rlimit-nofile <n>]\n"
      "    serves from a supervisor + <n> isolated worker processes: a\n"
      "    crashed worker loses at most its in-flight request and is\n"
      "    respawned under backoff; payloads implicated in <k> crashes\n"
      "    are quarantined. --no-isolate restores the single-process\n"
      "    server (workers become threads)\n"
      "  strudel client <socket-path> <input.csv>... | --health | --metrics\n"
      "      [--retries <n>]\n"
      "  strudel inspect <input.csv>\n"
      "  strudel doctor <input.csv> | --serve <socket-path>\n"
      "exit codes: %s\n",
      CliExitCodesSummary().c_str());
  return kExitUsage;
}

/// One-line structured error record on stderr.
void PrintError(std::string_view stage, const Status& status,
                std::string_view file = {}) {
  std::fprintf(stderr,
               "strudel: error stage=%s code=%s file=\"%s\" msg=\"%s\"\n",
               std::string(stage).c_str(),
               std::string(StatusCodeToString(status.code())).c_str(),
               JsonEscape(file).c_str(), JsonEscape(status.message()).c_str());
}

std::shared_ptr<ExecutionBudget> MakeBudget(double budget_ms) {
  if (budget_ms <= 0.0) return nullptr;
  return ExecutionBudget::Limited(budget_ms / 1000.0);
}

/// Ingests `path` through the hardened pipeline; on success prints any
/// repair/diagnostic summary to stderr so the primary output stays clean.
Result<IngestResult> IngestWithSummary(const std::string& path) {
  auto ingest = IngestFile(path, MakeIngestOptions());
  if (ingest.ok() && !ingest->clean()) {
    std::fprintf(stderr, "note: input needed repairs (%s)\n",
                 ingest->sanitize.clean()
                     ? ingest->diagnostics.Summary().c_str()
                     : (ingest->sanitize.Summary() + "; " +
                        ingest->diagnostics.Summary())
                           .c_str());
  }
  return ingest;
}

int CmdGen(const std::vector<std::string>& args) {
  if (args.size() < 3) return Usage();
  datagen::DatasetProfile profile = datagen::ProfileByName(args[1]);
  if (profile.num_files == 0) {
    PrintError("gen", Status::InvalidArgument("unknown dataset: " + args[1]));
    return kExitUsage;
  }
  const int files = args.size() > 3 ? std::atoi(args[3].c_str()) : 20;
  const uint64_t seed =
      args.size() > 4 ? std::strtoull(args[4].c_str(), nullptr, 10) : 42;
  profile = datagen::ScaledProfile(
      profile, static_cast<double>(files) / profile.num_files, 0.5);
  profile.num_files = files;
  auto corpus = datagen::GenerateCorpus(profile, seed);
  Status status = datagen::SaveAnnotatedCorpus(corpus, args[2]);
  if (!status.ok()) {
    PrintError("gen", status, args[2]);
    return kExitOutput;
  }
  auto stats = datagen::ComputeStats(corpus);
  std::printf("wrote %d files (%lld lines, %lld cells) to %s\n",
              stats.num_files, stats.num_lines, stats.num_cells,
              args[2].c_str());
  return kExitOk;
}

int CmdTrain(const std::vector<std::string>& args, double budget_ms,
             int threads) {
  if (args.size() < 3) return Usage();
  auto corpus = datagen::LoadAnnotatedCorpus(args[1]);
  if (!corpus.ok()) {
    PrintError("ingest", corpus.status(), args[1]);
    return kExitIngest;
  }
  std::printf("training on %zu annotated files...\n", corpus->size());
  StrudelCellOptions options;
  options.forest.num_trees = 50;
  options.line.forest.num_trees = 50;
  options.budget = MakeBudget(budget_ms);
  StrudelCell model(options);
  model.set_num_threads(threads);
  Status status = model.Fit(*corpus);
  if (!status.ok()) {
    PrintError("train", status, args[1]);
    return ExitCodeForStatus(status, kExitTrain);
  }
  status = SaveModelToFile(model, args[2]);
  if (!status.ok()) {
    PrintError("output", status, args[2]);
    return kExitOutput;
  }
  std::printf("model saved to %s\n", args[2].c_str());
  return kExitOk;
}

int CmdClassify(const std::vector<std::string>& args, double budget_ms,
                int threads) {
  if (args.size() < 3) return Usage();
  auto model = LoadCellModelFromFile(args[1]);
  if (!model.ok()) {
    PrintError("model_load", model.status(), args[1]);
    return kExitModelLoad;
  }
  model->set_num_threads(threads);
  auto ingest = IngestWithSummary(args[2]);
  if (!ingest.ok()) {
    PrintError("ingest", ingest.status(), args[2]);
    return kExitIngest;
  }
  const csv::Table& table = ingest->table;
  std::printf("dialect: %s\n", ingest->dialect.ToString().c_str());
  auto budget = MakeBudget(budget_ms);
  auto prediction = model->TryPredict(table, budget.get());
  if (!prediction.ok()) {
    PrintError("predict", prediction.status(), args[2]);
    return ExitCodeForStatus(prediction.status(), kExitGeneric);
  }
  for (int r = 0; r < table.num_rows(); ++r) {
    std::printf("%4d %-8s |", r,
                std::string(ElementClassName(
                                prediction->line_prediction.classes
                                    [static_cast<size_t>(r)]))
                    .c_str());
    for (int c = 0; c < table.num_cols(); ++c) {
      if (table.cell_empty(r, c)) continue;
      std::printf(" %s:%c", std::string(table.cell(r, c)).c_str(),
                  ElementClassName(
                      prediction->classes[static_cast<size_t>(r)]
                                         [static_cast<size_t>(c)])[0]);
    }
    std::printf("\n");
  }
  return kExitOk;
}

int CmdExtract(const std::vector<std::string>& args, double budget_ms,
               int threads) {
  if (args.size() < 3) return Usage();
  auto model = LoadCellModelFromFile(args[1]);
  if (!model.ok()) {
    PrintError("model_load", model.status(), args[1]);
    return kExitModelLoad;
  }
  model->set_num_threads(threads);
  auto ingest = IngestWithSummary(args[2]);
  if (!ingest.ok()) {
    PrintError("ingest", ingest.status(), args[2]);
    return kExitIngest;
  }
  const csv::Table& table = ingest->table;
  auto budget = MakeBudget(budget_ms);
  auto lines = model->line_model().TryPredict(table, budget.get());
  if (!lines.ok()) {
    PrintError("predict", lines.status(), args[2]);
    return ExitCodeForStatus(lines.status(), kExitGeneric);
  }
  FileSegmentation segmentation = SegmentFile(table, lines->classes);
  auto tables = ExtractRelationalTables(table, segmentation);
  for (size_t t = 0; t < tables.size(); ++t) {
    std::printf("# table %zu\n", t + 1);
    std::vector<std::vector<std::string>> out;
    out.push_back(tables[t].header);
    for (const auto& row : tables[t].rows) out.push_back(row);
    std::printf("%s\n", csv::WriteCsv(out).c_str());
  }
  return kExitOk;
}

int CmdBatch(const std::vector<std::string>& args, double budget_ms,
             int threads) {
  if (args.size() < 4) return Usage();
  auto model = LoadCellModelFromFile(args[1]);
  if (!model.ok()) {
    PrintError("model_load", model.status(), args[1]);
    return kExitModelLoad;
  }
  // File-level parallelism owns the pool; the per-file prediction loops
  // detect the nesting and run serial inside each worker.
  model->set_num_threads(1);

  BatchOptions options;
  options.budget_ms = budget_ms;
  options.threads = threads;
  options.ingest = MakeIngestOptions();
  options.interrupt = &g_interrupt;

  ScopedSignalTrap trap;
  auto summary = RunBatch(*model, args[2], args[3], options);
  if (!summary.ok()) {
    PrintError("batch", summary.status(), args[2]);
    return ExitCodeForStatus(summary.status(),
                             summary.status().code() == StatusCode::kIOError
                                 ? kExitOutput
                                 : kExitGeneric);
  }
  for (const BatchEntry& entry : summary->entries) {
    if (!entry.skipped && !entry.status.ok()) {
      PrintError("batch/" + entry.stage, entry.status, entry.file);
    }
  }
  std::printf("batch: %zu processed, %zu succeeded, %zu quarantined, "
              "%zu skipped (%.2fs)%s; report: %s\n",
              summary->processed, summary->succeeded, summary->quarantined,
              summary->skipped, summary->elapsed_seconds,
              summary->interrupted ? " [interrupted]" : "",
              (std::filesystem::path(args[3]) / "report.json").string().c_str());
  if (summary->interrupted) return kExitInterrupted;
  return summary->quarantined == 0 ? kExitOk : kExitGeneric;
}

int CmdServe(const std::vector<std::string>& args, double budget_ms,
             int threads) {
  if (args.size() < 3) return Usage();
  serve::ServerOptions options;
  options.ingest = MakeIngestOptions();
  if (budget_ms > 0.0) options.default_budget_ms = budget_ms;
  options.socket_path = args[2];

  // Supervised (multi-process) serving is the default; --no-isolate
  // restores the single-process server where --workers means threads.
  bool isolate = true;
  int workers = threads > 0 ? threads : 2;
  serve::SupervisorOptions sup;

  for (size_t i = 3; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next_int = [&](long min_value) -> long {
      if (i + 1 >= args.size()) return min_value - 1;
      return std::strtol(args[++i].c_str(), nullptr, 10);
    };
    long value = 0;
    if (arg == "--workers") {
      if ((value = next_int(1)) < 1) return Usage();
      workers = static_cast<int>(value);
    } else if (arg == "--no-isolate") {
      isolate = false;
    } else if (arg == "--quarantine-after") {
      if ((value = next_int(1)) < 1) return Usage();
      sup.quarantine_after = static_cast<int>(value);
    } else if (arg == "--watchdog-ms") {
      if ((value = next_int(1)) < 1) return Usage();
      sup.watchdog_budget_ms = static_cast<int>(value);
    } else if (arg == "--worker-rlimit-as-mb") {
      if ((value = next_int(1)) < 1) return Usage();
      sup.worker_rlimit_as_mb = value;
    } else if (arg == "--worker-rlimit-nofile") {
      if ((value = next_int(1)) < 1) return Usage();
      sup.worker_rlimit_nofile = value;
    } else if (arg == "--enable-test-faults") {
      // Deterministic crash/freeze payloads for chaos tests and CI; never
      // useful in production, so it is deliberately undocumented in usage.
      options.enable_test_faults = true;
    } else if (arg == "--queue-depth") {
      if ((value = next_int(1)) < 1) return Usage();
      options.queue_depth = static_cast<size_t>(value);
    } else if (arg == "--max-conn") {
      if ((value = next_int(1)) < 1) return Usage();
      options.max_connections = static_cast<int>(value);
    } else if (arg == "--read-timeout-ms") {
      if ((value = next_int(1)) < 1) return Usage();
      options.read_timeout_ms = static_cast<int>(value);
    } else if (arg == "--write-timeout-ms") {
      if ((value = next_int(1)) < 1) return Usage();
      options.write_timeout_ms = static_cast<int>(value);
    } else if (arg == "--drain-timeout-ms") {
      if ((value = next_int(0)) < 0) return Usage();
      options.drain_timeout_ms = static_cast<int>(value);
    } else if (arg == "--retry-after-ms") {
      if ((value = next_int(0)) < 0) return Usage();
      options.retry_after_ms = static_cast<uint32_t>(value);
    } else if (arg == "--worker-delay-ms") {
      if ((value = next_int(0)) < 0) return Usage();
      options.worker_delay_ms = static_cast<double>(value);
    } else {
      return Usage();
    }
  }

  auto model = LoadCellModelFromFile(args[1]);
  if (!model.ok()) {
    PrintError("model_load", model.status(), args[1]);
    return kExitModelLoad;
  }
  // Requests are the unit of parallelism (worker processes or threads);
  // each request's inner loops stay serial so one request cannot starve
  // the rest of the pool.
  model->set_num_threads(1);

  if (!isolate) {
    // Single-process fallback: --workers means threads, exactly the
    // pre-supervision server.
    options.num_workers = workers;
    serve::Server server(std::move(*model), options);
    Status status = server.Start();
    if (!status.ok()) {
      PrintError("serve", status, options.socket_path);
      return kExitServe;
    }
    // Banner on stderr: stdout carries exactly one JSON object (the final
    // stats report), so scripts can parse it without filtering.
    std::fprintf(stderr,
                 "serving on %s (%d worker threads, queue depth %zu, "
                 "no isolation); SIGINT/SIGTERM drains\n",
                 options.socket_path.c_str(), options.num_workers,
                 options.queue_depth);
    std::fflush(stderr);

    {
      ScopedSignalTrap trap;
      while (!g_interrupt.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    std::fprintf(stderr, "strudel: draining...\n");
    server.RequestStop();
    Status drain = server.Wait();
    // The final report is the drain contract: every request accounted for.
    std::printf("%s\n", server.stats().ToJson().c_str());
    if (!drain.ok()) {
      PrintError("serve/drain", drain, options.socket_path);
      return kExitGeneric;  // shut down, but had to cancel stragglers
    }
    return kExitOk;
  }

  // Supervised serving: fork `workers` single-threaded processes sharing
  // the listener; a crashed worker loses at most its in-flight request.
  sup.server = options;
  sup.server.num_workers = 1;
  sup.num_workers = workers;
  serve::Supervisor supervisor(std::move(*model), sup);
  Status status = supervisor.Start();
  if (!status.ok()) {
    PrintError("serve", status, options.socket_path);
    return kExitServe;
  }
  std::fprintf(stderr,
               "serving on %s (%d isolated worker processes, queue depth "
               "%zu per worker); SIGINT/SIGTERM drains\n",
               options.socket_path.c_str(), sup.num_workers,
               options.queue_depth);
  std::fflush(stderr);

  Status drain;
  {
    ScopedSignalTrap trap;
    drain = supervisor.Run(
        [] { return g_interrupt.load(std::memory_order_relaxed); });
  }
  // The final report aggregates every worker generation plus the
  // supervisor's own inline answers; the accounting identity holds across
  // worker crashes via the crash_lost_* buckets.
  std::printf("%s\n", supervisor.HealthJson().c_str());
  if (!drain.ok()) {
    PrintError("serve/drain", drain, options.socket_path);
    return kExitGeneric;  // shut down, but had to cancel stragglers
  }
  return kExitOk;
}

/// Minimal value extraction from the flat health/stats JSON the serve
/// layer emits (no nested objects below one level, keys never repeat in a
/// conflicting position). Good enough for pretty-printing; scripts should
/// parse the raw JSON line instead.
bool JsonFindU64(const std::string& json, const std::string& key,
                 unsigned long long* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* p = json.c_str() + at + needle.size();
  char* end = nullptr;
  unsigned long long value = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *out = value;
  return true;
}

bool JsonFindStr(const std::string& json, const std::string& key,
                 std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  size_t start = at + needle.size();
  while (start < json.size() && json[start] == ' ') ++start;
  if (start >= json.size() || json[start] != '"') return false;
  ++start;
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return false;
  *out = json.substr(start, end - start);
  return true;
}

bool JsonHasTrue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  size_t p = at + needle.size();
  while (p < json.size() && json[p] == ' ') ++p;
  return json.compare(p, 4, "true") == 0;
}

/// Renders the supervision block of a health report as aligned stderr
/// lines. Returns false (printing nothing) when the report has no
/// "supervised" key — i.e. the daemon runs --no-isolate.
bool PrintSupervisedHealth(const std::string& json) {
  if (!JsonHasTrue(json, "supervised")) return false;
  unsigned long long live = 0, workers = 0, restarts = 0, crashes = 0;
  unsigned long long watchdog = 0, quarantine = 0, lost_conn = 0,
                     lost_req = 0, accepted = 0, completed = 0;
  std::string breaker = "?";
  JsonFindU64(json, "live_workers", &live);
  JsonFindU64(json, "workers", &workers);
  JsonFindU64(json, "worker_restarts", &restarts);
  JsonFindU64(json, "worker_crashes", &crashes);
  JsonFindU64(json, "watchdog_kills", &watchdog);
  JsonFindU64(json, "quarantine_size", &quarantine);
  JsonFindU64(json, "crash_lost_connections", &lost_conn);
  JsonFindU64(json, "crash_lost_requests", &lost_req);
  JsonFindU64(json, "accepted", &accepted);
  JsonFindU64(json, "completed", &completed);
  JsonFindStr(json, "breaker", &breaker);
  std::fprintf(stderr,
               "workers:     %llu/%llu live, %llu restarts "
               "(%llu crashes, %llu watchdog kills)\n"
               "breaker:     %s\n"
               "quarantine:  %llu payload(s)\n"
               "requests:    %llu accepted, %llu completed, "
               "%llu lost to crashes (%llu connections)\n",
               live, workers, restarts, crashes, watchdog, breaker.c_str(),
               quarantine, accepted, completed, lost_req, lost_conn);
  return true;
}

int CmdClient(const std::vector<std::string>& args, double budget_ms) {
  if (args.size() < 3) return Usage();
  serve::ClientOptions options;
  options.socket_path = args[1];
  if (budget_ms > 0.0) options.budget_ms = static_cast<uint32_t>(budget_ms);

  bool health = false;
  bool metrics = false;
  std::vector<std::string> inputs;
  for (size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--health") {
      health = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--retries") {
      if (i + 1 >= args.size()) return Usage();
      options.backoff.max_attempts = std::atoi(args[++i].c_str());
      if (options.backoff.max_attempts < 1) return Usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (!health && !metrics && inputs.empty()) return Usage();

  serve::Client client(options);
  if (health || metrics) {
    auto reply = health ? client.Health() : client.Metrics();
    if (!reply.ok()) {
      PrintError("client", reply.status(), args[1]);
      return kExitServe;
    }
    // Raw JSON stays the first stdout line (scripts parse it); the
    // human-readable supervision summary goes to stderr.
    std::printf("%s\n", reply->payload.c_str());
    if (health) PrintSupervisedHealth(reply->payload);
    return kExitOk;
  }

  int code = kExitOk;
  for (const std::string& input : inputs) {
    auto text = csv::ReadFileToString(input);
    if (!text.ok()) {
      PrintError("client/read", text.status(), input);
      code = std::max(code, static_cast<int>(kExitIngest));
      continue;
    }
    auto reply = client.Classify(*text);
    if (!reply.ok()) {
      PrintError("client", reply.status(), input);
      code = std::max(code, static_cast<int>(kExitServe));
      continue;
    }
    if (reply->code != serve::ResponseCode::kOk) {
      std::fprintf(stderr,
                   "strudel: server error file=\"%s\" code=%s trace=%llu "
                   "detail=\"%s\"\n",
                   JsonEscape(input).c_str(),
                   std::string(serve::ResponseCodeName(reply->code)).c_str(),
                   static_cast<unsigned long long>(reply->trace_id),
                   JsonEscape(reply->payload).c_str());
      switch (reply->code) {
        case serve::ResponseCode::kDeadlineExceeded:
          code = std::max(code, static_cast<int>(kExitBudget));
          break;
        case serve::ResponseCode::kIngestError:
          code = std::max(code, static_cast<int>(kExitIngest));
          break;
        case serve::ResponseCode::kQuarantined:
        case serve::ResponseCode::kWorkerCrashed:
          code = std::max(code, static_cast<int>(kExitWorker));
          break;
        default:
          code = std::max(code, static_cast<int>(kExitServe));
      }
      continue;
    }
    if (inputs.size() > 1) std::printf("# %s\n", input.c_str());
    std::printf("%s", reply->payload.c_str());
  }
  return code;
}

int CmdInspect(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto ingest = IngestWithSummary(args[1]);
  if (!ingest.ok()) {
    PrintError("ingest", ingest.status(), args[1]);
    return kExitIngest;
  }
  auto text = csv::ReadFileToString(args[1]);
  auto scores = csv::ScoreDialects(
      csv::Sanitize(text.ok() ? *text : std::string()));
  std::printf("dialect candidates (best first by consistency):\n");
  std::sort(scores.begin(), scores.end(),
            [](const csv::DialectScore& a, const csv::DialectScore& b) {
              return a.consistency > b.consistency;
            });
  for (size_t i = 0; i < scores.size() && i < 5; ++i) {
    std::printf("  %-34s consistency=%.4f (pattern %.3f, type %.3f)\n",
                scores[i].dialect.ToString().c_str(),
                scores[i].consistency, scores[i].pattern_score,
                scores[i].type_score);
  }
  std::printf("chosen: %s (source=%s, confidence=%.2f)\n",
              ingest->dialect.ToString().c_str(),
              std::string(csv::DialectSourceName(ingest->dialect_source))
                  .c_str(),
              ingest->dialect_confidence);
  const csv::Table& table = ingest->table;
  csv::CropExtent extent;
  csv::Table cropped = csv::CropMargins(table, &extent);
  std::printf("shape: %d x %d (%d non-empty cells); cropped to %d x %d\n",
              table.num_rows(), table.num_cols(), table.non_empty_count(),
              cropped.num_rows(), cropped.num_cols());
  return kExitOk;
}

int CmdDoctor(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  if (args[1] == "--serve") {
    // Live-daemon probe: fetch the health report over the socket and
    // render the supervision summary a human actually wants to read.
    if (args.size() < 3) return Usage();
    serve::ClientOptions options;
    options.socket_path = args[2];
    serve::Client client(options);
    auto reply = client.Health();
    if (!reply.ok()) {
      PrintError("doctor/serve", reply.status(), args[2]);
      return kExitServe;
    }
    std::printf("%s\n", reply->payload.c_str());
    if (!PrintSupervisedHealth(reply->payload)) {
      std::fprintf(stderr,
                   "daemon is running without worker isolation "
                   "(--no-isolate)\n");
    }
    return kExitOk;
  }
  auto ingest = IngestFile(args[1], MakeIngestOptions());
  if (!ingest.ok()) {
    PrintError("ingest", ingest.status(), args[1]);
    return kExitIngest;
  }
  std::printf("%s\n", ingest->Report().c_str());
  std::printf("verdict:  %s\n",
              ingest->clean()
                  ? "clean — parses without repairs"
                  : (ingest->recovered
                         ? "recovered — parse needed recovery mode"
                         : "repaired — parses after tolerated repairs"));
  // Observability summary: every counter the ingestion touched. The
  // csv.scan.fallback.<reason> counters distinguish an indexer capability
  // gap (unsupported dialect) from damaged input that forced the
  // conservative scalar re-parse (recovery_forced).
  const auto totals = metrics::CounterTotals();
  if (!totals.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : totals) {
      std::printf("  %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  return kExitOk;
}

}  // namespace

namespace {

/// Dispatches to the command handler; factored out so the observability
/// wrapper in main() brackets exactly the command's work.
int RunCommand(const std::vector<std::string>& args, double budget_ms,
               int threads) {
  const std::string& command = args[0];
  if (command == "gen") return CmdGen(args);
  if (command == "train") return CmdTrain(args, budget_ms, threads);
  if (command == "classify") return CmdClassify(args, budget_ms, threads);
  if (command == "extract") return CmdExtract(args, budget_ms, threads);
  if (command == "batch") return CmdBatch(args, budget_ms, threads);
  if (command == "serve") return CmdServe(args, budget_ms, threads);
  if (command == "client") return CmdClient(args, budget_ms);
  if (command == "inspect") return CmdInspect(args);
  if (command == "doctor") return CmdDoctor(args);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  double budget_ms = 0.0;
  int threads = 0;  // 0 = hardware concurrency
  std::string trace_path;
  std::string metrics_path;
  bool saw_command = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Global flags stop at the command word: everything after it belongs
    // to the subcommand (so `serve --workers 4` is not eaten here).
    if (saw_command) {
      args.push_back(arg);
      continue;
    }
    if (arg == "--budget-ms") {
      if (i + 1 >= argc) return Usage();
      budget_ms = std::atof(argv[++i]);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      budget_ms = std::atof(arg.substr(12).c_str());
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return Usage();
      threads = std::atoi(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.substr(10).c_str());
    } else if (arg == "--scan-mode") {
      if (i + 1 >= argc || !csv::ParseScanMode(argv[++i], &g_scan_mode)) {
        return Usage();
      }
    } else if (arg.rfind("--scan-mode=", 0) == 0) {
      if (!csv::ParseScanMode(arg.substr(12), &g_scan_mode)) return Usage();
    } else if (arg == "--io-mode") {
      if (i + 1 >= argc || !csv::ParseIoMode(argv[++i], &g_io_mode)) {
        return Usage();
      }
    } else if (arg.rfind("--io-mode=", 0) == 0) {
      if (!csv::ParseIoMode(arg.substr(10), &g_io_mode)) return Usage();
    } else if (arg == "--trace") {
      if (i + 1 >= argc) return Usage();
      trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) return Usage();
      metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else {
      args.push_back(arg);
      saw_command = true;
    }
  }
  if (threads < 0) return Usage();
  g_threads = threads;
  if (args.empty()) return Usage();

  if (!trace_path.empty()) trace::StartCapture();
  int code = RunCommand(args, budget_ms, threads);

  // Export failures surface on stderr and only downgrade a *successful*
  // command to the output-failure exit code; a command that already failed
  // keeps its more specific code.
  if (!trace_path.empty()) {
    Status status = trace::WriteChromeJson(trace_path, trace::StopCapture());
    if (!status.ok()) {
      PrintError("trace", status, trace_path);
      if (code == kExitOk) code = kExitOutput;
    }
  }
  if (!metrics_path.empty()) {
    Status status = metrics::WriteJson(metrics_path);
    if (!status.ok()) {
      PrintError("metrics", status, metrics_path);
      if (code == kExitOk) code = kExitOutput;
    }
  }
  return code;
}
