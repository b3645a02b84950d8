// The idle serve probe of the traced run: the real `strudel serve`
// daemon (supervised, two forked workers) fed the workload's own inputs
// one at a time over one connection, so the serve layer's per-layer
// metrics have a value on every workload.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "csv/reader.h"
#include "serve/client.h"
#include "strudel/batch_runner.h"
#include "strudel/ingest.h"
#include "workloads.h"

extern char** environ;

namespace pipebench {

namespace fs = std::filesystem;
using namespace strudel;

namespace {

constexpr int kServeWorkers = 2;
/// The socket lives in the work directory, addressed relative to it, so
/// deep checkout paths never exceed the unix socket path limit.
constexpr const char* kSocket = "serve.sock";

/// Unsigned integer value of `"key": N` in the daemon's flat JSON.
bool JsonU64(const std::string& json, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtod(json.c_str() + at + needle.size(), nullptr);
  return true;
}

std::vector<std::string> WorkerPids(const std::string& json) {
  std::vector<std::string> pids;
  const size_t at = json.find("\"worker_pids\": [");
  if (at == std::string::npos) return pids;
  const size_t end = json.find(']', at);
  std::istringstream list(json.substr(at + 16, end - at - 16));
  std::string pid;
  while (std::getline(list, pid, ',')) {
    pid = Trim(pid);
    if (!pid.empty() && pid != "0") pids.push_back(pid);
  }
  return pids;
}

/// utime + stime of a process, in ms.
double ProcessCpuMsOf(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

serve::ClientOptions ClientOpts() {
  serve::ClientOptions options;
  options.socket_path = kSocket;
  options.io_timeout_ms = 30000;
  options.backoff.max_attempts = 1;  // a shed is a failure, not a retry
  return options;
}

/// One spawned `strudel serve`; SIGKILLed and reaped if never stopped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  Status Spawn(const RunConfig& config) {
    std::error_code ec;
    fs::remove(kSocket, ec);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return Status::IOError("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "serve.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string workers = std::to_string(kServeWorkers);
    std::vector<std::string> args = {config.strudel_cli, "serve",
                                     config.model_path,  kSocket,
                                     "--workers",        workers};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, config.strudel_cli.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      return Status::IOError("cannot spawn " + config.strudel_cli);
    }
    return Status::OK();
  }

  /// Polls health every 0.5 ms until all workers are live.
  bool WaitReady(double timeout_ms) {
    const auto start = SteadyClock::now();
    serve::ClientOptions options = ClientOpts();
    options.io_timeout_ms = 1000;
    while (MsSince(start) < timeout_ms) {
      serve::Client client(options);
      auto reply = client.Health();
      double live = 0.0;
      if (reply.ok() && JsonU64(reply->payload, "live_workers", &live) &&
          live >= kServeWorkers) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return false;
  }

  std::string Health() const {
    serve::Client client(ClientOpts());
    auto reply = client.Health();
    return reply.ok() ? reply->payload : "";
  }

  /// SIGTERM (drain), then the final health JSON from stdout.
  std::string Stop() {
    if (pid_ <= 0) return "";
    ::kill(pid_, SIGTERM);
    std::string out;
    const auto start = SteadyClock::now();
    char buffer[4096];
    while (MsSince(start) < 20000) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t got = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (got <= 0) break;
      out.append(buffer, static_cast<size_t>(got));
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return out;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

double WorkersCpuMs(const std::vector<std::string>& pids) {
  double ms = 0.0;
  for (const std::string& pid : pids) ms += ProcessCpuMsOf(pid);
  return ms;
}

/// Checks the drain report's accounting identity.
bool IdentityHolds(const std::string& json, std::string* detail) {
  static const char* const kRight[] = {
      "admitted",         "shed_queue",        "shed_connections",
      "rejected_draining", "malformed",        "payload_too_large",
      "io_failed",        "inline_answered",   "quarantined"};
  double accepted = 0.0, lost = 0.0;
  if (!JsonU64(json, "accepted", &accepted) ||
      !JsonU64(json, "crash_lost_connections", &lost)) {
    *detail = "final health JSON missing";
    return false;
  }
  double right = 0.0;
  for (const char* key : kRight) {
    double value = 0.0;
    if (!JsonU64(json, key, &value)) {
      *detail = std::string("final health JSON lacks ") + key;
      return false;
    }
    right += value;
  }
  *detail = StrFormat("accepted + crash_lost_connections = %.0f, buckets = "
                      "%.0f",
                      accepted + lost, right);
  return accepted + lost == right;
}

/// In-process library path for one payload, set up like a serve worker.
std::string LibraryClassify(const StrudelCell& model,
                            const std::string& payload) {
  IngestOptions ingest;
  ingest.reader.num_threads = 1;
  auto table = IngestText(payload, ingest);
  if (!table.ok()) return "";
  auto prediction = model.TryPredict(table->table);
  if (!prediction.ok()) return "";
  return FormatClassifiedTable(table->table, *prediction);
}

/// The probed inputs' bytes, by input index (others stay empty).
std::vector<std::string> ReadPayloads(const std::vector<LabeledInput>& inputs,
                                      const std::vector<size_t>& probe) {
  std::vector<std::string> payloads(inputs.size());
  for (size_t i : probe) {
    auto bytes = csv::ReadFileToString(inputs[i].path);
    if (bytes.ok()) payloads[i] = *std::move(bytes);
  }
  return payloads;
}

}  // namespace

void AddServeProbeMetrics(const RunConfig& config,
                          const std::vector<LabeledInput>& inputs,
                          const std::vector<size_t>& probe,
                          const StrudelCell& model, RunResult& result) {
  const fs::path previous = fs::current_path();
  fs::current_path(config.work_dir);
  const std::vector<std::string> payloads = ReadPayloads(inputs, probe);
  std::vector<std::string> expected(payloads.size());
  for (size_t i : probe) expected[i] = LibraryClassify(model, payloads[i]);

  Daemon daemon;
  Status spawned = daemon.Spawn(config);
  if (!spawned.ok() || !daemon.WaitReady(30000)) {
    result.Problem("serve probe: daemon not ready");
    fs::current_path(previous);
    return;
  }
  const std::vector<std::string> pids = WorkerPids(daemon.Health());
  const double cpu_before = WorkersCpuMs(pids);
  const auto start = SteadyClock::now();
  serve::Client client(ClientOpts());
  std::vector<double> overhead;
  double outstanding_ms = 0.0;
  for (size_t i : probe) {
    const auto sent = SteadyClock::now();
    auto reply = client.Classify(payloads[i]);
    const double round_trip = MsSince(sent);
    outstanding_ms += round_trip;
    const auto library_start = SteadyClock::now();
    const std::string library = LibraryClassify(model, payloads[i]);
    const double library_ms = MsSince(library_start);
    ++result.attempted;
    if (!reply.ok() || reply->code != serve::ResponseCode::kOk ||
        reply->payload != expected[i] || library != expected[i]) {
      ++result.failed;
      result.Problem("serve probe: reply differs for " + inputs[i].name);
      continue;
    }
    overhead.push_back(round_trip - library_ms);
  }
  const double wall_ms = MsSince(start);
  const double cpu_ms = WorkersCpuMs(pids) - cpu_before;
  const std::string final_json = daemon.Stop();
  double shed_queue = 0.0, shed_connections = 0.0;
  JsonU64(final_json, "shed_queue", &shed_queue);
  JsonU64(final_json, "shed_connections", &shed_connections);
  result.metrics["serve.overhead_ms"] = {Median(overhead), "ms"};
  // Requests in flight, time-averaged over the probe. The supervised
  // daemon's health JSON aggregates counters only and reports
  // queue_depth and in_flight as 0, so the client side measures it.
  result.metrics["serve.queue_depth_mean"] = {outstanding_ms / wall_ms,
                                              "requests"};
  result.metrics["serve.worker_cpu_share"] = {
      cpu_ms / (wall_ms * config.nproc), "ratio"};
  result.metrics["serve.shed"] = {shed_queue + shed_connections, "count"};
  std::string detail;
  const bool identity = IdentityHolds(final_json, &detail);
  result.record.Int("serve_probe_requests", static_cast<long long>(probe.size()))
      .Bool("serve_accounting_identity_ok", identity)
      .Str("serve_accounting_identity", detail);
  if (!identity) result.Problem("serve accounting identity: " + detail);
  fs::current_path(previous);
}

}  // namespace pipebench
