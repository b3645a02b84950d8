#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/trace.h"

namespace strudel {

namespace {

// Set while the current thread is executing chunks (as a pool worker or
// as the caller of an active parallel loop). A nested ParallelFor on such
// a thread must not wait on the pool — the outer loop owns it — so it
// falls back to the serial path.
thread_local bool t_inside_parallel_region = false;

}  // namespace

// One parallel loop in flight. Chunk dispatch is a single atomic counter:
// fetch_add(grain) hands out the boundaries begin, begin+grain, ... in a
// fixed arithmetic sequence, so the partition is identical no matter which
// worker claims which chunk. `stop` is the cooperative cancellation flag —
// first failure or budget trip sets it and the remaining chunks are never
// started (already-running chunks finish).
struct ThreadPool::Job {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t grain = 1;
  const ChunkFunction* fn = nullptr;
  ExecutionBudget* budget = nullptr;

  std::atomic<bool> stop{false};
  std::mutex error_mu;
  Status first_error;  // first non-OK chunk Status, verbatim

  // Span path of the dispatching loop (empty unless tracing is enabled).
  // Workers install it so their chunk spans parent under the loop's span
  // regardless of which physical thread runs them.
  std::vector<const char*> trace_parent;

  // Guarded by the pool's mu_: how many extra workers may still join and
  // how many are currently inside RunChunks.
  int slots = 0;
  int active = 0;
};

ThreadPool::ThreadPool(int num_threads) {
  const int total = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(total - 1));
  for (int i = 0; i < total - 1; ++i) {
    workers_.emplace_back([this, i] {
      trace::SetThreadTrack(static_cast<uint32_t>(i) + 1);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(0);  // intentionally leaked:
  return *pool;  // worker threads must not outlive a destructed pool
}

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested != 0) return std::max(1, requested);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

Status ThreadPool::SerialFor(size_t begin, size_t end, size_t grain,
                             const ChunkFunction& fn,
                             ExecutionBudget* budget) {
  for (size_t b = begin; b < end; b += grain) {
    if (budget != nullptr && budget->exhausted()) {
      return budget->Check("parallel_for");
    }
    STRUDEL_RETURN_IF_ERROR(fn(b, std::min(b + grain, end)));
  }
  return Status::OK();
}

Status ThreadPool::RunChunks(Job& job) {
  // No-op on the dispatching thread (its own span stack is already the
  // parent); pool workers start with an empty stack and inherit.
  trace::ScopedInheritedPath inherited(job.trace_parent);
  const bool was_inside = t_inside_parallel_region;
  t_inside_parallel_region = true;
  for (;;) {
    if (job.stop.load(std::memory_order_acquire)) break;
    if (job.budget != nullptr && job.budget->exhausted()) {
      job.stop.store(true, std::memory_order_release);
      break;
    }
    const size_t b = job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (b >= job.end) break;
    Status status = (*job.fn)(b, std::min(b + job.grain, job.end));
    if (!status.ok()) {
      {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (job.first_error.ok()) job.first_error = std::move(status);
      }
      job.stop.store(true, std::memory_order_release);
      break;
    }
  }
  t_inside_parallel_region = was_inside;
  return Status::OK();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return shutdown_ ||
             (job_ != nullptr && generation_ != seen_generation);
    });
    if (shutdown_) return;
    seen_generation = generation_;
    Job* job = job_;
    if (job->slots <= 0) continue;  // loop is capped below the pool size
    --job->slots;
    ++job->active;
    lock.unlock();
    RunChunks(*job);
    lock.lock();
    if (--job->active == 0) done_cv_.notify_all();
  }
}

Status ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                               const ChunkFunction& fn,
                               ExecutionBudget* budget, int max_threads) {
  if (begin >= end) return Status::OK();
  grain = std::max<size_t>(grain, 1);

  int threads = max_threads <= 0 ? num_threads()
                                 : std::min(max_threads, num_threads());
  // Never spin up more workers than there are chunks.
  const size_t chunks = (end - begin + grain - 1) / grain;
  threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), chunks));

  if (threads <= 1 || t_inside_parallel_region) {
    return SerialFor(begin, end, grain, fn, budget);
  }

  Job job;
  job.next.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  job.budget = budget;
  if (trace::IsEnabled()) job.trace_parent = trace::CurrentPath();

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_ != nullptr) {
      // Another thread's loop owns the pool; do not queue behind it
      // (its workers could in turn be waiting on resources we hold).
      lock.unlock();
      return SerialFor(begin, end, grain, fn, budget);
    }
    job.slots = threads - 1;  // the calling thread takes one share
    job_ = &job;
    ++generation_;
  }
  wake_cv_.notify_all();

  RunChunks(job);

  {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // no worker may join from here on
    done_cv_.wait(lock, [&] { return job.active == 0; });
  }

  {
    std::lock_guard<std::mutex> lock(job.error_mu);
    if (!job.first_error.ok()) return std::move(job.first_error);
  }
  if (budget != nullptr && budget->exhausted()) {
    return budget->Check("parallel_for");
  }
  return Status::OK();
}

Status ParallelFor(int num_threads, size_t begin, size_t end, size_t grain,
                   const ChunkFunction& fn, ExecutionBudget* budget) {
  const int resolved = ThreadPool::ResolveThreadCount(num_threads);
  return ThreadPool::Shared().ParallelFor(begin, end, grain, fn, budget,
                                          resolved);
}

}  // namespace strudel
