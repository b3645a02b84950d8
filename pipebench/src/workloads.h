// Entry points of the workload runner and of the traced run's serve
// probe.

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstddef>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "strudel/strudel_cell.h"

namespace pipebench {

/// Runs one workload (portal_batch, mendeley_large or keyword_rows)
/// through the library entry points behind `strudel batch` and
/// `strudel classify`, in this process.
RunResult RunLibraryWorkload(const RunConfig& config);

/// Idle serve probe for the traced run: spawns the daemon and sends
/// `probe` (indices into `inputs`) one at a time over one connection,
/// adding serve.overhead_ms (round trip minus the in-process library time
/// of the same payload), serve.queue_depth_mean, serve.worker_cpu_share
/// and serve.shed. `model` must be set up like the daemon's (1 thread).
void AddServeProbeMetrics(const RunConfig& config,
                          const std::vector<LabeledInput>& inputs,
                          const std::vector<size_t>& probe,
                          const strudel::StrudelCell& model,
                          RunResult& result);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
