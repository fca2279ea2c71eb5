// Per-layer replays of the traced run: each feeds a workload's own
// captured inputs through one layer's public functions and times it, apart
// from the timed run.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scheduler/request.h"

namespace perfbench {

/// Builds a fresh 100k-row server (timed: `table_build_ms`) and executes
/// `dispatched` through ExecuteBatch in batches of `batch_size`;
/// `ns_per_stmt` is the mean cost per statement.
struct ExecuteReplay {
  double table_build_ms = 0;
  double ns_per_stmt = 0;
};
ExecuteReplay ReplayExecute(const declsched::scheduler::RequestBatch& dispatched,
                            int64_t batch_size);

/// Mean ns per request of HttpRequestParser over captured request bytes.
double ReplayHttpParse(const std::vector<std::string>& requests);
/// Mean ns per body of JsonValue::Parse over captured submit bodies.
double ReplayJsonParse(const std::vector<std::string>& bodies);
/// Mean ns per frame of FrameParser + DecodeSubmitBody over captured
/// SUBMIT frames.
double ReplayWireDecode(const std::vector<std::string>& frames);

/// Mean (`_sum` / `_count`) of a histogram family in a Prometheus text
/// exposition, summed over its label sets; 0 when absent.
double PrometheusMean(const std::string& text, const std::string& family);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
